//! Point-cloud snapshots of the overlay — the raw material of the paper's
//! visual figures (Fig. 1: T-Man losing the torus; Fig. 8: repair; Fig. 9:
//! re-injection).
//!
//! A snapshot captures every alive node's position and its reported
//! topology edges; it can be dumped as CSV for external plotting or
//! rendered as an ASCII density map for terminal inspection.

use crate::engine::Engine;
use polystyrene_space::MetricSpace;

/// A frozen view of the overlay at some round.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Round at which the snapshot was taken.
    pub round: u32,
    /// `(node id, position)` of every alive node.
    pub positions: Vec<(u64, [f64; 2])>,
    /// Topology edges `(from, to)` — each node's k closest neighbors.
    pub edges: Vec<(u64, u64)>,
}

impl Snapshot {
    /// Captures the current state of a 2-D engine, reporting `k` edges per
    /// node (the paper draws k = 4).
    pub fn capture<S>(engine: &Engine<S>, k: usize) -> Self
    where
        S: MetricSpace<Point = [f64; 2]>,
    {
        let positions: Vec<(u64, [f64; 2])> = engine
            .snapshot_positions()
            .into_iter()
            .map(|(id, p)| (id.as_u64(), p))
            .collect();
        let mut edges = Vec::new();
        for &(id, _) in &positions {
            for n in engine.neighbors_of(polystyrene_membership::NodeId::new(id), k) {
                edges.push((id, n.as_u64()));
            }
        }
        Self {
            round: engine.round(),
            positions,
            edges,
        }
    }

    /// Writes the node positions as CSV (`id,x,y`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_positions_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let rows: Vec<Vec<String>> = self
            .positions
            .iter()
            .map(|(id, [x, y])| vec![id.to_string(), format!("{x:.4}"), format!("{y:.4}")])
            .collect();
        crate::report::write_csv(path, &["id", "x", "y"], &rows)
    }

    /// Renders the node density over the rectangle `[0, width) × [0,
    /// height)` as an ASCII map of `cols × rows` character cells — empty
    /// regions show as spaces, so a half-dead torus (Fig. 1c) is instantly
    /// visible in a terminal.
    pub fn render_density(&self, width: f64, height: f64, cols: usize, rows: usize) -> String {
        let mut counts = vec![vec![0usize; cols]; rows];
        for &(_, [x, y]) in &self.positions {
            let cx = ((x / width) * cols as f64).floor() as isize;
            let cy = ((y / height) * rows as f64).floor() as isize;
            if cx >= 0 && cy >= 0 && (cx as usize) < cols && (cy as usize) < rows {
                counts[cy as usize][cx as usize] += 1;
            }
        }
        let palette = [' ', '.', ':', '+', '#', '@'];
        let max = counts
            .iter()
            .flat_map(|r| r.iter())
            .copied()
            .max()
            .unwrap_or(0)
            .max(1);
        let mut out = String::with_capacity((cols + 3) * rows);
        for row in counts.iter().rev() {
            out.push('|');
            for &c in row {
                let idx = if c == 0 {
                    0
                } else {
                    1 + (c * (palette.len() - 2)) / max
                };
                out.push(palette[idx.min(palette.len() - 1)]);
            }
            out.push('|');
            out.push('\n');
        }
        out
    }

    /// Fraction of density cells that are empty — a scalar summary of how
    /// much of the target surface the overlay still covers.
    pub fn empty_cell_fraction(&self, width: f64, height: f64, cols: usize, rows: usize) -> f64 {
        let map = self.render_density(width, height, cols, rows);
        let total = cols * rows;
        let empty = map.chars().filter(|&c| c == ' ').count();
        empty as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use polystyrene_space::prelude::*;
    use polystyrene_space::shapes;

    fn engine() -> Engine<Torus2> {
        let mut cfg = EngineConfig::default();
        cfg.area = 64.0;
        cfg.tman.view_cap = 20;
        cfg.tman.m = 8;
        Engine::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg)
    }

    #[test]
    fn capture_contains_all_alive_nodes() {
        let mut e = engine();
        e.run(3);
        let s = Snapshot::capture(&e, 4);
        assert_eq!(s.positions.len(), 64);
        assert_eq!(s.round, 3);
        assert!(!s.edges.is_empty());
        // All edge endpoints are alive nodes.
        let ids: std::collections::HashSet<u64> = s.positions.iter().map(|&(id, _)| id).collect();
        for &(a, _b) in &s.edges {
            assert!(ids.contains(&a));
        }
    }

    #[test]
    fn density_map_shows_failure_hole() {
        let mut e = engine();
        e.run(8);
        let before = Snapshot::capture(&e, 4);
        let empty_before = before.empty_cell_fraction(16.0, 4.0, 8, 2);
        e.fail_original_region(&shapes::in_right_half(16.0));
        let after = Snapshot::capture(&e, 4);
        let empty_after = after.empty_cell_fraction(16.0, 4.0, 8, 2);
        assert!(
            empty_after > empty_before + 0.3,
            "half the torus should be dark: before={empty_before}, after={empty_after}"
        );
        // And after reshaping, the hole closes again.
        e.run(12);
        let healed = Snapshot::capture(&e, 4);
        let empty_healed = healed.empty_cell_fraction(16.0, 4.0, 8, 2);
        assert!(
            empty_healed < empty_after - 0.2,
            "reshaping should repopulate the hole: after={empty_after}, healed={empty_healed}"
        );
    }

    #[test]
    fn csv_dump_roundtrip() {
        let e = engine();
        let s = Snapshot::capture(&e, 2);
        let dir = std::env::temp_dir().join("polystyrene-snapshot-test");
        let path = dir.join("snap.csv");
        s.write_positions_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("id,x,y\n"));
        assert_eq!(content.lines().count(), 65); // header + 64 nodes
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn density_render_dimensions() {
        let e = engine();
        let s = Snapshot::capture(&e, 2);
        let map = s.render_density(16.0, 4.0, 8, 4);
        assert_eq!(map.lines().count(), 4);
        assert!(map.lines().all(|l| l.len() == 10)); // 8 cells + 2 borders
    }
}
