//! Point-cloud snapshots of the overlay — the raw material of the paper's
//! visual figures (Fig. 1: T-Man losing the torus; Fig. 8: repair; Fig. 9:
//! re-injection).
//!
//! A snapshot captures every alive node's position; it can be dumped as
//! CSV for external plotting or rendered as an ASCII density map for
//! terminal inspection.

use crate::report::csv;
use crate::Output;
use polystyrene_protocol::PaperScenario;
use polystyrene_sim::Engine;
use polystyrene_space::torus::Torus2;
use polystyrene_space::MetricSpace;

/// A frozen view of the overlay at some round.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Round at which the snapshot was taken.
    pub round: u32,
    /// `(node id, position)` of every alive node.
    pub positions: Vec<(u64, [f64; 2])>,
}

impl Snapshot {
    /// Captures the current state of a 2-D engine.
    pub fn capture<S>(engine: &Engine<S>) -> Self
    where
        S: MetricSpace<Point = [f64; 2]>,
    {
        Self {
            round: engine.round(),
            positions: engine
                .snapshot_positions()
                .into_iter()
                .map(|(id, p)| (id.as_u64(), p))
                .collect(),
        }
    }

    /// The node positions as CSV text (`id,x,y`).
    pub fn positions_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .positions
            .iter()
            .map(|(id, [x, y])| vec![id.to_string(), format!("{x:.4}"), format!("{y:.4}")])
            .collect();
        csv(&["id", "x", "y"], &rows)
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
}

/// One panel of Figs. 1, 8 and 9: prints `engine`'s density map over
/// `paper`'s torus under a `--- {title} ---` line and adds its node
/// positions to `out` as `{file}.csv`.
pub fn dump(
    engine: &Engine<Torus2>,
    paper: &PaperScenario,
    title: &str,
    file: &str,
    out: &mut Output,
) {
    let snap = Snapshot::capture(engine);
    let (w, h) = paper.extents();
    println!(
        "--- {title} (round {}, {} alive) ---",
        snap.round,
        snap.positions.len()
    );
    println!(
        "{}",
        snap.render_density(w, h, paper.cols.min(72), paper.rows.min(24))
    );
    out.file(format!("{file}.csv"), snap.positions_csv());
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_protocol::{Substrate, SubstrateConfig};
    use polystyrene_space::shapes;

    /// Fraction of density cells that are empty — how much of the
    /// target surface the overlay no longer covers.
    fn empty_cell_fraction(
        snap: &Snapshot,
        width: f64,
        height: f64,
        cols: usize,
        rows: usize,
    ) -> f64 {
        let map = snap.render_density(width, height, cols, rows);
        let empty = map.chars().filter(|&c| c == ' ').count();
        empty as f64 / (cols * rows) as f64
    }

    fn engine() -> Engine<Torus2> {
        let mut cfg = SubstrateConfig::default();
        cfg.area = 64.0;
        cfg.tman.view_cap = 20;
        cfg.tman.m = 8;
        Engine::new(Torus2::new(16.0, 4.0), shapes::torus_grid(16, 4, 1.0), cfg)
    }

    #[test]
    fn capture_contains_all_alive_nodes() {
        let mut e = engine();
        e.run(3);
        let s = Snapshot::capture(&e);
        assert_eq!(s.positions.len(), 64);
        assert_eq!(s.round, 3);
    }

    #[test]
    fn density_map_shows_failure_hole() {
        let mut e = engine();
        e.run(8);
        let before = Snapshot::capture(&e);
        let empty_before = empty_cell_fraction(&before, 16.0, 4.0, 8, 2);
        e.kill_region(&shapes::in_right_half(16.0));
        let after = Snapshot::capture(&e);
        let empty_after = empty_cell_fraction(&after, 16.0, 4.0, 8, 2);
        assert!(
            empty_after > empty_before + 0.3,
            "half the torus should be dark: before={empty_before}, after={empty_after}"
        );
        // And after reshaping, the hole closes again.
        e.run(12);
        let healed = Snapshot::capture(&e);
        let empty_healed = empty_cell_fraction(&healed, 16.0, 4.0, 8, 2);
        assert!(
            empty_healed < empty_after - 0.2,
            "reshaping should repopulate the hole: after={empty_after}, healed={empty_healed}"
        );
    }

    #[test]
    fn csv_dump_roundtrip() {
        let e = engine();
        let s = Snapshot::capture(&e);
        let content = s.positions_csv();
        assert!(content.starts_with("id,x,y\n"));
        assert_eq!(content.lines().count(), 65); // header + 64 nodes
    }

    #[test]
    fn density_render_dimensions() {
        let e = engine();
        let s = Snapshot::capture(&e);
        let map = s.render_density(16.0, 4.0, 8, 4);
        assert_eq!(map.lines().count(), 4);
        assert!(map.lines().all(|l| l.len() == 10)); // 8 cells + 2 borders
    }
}
