//! Target-shape generators.
//!
//! "The original positions of all nodes in the system define the target
//! shape that the system should maintain" (paper Sec. III-A). These
//! generators produce those original positions: the 80×40 torus grid of the
//! paper's evaluation, the parallel offset grid used for the re-injection
//! phase (Sec. IV-A, Phase 3), and a few other classic overlay shapes.

/// Regular grid of `cols × rows` points with the given `step`, starting at
/// the origin — the paper's torus shape ("3200 nodes placed on a regular
/// 80 × 40 grid … distance between two neighboring nodes on the grid is set
/// to 1", Sec. IV-A). Row-major order.
///
/// # Example
///
/// ```
/// use polystyrene_space::shapes;
///
/// let grid = shapes::torus_grid(80, 40, 1.0);
/// assert_eq!(grid.len(), 3200);
/// assert_eq!(grid[0], [0.0, 0.0]);
/// assert_eq!(grid[1], [1.0, 0.0]);
/// assert_eq!(grid[80], [0.0, 1.0]);
/// ```
pub fn torus_grid(cols: usize, rows: usize, step: f64) -> Vec<[f64; 2]> {
    let mut pts = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            pts.push([c as f64 * step, r as f64 * step]);
        }
    }
    pts
}

/// The parallel grid used for Phase 3 re-injection: same lattice as
/// [`torus_grid`] but offset by half a step on both axes, so fresh nodes
/// sit "on a grid parallel to the original one" (Sec. IV-A).
pub fn torus_grid_offset(cols: usize, rows: usize, step: f64) -> Vec<[f64; 2]> {
    let half = step / 2.0;
    torus_grid(cols, rows, step)
        .into_iter()
        .map(|[x, y]| [x + half, y + half])
        .collect()
}

/// `n` points evenly spaced on a ring of the given circumference
/// (1-D modular abscissae for [`crate::ring::Ring`]).
pub fn ring_points(n: usize, circumference: f64) -> Vec<f64> {
    (0..n)
        .map(|i| i as f64 * circumference / n as f64)
        .collect()
}

/// `n` points evenly spaced on a circle of radius `radius` centered at the
/// origin, embedded in the Euclidean plane.
pub fn circle_points(n: usize, radius: f64) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            [radius * a.cos(), radius * a.sin()]
        })
        .collect()
}

/// `n` points evenly spaced on the segment from `from` to `to` (inclusive
/// endpoints when `n >= 2`).
pub fn line_points(n: usize, from: [f64; 2], to: [f64; 2]) -> Vec<[f64; 2]> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![from];
    }
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            [
                from[0] + t * (to[0] - from[0]),
                from[1] + t * (to[1] - from[1]),
            ]
        })
        .collect()
}

/// Predicate selecting the right half of a `width`-wide torus — the region
/// killed by the paper's catastrophic failure ("all the 1600 nodes located
/// in one half of the torus crash", Sec. IV-A Phase 2).
pub fn in_right_half(width: f64) -> impl Fn(&[f64; 2]) -> bool {
    move |p| p[0] >= width / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_3200_points() {
        let g = torus_grid(80, 40, 1.0);
        assert_eq!(g.len(), 3200);
        assert_eq!(g[0], [0.0, 0.0]);
        assert_eq!(*g.last().unwrap(), [79.0, 39.0]);
    }

    #[test]
    fn grid_is_row_major() {
        let g = torus_grid(3, 2, 2.0);
        assert_eq!(
            g,
            vec![
                [0.0, 0.0],
                [2.0, 0.0],
                [4.0, 0.0],
                [0.0, 2.0],
                [2.0, 2.0],
                [4.0, 2.0]
            ]
        );
    }

    #[test]
    fn offset_grid_interleaves_the_original() {
        let g = torus_grid_offset(2, 2, 1.0);
        assert_eq!(g[0], [0.5, 0.5]);
        assert_eq!(g[3], [1.5, 1.5]);
    }

    #[test]
    fn ring_points_are_evenly_spaced() {
        let pts = ring_points(4, 100.0);
        assert_eq!(pts, vec![0.0, 25.0, 50.0, 75.0]);
    }

    #[test]
    fn circle_points_lie_on_the_circle() {
        for p in circle_points(16, 5.0) {
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!((r - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn line_endpoints_and_degenerate_cases() {
        assert!(line_points(0, [0.0, 0.0], [1.0, 1.0]).is_empty());
        assert_eq!(line_points(1, [2.0, 3.0], [9.0, 9.0]), vec![[2.0, 3.0]]);
        let pts = line_points(3, [0.0, 0.0], [2.0, 4.0]);
        assert_eq!(pts, vec![[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]);
    }

    #[test]
    fn right_half_predicate_splits_the_paper_grid_in_two() {
        let g = torus_grid(80, 40, 1.0);
        let pred = in_right_half(80.0);
        let killed = g.iter().filter(|p| pred(p)).count();
        assert_eq!(killed, 1600);
    }
}
