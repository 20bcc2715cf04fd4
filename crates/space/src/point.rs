//! The [`MetricSpace`] abstraction.
//!
//! Polystyrene's system model (paper Sec. III-A) places a single constraint
//! on the data space: a distance must be computable between any two data
//! points. Everything in this workspace — T-Man ranking, medoid projection,
//! diameter splits, homogeneity metrics — is generic over this trait, which
//! is what lets the same protocol organize a torus of 2-D coordinates or a
//! collection of user profiles (item sets).

/// A metric space over a point type `Self::Point`.
///
/// The space object carries the parameters of the space (e.g. the extents of
/// a torus), so points themselves stay plain data (`[f64; 2]`, `f64`,
/// bit sets, …) and can be exchanged between nodes cheaply.
///
/// Implementations must satisfy the metric axioms for the protocol's
/// convergence arguments to hold:
///
/// * `d(a, a) == 0`,
/// * symmetry: `d(a, b) == d(b, a)`,
/// * triangle inequality: `d(a, c) <= d(a, b) + d(b, c)`.
///
/// These are checked by property-based tests for every implementation in
/// this crate.
///
/// # Example
///
/// ```
/// use polystyrene_space::prelude::*;
///
/// fn farthest_from<S: MetricSpace>(space: &S, origin: &S::Point, candidates: &[S::Point])
///     -> Option<usize>
/// {
///     (0..candidates.len()).max_by(|&i, &j| {
///         space
///             .distance(origin, &candidates[i])
///             .total_cmp(&space.distance(origin, &candidates[j]))
///     })
/// }
///
/// let space = Euclidean2;
/// let pts = [[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]];
/// assert_eq!(farthest_from(&space, &[0.0, 0.0], &pts), Some(1));
/// ```
pub trait MetricSpace: Clone + Send + Sync + 'static {
    /// The point type of this space.
    type Point: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static;

    /// Distance between two points. Must be non-negative, symmetric and
    /// satisfy the triangle inequality.
    ///
    /// T-Man's reads for a position other than the one its view is
    /// ranked for stop scanning on the triangle inequality (the
    /// topology crate's `rank` module): a space that breaks it by more
    /// than rounding gets wrong neighbours back, not slower ones.
    fn distance(&self, a: &Self::Point, b: &Self::Point) -> f64;

    /// Squared distance, the quantity minimized by the medoid projection
    /// (paper Sec. III-C) and the split objective (Sec. III-F).
    ///
    /// Override when a cheaper computation than `distance(a, b)^2` exists
    /// (e.g. Euclidean spaces can skip the square root).
    ///
    /// An override must keep the two orders compatible:
    /// `distance_sq(a, b) > distance_sq(c, d)` implies
    /// `distance(a, b) >= distance(c, d)`. Both usual pairings do — this
    /// default (a rounded square is monotone in `d`) and
    /// `distance = distance_sq.sqrt()` (a rounded root is monotone in its
    /// argument) — and greedy forwarding relies on it to compare squares
    /// before paying for a root.
    fn distance_sq(&self, a: &Self::Point, b: &Self::Point) -> f64 {
        let d = self.distance(a, b);
        d * d
    }

    /// Optional spatial-bucketing support: a uniform cell decomposition
    /// with roughly `target_cells` cells, or `None` if this space has no
    /// usable coordinates (set spaces) or no finite extent (unbounded
    /// Euclidean space).
    ///
    /// Spaces that return `Some` here unlock grid-accelerated
    /// nearest-neighbor candidate indexes (the `GridIndex` of the
    /// topology crate) in place of exhaustive `O(n)` scans. The default
    /// is `None`: implementing this hook is purely an optimization and
    /// never changes protocol behavior.
    fn grid_spec(&self, target_cells: usize) -> Option<GridSpec> {
        let _ = target_cells;
        None
    }

    /// The cell of `p` under `spec`. Must return `Some((cx, cy))` with
    /// `cx < spec.nx` and `cy < spec.ny` whenever [`MetricSpace::grid_spec`]
    /// returned `spec`; the default (for spaces without grid support)
    /// returns `None`.
    fn grid_cell(&self, p: &Self::Point, spec: &GridSpec) -> Option<(usize, usize)> {
        let _ = (p, spec);
        None
    }
}

/// A uniform cell decomposition of a (1-D or 2-D) coordinate space, as
/// produced by [`MetricSpace::grid_spec`].
///
/// One-dimensional spaces use `ny == 1` with `wrap_y == false`. Cell
/// extents are in the space's own distance units, which is what lets
/// index queries lower-bound the distance to any cell at a given ring
/// radius: a point whose cell is `d ≥ 1` cells away along an axis is at
/// least `(d - 1) · cell_extent` away in space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec {
    /// Number of cells along the x axis (`≥ 1`).
    pub nx: usize,
    /// Number of cells along the y axis (`1` for 1-D spaces).
    pub ny: usize,
    /// Cell extent along the x axis.
    pub cell_w: f64,
    /// Cell extent along the y axis (ignored when `ny == 1`).
    pub cell_h: f64,
    /// Whether the x axis wraps around (modular spaces).
    pub wrap_x: bool,
    /// Whether the y axis wraps around.
    pub wrap_y: bool,
}

impl GridSpec {
    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the decomposition is degenerate (no cells).
    pub fn is_empty(&self) -> bool {
        self.nx == 0 || self.ny == 0
    }

    /// The smallest per-axis cell extent, counting only axes that are
    /// actually subdivided — the unit of the ring-expansion lower bound.
    /// `0.0` for a single-cell grid (queries then scan everything, which
    /// is still correct).
    pub fn min_cell_extent(&self) -> f64 {
        match (self.nx > 1, self.ny > 1) {
            (true, true) => self.cell_w.min(self.cell_h),
            (true, false) => self.cell_w,
            (false, true) => self.cell_h,
            (false, false) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial discrete metric space used to exercise the default method.
    #[derive(Clone)]
    struct Discrete;

    impl MetricSpace for Discrete {
        type Point = u32;
        fn distance(&self, a: &u32, b: &u32) -> f64 {
            if a == b {
                0.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn default_distance_sq_squares_distance() {
        let s = Discrete;
        assert_eq!(s.distance_sq(&1, &1), 0.0);
        assert_eq!(s.distance_sq(&1, &2), 1.0);
    }

    #[test]
    fn trait_is_object_usable_via_generics() {
        fn total<S: MetricSpace>(s: &S, pts: &[S::Point]) -> f64 {
            let mut acc = 0.0;
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    acc += s.distance(&pts[i], &pts[j]);
                }
            }
            acc
        }
        assert_eq!(total(&Discrete, &[1, 2, 3]), 3.0);
    }
}
