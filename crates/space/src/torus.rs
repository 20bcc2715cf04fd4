//! The flat 2-D torus — the modular space used throughout the paper's
//! evaluation (an 80×40 "logical torus" in Sec. IV-A, up to 320×160 in
//! Sec. IV-C).
//!
//! Distances wrap around both axes, which is precisely what makes the
//! centroid ill-defined ("the equation 4 ≡ 2 × x (mod 16) accepts two
//! solutions", paper footnote 2) and motivates the medoid projection.

use crate::point::MetricSpace;

/// A flat torus of extents `width × height`: the quotient space
/// `R^2 / (width·Z × height·Z)` with the induced Euclidean metric.
///
/// Points are plain `[f64; 2]` coordinates. Coordinates outside the
/// fundamental domain `[0, width) × [0, height)` are accepted and handled
/// via [`Torus2::normalize`]; distance computations wrap correctly either
/// way.
///
/// # Example
///
/// ```
/// use polystyrene_space::prelude::*;
///
/// let t = Torus2::new(80.0, 40.0);
/// // Wrap-around on the x axis: 0 and 79 are 1 apart, not 79.
/// assert_eq!(t.distance(&[0.0, 0.0], &[79.0, 0.0]), 1.0);
/// // The antipode realizes the maximum possible distance.
/// assert!((t.distance(&[0.0, 0.0], &[40.0, 20.0]) - t.max_distance()).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Torus2 {
    width: f64,
    height: f64,
}

impl Torus2 {
    /// Creates a torus with the given extents.
    ///
    /// # Panics
    ///
    /// Panics if either extent is not strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "torus width must be positive and finite, got {width}"
        );
        assert!(
            height > 0.0 && height.is_finite(),
            "torus height must be positive and finite, got {height}"
        );
        Self { width, height }
    }

    /// The extent of the torus along the x axis.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The extent of the torus along the y axis.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The area of the torus, used by the reference homogeneity
    /// `H = 1/2 · sqrt(A / |N|)` of paper Sec. IV-A.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Maps a point into the fundamental domain `[0, width) × [0, height)`.
    ///
    /// # Example
    ///
    /// ```
    /// use polystyrene_space::prelude::*;
    ///
    /// let t = Torus2::new(10.0, 10.0);
    /// assert_eq!(t.normalize([12.5, -1.0]), [2.5, 9.0]);
    /// ```
    pub fn normalize(&self, p: [f64; 2]) -> [f64; 2] {
        [p[0].rem_euclid(self.width), p[1].rem_euclid(self.height)]
    }

    /// Length of the shorter way round one axis of circumference `len`,
    /// up to the sign of a zero (which [`MetricSpace::distance_sq`]
    /// squares away).
    ///
    /// This runs twice per distance evaluation of every ranking pass, so
    /// the only branch it keeps is the one that predicts: in range or
    /// not. The value is bit for bit that of the textbook form
    /// `d = (a − b).rem_euclid(len); if d > len / 2 { len − d } else { d }`
    /// (kept as the test oracle below):
    ///
    /// * **Wrap.** `rem_euclid` is `fmod` plus `len` when the remainder
    ///   is negative. For `|a − b| < len` fmod's quotient is zero and
    ///   fmod is exact, so the remainder is `diff` itself; adding `len`
    ///   or `+0.0` by the sign of `diff` is that same conditional add
    ///   without the data-dependent jump (on a shuffled view the sign is
    ///   a coin flip the predictor loses half the time). Out of range —
    ///   NaN and infinities included — the library call still runs.
    /// * **Fold.** `d` is in `[0, len]`. If `d ≥ len / 2` then
    ///   `len − d` is exact (Sterbenz: `d/2 ≤ len ≤ 2d`), so
    ///   `len − d < d` holds exactly when `d > len / 2`. If
    ///   `d < len / 2` the true `len − d` exceeds `len / 2`, which is a
    ///   float, so the rounded difference is still `≥ len / 2 > d`.
    ///   Either way `min(d, len − d)` picks what `d > len / 2` picked,
    ///   and at `d = len / 2` both are the same number. A NaN `d` fails
    ///   the comparison and is returned as is, as before.
    /// * **Zero.** The one observable difference: `diff = −0.0` used to
    ///   come back as `−0.0` and now comes back as `−0.0 + 0.0 = +0.0`.
    ///   The function is private and its only caller multiplies the
    ///   result by itself — `+0.0` for either sign.
    #[inline(always)]
    fn axis_delta(a: f64, b: f64, len: f64) -> f64 {
        let diff = a - b;
        let d = if diff.abs() < len {
            // `len` where diff < 0, `+0.0` elsewhere: all-ones or
            // all-zeros mask over the bits of `len`.
            let wrap = f64::from_bits(len.to_bits() & ((diff < 0.0) as u64).wrapping_neg());
            diff + wrap
        } else {
            diff.rem_euclid(len)
        };
        let folded = len - d;
        // Written as a compare-select rather than `f64::min` so that it
        // is one `minsd` and a NaN `d` passes through untouched.
        if folded < d {
            folded
        } else {
            d
        }
    }

    /// The maximum possible distance between two points of this torus
    /// (half the diagonal of the fundamental domain).
    pub fn max_distance(&self) -> f64 {
        let dx = self.width / 2.0;
        let dy = self.height / 2.0;
        (dx * dx + dy * dy).sqrt()
    }
}

impl MetricSpace for Torus2 {
    type Point = [f64; 2];

    fn distance(&self, a: &Self::Point, b: &Self::Point) -> f64 {
        self.distance_sq(a, b).sqrt()
    }

    fn distance_sq(&self, a: &Self::Point, b: &Self::Point) -> f64 {
        let dx = Self::axis_delta(a[0], b[0], self.width);
        let dy = Self::axis_delta(a[1], b[1], self.height);
        dx * dx + dy * dy
    }

    fn grid_spec(&self, target_cells: usize) -> Option<crate::point::GridSpec> {
        // Split the target cell budget across the axes proportionally to
        // the extents, so cells come out roughly square.
        let target = target_cells.max(1) as f64;
        let nx = ((target * self.width / self.height).sqrt().round() as usize).max(1);
        let ny = ((target * self.height / self.width).sqrt().round() as usize).max(1);
        Some(crate::point::GridSpec {
            nx,
            ny,
            cell_w: self.width / nx as f64,
            cell_h: self.height / ny as f64,
            wrap_x: true,
            wrap_y: true,
        })
    }

    fn grid_cell(&self, p: &Self::Point, spec: &crate::point::GridSpec) -> Option<(usize, usize)> {
        let q = self.normalize(*p);
        let cx = ((q[0] / spec.cell_w) as usize).min(spec.nx - 1);
        let cy = ((q[1] / spec.cell_h) as usize).min(spec.ny - 1);
        Some((cx, cy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wraps_on_both_axes() {
        let t = Torus2::new(80.0, 40.0);
        assert_eq!(t.distance(&[0.0, 0.0], &[79.0, 0.0]), 1.0);
        assert_eq!(t.distance(&[0.0, 0.0], &[0.0, 39.0]), 1.0);
        let d = t.distance(&[1.0, 1.0], &[79.0, 39.0]);
        assert!((d - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn interior_distances_match_euclidean() {
        let t = Torus2::new(100.0, 100.0);
        assert_eq!(t.distance(&[10.0, 10.0], &[13.0, 14.0]), 5.0);
    }

    #[test]
    fn normalize_maps_into_fundamental_domain() {
        let t = Torus2::new(10.0, 5.0);
        assert_eq!(t.normalize([12.5, -1.0]), [2.5, 4.0]);
        assert_eq!(t.normalize([-0.0, 5.0]), [0.0, 0.0]);
    }

    #[test]
    fn max_distance_is_half_diagonal() {
        let t = Torus2::new(80.0, 40.0);
        assert!((t.max_distance() - (40.0f64 * 40.0 + 20.0 * 20.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn area() {
        assert_eq!(Torus2::new(80.0, 40.0).area(), 3200.0);
    }

    #[test]
    #[should_panic(expected = "torus width must be positive")]
    fn zero_width_panics() {
        let _ = Torus2::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "torus height must be positive")]
    fn negative_height_panics() {
        let _ = Torus2::new(1.0, -3.0);
    }

    /// `axis_delta` as it stood before the branch-free rewrite, verbatim.
    fn axis_delta_reference(a: f64, b: f64, len: f64) -> f64 {
        let diff = a - b;
        let d = if -len < diff && diff < len {
            if diff < 0.0 {
                diff + len
            } else {
                diff
            }
        } else {
            diff.rem_euclid(len)
        };
        if d > len / 2.0 {
            len - d
        } else {
            d
        }
    }

    /// `distance_sq` over the reference `axis_delta`, verbatim.
    fn distance_sq_reference(t: &Torus2, a: &[f64; 2], b: &[f64; 2]) -> f64 {
        let dx = axis_delta_reference(a[0], b[0], t.width);
        let dy = axis_delta_reference(a[1], b[1], t.height);
        dx * dx + dy * dy
    }

    /// Same bits, except that any NaN equals any NaN (the language does
    /// not pin NaN payloads across differently shaped expressions).
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Asserts the rewrite against the reference at one coordinate pair:
    /// `axis_delta` up to the sign of a zero, `distance_sq` and
    /// `distance` to the bit.
    fn assert_matches_reference(t: &Torus2, a: [f64; 2], b: [f64; 2]) {
        for (p, q, len) in [(a[0], b[0], t.width), (a[1], b[1], t.height)] {
            let new = Torus2::axis_delta(p, q, len);
            let old = axis_delta_reference(p, q, len);
            assert!(
                same_bits(new + 0.0, old + 0.0),
                "axis_delta({p:e}, {q:e}, {len:e}): {new:e} vs reference {old:e}"
            );
        }
        let new = t.distance_sq(&a, &b);
        let old = distance_sq_reference(t, &a, &b);
        assert!(
            same_bits(new, old),
            "distance_sq({a:?}, {b:?}): {new:e} vs reference {old:e}"
        );
        assert!(same_bits(t.distance(&a, &b), old.sqrt()));
    }

    #[test]
    fn rewrite_matches_reference_on_special_coordinates() {
        let w = 80.0f64;
        // Every pair of these goes through both axes: zeros of both
        // signs, the seam and the half-way fold with their float
        // neighbours, values that round `diff + len` up to `len`,
        // out-of-range multiples, and the non-finite inputs that must
        // take the library path.
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            -1e-300,
            1e-17,
            -1e-17,
            0.5,
            39.99999999999999,
            40.0,
            40.00000000000001,
            w - f64::EPSILON * 64.0,
            79.0,
            w,
            -w,
            w + 1e-9,
            119.5,
            160.0,
            -200.25,
            1e18,
            -1e18,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for t in [Torus2::new(80.0, 40.0), Torus2::new(0.3, 7e5)] {
            for &p in &specials {
                for &q in &specials {
                    assert_matches_reference(&t, [p, q], [q, p]);
                    assert_matches_reference(&t, [p, p], [q, q]);
                }
            }
        }
    }

    #[test]
    fn negative_zero_difference_is_squared_away() {
        // The one place the rewrite's `axis_delta` differs from the
        // reference: −0.0 in, +0.0 out. `distance_sq` cannot tell.
        let t = Torus2::new(80.0, 40.0);
        assert_eq!(
            axis_delta_reference(-0.0, 0.0, 80.0).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            Torus2::axis_delta(-0.0, 0.0, 80.0).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            t.distance_sq(&[-0.0, -0.0], &[0.0, 0.0]).to_bits(),
            0.0f64.to_bits()
        );
    }

    fn tpt() -> impl Strategy<Value = [f64; 2]> {
        [0.0..80.0, 0.0..40.0].prop_map(|[x, y]| [x, y])
    }

    proptest! {
        #[test]
        fn rewrite_matches_reference_in_range(a in tpt(), b in tpt()) {
            assert_matches_reference(&Torus2::new(80.0, 40.0), a, b);
        }

        #[test]
        fn rewrite_matches_reference_out_of_range(
            a in [-400.0..400.0f64, -400.0..400.0f64],
            b in [-400.0..400.0f64, -400.0..400.0f64],
            w in 0.001..500.0f64,
            h in 0.001..500.0f64,
        ) {
            assert_matches_reference(&Torus2::new(w, h), a, b);
        }

        #[test]
        fn rewrite_matches_reference_at_the_seam(x in 0.0..80.0f64, ulps in 0u64..4, k in -2i32..3) {
            // Pairs exactly half a turn (± a few ulps) apart, optionally
            // whole turns further: the fold's decision boundary.
            let t = Torus2::new(80.0, 40.0);
            let half = f64::from_bits((x + 40.0).to_bits() + ulps) + 80.0 * f64::from(k);
            assert_matches_reference(&t, [x, x / 2.0], [half, x / 2.0 + 20.0]);
            assert_matches_reference(&t, [half, x / 2.0 + 20.0], [x, x / 2.0]);
        }

        #[test]
        fn identity(a in tpt()) {
            let t = Torus2::new(80.0, 40.0);
            prop_assert!(t.distance(&a, &a).abs() < 1e-12);
        }

        #[test]
        fn symmetry(a in tpt(), b in tpt()) {
            let t = Torus2::new(80.0, 40.0);
            prop_assert!((t.distance(&a, &b) - t.distance(&b, &a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(a in tpt(), b in tpt(), c in tpt()) {
            let t = Torus2::new(80.0, 40.0);
            prop_assert!(t.distance(&a, &c) <= t.distance(&a, &b) + t.distance(&b, &c) + 1e-9);
        }

        #[test]
        fn bounded_by_max_distance(a in tpt(), b in tpt()) {
            let t = Torus2::new(80.0, 40.0);
            prop_assert!(t.distance(&a, &b) <= t.max_distance() + 1e-9);
        }

        #[test]
        fn torus_never_exceeds_euclidean(a in tpt(), b in tpt()) {
            // Wrapping can only shorten a path, never lengthen it.
            let t = Torus2::new(80.0, 40.0);
            let e = crate::euclidean::Euclidean2;
            prop_assert!(t.distance(&a, &b) <= e.distance(&a, &b) + 1e-9);
        }

        #[test]
        fn invariant_under_translation(a in tpt(), b in tpt(), sx in 0.0..80.0, sy in 0.0..40.0) {
            let t = Torus2::new(80.0, 40.0);
            let shift = |p: [f64; 2]| t.normalize([p[0] + sx, p[1] + sy]);
            let d0 = t.distance(&a, &b);
            let d1 = t.distance(&shift(a), &shift(b));
            prop_assert!((d0 - d1).abs() < 1e-9);
        }

        #[test]
        fn normalize_preserves_distance(a in tpt(), b in tpt(), ka in -3i32..3, kb in -3i32..3) {
            let t = Torus2::new(80.0, 40.0);
            let a2 = [a[0] + 80.0 * ka as f64, a[1] + 40.0 * ka as f64];
            let b2 = [b[0] + 80.0 * kb as f64, b[1] + 40.0 * kb as f64];
            prop_assert!((t.distance(&a2, &b2) - t.distance(&a, &b)).abs() < 1e-6);
        }
    }
}
