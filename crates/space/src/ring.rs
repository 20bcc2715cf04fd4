//! A 1-D modular ring — the simplest modular space, matching the ring
//! overlays (Pastry, Chord) the paper repeatedly cites as target shapes
//! ("e.g. a torus, ring, or hypercube", abstract).

use crate::point::MetricSpace;

/// A circle of the given circumference: `R / (circumference·Z)` with the
/// induced metric. Points are plain `f64` curvilinear abscissae.
///
/// # Example
///
/// ```
/// use polystyrene_space::prelude::*;
///
/// let ring = Ring::new(100.0);
/// assert_eq!(ring.distance(&1.0, &99.0), 2.0); // wraps around
/// assert_eq!(ring.distance(&10.0, &30.0), 20.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ring {
    circumference: f64,
}

impl Ring {
    /// Creates a ring of the given circumference.
    ///
    /// # Panics
    ///
    /// Panics if `circumference` is not strictly positive and finite.
    pub fn new(circumference: f64) -> Self {
        assert!(
            circumference > 0.0 && circumference.is_finite(),
            "ring circumference must be positive and finite, got {circumference}"
        );
        Self { circumference }
    }

    /// The circumference of the ring.
    pub fn circumference(&self) -> f64 {
        self.circumference
    }

    /// Maps an abscissa into `[0, circumference)`.
    pub fn normalize(&self, p: f64) -> f64 {
        p.rem_euclid(self.circumference)
    }

    /// The maximum possible distance (half the circumference).
    pub fn max_distance(&self) -> f64 {
        self.circumference / 2.0
    }
}

impl MetricSpace for Ring {
    type Point = f64;

    fn distance(&self, a: &f64, b: &f64) -> f64 {
        // `rem_euclid` is an `fmod` library call. For |a − b| < c fmod's
        // quotient is zero and fmod is exact, so the remainder is the
        // difference itself and `rem_euclid` reduces to the conditional
        // add below; the call is only made out of range (NaN and
        // infinities included). The add stays a branch, unlike
        // `Torus2`'s masked one: this result is returned as is, not
        // squared, so a −0.0 difference must stay −0.0.
        let c = self.circumference;
        let diff = a - b;
        let d = if diff.abs() < c {
            if diff < 0.0 {
                diff + c
            } else {
                diff
            }
        } else {
            diff.rem_euclid(c)
        };
        d.min(c - d)
    }

    fn grid_spec(&self, target_cells: usize) -> Option<crate::point::GridSpec> {
        let nx = target_cells.max(1);
        Some(crate::point::GridSpec {
            nx,
            ny: 1,
            cell_w: self.circumference / nx as f64,
            cell_h: 0.0,
            wrap_x: true,
            wrap_y: false,
        })
    }

    fn grid_cell(&self, p: &f64, spec: &crate::point::GridSpec) -> Option<(usize, usize)> {
        let cx = ((self.normalize(*p) / spec.cell_w) as usize).min(spec.nx - 1);
        Some((cx, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wraps() {
        let r = Ring::new(100.0);
        assert_eq!(r.distance(&1.0, &99.0), 2.0);
        assert_eq!(r.distance(&0.0, &50.0), 50.0);
        assert_eq!(r.distance(&0.0, &51.0), 49.0);
    }

    #[test]
    fn normalize() {
        let r = Ring::new(10.0);
        assert_eq!(r.normalize(12.5), 2.5);
        assert_eq!(r.normalize(-1.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "circumference must be positive")]
    fn rejects_nonpositive_circumference() {
        let _ = Ring::new(0.0);
    }

    /// `Ring::distance` as it stood before the in-range fast path,
    /// verbatim.
    fn distance_reference(r: &Ring, a: f64, b: f64) -> f64 {
        let d = (a - b).rem_euclid(r.circumference);
        d.min(r.circumference - d)
    }

    fn assert_matches_reference(r: &Ring, a: f64, b: f64) {
        let (new, old) = (r.distance(&a, &b), distance_reference(r, a, b));
        assert!(
            new.to_bits() == old.to_bits() || (new.is_nan() && old.is_nan()),
            "distance({a:e}, {b:e}) on {r:?}: {new:e} vs reference {old:e}"
        );
    }

    #[test]
    fn fast_path_matches_reference_on_special_abscissae() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -1e-300,
            1e-17,
            -1e-17,
            49.99999999999999,
            50.0,
            50.00000000000001,
            99.0,
            100.0,
            -100.0,
            100.00000000000001,
            250.5,
            -1e18,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for r in [Ring::new(100.0), Ring::new(0.3)] {
            for &a in &specials {
                for &b in &specials {
                    assert_matches_reference(&r, a, b);
                }
            }
        }
    }

    /// Abscissae on a ring of circumference 100: anywhere within two and
    /// a half turns either way (out of range included), or within three
    /// ulps of the seam (100 ≡ 0), up to two whole turns away.
    fn abscissa() -> impl Strategy<Value = f64> {
        (0u8..2, -250.0..250.0f64, -3i64..4, -2i32..3).prop_map(|(kind, x, ulps, turns)| {
            if kind == 0 {
                x
            } else {
                f64::from_bits(100f64.to_bits().wrapping_add_signed(ulps))
                    + 100.0 * f64::from(turns)
            }
        })
    }

    proptest! {
        #[test]
        fn symmetry(a in abscissa(), b in abscissa()) {
            let r = Ring::new(100.0);
            prop_assert!((r.distance(&a, &b) - r.distance(&b, &a)).abs() < 1e-9);
        }

        /// T-Man's pruned reads (`polystyrene_topology::rank`) stop on
        /// this inequality, so it is what their exactness rests on.
        #[test]
        fn triangle_inequality(a in abscissa(), b in abscissa(), c in abscissa()) {
            let r = Ring::new(100.0);
            prop_assert!(r.distance(&a, &c) <= r.distance(&a, &b) + r.distance(&b, &c) + 1e-9);
        }

        #[test]
        fn fast_path_matches_reference(a in -400.0..400.0f64, b in -400.0..400.0f64, c in 0.001..500.0f64) {
            assert_matches_reference(&Ring::new(c), a, b);
            // In range by construction, both orders.
            let (p, q) = (a.rem_euclid(c), b.rem_euclid(c));
            assert_matches_reference(&Ring::new(c), p, q);
            assert_matches_reference(&Ring::new(c), q, p);
        }

        #[test]
        fn metric_axioms(a in 0.0..100.0f64, b in 0.0..100.0f64, c in 0.0..100.0f64) {
            let r = Ring::new(100.0);
            prop_assert!(r.distance(&a, &a).abs() < 1e-12);
            prop_assert!((r.distance(&a, &b) - r.distance(&b, &a)).abs() < 1e-9);
            prop_assert!(r.distance(&a, &c) <= r.distance(&a, &b) + r.distance(&b, &c) + 1e-9);
            prop_assert!(r.distance(&a, &b) <= r.max_distance() + 1e-12);
        }
    }
}
