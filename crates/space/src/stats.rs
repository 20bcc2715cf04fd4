//! Summary statistics for experiment reporting.
//!
//! Every quantitative claim in the paper is "averaged over 25 experiments,
//! and when mentioned, intervals of confidence are computed at a 95%
//! confidence level" (Sec. IV-B). This module provides exactly those
//! estimators: sample means, standard deviations and 95 % confidence
//! half-widths.

/// Arithmetic mean; `NaN` for an empty slice is avoided by returning 0.0.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation (Bessel's correction).
/// Returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// A mean together with the half-width of its 95 % confidence interval,
/// i.e. the `±` column of the paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval around the mean.
    pub half_width: f64,
    /// Number of samples the estimate is built from.
    pub n: usize,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` falls inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low() && value <= self.high()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.half_width)
    }
}

/// Two-sided 97.5 % Student-t quantile for `df` degrees of freedom.
///
/// Table-driven for small `df` (the regime of 25-run experiments), falling
/// back to the normal quantile 1.96 for large `df`.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else if df <= 60 {
        2.000
    } else {
        1.96
    }
}

/// 95 % confidence interval of the mean of `xs` (Student-t).
///
/// With fewer than two samples the half-width is reported as 0, matching
/// the paper's convention of printing `± 0.000` for deterministic outcomes.
///
/// # Example
///
/// ```
/// use polystyrene_space::stats::ci95;
///
/// let ci = ci95(&[5.0, 5.0, 5.0, 5.0]);
/// assert_eq!(ci.mean, 5.0);
/// assert_eq!(ci.half_width, 0.0);
/// ```
pub fn ci95(xs: &[f64]) -> ConfidenceInterval {
    let n = xs.len();
    if n < 2 {
        return ConfidenceInterval {
            mean: mean(xs),
            half_width: 0.0,
            n,
        };
    }
    let s = std_dev(xs);
    ConfidenceInterval {
        mean: mean(xs),
        half_width: t_975(n - 1) * s / (n as f64).sqrt(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        assert_eq!(std_dev(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn std_dev_known_value() {
        // Sample std-dev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ci_of_single_sample_has_zero_width() {
        let ci = ci95(&[42.0]);
        assert_eq!(ci.mean, 42.0);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.n, 1);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let few: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let many: Vec<f64> = (0..100).map(|i| (i % 5) as f64).collect();
        assert!(ci95(&many).half_width < ci95(&few).half_width);
    }

    #[test]
    fn ci_contains_and_bounds() {
        let ci = ci95(&[1.0, 2.0, 3.0]);
        assert!(ci.contains(ci.mean));
        assert!(ci.contains(ci.low()));
        assert!(ci.contains(ci.high()));
        assert!(!ci.contains(ci.high() + 1.0));
        assert!((ci.high() - ci.low() - 2.0 * ci.half_width).abs() < 1e-12);
    }

    #[test]
    fn ci_display_format() {
        let ci = ci95(&[5.0, 5.0]);
        assert_eq!(format!("{ci}"), "5.000 ± 0.000");
    }

    #[test]
    fn t_table_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for df in 1..=100 {
            let t = t_975(df);
            assert!(t <= prev, "t quantile must decrease with df");
            prev = t;
        }
        assert_eq!(t_975(1000), 1.96);
    }

    proptest! {
        #[test]
        fn ci_always_contains_the_mean(xs in proptest::collection::vec(-1e3..1e3f64, 1..40)) {
            let ci = ci95(&xs);
            prop_assert!(ci.contains(ci.mean));
            prop_assert!(ci.half_width >= 0.0);
        }

        #[test]
        fn mean_is_within_min_max(xs in proptest::collection::vec(-1e3..1e3f64, 1..40)) {
            let m = mean(&xs);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
