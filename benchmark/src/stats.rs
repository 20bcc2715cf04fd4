//! Order statistics, the percentile rule and the observation fingerprint.

use polystyrene_lab::RoundObservation;

/// The percentiles a tail metric may be reported at, highest first, in
/// per-mille so the ten-beyond rule is exact integer arithmetic.
const TAIL_LADDER_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: u64 = 10;

/// The `q`-quantile (`0..=1`) of an ascending slice, nearest rank — the
/// rule `TrafficStats::from_samples` uses, so tick latencies and host
/// times are ranked the same way. `0.0` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest percentile of the ladder, no higher than `wanted`, that
/// still has at least ten of `n` samples beyond it; `None` when even the
/// lowest rung has fewer.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .filter(|&pm| pm as f64 <= wanted * 10.0)
        .find(|&pm| n as u64 * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// A tail reading: the value, and the percentile it was actually taken
/// at (the metric name says `p95`; with fewer than 200 samples the rule
/// lowers it, and the printed line says so).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The `wanted` percentile of `values`, lowered by the ten-beyond rule;
/// falls back to the median when no rung is supported.
pub fn tail(values: &[f64], wanted: f64) -> Tail {
    let s = sorted(values);
    let percentile = supported_percentile(s.len(), wanted).unwrap_or(50.0);
    Tail {
        value: quantile_sorted(&s, percentile / 100.0),
        percentile,
        samples: s.len(),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the spread the driver judges the benchmark by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (`0.0` for a zero
/// median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a over a byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one observation's bit patterns in — every field the
    /// deterministic substrates promise to reproduce, traffic counters
    /// included.
    pub fn write_observation(&mut self, o: &RoundObservation) {
        self.write_u64(u64::from(o.round));
        self.write_u64(o.alive_nodes as u64);
        self.write_u64(o.homogeneity.to_bits());
        self.write_u64(o.reference_homogeneity.to_bits());
        self.write_u64(o.surviving_points.to_bits());
        self.write_u64(o.points_per_node.to_bits());
        self.write_u64(o.parked_points as u64);
        self.write_u64(o.cost_units.to_bits());
        self.write_u64(o.ticks);
        let t = &o.traffic;
        for v in [t.offered, t.delivered, t.dropped, t.shed] {
            self.write_u64(v);
        }
        for v in [t.mean_hops, t.latency_p50, t.latency_p99] {
            self.write_u64(v.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p95 leaves 5 % beyond it: ten samples need 200.
        assert_eq!(supported_percentile(200, 95.0), Some(95.0));
        assert_eq!(supported_percentile(199, 95.0), Some(90.0));
        assert_eq!(supported_percentile(100, 95.0), Some(90.0));
        assert_eq!(supported_percentile(99, 95.0), Some(75.0));
        assert_eq!(supported_percentile(40, 95.0), Some(75.0));
        assert_eq!(supported_percentile(39, 95.0), None);
        // The wanted percentile caps the rung even with samples to spare.
        assert_eq!(supported_percentile(100_000, 95.0), Some(95.0));
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(10_000, 99.9), Some(99.9));
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 95.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.value, 90.0);
        let few = tail(&[3.0, 1.0, 2.0], 95.0);
        assert_eq!((few.percentile, few.value), (50.0, 2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert!((iqr_share(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_quantiles_of_small_sets() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn fingerprint_is_order_and_bit_sensitive() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.write_u64(1);
        a.write_u64(2);
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a, b);
        let mut c = Fnv::default();
        c.write_u64(0.1f64.to_bits());
        let mut d = Fnv::default();
        d.write_u64((0.1f64 + f64::EPSILON).to_bits());
        assert_ne!(c, d);
    }
}
