//! The query workload of the traffic plane.
//!
//! [`TrafficLoad`] turns four user-facing knobs — requests per round, a
//! key universe, a key distribution, a read fraction — into the
//! per-round key batches the [`crate::Substrate::offer_traffic`] seam
//! consumes, on every backend identically. Its entropy is its own: the
//! generator draws from a dedicated stream (seeded off the experiment
//! seed with the shared [`TRAFFIC_SEED_TAG`]), so the *same* request
//! sequence hits the cycle engine, the event kernel and the live
//! clusters, and switching the load on cannot perturb a substrate's
//! protocol entropy. Keys are positions on the torus; [`key_universe`]
//! hashes named keys onto it, so a lookup for `key:7` is a query for the
//! node whose published position is closest to where `key:7` hashes.

use polystyrene_protocol::TRAFFIC_SEED_TAG;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::str::FromStr;

/// FNV-1a hash of a key with a splitmix64 finalizer (plain FNV has weak
/// high-bit avalanche on short keys, which would cluster key positions).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // splitmix64 finalizer for full avalanche.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Maps a key to a position on a `width × height` rectangle (the torus
/// fundamental domain), uniformly by hash.
fn key_position(key: &str, width: f64, height: f64) -> [f64; 2] {
    let h = fnv1a(key);
    let x = (h >> 32) as f64 / u32::MAX as f64 * width;
    let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64 * height;
    [x.min(width), y.min(height)]
}

/// The hashed key universe of a `cols × rows` unit-step torus: key `i`
/// is `key:{i}`, placed where its name hashes. Every traffic figure and
/// example draws its workload from this one addressing scheme.
pub fn key_universe(count: usize, cols: usize, rows: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| key_position(&format!("key:{i}"), cols as f64, rows as f64))
        .collect()
}

/// How a workload picks keys from its universe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian popularity with exponent `s > 0`: the `i`-th key (by its
    /// position in the universe) is drawn with weight `1 / i^s` — the
    /// classic skewed-popularity model for cache and KV workloads. Drawn
    /// via a precomputed CDF table, so a draw costs one uniform sample
    /// and one binary search, no allocation.
    Zipf(f64),
}

impl FromStr for TrafficDist {
    type Err = String;

    /// Parses `uniform` or `zipf:<s>` (e.g. `zipf:1.1`); the exponent
    /// must be a positive finite number.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "uniform" {
            return Ok(TrafficDist::Uniform);
        }
        if let Some(exp) = s.strip_prefix("zipf:") {
            let exponent: f64 = exp
                .parse()
                .map_err(|_| format!("zipf exponent {exp:?} is not a number"))?;
            if !(exponent.is_finite() && exponent > 0.0) {
                return Err(format!(
                    "zipf exponent must be a positive finite number, got {exponent}"
                ));
            }
            return Ok(TrafficDist::Zipf(exponent));
        }
        Err(format!(
            "unknown traffic distribution {s:?} (expected \"uniform\" or \"zipf:<s>\")"
        ))
    }
}

impl std::fmt::Display for TrafficDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficDist::Uniform => write!(f, "uniform"),
            TrafficDist::Zipf(s) => write!(f, "zipf:{s}"),
        }
    }
}

/// A seeded application workload: `rate` key lookups per round, keys
/// drawn from a fixed universe under a [`TrafficDist`], split into
/// reads and writes by `read_fraction` (both resolve through the same
/// greedy query plane; the split is recorded for workload accounting).
#[derive(Clone, Debug)]
pub struct TrafficLoad<P> {
    keys: Vec<P>,
    rate: usize,
    read_fraction: f64,
    ttl: u32,
    rng: StdRng,
    batch: Vec<P>,
    /// Cumulative key-popularity table for the zipfian draw; empty for
    /// the uniform distribution (which keeps the original
    /// one-`random_range`-per-draw discipline, so existing seeds
    /// reproduce the exact same request sequence).
    cdf: Vec<f64>,
    reads: u64,
    writes: u64,
}

impl<P: Clone> TrafficLoad<P> {
    /// Builds a uniform workload over `keys`, issuing `rate` requests
    /// per round with the given read/write split and per-query hop
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty while `rate > 0`, if `read_fraction`
    /// is outside `[0, 1]`, or if `ttl` is zero.
    pub fn new(keys: Vec<P>, rate: usize, read_fraction: f64, ttl: u32, seed: u64) -> Self {
        Self::with_dist(keys, rate, read_fraction, ttl, seed, TrafficDist::Uniform)
    }

    /// Builds a workload with an explicit key distribution (see
    /// [`TrafficLoad::new`] for the other knobs and panics).
    ///
    /// # Panics
    ///
    /// Additionally panics on a non-positive or non-finite zipf
    /// exponent.
    pub fn with_dist(
        keys: Vec<P>,
        rate: usize,
        read_fraction: f64,
        ttl: u32,
        seed: u64,
        dist: TrafficDist,
    ) -> Self {
        assert!(
            rate == 0 || !keys.is_empty(),
            "a non-zero request rate needs a non-empty key universe"
        );
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be within [0, 1]"
        );
        assert!(ttl > 0, "query ttl must be at least one hop");
        let cdf = match dist {
            TrafficDist::Uniform => Vec::new(),
            TrafficDist::Zipf(s) => {
                assert!(
                    s.is_finite() && s > 0.0,
                    "zipf exponent must be a positive finite number"
                );
                let mut cdf: Vec<f64> = Vec::with_capacity(keys.len());
                let mut total = 0.0;
                for rank in 1..=keys.len() {
                    total += 1.0 / (rank as f64).powf(s);
                    cdf.push(total);
                }
                for c in &mut cdf {
                    *c /= total;
                }
                cdf
            }
        };
        Self {
            keys,
            rate,
            read_fraction,
            ttl,
            rng: StdRng::seed_from_u64(seed ^ TRAFFIC_SEED_TAG),
            batch: Vec::with_capacity(rate),
            cdf,
            reads: 0,
            writes: 0,
        }
    }

    /// Draws the next round's key batch. The returned slice is valid
    /// until the next call; the backing buffer is reused.
    pub fn next_round(&mut self) -> &[P] {
        self.batch.clear();
        for _ in 0..self.rate {
            let idx = if self.cdf.is_empty() {
                self.rng.random_range(0..self.keys.len())
            } else {
                let u: f64 = self.rng.random_range(0.0..1.0);
                self.cdf
                    .partition_point(|&c| c <= u)
                    .min(self.keys.len() - 1)
            };
            let key = self.keys[idx].clone();
            if self.rng.random_bool(self.read_fraction) {
                self.reads += 1;
            } else {
                self.writes += 1;
            }
            self.batch.push(key);
        }
        &self.batch
    }

    /// Per-query hop budget.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Requests issued per round.
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Reads issued so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes issued so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_positions_are_stable_and_in_bounds() {
        let a = key_position("alpha", 80.0, 40.0);
        let b = key_position("alpha", 80.0, 40.0);
        assert_eq!(a, b);
        for key in ["a", "b", "hello", "🦀", ""] {
            let p = key_position(key, 80.0, 40.0);
            assert!((0.0..=80.0).contains(&p[0]));
            assert!((0.0..=40.0).contains(&p[1]));
        }
        assert_ne!(key_position("a", 80.0, 40.0), key_position("b", 80.0, 40.0));
        assert_eq!(
            key_universe(3, 80, 40)[2],
            key_position("key:2", 80.0, 40.0)
        );
    }

    #[test]
    fn batches_are_seed_reproducible_and_sized() {
        let keys: Vec<[f64; 2]> = (0..8).map(|i| [f64::from(i), 0.0]).collect();
        let mut a = TrafficLoad::new(keys.clone(), 5, 0.8, 6, 42);
        let mut b = TrafficLoad::new(keys, 5, 0.8, 6, 42);
        for _ in 0..4 {
            assert_eq!(a.next_round(), b.next_round());
            assert_eq!(a.next_round().len(), 5);
            b.next_round();
        }
        assert_eq!(a.reads() + a.writes(), 5 * 8);
    }

    #[test]
    fn read_fraction_extremes_split_cleanly() {
        let keys = vec![[0.0, 0.0]];
        let mut all_reads = TrafficLoad::new(keys.clone(), 10, 1.0, 4, 1);
        all_reads.next_round();
        assert_eq!(all_reads.reads(), 10);
        assert_eq!(all_reads.writes(), 0);
        let mut all_writes = TrafficLoad::new(keys, 10, 0.0, 4, 1);
        all_writes.next_round();
        assert_eq!(all_writes.writes(), 10);
    }

    #[test]
    fn zero_rate_allows_empty_universe() {
        let mut idle: TrafficLoad<[f64; 2]> = TrafficLoad::new(Vec::new(), 0, 0.5, 4, 1);
        assert!(idle.next_round().is_empty());
    }

    #[test]
    fn zipf_skews_toward_head_keys_and_reproduces() {
        let keys: Vec<[f64; 2]> = (0..64).map(|i| [f64::from(i), 0.0]).collect();
        let dist = TrafficDist::Zipf(1.2);
        let mut a = TrafficLoad::with_dist(keys.clone(), 200, 1.0, 6, 7, dist);
        let mut b = TrafficLoad::with_dist(keys.clone(), 200, 1.0, 6, 7, dist);
        let batch_a: Vec<_> = a.next_round().to_vec();
        assert_eq!(batch_a, b.next_round());
        // The head key must dominate any mid-universe key by a wide
        // margin — the signature of the zipf CDF actually being used.
        let head = batch_a.iter().filter(|k| k[0] == 0.0).count();
        let mid = batch_a.iter().filter(|k| k[0] == 32.0).count();
        assert!(
            head >= 20 && head > 4 * mid,
            "zipf head {head} vs mid {mid}"
        );
        // Every drawn key is from the universe (the CDF clamp holds).
        assert!(batch_a.iter().all(|k| k[0] >= 0.0 && k[0] < 64.0));
    }

    #[test]
    fn dist_parsing_accepts_uniform_and_zipf() {
        assert_eq!("uniform".parse::<TrafficDist>(), Ok(TrafficDist::Uniform));
        assert_eq!(
            "zipf:1.5".parse::<TrafficDist>(),
            Ok(TrafficDist::Zipf(1.5))
        );
        assert_eq!(TrafficDist::Zipf(1.5).to_string(), "zipf:1.5");
        assert!("zipf:0".parse::<TrafficDist>().is_err());
        assert!("zipf:-1".parse::<TrafficDist>().is_err());
        assert!("zipf:nan".parse::<TrafficDist>().is_err());
        assert!("zipf".parse::<TrafficDist>().is_err());
        assert!("pareto".parse::<TrafficDist>().is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty key universe")]
    fn rate_without_keys_rejected() {
        let _ = TrafficLoad::<[f64; 2]>::new(Vec::new(), 1, 0.5, 4, 1);
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn out_of_range_read_fraction_rejected() {
        let _ = TrafficLoad::new(vec![[0.0, 0.0]], 1, 1.5, 4, 1);
    }

    #[test]
    #[should_panic(expected = "query ttl")]
    fn zero_ttl_rejected() {
        let _ = TrafficLoad::new(vec![[0.0, 0.0]], 1, 0.5, 0, 1);
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn bad_zipf_exponent_rejected() {
        let _ = TrafficLoad::with_dist(vec![[0.0, 0.0]], 1, 0.5, 4, 1, TrafficDist::Zipf(0.0));
    }
}
