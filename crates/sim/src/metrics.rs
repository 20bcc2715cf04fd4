//! The paper's five evaluation metrics (Sec. IV-A).
//!
//! * **proximity** — mean distance between a node and its `k` closest
//!   topology neighbors (lower is better; T-Man's own metric);
//! * **homogeneity** — mean distance between each *initial* data point and
//!   the nearest node hosting it as a guest (or the nearest node overall
//!   if the point was lost); lower is better;
//! * **reference homogeneity `H`** — the ideal-distribution bound
//!   `H = 1/2 · sqrt(A/|N|)` used to define the **reshaping time**;
//! * **data points per node** — memory overhead (guests + ghosts);
//! * **message cost** — see [`polystyrene_protocol::cost`].
//!
//! Homogeneity, `H`, survival, points per node and cost per node are the
//! shared [`RoundObservation`], measured by the one
//! [`polystyrene_protocol::observe::Census`]; [`RoundMetrics`] adds what
//! only the cycle engine reports.

use polystyrene_protocol::observe::RoundObservation;
use std::borrow::Borrow;
use std::ops::Deref;

pub use polystyrene_protocol::observe::reference_homogeneity;

/// All per-round observables the experiment harness records: the shared
/// observation (read through `Deref`) plus the engine's own.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundMetrics {
    /// The substrate-independent record. `ticks` is the round number and
    /// `cost_units` the message cost per node this round (paper units);
    /// exchanges are atomic, so `parked_points` is zero.
    pub observation: RoundObservation,
    /// Mean distance to the k closest topology neighbors.
    pub proximity: f64,
    /// T-Man's share of this round's traffic, in `[0, 1]`.
    pub tman_cost_share: f64,
}

impl Deref for RoundMetrics {
    type Target = RoundObservation;

    fn deref(&self) -> &RoundObservation {
        &self.observation
    }
}

impl Borrow<RoundObservation> for RoundMetrics {
    fn borrow(&self) -> &RoundObservation {
        &self.observation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(round: u32, homogeneity: f64, h: f64) -> RoundMetrics {
        RoundMetrics {
            observation: RoundObservation {
                round,
                homogeneity,
                reference_homogeneity: h,
                ..RoundObservation::default()
            },
            proximity: 0.0,
            tman_cost_share: 0.0,
        }
    }

    #[test]
    fn reshaping_time_ignores_the_failure_round_sample() {
        use polystyrene_protocol::observe::reshaping_time;
        // An engine history read through `Borrow`: round 2's sample
        // predates the crash; even though it is below the reference it
        // must not count.
        let series = vec![m(1, 0.1, 0.71), m(2, 0.1, 0.71), m(3, 0.2, 0.71)];
        assert_eq!(reshaping_time(&series, 2), Some(1));
        assert_eq!(reshaping_time(&series[..2], 2), None);
    }
}
