//! Per-round observables of the discrete-event simulator.

use polystyrene_protocol::observe::RoundObservation;
use std::borrow::Borrow;
use std::ops::Deref;

pub use polystyrene_protocol::observe::reference_homogeneity;

/// What the kernel measures after every round — the shared observation
/// (read through `Deref`) plus the network-level counters the other
/// substrates cannot produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetRoundMetrics {
    /// The substrate-independent record. `ticks` is the round number,
    /// `parked_points` counts migration-split points parked awaiting
    /// acknowledgment (nonzero exactly while replies/acks are in flight
    /// or lost), and `cost_units` is this round's traffic in the paper's
    /// cost units per alive node — charged at the send boundary with the
    /// same unit prices as the cycle engine (Fig. 7b's y-axis).
    pub observation: RoundObservation,
    /// Messages still queued in the fabric at the end of the round.
    pub in_flight: usize,
    /// Messages handed to the network so far (cumulative).
    pub sent_messages: u64,
    /// Messages the network dropped so far (loss and partitions,
    /// cumulative).
    pub dropped_messages: u64,
    /// Fraction of this round's cost units attributable to T-Man view
    /// exchanges.
    pub tman_cost_share: f64,
}

impl Deref for NetRoundMetrics {
    type Target = RoundObservation;

    fn deref(&self) -> &RoundObservation {
        &self.observation
    }
}

impl Borrow<RoundObservation> for NetRoundMetrics {
    fn borrow(&self) -> &RoundObservation {
        &self.observation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshaping_time_skips_the_failure_sample() {
        use polystyrene_protocol::observe::reshaping_time;
        let m = |round, homogeneity, reference_homogeneity| NetRoundMetrics {
            observation: RoundObservation {
                round,
                homogeneity,
                reference_homogeneity,
                ..RoundObservation::default()
            },
            in_flight: 0,
            sent_messages: 0,
            dropped_messages: 0,
            tman_cost_share: 0.0,
        };
        // A kernel history read through `Borrow`: round 2's sample was
        // taken before the failure fired and must not count.
        let series = vec![
            m(1, 0.1, 0.5),
            m(2, 0.1, 0.5),
            m(3, 2.0, 0.7),
            m(4, 0.6, 0.7),
        ];
        assert_eq!(reshaping_time(&series, 2), Some(2));
        assert_eq!(reshaping_time(&series[..3], 2), None);
    }
}
