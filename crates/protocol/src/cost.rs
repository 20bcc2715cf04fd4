//! Message-cost accounting in the paper's units (Sec. IV-A), shared by
//! every substrate that meters wire traffic.
//!
//! "We assume a single coordinate uses the same size as a node ID, and
//! take this as our arbitrary communication unit. Under these assumptions,
//! sending a node descriptor (its ID, plus its coordinates) counts as 3
//! units, while a set of 2D coordinates counts as 2. In a first
//! approximation, we ignore overheads caused by the underlying
//! communication network (e.g. headers, checksums), and do not include the
//! peer sampling protocol in our measurements."
//!
//! The model lived inside the cycle engine first, which made Fig. 7b an
//! engine-only figure: the other substrates reported `cost_units: 0`.
//! Moving the prices and the per-message conversion next to [`Wire`]
//! gives the discrete-event kernel and the live runtimes the exact same
//! accounting at their own send boundaries — one formula, charged
//! wherever a message leaves a node.

use crate::wire::Wire;
use polystyrene::backup::push_cost_units;

/// Units per node descriptor: its ID plus two coordinates.
pub const UNITS_PER_DESCRIPTOR: usize = 3;

/// Units per bare data point: a set of 2-D coordinates. A bare node or
/// point id costs one unit.
pub const UNITS_PER_POINT: usize = 2;

/// The paper's cost of one wire message, in units: descriptors for the
/// T-Man legs, whole points plus bare removal ids for a backup delta,
/// the pull+push legs for a migration split. RPS traffic and the
/// constant-size control messages (migration request/ack, heartbeats)
/// are free by the paper's convention.
pub fn wire_units<P>(wire: &Wire<P>) -> u64 {
    match wire {
        Wire::TManRequest { descriptors, .. } | Wire::TManReply { descriptors } => {
            (descriptors.len() * UNITS_PER_DESCRIPTOR) as u64
        }
        Wire::BackupPush {
            added_points,
            removed_ids,
            ..
        } => push_cost_units(*added_points, *removed_ids, UNITS_PER_POINT) as u64,
        Wire::MigrationReply { pulled, pushed, .. } => ((pulled + pushed) * UNITS_PER_POINT) as u64,
        // Application-plane queries are load, not protocol overhead: the
        // paper's Fig. 7b meters the maintenance protocols only, so
        // traffic must not move the cost baselines.
        Wire::RpsRequest { .. }
        | Wire::RpsReply { .. }
        | Wire::MigrationRequest { .. }
        | Wire::MigrationAck { .. }
        | Wire::Heartbeat
        | Wire::Query { .. }
        | Wire::QueryReply { .. }
        | Wire::QueryBatch { .. }
        | Wire::QueryReplyBatch { .. } => 0,
    }
}

/// Per-round traffic tally, split by origin so Fig. 7b's observation
/// ("most of the communication overhead … is caused by T-Man") can be
/// reproduced exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundCost {
    /// Units spent by T-Man view exchanges.
    pub tman_units: u64,
    /// Units spent migrating data points (pull + push legs).
    pub migration_units: u64,
    /// Units spent pushing backup deltas.
    pub backup_units: u64,
}

impl RoundCost {
    /// Total units this round across all protocols (peer sampling is
    /// excluded by the paper's convention).
    pub fn total(&self) -> u64 {
        self.tman_units + self.migration_units + self.backup_units
    }

    /// Resets the tally for the next round.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Fraction of the total attributable to T-Man (≈ 93.6 % for K = 8 in
    /// the paper).
    pub fn tman_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.tman_units as f64 / total as f64
        }
    }

    /// Converts one outbound wire message to units ([`wire_units`]) and
    /// adds it to the matching bucket — the one charging routine every
    /// metered substrate calls at its send boundary.
    pub fn charge_wire<P>(&mut self, wire: &Wire<P>) {
        let units = wire_units(wire);
        match wire {
            Wire::TManRequest { .. } | Wire::TManReply { .. } => self.tman_units += units,
            Wire::BackupPush { .. } => self.backup_units += units,
            Wire::MigrationReply { .. } => self.migration_units += units,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene::prelude::{DataPoint, PointId};

    #[test]
    fn paper_prices_for_2d() {
        // Sec. IV-A: a descriptor is an id plus two coordinates, a point
        // its two coordinates.
        assert_eq!((UNITS_PER_DESCRIPTOR, UNITS_PER_POINT), (3, 2));
    }

    #[test]
    fn tally_totals_and_share() {
        let mut c = RoundCost::default();
        c.tman_units = 90;
        c.migration_units = 6;
        c.backup_units = 4;
        assert_eq!(c.total(), 100);
        assert!((c.tman_share() - 0.9).abs() < 1e-12);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.tman_share(), 0.0);
    }

    #[test]
    fn wire_units_match_paper_prices() {
        let d =
            polystyrene_membership::Descriptor::new(polystyrene_membership::NodeId::new(1), 0.0);
        assert_eq!(
            wire_units(&Wire::TManRequest {
                from_pos: 0.0,
                descriptors: vec![d, d],
            }),
            6,
            "two descriptors at 3 units each"
        );
        assert_eq!(
            wire_units(&Wire::MigrationReply {
                xid: 1,
                points: vec![DataPoint::new(PointId::new(0), 0.0)],
                busy: false,
                pulled: 2,
                pushed: 1,
            }),
            6,
            "pull+push legs at 2 units per point"
        );
        assert_eq!(
            wire_units(&Wire::BackupPush {
                points: Vec::<DataPoint<f64>>::new(),
                added_points: 2,
                removed_ids: 3,
            }),
            7,
            "2 points shipped whole + 3 bare removal ids"
        );
        assert_eq!(wire_units(&Wire::<f64>::Heartbeat), 0);
        assert_eq!(wire_units(&Wire::<f64>::MigrationAck { xid: 1 }), 0);
    }

    #[test]
    fn charge_wire_routes_to_buckets() {
        let mut tally = RoundCost::default();
        tally.charge_wire(&Wire::TManReply {
            descriptors: vec![polystyrene_membership::Descriptor::new(
                polystyrene_membership::NodeId::new(2),
                1.0,
            )],
        });
        tally.charge_wire(&Wire::<f64>::MigrationReply {
            xid: 1,
            points: Vec::new(),
            busy: false,
            pulled: 1,
            pushed: 0,
        });
        tally.charge_wire(&Wire::<f64>::BackupPush {
            points: Vec::new(),
            added_points: 1,
            removed_ids: 0,
        });
        tally.charge_wire(&Wire::<f64>::Heartbeat);
        assert_eq!(tally.tman_units, 3);
        assert_eq!(tally.migration_units, 2);
        assert_eq!(tally.backup_units, 2);
        assert_eq!(tally.total(), 7);
    }
}
