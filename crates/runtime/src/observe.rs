//! Observation plane: a shared board nodes report to, so the harness can
//! measure homogeneity and survival without perturbing the protocol.
//!
//! Aggregation produces the unified
//! [`polystyrene_protocol::observe::RoundObservation`] record — the same
//! type every other execution substrate reports in, so experiment
//! harnesses read one observation pipeline regardless of what carries
//! the messages.

use parking_lot::RwLock;
use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::NodeId;
use polystyrene_protocol::observe::{reference_homogeneity, RoundObservation, TrafficStats};
use polystyrene_space::MetricSpace;
use std::collections::HashMap;
use std::sync::Arc;

/// What each node publishes at every tick.
#[derive(Clone, Debug)]
pub struct NodeReport<P> {
    /// Published position.
    pub pos: P,
    /// Ids of hosted guests.
    pub guest_ids: Vec<PointId>,
    /// Ids of ghost replicas stored here (survival accounting: a point
    /// whose primary holder is mid-migration still exists as a replica).
    pub ghost_ids: Vec<PointId>,
    /// Ids of migration-handout points parked here awaiting the
    /// initiator's ack. On a lossy fabric a point can exist *only* in
    /// this set (the carrying reply dropped, the next backup push already
    /// rewrote the ghosts without it) — it is stored on this node and
    /// must count as held, exactly as the netsim substrate counts it.
    pub parked_ids: Vec<PointId>,
    /// Total stored points (guests + ghosts).
    pub stored_points: usize,
    /// Ticks executed so far.
    pub ticks: u64,
    /// Cumulative wire cost this node has sent, in the paper's units.
    pub cost_units: u64,
    /// Cumulative queries issued through this node as a gateway.
    pub traffic_offered: u64,
    /// Cumulative queries resolved back at this gateway.
    pub traffic_delivered: u64,
    /// Cumulative queries this gateway wrote off after the query
    /// timeout.
    pub traffic_dropped: u64,
    /// Most recent resolved-query `(hops, latency_ticks)` samples, a
    /// bounded window for tail-latency estimation.
    pub traffic_samples: Vec<(u32, u64)>,
}

impl<P> NodeReport<P> {
    /// The report of a node at `pos` that has not run a round yet.
    pub fn at(pos: P) -> Self {
        Self {
            pos,
            guest_ids: Vec::new(),
            ghost_ids: Vec::new(),
            parked_ids: Vec::new(),
            stored_points: 0,
            ticks: 0,
            cost_units: 0,
            traffic_offered: 0,
            traffic_delivered: 0,
            traffic_dropped: 0,
            traffic_samples: Vec::new(),
        }
    }
}

/// The shared board.
pub struct ObservationBoard<P> {
    inner: RwLock<HashMap<NodeId, NodeReport<P>>>,
}

impl<P> Default for ObservationBoard<P> {
    fn default() -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
        }
    }
}

impl<P: Clone> ObservationBoard<P> {
    /// An empty board behind an `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes (or refreshes) a node's report in place: `refill`
    /// rewrites the report the board already holds for `id`, now at
    /// `pos`, so a node's per-tick publication reuses the id lists'
    /// allocations instead of building and dropping four `Vec`s.
    pub fn publish_with(&self, id: NodeId, pos: &P, refill: impl FnOnce(&mut NodeReport<P>)) {
        let mut board = self.inner.write();
        let report = board
            .entry(id)
            .and_modify(|report| report.pos.clone_from(pos))
            .or_insert_with(|| NodeReport::at(pos.clone()));
        refill(report);
    }

    /// Removes a node's report (crash or shutdown).
    pub fn remove(&self, id: NodeId) {
        self.inner.write().remove(&id);
    }

    /// Snapshot of all reports.
    pub fn snapshot(&self) -> HashMap<NodeId, NodeReport<P>> {
        self.inner.read().clone()
    }

    /// How far the nodes `alive` accepts have got: how many of them
    /// have a report, and the fewest ticks any of those has executed
    /// (zero when none has reported). Read under the lock, copying
    /// nothing.
    pub fn progress(&self, alive: impl Fn(NodeId) -> bool) -> (usize, u64) {
        let (mut reported, mut slowest) = (0, u64::MAX);
        for (&id, report) in self.inner.read().iter() {
            if alive(id) {
                reported += 1;
                slowest = slowest.min(report.ticks);
            }
        }
        (reported, if reported == 0 { 0 } else { slowest })
    }

    /// Ids that currently have a report.
    pub fn ids(&self) -> Vec<NodeId> {
        self.inner.read().keys().copied().collect()
    }
}

/// Computes the unified [`RoundObservation`] over a snapshot, against
/// the original target shape; `area` is the data-space surface the
/// reference homogeneity is computed from. The `round` field is left at
/// zero — the experiment driver stamps it, since only the driver knows
/// which scenario round a wall-clock snapshot corresponds to.
pub fn observe<S: MetricSpace>(
    space: &S,
    original_points: &[DataPoint<S::Point>],
    snapshot: &HashMap<NodeId, NodeReport<S::Point>>,
    area: f64,
) -> RoundObservation {
    let alive = snapshot.len();
    let mut parked_points = 0usize;
    let mut holder_positions: HashMap<PointId, Vec<&S::Point>> = HashMap::new();
    for report in snapshot.values() {
        // Parked handover points are physically stored on the parking
        // node until the initiator takes custody: held here.
        parked_points += report.parked_ids.len();
        for pid in report.guest_ids.iter().chain(&report.parked_ids) {
            holder_positions.entry(*pid).or_default().push(&report.pos);
        }
    }
    let mut ghost_ids: std::collections::HashSet<PointId> = std::collections::HashSet::new();
    for report in snapshot.values() {
        ghost_ids.extend(report.ghost_ids.iter().copied());
    }
    let mut homogeneity_acc = 0.0;
    let mut surviving = 0usize;
    for point in original_points {
        if ghost_ids.contains(&point.id) && !holder_positions.contains_key(&point.id) {
            surviving += 1;
        }
        let nearest = match holder_positions.get(&point.id) {
            Some(holders) => {
                surviving += 1;
                holders
                    .iter()
                    .map(|pos| space.distance(&point.pos, pos))
                    .fold(f64::INFINITY, f64::min)
            }
            None => snapshot
                .values()
                .map(|r| space.distance(&point.pos, &r.pos))
                .fold(f64::INFINITY, f64::min),
        };
        if nearest.is_finite() {
            homogeneity_acc += nearest;
        }
    }
    let homogeneity = if original_points.is_empty() || alive == 0 {
        f64::INFINITY
    } else {
        homogeneity_acc / original_points.len() as f64
    };
    // Cumulative gateway counters, like `cost_units`: a wall-clock
    // snapshot has no round boundary to reset at, so the lab's
    // live-substrate adapter differences consecutive snapshots. The
    // latency percentiles come from the nodes' bounded recent-sample
    // windows — an estimate over the trailing window, not the round.
    let mut traffic_samples: Vec<(u32, u64)> = Vec::new();
    let (mut offered, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
    for report in snapshot.values() {
        offered += report.traffic_offered;
        delivered += report.traffic_delivered;
        dropped += report.traffic_dropped;
        traffic_samples.extend_from_slice(&report.traffic_samples);
    }
    let traffic = TrafficStats::from_samples(offered, delivered, dropped, &mut traffic_samples);
    RoundObservation {
        round: 0,
        alive_nodes: alive,
        homogeneity,
        reference_homogeneity: reference_homogeneity(area, alive),
        surviving_points: if original_points.is_empty() {
            1.0
        } else {
            surviving as f64 / original_points.len() as f64
        },
        points_per_node: if alive == 0 {
            0.0
        } else {
            snapshot.values().map(|r| r.stored_points).sum::<usize>() as f64 / alive as f64
        },
        parked_points,
        // Cumulative units per alive node, not this-round units: nodes
        // report running totals (a wall-clock snapshot has no
        // round boundary to reset at). The lab's live-substrate adapter
        // differences consecutive snapshots to recover per-round cost.
        cost_units: if alive == 0 {
            0.0
        } else {
            snapshot.values().map(|r| r.cost_units).sum::<u64>() as f64 / alive as f64
        },
        ticks: snapshot.values().map(|r| r.ticks).min().unwrap_or(0),
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;

    fn report(pos: [f64; 2], ids: &[u64], stored: usize) -> NodeReport<[f64; 2]> {
        NodeReport {
            guest_ids: ids.iter().map(|&i| PointId::new(i)).collect(),
            stored_points: stored,
            ticks: 5,
            ..NodeReport::at(pos)
        }
    }

    fn originals(coords: &[[f64; 2]]) -> Vec<DataPoint<[f64; 2]>> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &c)| DataPoint::new(PointId::new(i as u64), c))
            .collect()
    }

    #[test]
    fn board_publish_remove_snapshot() {
        let board: Arc<ObservationBoard<[f64; 2]>> = ObservationBoard::new();
        let id = NodeId::new(1);
        board.publish_with(id, &[0.0, 0.0], |r| {
            r.guest_ids.extend([PointId::new(0), PointId::new(7)]);
            r.ticks = 1;
        });
        // A refresh rewrites the report the board holds, position
        // included, reusing its lists.
        board.publish_with(id, &[2.0, 0.0], |r| {
            assert_eq!(r.guest_ids.len(), 2, "refilled, not rebuilt");
            r.guest_ids.clear();
            r.guest_ids.push(PointId::new(3));
            r.ticks = 2;
        });
        let snapshot = board.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[&id].pos, [2.0, 0.0]);
        assert_eq!(snapshot[&id].guest_ids, vec![PointId::new(3)]);
        assert_eq!(board.ids(), vec![id]);
        board.remove(id);
        assert!(board.snapshot().is_empty());
    }

    #[test]
    fn progress_counts_only_whom_it_is_asked_about() {
        let board: Arc<ObservationBoard<[f64; 2]>> = ObservationBoard::new();
        assert_eq!(board.progress(|_| true), (0, 0));
        for (id, ticks) in [(1, 9), (2, 4), (3, 1)] {
            board.publish_with(NodeId::new(id), &[0.0, 0.0], |r| r.ticks = ticks);
        }
        assert_eq!(board.progress(|_| true), (3, 1));
        // Node 3 was killed: its stale report neither counts nor holds
        // the minimum down.
        assert_eq!(board.progress(|id| id != NodeId::new(3)), (2, 4));
        assert_eq!(board.progress(|_| false), (0, 0));
    }

    #[test]
    fn perfect_coverage_gives_zero_homogeneity() {
        let pts = originals(&[[0.0, 0.0], [1.0, 0.0]]);
        let mut snap = HashMap::new();
        snap.insert(NodeId::new(0), report([0.0, 0.0], &[0], 1));
        snap.insert(NodeId::new(1), report([1.0, 0.0], &[1], 1));
        let obs = observe(&Euclidean2, &pts, &snap, 4.0);
        assert_eq!(obs.alive_nodes, 2);
        assert!(obs.homogeneity.abs() < 1e-12);
        assert_eq!(obs.surviving_points, 1.0);
        assert_eq!(obs.points_per_node, 1.0);
        assert_eq!(obs.ticks, 5);
        assert_eq!(obs.parked_points, 0);
        assert_eq!(obs.reference_homogeneity, 0.5 * (4.0f64 / 2.0).sqrt());
    }

    #[test]
    fn lost_point_measured_against_nearest_node() {
        let pts = originals(&[[0.0, 0.0], [10.0, 0.0]]);
        let mut snap = HashMap::new();
        // Only point 0 has a holder; point 1 is lost.
        snap.insert(NodeId::new(0), report([0.0, 0.0], &[0], 1));
        snap.insert(NodeId::new(1), report([4.0, 0.0], &[], 0));
        let obs = observe(&Euclidean2, &pts, &snap, 4.0);
        assert_eq!(obs.surviving_points, 0.5);
        // point 0 at distance 0; point 1 at distance 6 from the nearest
        // node (4,0) → mean 3.
        assert!((obs.homogeneity - 3.0).abs() < 1e-12);
    }

    #[test]
    fn parked_points_count_as_held() {
        let pts = originals(&[[0.0, 0.0], [6.0, 0.0]]);
        let mut snap = HashMap::new();
        snap.insert(NodeId::new(0), report([0.0, 0.0], &[0], 1));
        // Point 1 exists only as a parked handout on the node at (5,0).
        let mut parked = report([5.0, 0.0], &[], 0);
        parked.parked_ids = vec![PointId::new(1)];
        snap.insert(NodeId::new(1), parked);
        let obs = observe(&Euclidean2, &pts, &snap, 4.0);
        assert_eq!(obs.surviving_points, 1.0, "mid-handover is not lost");
        assert_eq!(obs.parked_points, 1);
        // Point 1 measured against its parking node, distance 1 → mean 0.5.
        assert!((obs.homogeneity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_counters_aggregate_across_reports() {
        let pts = originals(&[[0.0, 0.0], [1.0, 0.0]]);
        let mut snap = HashMap::new();
        let mut a = report([0.0, 0.0], &[0], 1);
        a.traffic_offered = 10;
        a.traffic_delivered = 8;
        a.traffic_dropped = 2;
        a.traffic_samples = vec![(3, 2), (5, 6)];
        let mut b = report([1.0, 0.0], &[1], 1);
        b.traffic_offered = 4;
        b.traffic_delivered = 4;
        b.traffic_samples = vec![(1, 1)];
        snap.insert(NodeId::new(0), a);
        snap.insert(NodeId::new(1), b);
        let obs = observe(&Euclidean2, &pts, &snap, 4.0);
        assert_eq!(obs.traffic.offered, 14);
        assert_eq!(obs.traffic.delivered, 12);
        assert_eq!(obs.traffic.dropped, 2);
        assert!((obs.traffic.mean_hops - 3.0).abs() < 1e-12);
        assert_eq!(obs.traffic.latency_p50, 2.0);
        assert_eq!(obs.traffic.latency_p99, 6.0);
    }

    #[test]
    fn empty_cluster_observation() {
        let pts = originals(&[[0.0, 0.0]]);
        let snap = HashMap::new();
        let obs = observe(&Euclidean2, &pts, &snap, 4.0);
        assert_eq!(obs.alive_nodes, 0);
        assert!(obs.homogeneity.is_infinite());
    }
}
