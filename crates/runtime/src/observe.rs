//! Observation plane: a shared board nodes report to, so the harness can
//! measure homogeneity and survival without perturbing the protocol.
//!
//! [`observe`] feeds the reports to the shared
//! [`polystyrene_protocol::observe::Census`] and produces the unified
//! [`RoundObservation`] record — measured by the same pass, and reported
//! in the same type, as on every other execution substrate, so
//! experiment harnesses read one observation pipeline regardless of what
//! carries the messages.

use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::NodeId;
use polystyrene_protocol::observe::{Census, RoundObservation, TrafficStats};
use polystyrene_space::MetricSpace;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

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
    pub parked_point_ids: Vec<PointId>,
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
            parked_point_ids: Vec::new(),
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
        let mut board = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let report = board
            .entry(id)
            .and_modify(|report| report.pos.clone_from(pos))
            .or_insert_with(|| NodeReport::at(pos.clone()));
        refill(report);
    }

    /// Removes a node's report (crash or shutdown).
    pub fn remove(&self, id: NodeId) {
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Runs `f` over the reports under one read lock, copying nothing;
    /// publishers wait until it returns.
    pub fn read<R>(&self, f: impl FnOnce(&HashMap<NodeId, NodeReport<P>>) -> R) -> R {
        f(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// How far the nodes `alive` accepts have got: how many of them
    /// have a report, and the fewest ticks any of those has executed
    /// (zero when none has reported). Read under the lock, copying
    /// nothing.
    pub fn progress(&self, alive: impl Fn(NodeId) -> bool) -> (usize, u64) {
        let (mut reported, mut slowest) = (0, u64::MAX);
        for (&id, report) in self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            if alive(id) {
                reported += 1;
                slowest = slowest.min(report.ticks);
            }
        }
        (reported, if reported == 0 { 0 } else { slowest })
    }

    /// Ids that currently have a report.
    pub fn ids(&self) -> Vec<NodeId> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect()
    }
}

/// Measures the unified [`RoundObservation`] over `reports` (one per
/// alive node): the shared [`Census`] of what they hold, plus what only a
/// live cluster reports — the survivors' tick floor, and cumulative cost
/// and traffic counters. `area` is the data-space surface the reference
/// homogeneity is computed from. The `round` field is left at zero — the
/// experiment driver stamps it, since only the driver knows which
/// scenario round a wall-clock reading corresponds to.
pub fn observe<'a, S: MetricSpace>(
    census: &mut Census<S::Point>,
    space: &S,
    original_points: &[DataPoint<S::Point>],
    area: f64,
    reports: impl IntoIterator<Item = &'a NodeReport<S::Point>>,
) -> RoundObservation {
    let mut pass = census.start(space, original_points, area);
    let (mut ticks, mut cost_units) = (u64::MAX, 0u64);
    // Cumulative gateway counters, like `cost_units`: a wall-clock
    // reading has no round boundary to reset at, so the lab's
    // live-substrate adapter differences consecutive readings. The
    // latency percentiles come from the nodes' bounded recent-sample
    // windows — an estimate over the trailing window, not the round.
    let mut traffic_samples: Vec<(u32, u64)> = Vec::new();
    let (mut offered, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
    for report in reports {
        pass.count(
            &report.pos,
            report.guest_ids.iter().copied(),
            report.ghost_ids.iter().copied(),
            report.parked_point_ids.iter().copied(),
            report.stored_points,
        );
        ticks = ticks.min(report.ticks);
        cost_units += report.cost_units;
        offered += report.traffic_offered;
        delivered += report.traffic_delivered;
        dropped += report.traffic_dropped;
        traffic_samples.extend_from_slice(&report.traffic_samples);
    }
    let observation = pass.finish();
    RoundObservation {
        // Cumulative units per alive node, not this-round units (see
        // above); the lab's live-substrate adapter differences them.
        cost_units: observation.per_node(cost_units),
        ticks: if observation.alive_nodes == 0 {
            0
        } else {
            ticks
        },
        traffic: TrafficStats::from_samples(offered, delivered, dropped, &mut traffic_samples),
        ..observation
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
        board.read(|reports| {
            assert_eq!(reports.len(), 1);
            assert_eq!(reports[&id].pos, [2.0, 0.0]);
            assert_eq!(reports[&id].guest_ids, vec![PointId::new(3)]);
        });
        assert_eq!(board.ids(), vec![id]);
        board.remove(id);
        assert!(board.read(HashMap::is_empty));
    }

    /// A publisher that panics under the write lock must not poison the
    /// board: the harness reads it after a worker died, and
    /// `Cluster::shutdown` must resurface that worker's own panic, not a
    /// `PoisonError` raised here.
    #[test]
    fn a_panicking_publisher_does_not_poison_the_board() {
        let board: Arc<ObservationBoard<[f64; 2]>> = ObservationBoard::new();
        let (id, other) = (NodeId::new(1), NodeId::new(2));
        board.publish_with(id, &[0.0, 0.0], |r| r.ticks = 3);
        let publish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.publish_with(other, &[1.0, 0.0], |_| panic!("refill panicked"));
        }));
        assert!(publish.is_err());
        assert_eq!(board.read(|reports| reports[&id].ticks), 3);
        assert_eq!(board.progress(|n| n == id), (1, 3));
        let mut ids = board.ids();
        ids.sort();
        assert_eq!(ids, vec![id, other]);
        board.publish_with(id, &[0.0, 0.0], |r| r.ticks = 4);
        assert_eq!(board.progress(|n| n == id), (1, 4));
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
    fn traffic_counters_aggregate_across_reports() {
        let pts = originals(&[[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]);
        let mut a = report([0.0, 0.0], &[0], 1);
        a.traffic_offered = 10;
        a.traffic_delivered = 8;
        a.traffic_dropped = 2;
        a.traffic_samples = vec![(3, 2), (5, 6)];
        a.cost_units = 30;
        let mut b = report([1.0, 0.0], &[1], 1);
        b.traffic_offered = 4;
        b.traffic_delivered = 4;
        b.traffic_samples = vec![(1, 1)];
        b.ticks = 3;
        b.cost_units = 10;
        // Point 2 is parked on b: the report's lists reach the census.
        b.parked_point_ids = vec![PointId::new(2)];
        let mut census = Census::new();
        let obs = observe(&mut census, &Euclidean2, &pts, 4.0, [&a, &b]);
        assert_eq!(obs.traffic.offered, 14);
        assert_eq!(obs.traffic.delivered, 12);
        assert_eq!(obs.traffic.dropped, 2);
        assert!((obs.traffic.mean_hops - 3.0).abs() < 1e-12);
        assert_eq!(obs.traffic.latency_p50, 2.0);
        assert_eq!(obs.traffic.latency_p99, 6.0);
        assert_eq!(obs.ticks, 3, "the slowest node's clock");
        assert_eq!(obs.cost_units, 20.0, "cumulative units per node");
        assert_eq!((obs.parked_points, obs.surviving_points), (1, 1.0));
        assert_eq!(obs.round, 0, "the driver stamps the round");
        let empty = observe(&mut census, &Euclidean2, &pts, 4.0, []);
        assert_eq!((empty.alive_nodes, empty.ticks), (0, 0));
    }
}
