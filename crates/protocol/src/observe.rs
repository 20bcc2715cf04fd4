//! The unified observation record of the experiment plane, and the one
//! census that fills it.
//!
//! [`RoundObservation`] is what every substrate reports after a round:
//! the paper's population arithmetic and quality metrics (Sec. IV-A),
//! plus the progress clock the wall-clock substrates denominate
//! reshaping in. The cycle engine's `RoundMetrics` and the network
//! kernel's `NetRoundMetrics` *are* this record plus a few fields only
//! their substrate can produce (proximity, the cost split, message
//! counters), and dereference to it.
//!
//! [`Census`] computes the shared fields — homogeneity, the reference
//! `H`, surviving points, points per node, parked handouts — from the
//! founding points and what each alive node holds. The engine and the
//! kernel feed it from their [`NodePool`] ([`Census::of_pool`]), the
//! live clusters from their observation board, so the paper's
//! definitions exist once. [`reshaping_time`] is the one rule reading the
//! recovery crossing off a series of these records.

use crate::par;
use crate::pool::NodePool;
use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_space::MetricSpace;
use polystyrene_topology::rank::GridIndex;
use std::borrow::Borrow;

/// Per-round application-traffic telemetry: what happened to the
/// queries a workload generator offered this round.
///
/// All-zero ([`TrafficStats::default`]) on substrates or rounds without
/// traffic, so the scenario plane's records are unchanged when no load
/// is offered. Offered/delivered/dropped are counted at the *gateway*
/// nodes (the node a query was issued through records its completion),
/// and a round's delivered count may answer queries offered in an
/// earlier round on substrates with real message latency.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficStats {
    /// Queries issued through gateways this round.
    pub offered: u64,
    /// Query replies received by their gateways this round.
    pub delivered: u64,
    /// Queries written off this round: their gateway waited longer than
    /// the query timeout — the signature of a route into a hole.
    pub dropped: u64,
    /// Queries refused at the gateway's ingress this round because its
    /// bounded admission queue was full — load the substrate declined
    /// *before* it entered the overlay, counted separately from
    /// `dropped` (which expired in flight). Always zero on substrates
    /// without an admission bound.
    pub shed: u64,
    /// Read-intent queries the workload generator drew this round.
    /// Workload-side accounting (the overlay routes reads and writes
    /// identically); zero when no generator is attached.
    pub reads: u64,
    /// Write-intent queries the workload generator drew this round.
    pub writes: u64,
    /// Mean hops over the queries completed this round.
    pub mean_hops: f64,
    /// Median query latency in protocol ticks over this round's
    /// completions (0 when nothing completed).
    pub latency_p50: f64,
    /// 99th-percentile query latency in protocol ticks over this
    /// round's completions.
    pub latency_p99: f64,
}

impl TrafficStats {
    /// Builds a record from raw per-query `(hops, latency_ticks)`
    /// samples as drained from the nodes, sorting `samples` in place by
    /// latency to take the percentiles. `delivered` is passed separately
    /// because a wall-clock substrate may expose only a bounded recent
    /// sample window alongside exact counters.
    pub fn from_samples(
        offered: u64,
        delivered: u64,
        dropped: u64,
        samples: &mut [(u32, u64)],
    ) -> Self {
        let mut stats = TrafficStats {
            offered,
            delivered,
            dropped,
            ..TrafficStats::default()
        };
        if samples.is_empty() {
            return stats;
        }
        samples.sort_unstable_by_key(|&(_, latency)| latency);
        stats.mean_hops =
            samples.iter().map(|&(h, _)| f64::from(h)).sum::<f64>() / samples.len() as f64;
        let at = |q: f64| ((samples.len() - 1) as f64 * q).round() as usize;
        stats.latency_p50 = samples[at(0.5)].1 as f64;
        stats.latency_p99 = samples[at(0.99)].1 as f64;
        stats
    }

    /// Delivered fraction of the queries the workload *presented*
    /// (offered into the overlay plus shed at the gateway; `1.0` when
    /// none were — an idle round is trivially available). Shed load
    /// counts against availability: a gateway refusing a query is a
    /// query the application did not get served.
    pub fn availability(&self) -> f64 {
        let presented = self.offered + self.shed;
        if presented == 0 {
            1.0
        } else {
            self.delivered as f64 / presented as f64
        }
    }

    /// Folds another round's counters into this one (percentile fields
    /// keep the worst of the two — an aggregate bound, not a re-rank).
    pub fn merge(&mut self, other: &TrafficStats) {
        let completed = self.delivered + other.delivered;
        if completed > 0 {
            self.mean_hops = (self.mean_hops * self.delivered as f64
                + other.mean_hops * other.delivered as f64)
                / completed as f64;
        }
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.reads += other.reads;
        self.writes += other.writes;
        self.latency_p50 = self.latency_p50.max(other.latency_p50);
        self.latency_p99 = self.latency_p99.max(other.latency_p99);
    }
}

/// What any substrate reports after one protocol round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundObservation {
    /// Protocol round the sample was taken at (after the round ran).
    pub round: u32,
    /// Number of alive nodes.
    pub alive_nodes: usize,
    /// Mean distance from each initial data point to its nearest holder
    /// (or the nearest alive node if the point has none) — the paper's
    /// homogeneity metric.
    pub homogeneity: f64,
    /// Reference homogeneity `H` for the current population.
    pub reference_homogeneity: f64,
    /// Fraction of the initial data points that still exist somewhere —
    /// as a guest, a ghost replica, or a parked migration handout.
    pub surviving_points: f64,
    /// Mean stored data points per node (guests + ghosts).
    pub points_per_node: f64,
    /// Migration-handout points parked awaiting acknowledgment across
    /// the population (always zero on substrates whose exchanges are
    /// atomic).
    pub parked_points: usize,
    /// Message cost per node this round, in the paper's units — zero on
    /// substrates that do not meter wire cost.
    pub cost_units: f64,
    /// Monotone protocol-progress clock: the slowest alive node's local
    /// round count. Deterministic substrates report the round number;
    /// wall-clock substrates report the survivors' tick floor, so
    /// reshaping can be denominated in protocol progress rather than
    /// wall time.
    pub ticks: u64,
    /// Application-traffic telemetry for the round (all-zero when no
    /// workload is attached; see [`TrafficStats`]).
    pub traffic: TrafficStats,
}

impl RoundObservation {
    /// `total` shared out over the alive population (zero when nobody is
    /// alive) — how stored points and cost units become per-node figures.
    pub fn per_node(&self, total: u64) -> f64 {
        if self.alive_nodes == 0 {
            0.0
        } else {
            total as f64 / self.alive_nodes as f64
        }
    }
}

/// Reference homogeneity `H_A^{|N|} = 1/2 · sqrt(A / |N|)` (paper
/// Sec. IV-A): the highest homogeneity an ideally uniform placement of
/// `nodes` nodes over a surface of area `area` would exhibit — the
/// bound the reshaping-time metric is defined against, shared by every
/// substrate so the recovery criterion cannot drift between them.
///
/// # Example
///
/// ```
/// use polystyrene_protocol::observe::reference_homogeneity;
///
/// // The paper's 80×40 torus: H = 1/2 before the failure…
/// assert!((reference_homogeneity(3200.0, 3200) - 0.5).abs() < 1e-12);
/// // …and √2/2 ≈ 0.71 for the 1600 survivors.
/// assert!((reference_homogeneity(3200.0, 1600) - 0.7071).abs() < 1e-3);
/// ```
pub fn reference_homogeneity(area: f64, nodes: usize) -> f64 {
    if nodes == 0 {
        return f64::INFINITY;
    }
    0.5 * (area / nodes as f64).sqrt()
}

/// The reshaping time (paper Sec. IV-A): rounds from the failure until
/// homogeneity first drops below the reference `H`, or `None` if it never
/// does.
///
/// `series[i]` is the sample taken at the end of round `i + 1`, as in an
/// engine or kernel history and an experiment trace. A failure scheduled
/// at round `failure_round` fires before round `failure_round + 1` runs,
/// so the sample labelled with the failure round predates it: its
/// healthy homogeneity must not count as a recovery, and the first
/// sample considered is `series[failure_round]`.
pub fn reshaping_time<O: Borrow<RoundObservation>>(
    series: &[O],
    failure_round: u32,
) -> Option<u32> {
    let first = failure_round as usize;
    series
        .iter()
        .skip(first)
        .position(|o| {
            let o = o.borrow();
            o.homogeneity < o.reference_homogeneity
        })
        .map(|after| after as u32 + 1)
}

/// Below this many alive nodes the census finds the nearest node of a
/// holderless point by exhaustive scan: at small scale building a
/// [`GridIndex`] costs more than the scan it replaces.
pub const GRID_INDEX_MIN_NODES: usize = 256;

/// The one measurement pass behind every substrate's [`RoundObservation`]:
/// homogeneity and survival of the founding points over what the alive
/// nodes hold.
///
/// A point is *held* by a node that hosts it as a guest or has it parked
/// as a migration handout awaiting acknowledgment (the bytes are on that
/// node, whatever the ownership paperwork says); it *survives* while some
/// alive node holds it or stores a ghost replica of it. Homogeneity is
/// the mean distance from each founding point to its nearest holder, or
/// to the nearest alive node when it has none.
///
/// The tables are dense, indexed by point id (founding point `i` has id
/// `i` on every substrate), and kept across rounds, so a steady-state
/// census allocates no tables, only the per-point result vector. Nearest
/// alive nodes of holderless points come from a [`GridIndex`] when the
/// population reaches [`GRID_INDEX_MIN_NODES`] and the space supports a
/// grid, and from an exhaustive scan otherwise; the per-point pass fans
/// out over [`crate::par`] and is summed in point order. None of that
/// changes a measured bit.
///
/// # Example
///
/// ```
/// use polystyrene::prelude::{DataPoint, PointId};
/// use polystyrene_protocol::observe::Census;
/// use polystyrene_space::prelude::Euclidean2;
///
/// let points = [DataPoint::new(PointId::new(0), [0.0, 0.0]),
///               DataPoint::new(PointId::new(1), [4.0, 0.0])];
/// let mut census = Census::new();
/// let mut pass = census.start(&Euclidean2, &points, 8.0);
/// // One node hosts point 0 and keeps a ghost of point 1.
/// pass.count(&[1.0, 0.0], [PointId::new(0)], [PointId::new(1)], [], 2);
/// let obs = pass.finish();
/// assert_eq!(obs.surviving_points, 1.0);
/// assert_eq!(obs.homogeneity, 2.0); // (1 + 3) / 2: point 1 has no holder
/// ```
pub struct Census<P> {
    /// Position of every node counted this pass, in counting order.
    positions: Vec<P>,
    /// `holders[point]`: indices into `positions` of the nodes holding
    /// the point (empty = holderless).
    holders: Vec<Vec<u32>>,
    /// `stored[point]`: some counted node holds the point or stores a
    /// ghost of it.
    stored: Vec<bool>,
    /// Per-point `(nearest holder or node, survived)`.
    per_point: Vec<(f64, bool)>,
    /// Stored points (guests + ghosts) over the counted nodes.
    stored_points: usize,
    /// Parked handout points over the counted nodes.
    parked_points: usize,
}

impl<P> Default for Census<P> {
    fn default() -> Self {
        Self {
            positions: Vec::new(),
            holders: Vec::new(),
            stored: Vec::new(),
            per_point: Vec::new(),
            stored_points: 0,
            parked_points: 0,
        }
    }
}

impl<P: Clone + Send + Sync> Census<P> {
    /// An empty census; its tables grow to the first pass's size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a pass over `points` (the founding points, the target
    /// shape) in `space`, whose surface `area` sets the reference
    /// homogeneity. Every alive node is then
    /// [counted](CensusPass::count) once, in any order.
    pub fn start<'a, S: MetricSpace<Point = P>>(
        &'a mut self,
        space: &'a S,
        points: &'a [DataPoint<P>],
        area: f64,
    ) -> CensusPass<'a, S> {
        self.positions.clear();
        for h in &mut self.holders {
            h.clear();
        }
        self.holders.resize_with(points.len(), Vec::new);
        self.stored.clear();
        self.stored.resize(points.len(), false);
        self.stored_points = 0;
        self.parked_points = 0;
        CensusPass {
            census: self,
            space,
            points,
            area,
        }
    }

    /// A whole pass over the alive nodes of a deterministic driver's
    /// pool, in ascending id order.
    pub fn of_pool<S: MetricSpace<Point = P>>(
        &mut self,
        space: &S,
        points: &[DataPoint<P>],
        area: f64,
        pool: &NodePool<S>,
    ) -> RoundObservation {
        let mut pass = self.start(space, points, area);
        for &id in pool.alive_ids() {
            let node = pool.get(id).expect("alive id");
            let poly = &node.poly;
            pass.count(
                &poly.pos,
                poly.guests.iter().map(|p| p.id),
                poly.ghosts.items().iter().map(|p| p.id),
                node.parked_point_ids(),
                poly.stored_points(),
            );
        }
        pass.finish()
    }
}

/// One census in progress: see [`Census::start`].
pub struct CensusPass<'a, S: MetricSpace> {
    census: &'a mut Census<S::Point>,
    space: &'a S,
    points: &'a [DataPoint<S::Point>],
    area: f64,
}

impl<S: MetricSpace> CensusPass<'_, S> {
    /// Counts one alive node: where it is, the ids of its guests, of its
    /// ghost replicas and of its parked handouts, and how many points it
    /// stores (guests + ghosts). Ids outside the founding set are
    /// ignored.
    pub fn count(
        &mut self,
        pos: &S::Point,
        guests: impl IntoIterator<Item = PointId>,
        ghosts: impl IntoIterator<Item = PointId>,
        parked: impl IntoIterator<Item = PointId>,
        stored_points: usize,
    ) {
        let census = &mut *self.census;
        let node = census.positions.len() as u32;
        census.positions.push(pos.clone());
        let mut parked_points = 0;
        let parked = parked.into_iter().inspect(|_| parked_points += 1);
        for id in guests.into_iter().chain(parked) {
            if let Some(holders) = census.holders.get_mut(id.index()) {
                holders.push(node);
                census.stored[id.index()] = true;
            }
        }
        census.parked_points += parked_points;
        for id in ghosts {
            if let Some(stored) = census.stored.get_mut(id.index()) {
                *stored = true;
            }
        }
        census.stored_points += stored_points;
    }

    /// Measures the counted population. The record's `round`, `ticks`,
    /// `cost_units` and `traffic` are left at zero for the caller, which
    /// alone knows its clock and its wire.
    pub fn finish(self) -> RoundObservation {
        let Self {
            census,
            space,
            points,
            area,
        } = self;
        let Census {
            positions,
            holders,
            stored,
            per_point,
            stored_points,
            parked_points,
        } = census;
        let alive = positions.len();
        let positions: &[S::Point] = positions;
        let holders: &[Vec<u32>] = holders;
        let stored: &[bool] = stored;
        // Exact nearest-alive-node index for holderless points; `None`
        // (small population, gridless space, or no holderless point —
        // the healthy-round case) falls back to the exhaustive scan, which
        // returns the same distances.
        let index = if alive >= GRID_INDEX_MIN_NODES && holders.iter().any(Vec::is_empty) {
            GridIndex::build(
                space,
                positions
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i as u64, p.clone())),
            )
        } else {
            None
        };
        par::map_into(points, per_point, |point| {
            let at = point.id.index();
            let hs = &holders[at];
            let nearest = if !hs.is_empty() {
                hs.iter()
                    .map(|&h| space.distance(&point.pos, &positions[h as usize]))
                    .fold(f64::INFINITY, f64::min)
            } else if let Some(index) = &index {
                index.nearest(&point.pos).map_or(f64::INFINITY, |(_, d)| d)
            } else {
                positions
                    .iter()
                    .map(|p| space.distance(&point.pos, p))
                    .fold(f64::INFINITY, f64::min)
            };
            (nearest, stored[at])
        });
        let mut homogeneity = 0.0;
        let mut surviving = 0usize;
        for &(nearest, survived) in per_point.iter() {
            if nearest.is_finite() {
                homogeneity += nearest;
            }
            surviving += usize::from(survived);
        }
        let mut observation = RoundObservation {
            round: 0,
            alive_nodes: alive,
            homogeneity: if points.is_empty() || alive == 0 {
                f64::INFINITY
            } else {
                homogeneity / points.len() as f64
            },
            reference_homogeneity: reference_homogeneity(area, alive),
            surviving_points: if points.is_empty() {
                1.0
            } else {
                surviving as f64 / points.len() as f64
            },
            points_per_node: 0.0,
            parked_points: *parked_points,
            cost_units: 0.0,
            ticks: 0,
            traffic: TrafficStats::default(),
        };
        observation.points_per_node = observation.per_node(*stored_points as u64);
        observation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::Euclidean2;

    #[test]
    fn traffic_stats_availability_and_merge() {
        let idle = TrafficStats::default();
        assert_eq!(idle.availability(), 1.0);
        let mut a = TrafficStats {
            offered: 10,
            delivered: 8,
            dropped: 1,
            reads: 9,
            writes: 1,
            mean_hops: 4.0,
            latency_p50: 1.0,
            latency_p99: 3.0,
            ..TrafficStats::default()
        };
        let b = TrafficStats {
            offered: 10,
            delivered: 2,
            dropped: 5,
            shed: 4,
            reads: 8,
            writes: 2,
            mean_hops: 9.0,
            latency_p50: 2.0,
            latency_p99: 8.0,
        };
        a.merge(&b);
        assert_eq!(a.offered, 20);
        assert_eq!(a.delivered, 10);
        assert_eq!(a.dropped, 6);
        assert_eq!(a.shed, 4);
        assert_eq!(a.reads, 17);
        assert_eq!(a.writes, 3);
        // Shed load counts against availability: 10 of 24 presented.
        assert!((a.availability() - 10.0 / 24.0).abs() < 1e-12);
        assert!((a.mean_hops - 5.0).abs() < 1e-12);
        assert_eq!(a.latency_p99, 8.0);
    }

    #[test]
    fn shed_load_degrades_availability() {
        let stats = TrafficStats {
            offered: 8,
            delivered: 8,
            shed: 2,
            ..TrafficStats::default()
        };
        assert!((stats.availability() - 0.8).abs() < 1e-12);
        let all_shed = TrafficStats {
            shed: 5,
            ..TrafficStats::default()
        };
        assert_eq!(all_shed.availability(), 0.0);
    }

    #[test]
    fn traffic_stats_from_samples_ranks_latencies() {
        let mut samples = vec![(4, 7), (2, 1), (6, 3)];
        let stats = TrafficStats::from_samples(5, 3, 1, &mut samples);
        assert_eq!(stats.offered, 5);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 1);
        assert!((stats.mean_hops - 4.0).abs() < 1e-12);
        assert_eq!(stats.latency_p50, 3.0);
        assert_eq!(stats.latency_p99, 7.0);
        let empty = TrafficStats::from_samples(2, 0, 2, &mut []);
        assert_eq!(empty.latency_p99, 0.0);
        assert!((empty.availability() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn reference_values_match_paper() {
        assert!((reference_homogeneity(3200.0, 3200) - 0.5).abs() < 1e-12);
        let h1600 = reference_homogeneity(3200.0, 1600);
        assert!((h1600 - std::f64::consts::SQRT_2 / 2.0).abs() < 1e-12);
        assert_eq!(reference_homogeneity(3200.0, 0), f64::INFINITY);
    }

    /// `(homogeneity, reference)` per round, from round 1 on.
    fn series(samples: &[(f64, f64)]) -> Vec<RoundObservation> {
        samples
            .iter()
            .enumerate()
            .map(
                |(i, &(homogeneity, reference_homogeneity))| RoundObservation {
                    round: i as u32 + 1,
                    homogeneity,
                    reference_homogeneity,
                    ..RoundObservation::default()
                },
            )
            .collect()
    }

    #[test]
    fn reshaping_time_first_crossing() {
        let s = series(&[
            (0.1, 0.5), // pre-failure
            (0.1, 0.5), // round 2, measured just before the failure
            (2.0, 0.71),
            (0.6, 0.71), // first crossing, 2 rounds after the failure
            (0.5, 0.71),
        ]);
        assert_eq!(reshaping_time(&s, 2), Some(2));
    }

    #[test]
    fn reshaping_time_none_when_never_recovers() {
        let s = series(&[(0.1, 0.5), (0.1, 0.5), (5.0, 0.71), (5.0, 0.71)]);
        assert_eq!(reshaping_time(&s, 2), None);
        assert_eq!(reshaping_time(&s, 9), None, "failure after the series");
    }

    #[test]
    fn reshaping_time_ignores_the_failure_round_sample() {
        // Round 2's sample predates the crash; even though it is below
        // the reference it must not count.
        let s = series(&[(0.1, 0.71), (0.1, 0.71), (0.2, 0.71)]);
        assert_eq!(reshaping_time(&s, 2), Some(1));
        assert_eq!(reshaping_time(&s[..2], 2), None);
    }

    fn originals(coords: &[[f64; 2]]) -> Vec<DataPoint<[f64; 2]>> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &c)| DataPoint::new(PointId::new(i as u64), c))
            .collect()
    }

    fn ids(raw: &[u64]) -> Vec<PointId> {
        raw.iter().map(|&i| PointId::new(i)).collect()
    }

    #[test]
    fn perfect_coverage_gives_zero_homogeneity() {
        let pts = originals(&[[0.0, 0.0], [1.0, 0.0]]);
        let mut census = Census::new();
        let mut pass = census.start(&Euclidean2, &pts, 4.0);
        pass.count(&[0.0, 0.0], ids(&[0]), [], [], 1);
        pass.count(&[1.0, 0.0], ids(&[1]), [], [], 1);
        let obs = pass.finish();
        assert_eq!(obs.alive_nodes, 2);
        assert!(obs.homogeneity.abs() < 1e-12);
        assert_eq!(obs.surviving_points, 1.0);
        assert_eq!(obs.points_per_node, 1.0);
        assert_eq!(obs.parked_points, 0);
        assert_eq!(obs.reference_homogeneity, 0.5 * (4.0f64 / 2.0).sqrt());
        // The tables are reused: a second pass starts from nothing.
        let obs = census.start(&Euclidean2, &pts, 4.0).finish();
        assert_eq!((obs.alive_nodes, obs.surviving_points), (0, 0.0));
    }

    #[test]
    fn lost_point_measured_against_nearest_node() {
        let pts = originals(&[[0.0, 0.0], [10.0, 0.0], [0.0, 3.0]]);
        let mut census = Census::new();
        let mut pass = census.start(&Euclidean2, &pts, 4.0);
        // Point 0 has a holder, point 2 only a ghost; point 1 is lost.
        pass.count(&[0.0, 0.0], ids(&[0]), ids(&[2]), [], 2);
        pass.count(&[4.0, 0.0], [], [], [], 0);
        let obs = pass.finish();
        assert_eq!(obs.surviving_points, 2.0 / 3.0);
        // Point 0 at distance 0; point 1 at distance 6 from the nearest
        // node (4,0); point 2 at distance 3 from the ghost's node (0,0),
        // the nearest node, since a ghost is no holder → mean 3.
        assert!((obs.homogeneity - 3.0).abs() < 1e-12);
        assert_eq!(obs.points_per_node, 1.0);
    }

    #[test]
    fn parked_points_count_as_held() {
        let pts = originals(&[[0.0, 0.0], [6.0, 0.0]]);
        let mut census = Census::new();
        let mut pass = census.start(&Euclidean2, &pts, 4.0);
        pass.count(&[0.0, 0.0], ids(&[0]), [], [], 1);
        // Point 1 exists only as a parked handout on the node at (5,0).
        pass.count(&[5.0, 0.0], [], [], ids(&[1]), 0);
        let obs = pass.finish();
        assert_eq!(obs.surviving_points, 1.0, "mid-handover is not lost");
        assert_eq!(obs.parked_points, 1);
        // Point 1 measured against its parking node, distance 1 → mean 0.5.
        assert!((obs.homogeneity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_observation() {
        let pts = originals(&[[0.0, 0.0]]);
        let obs = Census::new().start(&Euclidean2, &pts, 4.0).finish();
        assert_eq!(obs.alive_nodes, 0);
        assert!(obs.homogeneity.is_infinite());
        assert_eq!(obs.reference_homogeneity, f64::INFINITY);
        assert_eq!((obs.surviving_points, obs.points_per_node), (0.0, 0.0));
    }
}
