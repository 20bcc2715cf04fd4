//! The ground truth both deterministic drivers stand on.
//!
//! The cycle engine (`polystyrene-sim`) and the event kernel
//! (`polystyrene-netsim`) differ in how what a node sends reaches its
//! destination: in the same instant, or as a future event through a
//! network model. Everything else they know about the population is the
//! same, and lives here once, in [`World`]:
//!
//! * who is really alive, in the [`NodePool`], with the founding points
//!   (the target shape) and the surface area the census measures
//!   against;
//! * the driver's own entropy stream, the round counter, the round's
//!   [`RoundCost`], the failure knowledge every handler reads, and the
//!   traffic plane's [`Gateways`];
//! * the code that touches them alike: founding ([`World::found`]),
//!   joining ([`World::join`]), victim selection
//!   ([`World::region_victims`], [`World::random_victims`]), the round's
//!   shared steps ([`World::begin_round`], [`World::shuffled_order`],
//!   [`World::refresh_positions`]) and the measurement
//!   ([`World::measure`], [`World::measure_fresh`]).
//!
//! Each driver is a `World` plus its own dispatch, and derefs to it, so
//! the read accessors below are both drivers' API. There is no mutable
//! deref: the fields are public for the drivers, which reach them
//! through their own `world` field, and everyone else mutates a
//! population only through a driver's methods (its `crash` is the one
//! that differs: the engine delays detection by rounds, the kernel by a
//! `Detect` event).
//!
//! Every method draws from [`World::rng`] exactly what the drivers drew
//! before it moved here, in the same order, so no seeded history moved.

use crate::config::ProtocolConfig;
use crate::cost::{RoundCost, UNITS_PER_DESCRIPTOR};
use crate::observe::{Census, RoundObservation};
use crate::pool::{Gateways, NodePool};
use crate::scenario::{select_region_victims, select_victims};
use polystyrene::prelude::{DataPoint, PolyState, PolystyreneConfig};
use polystyrene_membership::{Descriptor, FailureTable, NodeId};
use polystyrene_space::MetricSpace;
use polystyrene_topology::{TManConfig, TopologyConstruction};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic driver's population and everything it knows about it
/// beyond its own way of delivering messages. See the module docs.
pub struct World<S: MetricSpace> {
    /// The metric space the population lives in.
    pub space: S,
    /// Ground truth: the alive nodes and their protocol stacks.
    pub pool: NodePool<S>,
    /// The founding population's data points — the target shape, and
    /// the reference set of the homogeneity metric.
    pub original_points: Vec<DataPoint<S::Point>>,
    /// Surface area of the data space, for the reference homogeneity.
    pub area: f64,
    /// The configuration every node is built with. The drivers supply
    /// failure knowledge themselves, so the built-in heartbeat detector
    /// is off.
    pub protocol: ProtocolConfig,
    /// Rounds completed so far.
    pub round: u32,
    /// The driver's own stream: bootstrap contacts, activation orders,
    /// random victims (and on the engine, every handler's draws).
    pub rng: StdRng,
    /// This round's traffic in the paper's cost units.
    pub cost: RoundCost,
    /// Crashes the population's failure knowledge reports — what every
    /// phase's per-view-entry failure check and every probe reads.
    pub detected: FailureTable,
    /// Query entry of the traffic plane: gateway draws come from its own
    /// stream, never from `rng`, so seeded histories stay bit-identical
    /// with traffic on or off.
    pub gateways: Gateways,
    /// Reusable activation-order buffer: [`Self::shuffled_order`] lends
    /// it out, and the driver puts it back here after its sweep.
    pub order: Vec<NodeId>,
    /// The measurement pass's tables, reused by [`Self::measure`].
    census: Census<S::Point>,
}

impl<S: MetricSpace> World<S> {
    /// Founds the population of the paper's evaluation on `shape` —
    /// node `i` on `shape[i]`, hosting data point `i`, both gossip
    /// layers bootstrapped from `seed`'s stream ([`NodePool::found`]).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or a configuration is invalid.
    pub fn found(
        space: S,
        shape: &[S::Point],
        tman: TManConfig,
        poly: PolystyreneConfig,
        area: f64,
        seed: u64,
    ) -> Self {
        assert!(!shape.is_empty(), "cannot simulate an empty network");
        let protocol = ProtocolConfig {
            tman,
            poly,
            heartbeat_timeout_ticks: u32::MAX,
            ..ProtocolConfig::default()
        };
        protocol.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let (pool, original_points) = NodePool::found(&space, shape, protocol, &mut rng);
        Self {
            space,
            pool,
            original_points,
            area,
            protocol,
            round: 0,
            rng,
            cost: RoundCost::default(),
            detected: FailureTable::new(),
            gateways: Gateways::new(seed),
            order: Vec::new(),
            census: Census::new(),
        }
    }

    /// Injects fresh empty nodes at `positions` through the pool's
    /// two-pass [`NodePool::join`] (joiners never bootstrap each other).
    /// Returns the new ids.
    pub fn join(&mut self, positions: &[S::Point]) -> Vec<NodeId> {
        self.pool
            .join(&self.space, positions, self.protocol, &mut self.rng)
    }

    /// The victims of a correlated regional failure: every alive
    /// founding node whose original data point satisfies `predicate`
    /// ([`select_region_victims`]). Draws nothing.
    pub fn region_victims(
        &self,
        predicate: &(dyn Fn(&S::Point) -> bool + Send + Sync),
    ) -> Vec<NodeId> {
        select_region_victims(&self.original_points, predicate, &|id| {
            self.pool.contains(id)
        })
    }

    /// A uniformly random `fraction` of the alive population, drawn from
    /// [`Self::rng`] ([`select_victims`], which shuffles its own copy of
    /// the alive list).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn random_victims(&mut self, fraction: f64) -> Vec<NodeId> {
        select_victims(self.pool.alive_ids().to_vec(), fraction, &mut self.rng)
    }

    /// Opens a round: counts it and zeroes its cost.
    pub fn begin_round(&mut self) {
        self.round += 1;
        self.cost.reset();
    }

    /// The alive ids in a fresh random order drawn from [`Self::rng`] —
    /// one activation sweep. The buffer is [`Self::order`], lent out so
    /// the driver can run its sweep with itself borrowed mutably; put it
    /// back there when the sweep is done.
    pub fn shuffled_order(&mut self) -> Vec<NodeId> {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend_from_slice(self.pool.alive_ids());
        order.shuffle(&mut self.rng);
        order
    }

    /// The paper's per-round position refresh ("T-Man must update their
    /// positions in its view in each round, causing most of the
    /// traffic", Sec. IV-B): the pool pass
    /// [`NodePool::refresh_view_positions`], which also brings the
    /// position slab up to date, with each changed entry charged as one
    /// descriptor on the round's T-Man cost. `blocked(holder, subject)`
    /// keeps an entry as it is while the driver's fabric separates the
    /// two; a driver with no fabric to partition passes `|_, _| false`.
    pub fn refresh_positions(&mut self, blocked: impl Fn(NodeId, NodeId) -> bool + Sync) {
        let changed = self.pool.refresh_view_positions(blocked);
        self.cost.tman_units += changed * UNITS_PER_DESCRIPTOR as u64;
    }

    /// Measures the population as a round's end sees it: the shared
    /// [`Census`] of the pool, stamped with the round (its tick count on
    /// both drivers) and the round's cost per alive node. Reuses the
    /// World's census tables; [`Self::measure_fresh`] reads the same
    /// value through a shared borrow.
    pub fn measure(&mut self) -> RoundObservation {
        let mut census = std::mem::take(&mut self.census);
        let observation = self.measure_with(&mut census);
        self.census = census;
        observation
    }

    /// [`Self::measure`] into throwaway tables, so ad-hoc callers pay the
    /// allocations instead of holding them.
    pub fn measure_fresh(&self) -> RoundObservation {
        self.measure_with(&mut Census::new())
    }

    fn measure_with(&self, census: &mut Census<S::Point>) -> RoundObservation {
        let observation = census.of_pool(&self.space, &self.original_points, self.area, &self.pool);
        RoundObservation {
            round: self.round,
            ticks: u64::from(self.round),
            cost_units: observation.per_node(self.cost.total()),
            ..observation
        }
    }

    /// The metric space being simulated.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// The current round number (rounds completed so far).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Ids of currently alive nodes, ascending — a borrow of the pool's
    /// incrementally maintained list.
    pub fn alive_ids(&self) -> &[NodeId] {
        self.pool.alive_ids()
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.pool.alive_count()
    }

    /// The initial data points defining the target shape.
    pub fn original_points(&self) -> &[DataPoint<S::Point>] {
        &self.original_points
    }

    /// Read access to a node's Polystyrene state, if alive.
    pub fn poly_state(&self, id: NodeId) -> Option<&PolyState<S::Point>> {
        self.pool.get(id).map(|c| &c.poly)
    }

    /// The raw T-Man view a node currently holds, if alive — the local
    /// knowledge the traffic plane forwards queries over (stale entries
    /// pointing at dead peers included).
    pub fn view_entries_of(&self, id: NodeId) -> Option<&[Descriptor<S::Point>]> {
        self.pool.get(id).map(|c| c.tman.view_entries())
    }

    /// `(stale, total)` T-Man view entries against ground truth — see
    /// [`NodePool::stale_view_entries`]. A diagnostic, not a metric.
    pub fn stale_view_entries(&self) -> (u64, u64) {
        self.pool.stale_view_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polystyrene_space::prelude::*;
    use polystyrene_space::shapes;

    #[test]
    fn founding_is_positional_and_the_detector_is_off() {
        let shape = shapes::torus_grid(8, 4, 1.0);
        let world = World::found(
            Torus2::new(8.0, 4.0),
            &shape,
            TManConfig::default(),
            PolystyreneConfig::default(),
            32.0,
            3,
        );
        assert_eq!(world.protocol.heartbeat_timeout_ticks, u32::MAX);
        assert_eq!(world.alive_count(), 32);
        for (i, point) in world.original_points().iter().enumerate() {
            assert_eq!(point.pos, shape[i]);
            let guests = &world
                .poly_state(NodeId::new(i as u64))
                .expect("alive")
                .guests;
            assert_eq!(guests.as_slice(), std::slice::from_ref(point));
        }
        assert_eq!(world.measure_fresh().round, 0);
    }
}
