//! Sans-IO protocol core of the Polystyrene reproduction.
//!
//! The paper's per-node protocol (Fig. 3/4: RPS sampling, T-Man topology
//! construction, then recovery → backup → migration) used to be
//! implemented twice — once as atomic phases in the cycle engine
//! (`polystyrene-sim`) and once as mailbox handlers in the threaded
//! runtime (`polystyrene-runtime`). This crate extracts the single
//! authoritative state machine both drivers now share:
//!
//! * [`node::ProtocolNode`] owns the full per-node stack (`PeerSampling`,
//!   `TMan`, `PolyState`, heartbeat bookkeeping) and speaks only in typed
//!   [`wire::Event`]s in and [`wire::Effect`]s out — it never touches a
//!   socket, a channel, or a clock;
//! * [`scenario`] holds the timed event scripts ([`scenario::Scenario`],
//!   including the paper's three-phase evaluation, continuous
//!   [`scenario::ScenarioEvent::Churn`] windows and
//!   [`scenario::ScenarioEvent::Partition`] masks) together with the
//!   shared victim-selection helpers; the `polystyrene-lab` experiment
//!   plane executes the *same* script value unchanged on the cycle
//!   engine, the discrete-event network simulator, and the live
//!   clusters;
//! * [`observe`] defines the unified [`observe::RoundObservation`]
//!   record every substrate reports experiment results in, the one
//!   [`observe::Census`] that measures homogeneity and survival for all
//!   of them, and the reference-homogeneity bound and reshaping-time
//!   rule the recovery criterion is defined by;
//! * [`net`] defines the shared network model ([`net::FaultyNetwork`]
//!   under a [`net::LinkProfile`]): what a driver's fabric does to each
//!   message — deliver after a latency, drop, or block across a
//!   partition;
//! * [`codec`] pins the byte encoding of the sans-IO surface before any
//!   real transport exists, guarded by property round-trips;
//! * [`pool`] is the dense slot pool (free list, generation-stamped
//!   [`pool::SlotRef`]s, struct-of-arrays position slab) the
//!   deterministic drivers store their [`node::ProtocolNode`]
//!   populations in, [`world`] the ground truth both stand on (the
//!   pool, the founding shape, the driver stream, the failure
//!   knowledge, and the founding, victim, refresh and census code they
//!   share), and [`par`] the fork-join fan-out their batch passes share.
//!
//! # Driving the state machine
//!
//! A driver feeds the node and executes its effects:
//!
//! * the **cycle engine** calls [`node::ProtocolNode::on_phase_into`] for every
//!   node phase-by-phase (PeerSim semantics: one global activation order
//!   per phase) and applies effects synchronously — a [`wire::Effect::Send`]
//!   is delivered to the destination node's
//!   [`node::ProtocolNode::on_event_into`] in the same instant, which keeps
//!   pairwise exchanges atomic and histories bit-identical to the
//!   pre-extraction engine;
//! * the **threaded runtime** calls [`node::ProtocolNode::on_tick_into`] on a
//!   wall-clock timer and maps each effect onto a mailbox message; replies
//!   arrive later (or never) as [`wire::Event::Message`]s.
//!
//! Both, and the event kernel's [`node::ProtocolNode::on_round_into`], run
//! the one round schedule [`node::Phase::ALL`]: the protocol order is
//! written there and nowhere else.
//!
//! Reachability is probed before a request is built
//! ([`wire::Effect::Probe`] answered by [`wire::Event::ProbeOk`] /
//! [`wire::Event::PeerUnreachable`]): the synchronous driver answers from
//! ground truth without consuming entropy for exchanges that cannot
//! happen, and the asynchronous driver answers from its address book.
//!
//! ```
//! use polystyrene::prelude::*;
//! use polystyrene_membership::{Descriptor, NodeId};
//! use polystyrene_protocol::prelude::*;
//! use polystyrene_space::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = ProtocolConfig::default();
//! let origin = DataPoint::new(PointId::new(0), [0.0, 0.0]);
//! let contacts = vec![Descriptor::new(NodeId::new(1), [1.0, 0.0])];
//! let mut node = ProtocolNode::new(
//!     NodeId::new(0),
//!     Euclidean2,
//!     config,
//!     PolyState::with_initial_point(origin),
//!     contacts.clone(),
//!     contacts,
//! );
//! let mut sink = EffectSink::new();
//! node.on_tick_into(&mut rng, &mut sink);
//! assert!(sink.drain().any(|e| matches!(e, Effect::Probe { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Seed offset separating the application traffic plane's entropy —
/// gateway selection and query-link faults — from every protocol-plane
/// stream. Shared by all substrates so that enabling query traffic on
/// any of them leaves the protocol history (and the pinned golden
/// fingerprints) byte-identical.
pub const TRAFFIC_SEED_TAG: u64 = 0x0074_7261_6666_6963; // "traffic"

/// The seed of node `id`'s private entropy stream under a driver seeded
/// with `seed` — the one rule every substrate that gives nodes their own
/// streams derives them by (the live clusters' node threads, the event
/// kernel's rng slab). Node 0's seed is `seed` itself, which the drivers
/// also seed their own stream with: node 0 starts on the numbers the
/// driver spent on bootstrap contacts, which nothing feeds back into.
pub fn node_seed(seed: u64, id: polystyrene_membership::NodeId) -> u64 {
    seed.wrapping_add(id.as_u64().wrapping_mul(0x9E37))
}

pub mod codec;
pub mod config;
pub mod cost;
pub mod net;
pub mod node;
pub mod observe;
pub mod par;
pub mod pool;
pub mod scenario;
pub mod wire;
pub mod world;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::{ProtocolConfig, SubstrateConfig};
    pub use crate::cost::{wire_units, RoundCost, UNITS_PER_DESCRIPTOR, UNITS_PER_POINT};
    pub use crate::net::{Fate, FaultyNetwork, LinkProfile};
    pub use crate::node::{Phase, ProtocolNode};
    pub use crate::observe::{
        reference_homogeneity, reshaping_time, Census, RoundObservation, TrafficStats,
    };
    pub use crate::pool::{NodePool, SlotRef};
    pub use crate::scenario::{
        founder_contacts, founding_points, joiner_contacts, sample_bootstrap_contacts,
        select_region_victims, select_victims, PaperScenario, Scenario, ScenarioEvent,
        TMAN_BOOTSTRAP,
    };
    pub use crate::wire::{Channel, Effect, EffectSink, Event, QueryItem, QueryReplyItem, Wire};
    pub use crate::world::World;
}

pub use prelude::*;
