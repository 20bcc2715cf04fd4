//! Scenario scripting shared by every execution substrate.
//!
//! The paper's evaluation scenario (Sec. IV-A) is a three-phase script:
//! convergence for 20 rounds, a catastrophic half-torus failure at round
//! 20, and re-injection of 1600 fresh nodes at round 100, observed until
//! round 200. [`Scenario`] generalizes that — arbitrary events at
//! arbitrary rounds, including continuous [`ScenarioEvent::Churn`]
//! windows and [`ScenarioEvent::Partition`] masks. *Executing* a script
//! is the experiment plane's job: `polystyrene-lab`'s `Substrate` trait
//! and `run_experiment` driver run any script value unchanged on every
//! execution substrate. What stays here, next to the script language,
//! are the shared victim-selection and bootstrap-sampling helpers every
//! substrate routes through, so what "crash", "inject" and "churn" mean
//! cannot drift between them.

use polystyrene::prelude::DataPoint;
use polystyrene_membership::{Descriptor, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted event.
#[derive(Clone)]
pub enum ScenarioEvent<P> {
    /// Crash every founding node whose *original* data point satisfies the
    /// predicate (correlated regional failure).
    FailOriginalRegion(Arc<dyn Fn(&P) -> bool + Send + Sync>),
    /// Crash a uniformly random fraction of the alive population.
    FailRandomFraction(f64),
    /// Crash these specific nodes.
    FailNodes(Vec<NodeId>),
    /// Inject fresh, empty nodes at these positions.
    Inject(Vec<P>),
    /// Continuous churn: starting at the scheduled round, crash a uniform
    /// `rate` fraction of the alive population every round for `rounds`
    /// consecutive rounds.
    Churn {
        /// Fraction of the alive population crashed per round, in `[0, 1]`.
        rate: f64,
        /// Number of consecutive rounds the churn window lasts.
        rounds: u32,
    },
    /// Network partition: for `rounds` consecutive rounds, nodes listed in
    /// different groups cannot exchange messages (nodes absent from every
    /// group form one implicit extra group — "the rest of the network" —
    /// so a script can name just the minority side). Nobody crashes; the
    /// fabric heals when the window expires. Only substrates with a
    /// network model honor this (the substrate's partition hook is a
    /// no-op elsewhere — the cycle engine and the in-process runtime have
    /// no fabric to cut).
    ///
    /// Windows do not stack: a later `Partition` event *replaces* the
    /// whole mask and restarts the heal clock from its own window, ending
    /// the previous event's cut early. Scripts needing several cuts at
    /// once express them as multiple `groups` of one event.
    Partition {
        /// The separated groups.
        groups: Vec<Vec<NodeId>>,
        /// Number of consecutive rounds the partition lasts.
        rounds: u32,
    },
}

impl<P> std::fmt::Debug for ScenarioEvent<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FailOriginalRegion(_) => write!(f, "FailOriginalRegion(<predicate>)"),
            Self::FailRandomFraction(x) => write!(f, "FailRandomFraction({x})"),
            Self::FailNodes(ids) => write!(f, "FailNodes({} nodes)", ids.len()),
            Self::Inject(ps) => write!(f, "Inject({} nodes)", ps.len()),
            Self::Churn { rate, rounds } => write!(f, "Churn({rate}/round for {rounds} rounds)"),
            Self::Partition { groups, rounds } => {
                write!(f, "Partition({} groups for {rounds} rounds)", groups.len())
            }
        }
    }
}

/// A timed script of [`ScenarioEvent`]s plus a total duration.
#[derive(Clone, Debug)]
pub struct Scenario<P> {
    total_rounds: u32,
    events: BTreeMap<u32, Vec<ScenarioEvent<P>>>,
}

impl<P> Scenario<P> {
    /// An event-free scenario of the given duration.
    pub fn new(total_rounds: u32) -> Self {
        Self {
            total_rounds,
            events: BTreeMap::new(),
        }
    }

    /// Schedules `event` to fire just before round `round` executes
    /// (round indices count completed rounds, so `at(20, …)` fires after
    /// 20 rounds have run — the paper's "at round 20").
    pub fn at(mut self, round: u32, event: ScenarioEvent<P>) -> Self {
        self.events.entry(round).or_default().push(event);
        self
    }

    /// Total rounds the scenario runs for.
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// The events scheduled for `round`, if any.
    pub fn events_at(&self, round: u32) -> Option<&[ScenarioEvent<P>]> {
        self.events.get(&round).map(Vec::as_slice)
    }

    /// Rounds at which at least one event fires.
    pub fn event_rounds(&self) -> Vec<u32> {
        self.events.keys().copied().collect()
    }

    /// The first round at which a failure event fires, if any — the
    /// reference point of the reshaping-time metric. Partitions do not
    /// count: they disrupt connectivity without destroying any node.
    pub fn first_failure_round(&self) -> Option<u32> {
        self.events
            .iter()
            .find(|(_, evs)| {
                evs.iter().any(|e| {
                    matches!(
                        e,
                        ScenarioEvent::FailOriginalRegion(_)
                            | ScenarioEvent::FailRandomFraction(_)
                            | ScenarioEvent::FailNodes(_)
                            | ScenarioEvent::Churn { .. }
                    )
                })
            })
            .map(|(&r, _)| r)
    }
}

/// Selects the victims of a random-fraction failure: shuffles the alive
/// population and takes the rounded fraction. Both substrates'
/// `fail_fraction` implementations must route through this, so the
/// rounding rule (how many nodes a `Churn { rate }` round kills) cannot
/// drift between them.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
pub fn select_victims<R: rand::Rng + ?Sized>(
    mut alive: Vec<NodeId>,
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "failure fraction must be in [0, 1], got {fraction}"
    );
    use rand::seq::SliceRandom;
    alive.shuffle(rng);
    let kill = ((alive.len() as f64) * fraction).round() as usize;
    alive.truncate(kill);
    alive
}

/// Selects the victims of a correlated regional failure: every *founding*
/// node whose original data point satisfies `predicate` and is still
/// alive. Encodes the founding convention — node `i` founded data point
/// `i` — in exactly one place; every substrate's `fail_region` routes
/// through this, so what "kill a region" means cannot drift between the
/// cycle engine, the discrete-event network simulator, and the threaded
/// runtime.
pub fn select_region_victims<P>(
    original_points: &[DataPoint<P>],
    predicate: &(dyn Fn(&P) -> bool + Send + Sync),
    is_alive: &dyn Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    original_points
        .iter()
        .filter(|point| predicate(&point.pos))
        .map(|point| NodeId::new(point.id.as_u64()))
        .filter(|&id| is_alive(id))
        .collect()
}

/// Draws bootstrap contacts for a freshly injected node: `count` uniform
/// draws over the alive population (with replacement — duplicate
/// descriptors are the receiving view's problem to fold), positions
/// resolved through the substrate's current belief (draws whose position
/// cannot be resolved are skipped without retry). Every substrate
/// shares this (the live cluster resolves positions through its
/// observation board) so what "inject" bootstraps — and how much driver
/// entropy it consumes — cannot drift between them.
pub fn sample_bootstrap_contacts<P, R: rand::Rng + ?Sized>(
    alive: &[NodeId],
    position_of: &dyn Fn(NodeId) -> Option<P>,
    count: usize,
    rng: &mut R,
) -> Vec<Descriptor<P>> {
    if alive.is_empty() {
        return Vec::new();
    }
    (0..count)
        .filter_map(|_| {
            let peer = alive[rng.random_range(0..alive.len())];
            position_of(peer).map(|pos| Descriptor::new(peer, pos))
        })
        .collect()
}

/// The paper's three-phase evaluation scenario on a `cols × rows` torus
/// grid (Sec. IV-A), parameterized so the scaling experiments (Fig. 10)
/// can reuse it at every network size — and, being substrate-agnostic,
/// so it runs identically on the cycle engine and the threaded runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperScenario {
    /// Grid columns (paper: 80).
    pub cols: usize,
    /// Grid rows (paper: 40).
    pub rows: usize,
    /// Grid step (paper: 1.0).
    pub step: f64,
    /// Round of the catastrophic half-torus failure (paper: 20).
    pub failure_round: u32,
    /// Round of the fresh-node re-injection, `None` to skip Phase 3
    /// (paper: 100).
    pub inject_round: Option<u32>,
    /// Total rounds observed (paper: 200).
    pub total_rounds: u32,
}

impl Default for PaperScenario {
    fn default() -> Self {
        Self {
            cols: 80,
            rows: 40,
            step: 1.0,
            failure_round: 20,
            inject_round: Some(100),
            total_rounds: 200,
        }
    }
}

impl PaperScenario {
    /// A smaller variant for quick runs and CI: same phases on a reduced
    /// grid and timeline.
    pub fn small() -> Self {
        Self {
            cols: 20,
            rows: 10,
            step: 1.0,
            failure_round: 15,
            inject_round: Some(45),
            total_rounds: 70,
        }
    }

    /// A scaling variant with Phase 3 disabled, used by the Fig. 10
    /// reshaping-time sweeps.
    pub fn reshaping_only(cols: usize, rows: usize, failure_round: u32, tail: u32) -> Self {
        Self {
            cols,
            rows,
            step: 1.0,
            failure_round,
            inject_round: None,
            total_rounds: failure_round + tail,
        }
    }

    /// Number of nodes in the founding population.
    pub fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Torus extents.
    pub fn extents(&self) -> (f64, f64) {
        (self.cols as f64 * self.step, self.rows as f64 * self.step)
    }

    /// Torus area (for the reference homogeneity).
    pub fn area(&self) -> f64 {
        let (w, h) = self.extents();
        w * h
    }

    /// The initial positions (the target shape).
    pub fn shape(&self) -> Vec<[f64; 2]> {
        polystyrene_space::shapes::torus_grid(self.cols, self.rows, self.step)
    }

    /// Builds the timed event script.
    pub fn script(&self) -> Scenario<[f64; 2]> {
        let (width, _) = self.extents();
        let mut scenario = Scenario::new(self.total_rounds).at(
            self.failure_round,
            ScenarioEvent::FailOriginalRegion(Arc::new(move |p: &[f64; 2]| p[0] >= width / 2.0)),
        );
        if let Some(inject_round) = self.inject_round {
            scenario = scenario.at(
                inject_round,
                ScenarioEvent::Inject(polystyrene_space::shapes::torus_grid_offset(
                    self.cols / 2,
                    self.rows,
                    self.step,
                )),
            );
        }
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_event_rounds_and_failure_detection() {
        let s: Scenario<[f64; 2]> = Scenario::new(50)
            .at(10, ScenarioEvent::FailRandomFraction(0.1))
            .at(30, ScenarioEvent::Inject(vec![[0.0, 0.0]]));
        assert_eq!(s.event_rounds(), vec![10, 30]);
        assert_eq!(s.first_failure_round(), Some(10));
        let s2: Scenario<[f64; 2]> = Scenario::new(10).at(5, ScenarioEvent::Inject(vec![]));
        assert_eq!(s2.first_failure_round(), None);
        let s3: Scenario<[f64; 2]> = Scenario::new(10).at(
            3,
            ScenarioEvent::Churn {
                rate: 0.01,
                rounds: 2,
            },
        );
        assert_eq!(s3.first_failure_round(), Some(3));
    }

    #[test]
    fn partition_is_not_a_failure_event() {
        let s: Scenario<[f64; 2]> = Scenario::new(10).at(
            3,
            ScenarioEvent::Partition {
                groups: vec![],
                rounds: 2,
            },
        );
        assert_eq!(s.first_failure_round(), None);
    }

    #[test]
    fn region_victims_follow_the_founding_convention() {
        use polystyrene::prelude::PointId;
        let originals: Vec<DataPoint<[f64; 2]>> = (0..6)
            .map(|i| DataPoint::new(PointId::new(i), [i as f64, 0.0]))
            .collect();
        let victims = select_region_victims(
            &originals,
            &|p: &[f64; 2]| p[0] >= 3.0,
            &|id| id != NodeId::new(4), // node 4 already dead
        );
        assert_eq!(victims, vec![NodeId::new(3), NodeId::new(5)]);
    }

    #[test]
    fn bootstrap_contacts_skip_unresolvable_ids() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Node 9 has no known position: draws landing on it are skipped.
        let alive = vec![NodeId::new(4), NodeId::new(9)];
        let position_of = |id| (id == NodeId::new(4)).then_some(4.5);
        let contacts = sample_bootstrap_contacts(&alive, &position_of, 8, &mut rng);
        assert!(!contacts.is_empty());
        assert!(contacts.iter().all(|d| d.id == NodeId::new(4)));
        assert!(contacts.iter().all(|d| d.pos == 4.5));
        assert!(sample_bootstrap_contacts(&[], &position_of, 4, &mut rng).is_empty());
    }

    #[test]
    fn paper_scenario_defaults_match_section_iv() {
        let p = PaperScenario::default();
        assert_eq!(p.node_count(), 3200);
        assert_eq!(p.area(), 3200.0);
        assert_eq!(p.failure_round, 20);
        assert_eq!(p.inject_round, Some(100));
        assert_eq!(p.total_rounds, 200);
        let script = p.script();
        assert_eq!(script.event_rounds(), vec![20, 100]);
        assert_eq!(script.first_failure_round(), Some(20));
    }

    #[test]
    fn reshaping_only_variant_has_no_injection() {
        let p = PaperScenario::reshaping_only(16, 8, 10, 30);
        assert_eq!(p.total_rounds, 40);
        assert_eq!(p.script().event_rounds(), vec![10]);
    }

    #[test]
    fn shapes_helpers_consistency() {
        let p = PaperScenario::default();
        assert_eq!(p.shape().len(), 3200);
        assert_eq!(
            p.shape().len(),
            polystyrene_space::shapes::torus_grid(p.cols, p.rows, p.step).len()
        );
    }
}
