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

use polystyrene::prelude::{DataPoint, PointId};
use polystyrene_membership::{Descriptor, NodeId};
use std::collections::BTreeMap;

/// One scripted event.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioEvent<P> {
    /// Crash these specific nodes, in order (dead ones are skipped). A
    /// correlated regional failure is the [`region_ids`] of its region.
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

/// A timed script of [`ScenarioEvent`]s plus a total duration: a plain
/// value, so two scripts compare with `==` and print with `{:?}`.
#[derive(Clone, Debug, PartialEq)]
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

    /// The first round at which a failure event fires, if any — the
    /// reference point of the reshaping-time metric. Partitions do not
    /// count: they disrupt connectivity without destroying any node.
    pub fn first_failure_round(&self) -> Option<u32> {
        self.events
            .iter()
            .find(|(_, evs)| {
                evs.iter()
                    .any(|e| matches!(e, ScenarioEvent::FailNodes(_) | ScenarioEvent::Churn { .. }))
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

/// The founding data points of a population standing on `shape`: point
/// `i` at `shape[i]`, with id `i`, founded by node `i`. Every substrate
/// founds with these, and the census and [`region_ids`] rely on the
/// convention.
pub fn founding_points<P: Clone>(shape: &[P]) -> Vec<DataPoint<P>> {
    shape
        .iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(PointId::new(i as u64), p.clone()))
        .collect()
}

/// The founders of a correlated regional failure: the ids, ascending,
/// of every founder (founder `i` stands on `shape[i]`) whose position
/// satisfies `predicate`, alive or not. A region kill crashes them in
/// this order and skips the dead ones, on every substrate and in a
/// script's [`ScenarioEvent::FailNodes`] alike, so what "kill a region"
/// means cannot drift between them.
pub fn region_ids<'a, P: 'a>(
    shape: impl IntoIterator<Item = &'a P>,
    predicate: impl Fn(&P) -> bool,
) -> Vec<NodeId> {
    shape
        .into_iter()
        .enumerate()
        .filter(|(_, p)| predicate(p))
        .map(|(i, _)| NodeId::new(i as u64))
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

/// T-Man contacts every node is given when it founds or joins the
/// population ("each physical node is initialized with 10 random
/// neighbors taken from the RPS layer", Sec. IV-A).
pub const TMAN_BOOTSTRAP: usize = 10;

/// Founder `i`'s bootstrap contacts among the founders standing on
/// `shape` (founder `j` on `shape[j]`), the rule every substrate founds
/// by. It draws from `rng` distinct RPS contacts other than `i` until it
/// holds `min(rps_view_cap, n - 1)`, then makes [`TMAN_BOOTSTRAP`] T-Man
/// draws with replacement, skipping (without a retry) any draw of `i`.
/// Returns `(rps, tman)`.
pub fn founder_contacts<P: Clone, R: rand::Rng + ?Sized>(
    i: usize,
    shape: &[P],
    rps_view_cap: usize,
    rng: &mut R,
) -> (Vec<Descriptor<P>>, Vec<Descriptor<P>>) {
    let n = shape.len();
    let contact = |j: usize| Descriptor::new(NodeId::new(j as u64), shape[j].clone());
    let mut rps: Vec<Descriptor<P>> = Vec::new();
    while rps.len() < rps_view_cap.min(n - 1) {
        let j = rng.random_range(0..n);
        if j != i && !rps.iter().any(|d| d.id.index() == j) {
            rps.push(contact(j));
        }
    }
    let mut tman = Vec::new();
    for _ in 0..TMAN_BOOTSTRAP {
        let j = rng.random_range(0..n);
        if j != i {
            tman.push(contact(j));
        }
    }
    (rps, tman)
}

/// A joiner's bootstrap contacts, the rule every substrate joins by:
/// `rps_view_cap` RPS and then [`TMAN_BOOTSTRAP`] T-Man draws over the
/// `alive` population through [`sample_bootstrap_contacts`]. Returns
/// `(rps, tman)`.
pub fn joiner_contacts<P, R: rand::Rng + ?Sized>(
    alive: &[NodeId],
    position_of: &dyn Fn(NodeId) -> Option<P>,
    rps_view_cap: usize,
    rng: &mut R,
) -> (Vec<Descriptor<P>>, Vec<Descriptor<P>>) {
    let rps = sample_bootstrap_contacts(alive, position_of, rps_view_cap, rng);
    let tman = sample_bootstrap_contacts(alive, position_of, TMAN_BOOTSTRAP, rng);
    (rps, tman)
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
            failure_round,
            inject_round: None,
            total_rounds: failure_round + tail,
        }
    }

    /// Number of nodes in the founding population.
    pub fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Torus extents (the paper's unit grid step).
    pub fn extents(&self) -> (f64, f64) {
        (self.cols as f64, self.rows as f64)
    }

    /// Torus area (for the reference homogeneity).
    pub fn area(&self) -> f64 {
        let (w, h) = self.extents();
        w * h
    }

    /// The initial positions (the target shape).
    pub fn shape(&self) -> Vec<[f64; 2]> {
        polystyrene_space::shapes::torus_grid(self.cols, self.rows, 1.0)
    }

    /// Builds the timed event script: the failure kills the founders of
    /// the right half-torus.
    pub fn script(&self) -> Scenario<[f64; 2]> {
        let (width, _) = self.extents();
        let dead_half = region_ids(
            &self.shape(),
            polystyrene_space::shapes::in_right_half(width),
        );
        let mut scenario = Scenario::new(self.total_rounds)
            .at(self.failure_round, ScenarioEvent::FailNodes(dead_half));
        if let Some(inject_round) = self.inject_round {
            scenario = scenario.at(
                inject_round,
                ScenarioEvent::Inject(polystyrene_space::shapes::torus_grid_offset(
                    self.cols / 2,
                    self.rows,
                    1.0,
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
            .at(30, ScenarioEvent::Inject(vec![[0.0, 0.0]]))
            .at(10, ScenarioEvent::FailNodes(vec![NodeId::new(3)]));
        assert_eq!(
            s.events_at(10),
            Some(&[ScenarioEvent::FailNodes(vec![NodeId::new(3)])][..])
        );
        assert_eq!(s.events_at(20), None);
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
        // Founder `i` stands on `shape[i]`: the ids come out ascending.
        let shape: Vec<[f64; 2]> = [4.0, 0.0, 5.0, 3.0, 1.0, 9.0]
            .iter()
            .map(|&x| [x, 0.0])
            .collect();
        let ids = region_ids(&shape, |p: &[f64; 2]| p[0] >= 3.0);
        let expected: Vec<NodeId> = [0, 2, 3, 5].into_iter().map(NodeId::new).collect();
        assert_eq!(ids, expected);
        assert!(region_ids(&shape, |_: &[f64; 2]| false).is_empty());
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
        assert_eq!(p.script().first_failure_round(), Some(20));
    }

    #[test]
    fn paper_script_is_a_plain_value() {
        // The grid is row-major: id `i` stands in column `i % 80`, and
        // the right half-torus is columns 40 and up.
        let dead_half: Vec<NodeId> = (0..3200u64)
            .filter(|i| i % 80 >= 40)
            .map(NodeId::new)
            .collect();
        assert_eq!(dead_half.len(), 1600);
        let expected = Scenario::new(200)
            .at(20, ScenarioEvent::FailNodes(dead_half))
            .at(
                100,
                ScenarioEvent::Inject(polystyrene_space::shapes::torus_grid_offset(40, 40, 1.0)),
            );
        let script = PaperScenario::default().script();
        assert_eq!(script, expected);
        assert!(!format!("{script:?}").contains("<predicate>"));
    }

    #[test]
    fn reshaping_only_variant_has_no_injection() {
        let p = PaperScenario::reshaping_only(16, 8, 10, 30);
        assert_eq!(p.total_rounds, 40);
        let dead_half = region_ids(&p.shape(), |q: &[f64; 2]| q[0] >= 8.0);
        assert_eq!(dead_half.len(), 64);
        assert_eq!(
            p.script(),
            Scenario::new(40).at(10, ScenarioEvent::FailNodes(dead_half))
        );
    }

    #[test]
    fn shapes_helpers_consistency() {
        let p = PaperScenario::default();
        assert_eq!(p.shape().len(), 3200);
        assert_eq!(
            p.shape().len(),
            polystyrene_space::shapes::torus_grid(p.cols, p.rows, 1.0).len()
        );
    }
}
