//! Cross-crate property-based tests: system invariants that must hold for
//! any workload, not just the paper's scenarios.

use polystyrene_repro::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Data points are conserved absent failures: whatever the seed and
    /// torus size, after any number of rounds every original point has
    /// exactly one primary holder.
    #[test]
    fn no_failure_no_point_loss_no_duplication(
        seed in 0u64..1000,
        cols in 4usize..10,
        rows in 3usize..8,
        rounds in 1u32..12,
    ) {
        let mut cfg = SubstrateConfig::default();
        cfg.area = (cols * rows) as f64;
        cfg.seed = seed;
        cfg.tman.view_cap = 20;
        cfg.tman.m = 8;
        let mut engine = Engine::new(
            Torus2::new(cols as f64, rows as f64),
            shapes::torus_grid(cols, rows, 1.0),
            cfg,
        );
        engine.run(rounds);
        let mut holders: HashMap<u64, usize> = HashMap::new();
        for &id in engine.alive_ids() {
            for g in &engine.poly_state(id).unwrap().guests {
                *holders.entry(g.id.as_u64()).or_default() += 1;
            }
        }
        for i in 0..(cols * rows) as u64 {
            prop_assert_eq!(
                holders.get(&i).copied().unwrap_or(0),
                1,
                "point {} has {} holders",
                i,
                holders.get(&i).copied().unwrap_or(0)
            );
        }
    }

    /// After an arbitrary regional failure, surviving points are never
    /// duplicated beyond transient copies, and the surviving fraction is
    /// at least the per-point backup coverage bound.
    #[test]
    fn failure_preserves_uniqueness_eventually(
        seed in 0u64..500,
        cut in 2usize..6,
    ) {
        let cols = 8usize;
        let rows = 4usize;
        let mut cfg = SubstrateConfig::default();
        cfg.area = (cols * rows) as f64;
        cfg.seed = seed;
        cfg.tman.view_cap = 20;
        cfg.tman.m = 8;
        let mut engine = Engine::new(
            Torus2::new(cols as f64, rows as f64),
            shapes::torus_grid(cols, rows, 1.0),
            cfg,
        );
        engine.run(10);
        let cut_x = cut as f64;
        engine.fail_original_region(&move |p: &[f64; 2]| p[0] >= cut_x);
        engine.run(20);
        // Eventually: every surviving point has exactly one holder.
        let mut holders: HashMap<u64, usize> = HashMap::new();
        for &id in engine.alive_ids() {
            for g in &engine.poly_state(id).unwrap().guests {
                *holders.entry(g.id.as_u64()).or_default() += 1;
            }
        }
        let m = engine.compute_metrics();
        let surviving = holders.len() as f64 / (cols * rows) as f64;
        prop_assert!((surviving - m.surviving_points).abs() < 0.35);
        let duplicated = holders.values().filter(|&&c| c > 1).count();
        prop_assert!(
            duplicated * 10 <= holders.len(),
            "{} of {} surviving points still duplicated after 20 rounds",
            duplicated,
            holders.len()
        );
    }

    /// The reference homogeneity bound is monotone: more nodes over the
    /// same area always tightens it.
    #[test]
    fn reference_homogeneity_monotone(area in 1.0..10_000.0f64, n in 1usize..10_000) {
        prop_assert!(
            reference_homogeneity(area, n + 1) <= reference_homogeneity(area, n)
        );
    }

    /// Required replication achieves its survival target for the paper's
    /// failure model across the whole parameter plane.
    #[test]
    fn replication_math_consistency(pf in 0.05..0.95f64, ps in 0.1..0.99f64) {
        let k = required_replication(pf, ps);
        prop_assert!(survival_probability(pf, k) >= ps - 1e-12);
    }

    /// A migration exchange conserves data points exactly: whatever the
    /// guest sets, positions, split strategy and seed, the union of point
    /// ids after the two halves every driver runs (`absorb_and_split` at
    /// the responder, `adopt_reply` at the initiator) equals the union
    /// before — nothing lost, nothing duplicated, nothing invented
    /// (Algorithm 3 is a pure repartition).
    #[test]
    fn migration_halves_conserve_guests(
        seed in 0u64..1000,
        np in 0usize..12,
        nq in 0usize..12,
        split_pick in 0usize..3,
        px in 0.0..16.0f64,
        qx in 0.0..16.0f64,
    ) {
        use rand::SeedableRng;
        let space = Torus2::new(16.0, 8.0);
        let split = SplitStrategy::ALL[split_pick % SplitStrategy::ALL.len()];
        let cfg = PolystyreneConfig { replication: 3, split, ..PolystyreneConfig::default() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let point = |i: u64| DataPoint::new(
            PointId::new(i),
            [(i as f64 * 3.7) % 16.0, (i as f64 * 1.3) % 8.0],
        );
        let mut p = PolyState::empty_at([px, 1.0]);
        p.absorb_guests((0..np as u64).map(point).collect());
        let mut q = PolyState::empty_at([qx, 6.0]);
        q.absorb_guests((np as u64..(np + nq) as u64).map(point).collect());

        let before: std::collections::BTreeSet<u64> = p
            .guests
            .iter()
            .chain(q.guests.iter())
            .map(|g| g.id.as_u64())
            .collect();
        prop_assert_eq!(before.len(), np + nq, "test setup must not duplicate ids");

        let mut shipped = p.guest_ids();
        shipped.sort_unstable();
        let reply = absorb_and_split(&space, &cfg, &mut q, &p.pos, p.guests.clone(), &mut rng);
        adopt_reply(&mut p, reply.for_initiator, &shipped);
        p.project(&space, &cfg, &mut rng);

        prop_assert_eq!(
            p.guests.len() + q.guests.len(),
            np + nq,
            "guest count changed: {} + {} != {}",
            p.guests.len(), q.guests.len(), np + nq
        );
        let after: std::collections::BTreeSet<u64> = p
            .guests
            .iter()
            .chain(q.guests.iter())
            .map(|g| g.id.as_u64())
            .collect();
        prop_assert_eq!(after, before, "point ids not conserved");
    }

    /// Recovery never resurrects a point twice: reactivated ghosts dedup
    /// against guests already hosted, the consumed ghost entries are gone,
    /// and an immediately repeated pass reactivates nothing.
    #[test]
    fn recovery_never_resurrects_twice(
        n_origins in 1usize..6,
        pts_per_origin in 1usize..5,
        overlap in 0u64..8,
    ) {
        use polystyrene::recovery::recover;
        use polystyrene_membership::NodeId;

        let point = |i: u64| DataPoint::new(PointId::new(i), [i as f64, 0.0]);
        let mut s = PolyState::with_initial_point(point(0));
        // Ghost entries deliberately overlap each other and the hosted
        // guest: ids are drawn from a small window starting at `overlap`.
        for origin in 0..n_origins as u64 {
            let pts: Vec<_> = (0..pts_per_origin as u64)
                .map(|j| point((overlap + origin * 2 + j) % 10))
                .collect();
            s.store_ghosts(NodeId::new(origin + 100), &pts);
        }
        let all_ghost_ids: std::collections::BTreeSet<u64> = s
            .ghosts
            .items()
            .iter()
            .map(|g| g.id.as_u64())
            .collect();

        let first = recover(&mut s, |_| true);
        prop_assert!(s.ghosts.is_empty(), "consumed ghost entries must be dropped");
        // No duplicates among guests.
        let mut ids: Vec<u64> = s.guests.iter().map(|g| g.id.as_u64()).collect();
        ids.sort();
        let unique = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), unique, "a point was resurrected twice");
        // Everything that existed as a ghost is now hosted (union with the
        // original guest), and the reactivation count matches the dedup.
        let hosted: std::collections::BTreeSet<u64> =
            s.guests.iter().map(|g| g.id.as_u64()).collect();
        for id in &all_ghost_ids {
            prop_assert!(hosted.contains(id), "ghosted point {} vanished", id);
        }
        // Initially only point 0 was hosted, so the reactivation count is
        // exactly the newly hosted points.
        prop_assert_eq!(
            first.reactivated_points,
            hosted.len() - 1,
            "reactivation count must equal newly hosted points"
        );
        // Idempotence: a second pass finds nothing to resurrect.
        let second = recover(&mut s, |_| true);
        prop_assert!(second.is_empty());
        prop_assert_eq!(second.reactivated_points, 0);
        prop_assert_eq!(s.guests.len(), hosted.len());
    }
}
