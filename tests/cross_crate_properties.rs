//! Property-based integration tests across the whole stack.
//!
//! Randomized configurations (population, slices, view size, protocol,
//! concurrency) must never violate the structural invariants: estimates are
//! probabilities, view invariants hold, the random-value multiset is
//! conserved by ordering runs, and determinism holds for every
//! configuration.

use dslice::prelude::*;
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Jk),
        Just(ProtocolKind::ModJk),
        Just(ProtocolKind::Ranking),
        (64usize..512).prop_map(|w| ProtocolKind::SlidingRanking { window: w }),
    ]
}

fn arb_concurrency() -> impl Strategy<Value = Concurrency> {
    prop_oneof![
        Just(Concurrency::None),
        Just(Concurrency::Half),
        Just(Concurrency::Full),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_invariants_hold_for_random_configs(
        n in 20usize..150,
        slices in 1usize..12,
        view_size in 2usize..16,
        seed in 0u64..1000,
        kind in arb_protocol(),
        concurrency in arb_concurrency(),
        cycles in 3usize..25,
    ) {
        let cfg = SimConfig {
            n,
            view_size,
            partition: Partition::equal(slices).unwrap(),
            concurrency,
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, kind).unwrap();
        let record = engine.run(cycles);

        // Population unchanged without churn.
        prop_assert_eq!(engine.population(), n);
        // Estimates are probabilities (or the initial (0,1] draw).
        for (_, _, est) in engine.snapshot() {
            prop_assert!((0.0..=1.0).contains(&est), "estimate {est}");
        }
        // SDM and GDM are nonnegative everywhere.
        for c in &record.cycles {
            prop_assert!(c.sdm >= 0.0 && c.gdm >= 0.0);
            prop_assert_eq!(c.n, n);
        }
        // Views stay structurally valid.
        for (owner, ids) in engine.view_snapshot() {
            let unique: std::collections::HashSet<_> = ids.iter().collect();
            prop_assert_eq!(unique.len(), ids.len(), "duplicate view entries");
            prop_assert!(!ids.contains(&owner), "self-pointer in view");
            prop_assert!(ids.len() <= view_size, "view overflow");
        }
    }

    #[test]
    fn ordering_conserves_values_under_any_concurrency_when_atomic(
        n in 20usize..120,
        seed in 0u64..500,
        kind in prop_oneof![Just(ProtocolKind::Jk), Just(ProtocolKind::ModJk)],
    ) {
        // Under the atomic model (Concurrency::None) swaps are exact
        // exchanges: the sorted multiset of random values is invariant.
        let cfg = SimConfig {
            n,
            view_size: 8,
            partition: Partition::equal(4).unwrap(),
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, kind).unwrap();
        let mut before: Vec<f64> =
            engine.snapshot().iter().map(|&(_, _, r)| r).collect();
        engine.run(20);
        let mut after: Vec<f64> =
            engine.snapshot().iter().map(|&(_, _, r)| r).collect();
        before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(before, after);
    }

    #[test]
    fn runs_are_deterministic(
        n in 20usize..100,
        seed in 0u64..500,
        kind in arb_protocol(),
        concurrency in arb_concurrency(),
    ) {
        let cfg = SimConfig {
            n,
            view_size: 6,
            partition: Partition::equal(5).unwrap(),
            concurrency,
            seed,
            ..SimConfig::default()
        };
        let a = Engine::new(cfg.clone(), kind).unwrap().run(8);
        let b = Engine::new(cfg, kind).unwrap().run(8);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn churned_engines_never_panic_and_stay_consistent(
        n in 30usize..120,
        seed in 0u64..300,
        rate in 0.001f64..0.05,
        correlated in any::<bool>(),
    ) {
        let schedule = dslice::sim::churn::ChurnSchedule {
            rate,
            period: 2,
            stop_after: None,
        };
        let churn: Box<dyn ChurnModel> = if correlated {
            Box::new(CorrelatedChurn::new(schedule, 1.0))
        } else {
            Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            ))
        };
        let cfg = SimConfig {
            n,
            view_size: 6,
            partition: Partition::equal(4).unwrap(),
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking)
            .unwrap()
            .with_churn(churn);
        let record = engine.run(15);
        // Symmetric churn conserves the population.
        prop_assert_eq!(engine.population(), n);
        for c in &record.cycles {
            prop_assert_eq!(c.left, c.joined);
        }
    }
}
