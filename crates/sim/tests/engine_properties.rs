//! Property tests for the scale engine: sampling, slab aliasing, churn
//! arithmetic, and the membership exchange schedule.
//!
//! Invariants the slab and stream rework must never break:
//!
//! * the per-node entry sampler never hands a node itself or a duplicate;
//! * slot reuse under arbitrary churn sequences never aliases two live
//!   nodes (every live id maps to exactly one slot, every slot to one id);
//! * the reported population always matches the churn-plan arithmetic;
//! * the schedule-then-execute membership phase schedules at most one
//!   exchange per initiator per cycle, never places a node in two pairs of
//!   one conflict-free batch, and only pairs nodes alive at schedule time.

use dslice_core::{NodeId, NodeSlab, Partition};
use dslice_sim::churn::{ChurnModel, ChurnPlan, ChurnSchedule};
use dslice_sim::{
    AttributeDistribution, Engine, ProtocolKind, SamplerKind, SimConfig, UncorrelatedChurn,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig {
        n,
        view_size: 8,
        partition: Partition::equal(4).unwrap(),
        seed,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bootstrap sampler (via the engine's debug hook) never yields the
    /// owner and never yields the same node twice, for any owner, any
    /// requested count and any population size.
    #[test]
    fn sampled_entries_have_no_owner_and_no_duplicates(
        n in 1usize..80,
        owner_raw in 0u64..100,
        count in 0usize..30,
        seed in 0u64..1000,
    ) {
        let mut engine = Engine::new(cfg(n, seed), ProtocolKind::Ranking).unwrap();
        let owner = NodeId::new(owner_raw);
        let entries = engine.debug_random_entries(owner, count);
        prop_assert!(entries.len() <= count.min(n));
        let mut seen = HashSet::new();
        for e in &entries {
            prop_assert!(e.id != owner, "sampler handed the owner to itself");
            prop_assert!(seen.insert(e.id), "duplicate entry for {}", e.id);
        }
        // When the pool allows it, the sampler fills the full request.
        let headroom = if owner_raw < n as u64 { n - 1 } else { n };
        prop_assert_eq!(entries.len(), count.min(headroom));
    }

    /// Slot reuse never aliases: after an arbitrary interleaving of
    /// inserts and removes, every live id owns exactly one slot and no two
    /// live ids share one.
    #[test]
    fn slab_slot_reuse_never_aliases_live_nodes(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        let mut slab: NodeSlab<u64> = NodeSlab::new();
        let mut live: HashSet<u64> = HashSet::new();
        for (raw, insert) in ops {
            let id = NodeId::new(raw);
            if insert {
                if !live.contains(&raw) {
                    slab.insert(id, raw);
                    live.insert(raw);
                }
            } else if live.remove(&raw) {
                prop_assert_eq!(slab.remove(id), Some(raw));
            }
            prop_assert_eq!(slab.len(), live.len());
        }
        // Every live id is stored under its own slot, slots are unique,
        // and each slot's payload is the id that indexes it.
        let mut slots_seen = HashSet::new();
        for &raw in &live {
            let id = NodeId::new(raw);
            let slot = slab.slot_of(id).expect("live id must have a slot");
            prop_assert!(slots_seen.insert(slot), "slot {} aliased", slot);
            prop_assert_eq!(slab.get(id).copied(), Some(raw), "payload mismatch");
        }
        // And iteration agrees with the index.
        let iterated: HashSet<u64> = slab.ids().map(|i| i.as_u64()).collect();
        prop_assert_eq!(iterated, live);
    }

    /// The engine's reported population always equals
    /// `initial + Σ joined − Σ left`, and per-cycle stats agree with the
    /// live count, under arbitrary churn rates/periods.
    #[test]
    fn population_matches_churn_arithmetic(
        n in 2usize..120,
        rate in 0.0f64..0.3,
        period in 1usize..4,
        cycles in 1usize..12,
        seed in 0u64..1000,
    ) {
        let churn = UncorrelatedChurn::new(
            ChurnSchedule { rate, period, stop_after: None },
            AttributeDistribution::default(),
        );
        let mut engine = Engine::new(cfg(n, seed), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(churn));
        let record = engine.run(cycles);
        let mut expected = n as i64;
        for stats in &record.cycles {
            expected += stats.joined as i64 - stats.left as i64;
            prop_assert_eq!(stats.n as i64, expected, "cycle {} population", stats.cycle);
        }
        prop_assert_eq!(engine.population() as i64, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The membership exchange schedule is sound for every gossiping
    /// substrate, population size and seed, with churn stirring the slots:
    /// every node initiates at most one exchange per cycle, no node appears
    /// twice within one conflict-free batch, scheduled partners are alive
    /// at schedule time, and nobody exchanges with themselves.
    #[test]
    fn exchange_schedule_is_sound(
        n in 2usize..150,
        seed in 0u64..1000,
        sampler_idx in 0usize..3,
        churn_rate in 0.0f64..0.2,
        cycles in 1usize..4,
    ) {
        let mut cfg = cfg(n, seed);
        cfg.sampler = [SamplerKind::Cyclon, SamplerKind::Newscast, SamplerKind::Lpbcast]
            [sampler_idx];
        let churn = UncorrelatedChurn::new(
            ChurnSchedule { rate: churn_rate, period: 1, stop_after: None },
            AttributeDistribution::default(),
        );
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(churn));
        engine.debug_record_schedule(true);
        for _ in 0..cycles {
            engine.step();
            let schedule = engine.debug_last_schedule().to_vec();
            // Churn only happens at cycle start, so the population right
            // after the step IS the population at schedule time.
            let alive: HashSet<u64> =
                engine.snapshot().iter().map(|&(id, _, _)| id.as_u64()).collect();
            let mut initiators = HashSet::new();
            let mut batch_members: std::collections::HashMap<usize, HashSet<u64>> =
                std::collections::HashMap::new();
            for &(initiator, partner, batch) in &schedule {
                prop_assert!(initiator != partner, "self-exchange scheduled");
                prop_assert!(
                    initiators.insert(initiator),
                    "node {} initiates twice in one cycle", initiator
                );
                prop_assert!(alive.contains(&initiator), "dead initiator {}", initiator);
                prop_assert!(
                    alive.contains(&partner),
                    "partner {} not alive at schedule time", partner
                );
                let members = batch_members.entry(batch).or_default();
                prop_assert!(
                    members.insert(initiator),
                    "node {} twice in batch {}", initiator, batch
                );
                prop_assert!(
                    members.insert(partner),
                    "node {} twice in batch {}", partner, batch
                );
            }
        }
    }

    /// The oracle substrate never schedules pairwise exchanges.
    #[test]
    fn oracle_schedules_no_exchanges(n in 2usize..80, seed in 0u64..500) {
        let mut config = cfg(n, seed);
        config.sampler = SamplerKind::UniformOracle;
        let mut engine = Engine::new(config, ProtocolKind::Ranking).unwrap();
        engine.debug_record_schedule(true);
        engine.step();
        prop_assert!(engine.debug_last_schedule().is_empty());
    }
}

/// A churn model driven by an explicit per-cycle script of
/// `(leave_count, join_count)` — lets the property below force pathological
/// interleavings (mass exodus, flash crowd, full replacement).
struct ScriptedChurn {
    script: Vec<(usize, usize)>,
}

impl ChurnModel for ScriptedChurn {
    fn plan(
        &mut self,
        cycle: usize,
        population: &[(NodeId, dslice_core::Attribute)],
        _rng: &mut dyn rand::RngCore,
    ) -> ChurnPlan {
        let Some(&(leave, join)) = self.script.get(cycle - 1) else {
            return ChurnPlan::quiet();
        };
        // Deterministically remove the lowest-id nodes.
        let mut ids: Vec<NodeId> = population.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let leavers: Vec<NodeId> = ids
            .into_iter()
            .take(leave.min(population.len().saturating_sub(1)))
            .collect();
        let joiners = (0..join)
            .map(|k| dslice_core::Attribute::new(0.1 + k as f64).unwrap())
            .collect();
        ChurnPlan { leavers, joiners }
    }

    fn label(&self) -> &'static str {
        "scripted"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under scripted mass churn (up to near-full turnover per cycle) the
    /// slab never aliases: `view_snapshot` reports each live node exactly
    /// once and the population follows the script.
    #[test]
    fn scripted_mass_churn_never_aliases_views(
        script in proptest::collection::vec((0usize..40, 0usize..40), 1..8),
        seed in 0u64..500,
    ) {
        let n = 50;
        let mut engine = Engine::new(cfg(n, seed), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(ScriptedChurn { script: script.clone() }));
        let record = engine.run(script.len());
        let views = engine.view_snapshot();
        prop_assert_eq!(views.len(), engine.population(), "one view row per live node");
        let owners: HashSet<u64> = views.iter().map(|(id, _)| id.as_u64()).collect();
        prop_assert_eq!(owners.len(), views.len(), "duplicate owner row");
        for stats in &record.cycles {
            prop_assert!(stats.n >= 1, "population must never empty out");
        }
    }
}
