//! [`ScriptedChurn`]: the churn model a compiled [`Schedule`] drives.
//!
//! The engine's churn phase asks its model for a plan at the start of every
//! cycle; this model answers from the script. All fraction counts are taken
//! against the **start-of-cycle population** and departures are capped so at
//! least one node survives — the same arithmetic
//! [`Scenario::compile`](crate::Scenario::compile) used for its population
//! projection, so a compiled schedule executes exactly as projected.
//!
//! Leaver selection and regional-failure band placement draw from the RNG
//! the engine hands in (its sequential stream), so scripted runs stay
//! byte-identical across reruns.

use crate::dsl::{fraction_count, ScenarioEvent, Schedule};
use dslice_core::{Attribute, NodeId};
use dslice_sim::churn::{ChurnModel, ChurnPlan};
use dslice_sim::AttributeDistribution;
use rand::Rng;
use std::collections::BTreeMap;

/// Executes the churn events of a compiled [`Schedule`].
#[derive(Clone, Debug)]
pub struct ScriptedChurn {
    /// Churn events per cycle, in authoring order.
    by_cycle: BTreeMap<usize, Vec<ScenarioEvent>>,
    /// Current joiner distribution (shift events replace it).
    distribution: AttributeDistribution,
}

impl ScriptedChurn {
    /// Builds the model from a compiled schedule and the base joiner
    /// distribution. Control events in the schedule are ignored — the
    /// scenario runner applies those to the engine directly.
    pub fn new(schedule: &Schedule, base_distribution: AttributeDistribution) -> Self {
        let mut by_cycle: BTreeMap<usize, Vec<ScenarioEvent>> = BTreeMap::new();
        for te in &schedule.events {
            if te.event.is_churn() {
                by_cycle.entry(te.cycle).or_default().push(te.event.clone());
            }
        }
        ScriptedChurn {
            by_cycle,
            distribution: base_distribution,
        }
    }

    /// The joiner distribution currently in effect.
    pub fn distribution(&self) -> &AttributeDistribution {
        &self.distribution
    }

    /// Draws `count` distinct leavers from `candidates`, removing them.
    fn draw_leavers(
        candidates: &mut Vec<(NodeId, Attribute)>,
        count: usize,
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<NodeId>,
    ) {
        let count = count.min(candidates.len());
        if count == 0 {
            return;
        }
        let mut picked = rand::seq::index::sample(&mut *rng, candidates.len(), count)
            .into_iter()
            .collect::<Vec<usize>>();
        // Remove highest indices first so earlier picks stay valid.
        picked.sort_unstable_by(|a, b| b.cmp(a));
        for idx in picked {
            out.push(candidates.swap_remove(idx).0);
        }
    }
}

impl ChurnModel for ScriptedChurn {
    fn plan(
        &mut self,
        cycle: usize,
        population: &[(NodeId, Attribute)],
        rng: &mut dyn rand::RngCore,
    ) -> ChurnPlan {
        let Some(events) = self.by_cycle.get(&cycle).cloned() else {
            return ChurnPlan::quiet();
        };
        let n0 = population.len();
        let mut candidates: Vec<(NodeId, Attribute)> = population.to_vec();
        let mut leavers: Vec<NodeId> = Vec::new();
        let mut joiners: Vec<Attribute> = Vec::new();

        for event in events {
            match event {
                ScenarioEvent::Join { count } => {
                    for _ in 0..count {
                        joiners.push(self.distribution.sample(&mut *rng));
                    }
                }
                ScenarioEvent::Leave { count } => {
                    let count = count.min(candidates.len().saturating_sub(1));
                    Self::draw_leavers(&mut candidates, count, rng, &mut leavers);
                }
                ScenarioEvent::FlashCrowd { fraction } => {
                    for _ in 0..fraction_count(n0, fraction) {
                        joiners.push(self.distribution.sample(&mut *rng));
                    }
                }
                ScenarioEvent::MassLeave { fraction } => {
                    let count =
                        fraction_count(n0, fraction).min(candidates.len().saturating_sub(1));
                    Self::draw_leavers(&mut candidates, count, rng, &mut leavers);
                }
                ScenarioEvent::RegionalFailure { fraction } => {
                    let count =
                        fraction_count(n0, fraction).min(candidates.len().saturating_sub(1));
                    if count == 0 {
                        continue;
                    }
                    // The failing "region" is a contiguous attribute band:
                    // sort the survivors by (attribute, id) and crash a
                    // random window of `count` of them together.
                    candidates
                        .sort_unstable_by(|(ia, aa), (ib, ab)| aa.cmp(ab).then_with(|| ia.cmp(ib)));
                    let start = rng.gen_range(0..=candidates.len() - count);
                    for (id, _) in candidates.drain(start..start + count) {
                        leavers.push(id);
                    }
                }
                ScenarioEvent::ShiftDistribution { distribution } => {
                    self.distribution = distribution;
                }
                // Control events are the runner's business.
                ScenarioEvent::Corrupt { .. }
                | ScenarioEvent::CorruptBoundary { .. }
                | ScenarioEvent::Repartition { .. }
                | ScenarioEvent::PartitionBands { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::DropRate { .. }
                | ScenarioEvent::RegionLatency { .. }
                | ScenarioEvent::AdaptiveLiars { .. } => {}
            }
        }
        ChurnPlan { leavers, joiners }
    }

    fn label(&self) -> &'static str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize) -> Vec<(NodeId, Attribute)> {
        (0..n)
            .map(|i| (NodeId::new(i as u64), Attribute::new(i as f64).unwrap()))
            .collect()
    }

    fn model(s: Scenario) -> ScriptedChurn {
        let schedule = s.compile().unwrap();
        ScriptedChurn::new(&schedule, AttributeDistribution::default())
    }

    #[test]
    fn quiet_outside_scripted_cycles() {
        let mut m = model(
            Scenario::new("t")
                .population(100)
                .for_cycles(50)
                .at_cycle(10)
                .join(5),
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(m.plan(9, &population(100), &mut rng).is_quiet());
        assert!(m.plan(11, &population(100), &mut rng).is_quiet());
        let plan = m.plan(10, &population(100), &mut rng);
        assert_eq!(plan.joiners.len(), 5);
        assert!(plan.leavers.is_empty());
    }

    #[test]
    fn same_cycle_events_compose_without_overlap() {
        let mut m = model(
            Scenario::new("t")
                .population(100)
                .for_cycles(50)
                .at_cycle(10)
                .leave(30)
                .mass_leave(0.3) // 30 of the original 100
                .join(5),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let plan = m.plan(10, &population(100), &mut rng);
        assert_eq!(plan.leavers.len(), 60);
        assert_eq!(plan.joiners.len(), 5);
        // All leavers distinct.
        let mut ids: Vec<u64> = plan.leavers.iter().map(|id| id.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60);
    }

    #[test]
    fn regional_failure_crashes_a_contiguous_attribute_band() {
        let mut m = model(
            Scenario::new("t")
                .population(100)
                .for_cycles(50)
                .at_cycle(10)
                .regional_failure(0.2),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let plan = m.plan(10, &population(100), &mut rng);
        assert_eq!(plan.leavers.len(), 20);
        // Attributes equal ids here, so a contiguous band means consecutive ids.
        let mut ids: Vec<u64> = plan.leavers.iter().map(|id| id.as_u64()).collect();
        ids.sort_unstable();
        assert_eq!(
            ids.last().unwrap() - ids.first().unwrap(),
            19,
            "leavers {ids:?} must form one contiguous attribute band"
        );
    }

    #[test]
    fn shift_changes_joiner_distribution_for_later_cycles() {
        let shifted = AttributeDistribution::Uniform { lo: 1e6, hi: 2e6 };
        let mut m = model(
            Scenario::new("t")
                .population(100)
                .for_cycles(50)
                .at_cycle(10)
                .join(3)
                .at_cycle(20)
                .shift_distribution(shifted)
                .at_cycle(30)
                .join(3),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let before = m.plan(10, &population(100), &mut rng);
        assert!(before.joiners.iter().all(|a| a.value() < 1e6));
        m.plan(20, &population(100), &mut rng);
        let after = m.plan(30, &population(100), &mut rng);
        assert!(after.joiners.iter().all(|a| a.value() >= 1e6));
    }

    #[test]
    fn departures_never_empty_the_population() {
        let mut m = model(
            Scenario::new("t")
                .population(100)
                .for_cycles(50)
                .at_cycle(10)
                .leave(99),
        );
        let mut rng = StdRng::seed_from_u64(5);
        // The engine's real population may be smaller than projected if an
        // outside force shrank it; the cap still holds.
        let plan = m.plan(10, &population(10), &mut rng);
        assert_eq!(plan.leavers.len(), 9, "one survivor at minimum");
    }

    #[test]
    fn plans_are_deterministic_in_the_rng() {
        let build = || {
            model(
                Scenario::new("t")
                    .population(200)
                    .for_cycles(50)
                    .at_cycle(5)
                    .mass_leave(0.25)
                    .flash_crowd(0.1),
            )
        };
        let mut a = build();
        let mut b = build();
        let pa = a.plan(5, &population(200), &mut StdRng::seed_from_u64(9));
        let pb = b.plan(5, &population(200), &mut StdRng::seed_from_u64(9));
        assert_eq!(pa, pb);
    }
}
