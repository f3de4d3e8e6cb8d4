//! Executes a compiled scenario against the cycle engine.
//!
//! The runner owns the split the DSL promises: churn events ride the
//! engine's churn phase through [`ScriptedChurn`], while control events —
//! [`Corrupt`](crate::ScenarioEvent::Corrupt),
//! [`Repartition`](crate::ScenarioEvent::Repartition) — are applied to the
//! engine immediately **before** their cycle steps, so "at cycle c" means
//! the same thing for every event kind: in effect for cycle `c` and all
//! later ones.

use crate::dsl::{Scenario, ScenarioEvent, Schedule};
use crate::report::{ScenarioReport, TrajectoryPoint};
use crate::script::ScriptedChurn;
use dslice_core::{Partition, Result};
use dslice_obs::{FlightRecorder, TraceConfig};
use dslice_sim::{Engine, PhaseTimings, Totals};

impl Scenario {
    /// Compiles and runs the scenario, returning its structured report.
    ///
    /// The run is fully determined by `(scenario, seed)` and byte-identical
    /// across reruns, except for the wall-clock `phase_ns` block when
    /// [`time_phases`](dslice_sim::SimConfig::time_phases) is on.
    pub fn run(&self) -> Result<ScenarioReport> {
        let schedule = self.compile()?;
        Ok(self.execute(&schedule, None)?.0)
    }

    /// [`run`](Scenario::run) with a flight recorder attached: returns the
    /// report **and** the recorder holding the run's trace events.
    ///
    /// Tracing is observational only — the report is byte-identical to an
    /// untraced [`run`](Scenario::run) (the golden-identity test pins this).
    pub fn run_traced(&self, trace: TraceConfig) -> Result<(ScenarioReport, FlightRecorder)> {
        let schedule = self.compile()?;
        let (report, recorder) = self.execute(&schedule, Some(trace))?;
        Ok((
            report,
            recorder.unwrap_or_else(|| FlightRecorder::new(TraceConfig::off())),
        ))
    }

    fn execute(
        &self,
        schedule: &Schedule,
        trace: Option<TraceConfig>,
    ) -> Result<(ScenarioReport, Option<FlightRecorder>)> {
        let config = self.config().clone();
        let mut engine = Engine::new(config.clone(), self.protocol())?
            .with_churn(Box::new(ScriptedChurn::new(schedule, config.distribution)));
        if let Some(cfg) = trace {
            engine.set_tracer(cfg);
        }

        // Control events, cycle-ordered (the schedule already is).
        let controls: Vec<(usize, &ScenarioEvent)> = schedule
            .events
            .iter()
            .filter(|te| !te.event.is_churn())
            .map(|te| (te.cycle, &te.event))
            .collect();
        let mut next_control = 0usize;

        let mut totals = Totals::default();
        let mut trajectory = Vec::new();
        let mut phase_ns = config.time_phases.then(PhaseTimings::default);
        let mut slices = config.partition.len();

        for cycle in 1..=schedule.cycles {
            while next_control < controls.len() && controls[next_control].0 == cycle {
                match controls[next_control].1 {
                    ScenarioEvent::Corrupt {
                        fraction,
                        inflation,
                    } => {
                        engine.corrupt_nodes(*fraction, *inflation);
                    }
                    ScenarioEvent::CorruptBoundary {
                        fraction,
                        inflation,
                    } => {
                        engine.corrupt_boundary_nodes(*fraction, *inflation);
                    }
                    ScenarioEvent::Repartition { slices: k } => {
                        engine.set_partition(Partition::equal(*k)?);
                        slices = *k;
                    }
                    ScenarioEvent::PartitionBands { bands, heal_at } => {
                        engine.set_network_partition(*bands, *heal_at)?;
                    }
                    ScenarioEvent::Heal => engine.heal_network_partition(),
                    ScenarioEvent::DropRate { rate } => engine.set_drop_rate(*rate)?,
                    ScenarioEvent::RegionLatency { region, model } => {
                        engine.set_region_latency(*region, *model)?;
                    }
                    ScenarioEvent::AdaptiveLiars { fraction, attacker } => {
                        engine.corrupt_adaptive(*fraction, *attacker);
                    }
                    _ => unreachable!("is_churn() filtered everything else"),
                }
                next_control += 1;
            }

            let stats = engine.step();
            totals.accumulate(&stats);
            if let (Some(acc), Some(t)) = (phase_ns.as_mut(), stats.timings.as_ref()) {
                acc.accumulate(t);
            }
            if cycle.is_multiple_of(self.sampling()) || cycle == schedule.cycles {
                trajectory.push(TrajectoryPoint {
                    cycle,
                    n: stats.n,
                    sdm: stats.sdm,
                    gdm: stats.gdm,
                    accuracy: engine.accuracy(),
                    honest_accuracy: engine.honest_accuracy(),
                    liars: engine.liar_count(),
                    left: stats.left,
                    joined: stats.joined,
                    slice_changes: stats.slice_changes,
                    samples_rejected: if self.defense_tracking() {
                        stats.events.samples_rejected
                    } else {
                        0
                    },
                    swaps_abandoned: if self.defense_tracking() {
                        stats.events.swaps_abandoned
                    } else {
                        0
                    },
                });
            }
        }

        let report = ScenarioReport {
            name: self.name().to_string(),
            protocol: self.protocol().label().to_string(),
            seed: config.seed,
            initial_n: config.n,
            final_n: engine.population(),
            slices,
            cycles: schedule.cycles,
            events: schedule.events.clone(),
            trajectory,
            totals,
            final_sdm: engine.sdm(),
            final_gdm: engine.gdm(),
            final_accuracy: engine.accuracy(),
            final_honest_accuracy: engine.honest_accuracy(),
            liars: engine.liar_count(),
            phase_ns,
        };
        Ok((report, engine.take_recorder()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_sim::{AttackerSpec, AttributeDistribution, LatencyModel, ProtocolKind};

    fn small(name: &str) -> Scenario {
        Scenario::new(name)
            .population(150)
            .view_size(8)
            .slices(4)
            .seed(11)
            .sample_every(5)
            .for_cycles(60)
    }

    #[test]
    fn static_run_converges_and_reports() {
        let report = small("static").run().unwrap();
        assert_eq!(report.final_n, 150);
        assert_eq!(report.cycles, 60);
        assert_eq!(report.trajectory.len(), 12);
        let first = &report.trajectory[0];
        let last = report.trajectory.last().unwrap();
        assert!(last.sdm < first.sdm, "disorder must fall over a static run");
        assert_eq!(report.final_accuracy, report.final_honest_accuracy);
        assert_eq!(report.liars, 0);
        assert!(report.phase_ns.is_none(), "timings stay off by default");
    }

    #[test]
    fn population_matches_the_projection() {
        let scenario = small("pop")
            .at_cycle(10)
            .flash_crowd(0.5)
            .at_cycle(30)
            .mass_leave(0.2);
        let schedule = scenario.compile().unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.final_n, schedule.final_population());
        // The trajectory's population column agrees at the sampled cycles.
        for p in &report.trajectory {
            let projected = schedule
                .projection
                .iter()
                .take_while(|pp| pp.cycle <= p.cycle)
                .last()
                .map_or(schedule.initial_n, |pp| pp.n);
            assert_eq!(p.n, projected, "cycle {}", p.cycle);
        }
    }

    #[test]
    fn corruption_takes_effect_at_its_cycle() {
        let report = small("liars")
            .at_cycle(20)
            .lying_nodes(0.2, 8.0)
            .run()
            .unwrap();
        assert_eq!(report.liars, 30);
        for p in &report.trajectory {
            if p.cycle < 20 {
                assert_eq!(p.liars, 0, "cycle {}", p.cycle);
            } else {
                assert_eq!(p.liars, 30, "cycle {}", p.cycle);
            }
        }
        assert!(
            report.final_accuracy < report.final_honest_accuracy,
            "liars must drag the overall accuracy down"
        );
    }

    #[test]
    fn fault_events_drive_the_engine() {
        let report = small("faults")
            .at_cycle(10)
            .partition_bands(2)
            .at_cycle(12)
            .region_latency(1, LatencyModel::Fixed { cycles: 2 })
            .at_cycle(30)
            .heal()
            .at_cycle(35)
            .drop_rate(0.2)
            .run()
            .unwrap();
        assert!(
            report.totals.dropped_messages > 0,
            "severed and dropped messages must surface in the totals"
        );
        // The same scenario without faults drops nothing.
        let quiet = small("faults").run().unwrap();
        assert_eq!(quiet.totals.dropped_messages, 0);
    }

    #[test]
    fn adaptive_liars_take_effect_at_their_cycle() {
        let report = small("adaptive")
            .with_protocol(ProtocolKind::trimmed(32, 0.1))
            .track_defense()
            .at_cycle(20)
            .adaptive_liars(0.2, AttackerSpec::Colluder { target: 0.95 })
            .run()
            .unwrap();
        assert_eq!(report.liars, 30);
        for p in &report.trajectory {
            if p.cycle < 20 {
                assert_eq!(p.liars, 0, "cycle {}", p.cycle);
            } else {
                assert_eq!(p.liars, 30, "cycle {}", p.cycle);
            }
        }
        assert!(
            report.totals.samples_rejected > 0,
            "the trim defense must reject samples"
        );
        assert!(
            report.trajectory.iter().any(|p| p.samples_rejected > 0),
            "per-cycle defense counters must surface in the trajectory"
        );
        // Without the opt-in the trajectory keeps its pre-defense shape,
        // even though the protocol rejects samples — this is what holds the
        // legacy goldens byte-stable.
        let untracked = small("adaptive")
            .with_protocol(ProtocolKind::trimmed(32, 0.1))
            .at_cycle(20)
            .adaptive_liars(0.2, AttackerSpec::Colluder { target: 0.95 })
            .run()
            .unwrap();
        assert!(untracked.totals.samples_rejected > 0);
        assert!(untracked
            .trajectory
            .iter()
            .all(|p| p.samples_rejected == 0 && p.swaps_abandoned == 0));
    }

    #[test]
    fn repartition_switches_the_reported_slices() {
        let report = small("repart").at_cycle(30).repartition(2).run().unwrap();
        assert_eq!(report.slices, 2);
    }

    #[test]
    fn runs_are_deterministic_and_shard_invariant() {
        let scenario = || {
            small("det")
                .at_cycle(10)
                .regional_failure(0.2)
                .at_cycle(20)
                .lying_nodes(0.1, 4.0)
                .at_cycle(40)
                .flash_crowd(0.3)
        };
        let a = scenario().run().unwrap();
        let b = scenario().run().unwrap();
        assert_eq!(a, b, "identical scenario, identical report");
        // `shards` is an inert config field: the engine is single-threaded.
        let mut cfg = scenario().config().clone();
        cfg.shards = 4;
        let c = scenario().with_config(cfg).run().unwrap();
        assert_eq!(a.to_json(), c.to_json(), "shard count must be invisible");
    }

    #[test]
    fn shifted_distribution_changes_arrivals() {
        // Replace most of the population with joiners from a far-away
        // uniform band; the engine must keep running and end at full size.
        let mut s = small("shift")
            .at_cycle(10)
            .shift_distribution(AttributeDistribution::Uniform { lo: 1e6, hi: 2e6 });
        for c in (12..=40).step_by(2) {
            s = s.at_cycle(c).leave(10).join(10);
        }
        let report = s.run().unwrap();
        assert_eq!(report.final_n, 150);
        assert_eq!(report.totals.joined, 150);
        assert_eq!(report.totals.left, 150);
    }

    #[test]
    fn ordering_protocol_scenarios_run_too() {
        let report = small("mod-jk")
            .with_protocol(ProtocolKind::ModJk)
            .at_cycle(20)
            .lying_nodes(0.2, 10.0)
            .run()
            .unwrap();
        assert_eq!(report.protocol, "mod-jk");
        assert!(report.totals.swaps_proposed > 0);
    }
}
