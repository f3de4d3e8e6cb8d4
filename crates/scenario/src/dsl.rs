//! The fluent, timed-event scenario DSL.
//!
//! A [`Scenario`] is a simulation configuration plus a list of events pinned
//! to cycles, written in builder style:
//!
//! ```
//! use dslice_scenario::Scenario;
//!
//! let scenario = Scenario::new("doc-example")
//!     .population(200)
//!     .slices(4)
//!     .for_cycles(120)
//!     .at_cycle(40)
//!     .flash_crowd(0.5)
//!     .at_cycle(80)
//!     .regional_failure(0.2);
//! let schedule = scenario.compile().unwrap();
//! assert_eq!(schedule.events.len(), 2);
//! ```
//!
//! [`Scenario::compile`] validates the program and produces a deterministic
//! [`Schedule`]: events sorted by cycle (stable within a cycle, preserving
//! authoring order) together with a population projection proving the
//! population never empties. Execution ([`Scenario::run`]) splits the
//! schedule into *churn events*, which become a
//! [`ScriptedChurn`](crate::ScriptedChurn) model driven by the engine's
//! churn phase, and *control events* (corruption, repartitioning), which the
//! runner applies to the engine immediately before the event's cycle
//! executes.

use dslice_core::{Error, Result};
use dslice_sim::{AttackerSpec, AttributeDistribution, LatencyModel, ProtocolKind, SimConfig};
use serde::{Deserialize, Serialize};

/// One scenario event. Cycle placement lives in [`TimedEvent`].
///
/// Fraction-based population events are measured against the population at
/// the **start of the event's cycle** (before any same-cycle arrivals or
/// departures); when several events share a cycle, departures are capped so
/// at least one node always survives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// `count` nodes join, attributes drawn from the current joiner
    /// distribution (the base distribution until a
    /// [`ShiftDistribution`](ScenarioEvent::ShiftDistribution) replaces it).
    Join {
        /// Number of joining nodes.
        count: usize,
    },
    /// `count` uniformly random nodes leave.
    Leave {
        /// Number of departing nodes.
        count: usize,
    },
    /// A flash crowd: `round(fraction × population)` nodes join at once
    /// (at least one). `1.0` doubles the population.
    FlashCrowd {
        /// Arrivals as a fraction of the start-of-cycle population.
        fraction: f64,
    },
    /// A mass departure: `round(fraction × population)` uniformly random
    /// nodes leave at once.
    MassLeave {
        /// Departures as a fraction of the start-of-cycle population.
        fraction: f64,
    },
    /// A correlated regional failure: a **contiguous attribute band** of
    /// `round(fraction × population)` nodes crashes together (the band's
    /// position is drawn deterministically from the run seed) — e.g. one
    /// data center, hosting machines of similar capacity, going dark.
    RegionalFailure {
        /// Band width as a fraction of the start-of-cycle population.
        fraction: f64,
    },
    /// Replaces the joiner attribute distribution from this cycle on: all
    /// later joins (scripted or flash) sample the new shape.
    ShiftDistribution {
        /// The distribution future joiners are drawn from.
        distribution: AttributeDistribution,
    },
    /// Converts `round(fraction × still-honest population)` nodes into
    /// rank-inflating liars (see `dslice_sim::Engine::corrupt_nodes`).
    Corrupt {
        /// Fraction of the still-honest population to corrupt.
        fraction: f64,
        /// Rank inflation factor (≥ 1; claims clamp to rank 1.0).
        inflation: f64,
    },
    /// Converts the honest nodes whose *true* ranks sit nearest the slice
    /// boundaries into rank-inflating liars (see
    /// `dslice_sim::Engine::corrupt_boundary_nodes`) — the targeted
    /// adversary: boundary nodes buy the most slice displacement per
    /// corrupted node.
    CorruptBoundary {
        /// Fraction of the still-honest population to corrupt.
        fraction: f64,
        /// Rank inflation factor (≥ 1; claims clamp to rank 1.0).
        inflation: f64,
    },
    /// Installs a fresh equal partition with `slices` slices on every node
    /// (§3.2's re-broadcast of global knowledge).
    Repartition {
        /// Number of equal slices in the new partition.
        slices: usize,
    },
    /// Partitions the network into contiguous attribute bands: cross-band
    /// protocol messages and membership exchanges are severed until a
    /// [`Heal`](ScenarioEvent::Heal) event or the optional `heal_at` cycle
    /// (see `dslice_sim::Engine::set_network_partition`).
    PartitionBands {
        /// Number of equal-population attribute bands (≥ 2).
        bands: usize,
        /// Cycle at which the partition heals itself, if scheduled (must
        /// fall strictly after the event's own cycle).
        heal_at: Option<usize>,
    },
    /// Tears the installed network partition down (with its region latency
    /// overrides). A no-op when nothing is partitioned.
    Heal,
    /// Sets the per-message drop probability from this cycle on (`0.0`
    /// turns message drop back off).
    DropRate {
        /// Probability in `[0, 1)` that a routed message is lost.
        rate: f64,
    },
    /// Overrides the delivery latency of messages *into* one band of the
    /// installed partition — an asymmetric long-haul link. Requires a
    /// partition that is still holding at this cycle.
    RegionLatency {
        /// Band index (0-based) of the recipient region.
        region: usize,
        /// The latency model messages into the region follow.
        model: LatencyModel,
    },
    /// Converts `round(fraction × still-honest population)` nodes into
    /// adaptive adversaries running the given attacker strategy (see
    /// `dslice_sim::Engine::corrupt_adaptive`) — liars that probe the
    /// defenses instead of inflating blindly.
    AdaptiveLiars {
        /// Fraction of the still-honest population to corrupt.
        fraction: f64,
        /// The adaptive strategy the corrupted nodes run.
        attacker: AttackerSpec,
    },
}

impl ScenarioEvent {
    /// Whether this event is executed by the churn phase (via
    /// [`ScriptedChurn`](crate::ScriptedChurn)) rather than applied to the
    /// engine directly.
    pub fn is_churn(&self) -> bool {
        !matches!(
            self,
            ScenarioEvent::Corrupt { .. }
                | ScenarioEvent::CorruptBoundary { .. }
                | ScenarioEvent::Repartition { .. }
                | ScenarioEvent::PartitionBands { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::DropRate { .. }
                | ScenarioEvent::RegionLatency { .. }
                | ScenarioEvent::AdaptiveLiars { .. }
        )
    }

    /// Short label for summaries and progress output.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioEvent::Join { .. } => "join",
            ScenarioEvent::Leave { .. } => "leave",
            ScenarioEvent::FlashCrowd { .. } => "flash-crowd",
            ScenarioEvent::MassLeave { .. } => "mass-leave",
            ScenarioEvent::RegionalFailure { .. } => "regional-failure",
            ScenarioEvent::ShiftDistribution { .. } => "shift-distribution",
            ScenarioEvent::Corrupt { .. } => "corrupt",
            ScenarioEvent::CorruptBoundary { .. } => "corrupt-boundary",
            ScenarioEvent::Repartition { .. } => "repartition",
            ScenarioEvent::PartitionBands { .. } => "partition-bands",
            ScenarioEvent::Heal => "heal",
            ScenarioEvent::DropRate { .. } => "drop-rate",
            ScenarioEvent::RegionLatency { .. } => "region-latency",
            ScenarioEvent::AdaptiveLiars { .. } => "adaptive-liars",
        }
    }
}

/// An event pinned to a 1-based cycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// The cycle (1-based) at whose start the event takes effect.
    pub cycle: usize,
    /// The event itself.
    pub event: ScenarioEvent,
}

/// Number of nodes a fraction-based event touches: `round(fraction × n)`,
/// at least 1 while the fraction is positive (so small test populations
/// still see the event) — the same convention as
/// `dslice_sim::churn::ChurnSchedule::count`.
pub fn fraction_count(n: usize, fraction: f64) -> usize {
    if fraction <= 0.0 || n == 0 {
        return 0;
    }
    ((n as f64 * fraction).round() as usize).max(1)
}

/// How many nodes `event` removes / adds given the start-of-cycle
/// population `n0`. Returns `(leave, join)`; exactly one side is non-zero
/// for population events, both are zero for non-population events.
pub fn population_delta(event: &ScenarioEvent, n0: usize) -> (usize, usize) {
    match event {
        ScenarioEvent::Join { count } => (0, *count),
        ScenarioEvent::Leave { count } => (*count, 0),
        ScenarioEvent::FlashCrowd { fraction } => (0, fraction_count(n0, *fraction)),
        ScenarioEvent::MassLeave { fraction } | ScenarioEvent::RegionalFailure { fraction } => {
            (fraction_count(n0, *fraction), 0)
        }
        ScenarioEvent::ShiftDistribution { .. }
        | ScenarioEvent::Corrupt { .. }
        | ScenarioEvent::CorruptBoundary { .. }
        | ScenarioEvent::Repartition { .. }
        | ScenarioEvent::PartitionBands { .. }
        | ScenarioEvent::Heal
        | ScenarioEvent::DropRate { .. }
        | ScenarioEvent::RegionLatency { .. }
        | ScenarioEvent::AdaptiveLiars { .. } => (0, 0),
    }
}

/// Projected population at the end of one cycle, in `(cycle, n)` form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PopulationPoint {
    /// The cycle the events fired in.
    pub cycle: usize,
    /// Projected population after the cycle's churn.
    pub n: usize,
}

/// A compiled scenario: the validated, cycle-ordered event schedule plus
/// the population projection [`Scenario::compile`] proved consistent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Events sorted by cycle; authoring order is preserved within a cycle.
    pub events: Vec<TimedEvent>,
    /// Total run length in cycles.
    pub cycles: usize,
    /// Initial population size.
    pub initial_n: usize,
    /// Projected population after each cycle that has population events
    /// (cycles without such events keep the previous value and are omitted).
    pub projection: Vec<PopulationPoint>,
}

impl Schedule {
    /// Projected population after the last event cycle (and hence at the end
    /// of the run — scripted churn is the only churn source).
    pub fn final_population(&self) -> usize {
        self.projection.last().map_or(self.initial_n, |p| p.n)
    }

    /// Smallest projected population over the whole run (≥ 1 by
    /// construction — compilation rejects schedules that empty the system).
    pub fn min_population(&self) -> usize {
        self.projection
            .iter()
            .map(|p| p.n)
            .min()
            .unwrap_or(self.initial_n)
    }
}

/// A fluent scenario program: configuration, run length, and timed events.
///
/// See the [module docs](self) for an example. The builder keeps a cycle
/// *cursor*: [`at_cycle`](Scenario::at_cycle) moves it, event methods append
/// at it, so consecutive events at one cycle read naturally.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    config: SimConfig,
    protocol: ProtocolKind,
    cycles: usize,
    sample_every: usize,
    track_defense: bool,
    cursor: usize,
    events: Vec<TimedEvent>,
}

impl Scenario {
    /// Creates a scenario with the default simulator configuration (the
    /// ranking protocol, 1000 nodes, 10 equal slices), a 200-cycle run and
    /// a trajectory sample every 10 cycles.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            config: SimConfig::default(),
            protocol: ProtocolKind::Ranking,
            cycles: 200,
            sample_every: 10,
            track_defense: false,
            cursor: 1,
            events: Vec::new(),
        }
    }

    /// The scenario's name (kebab-case by convention; used as the report
    /// and golden file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The protocol under test.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Total run length in cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The authored events, in authoring order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    // ----- configuration ---------------------------------------------------

    /// Replaces the whole simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the protocol under test.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the initial population size.
    pub fn population(mut self, n: usize) -> Self {
        self.config.n = n;
        self
    }

    /// Sets the view size.
    pub fn view_size(mut self, c: usize) -> Self {
        self.config.view_size = c;
        self
    }

    /// Sets an equal partition with `slices` slices.
    ///
    /// # Panics
    /// Panics if `slices` is 0 (an unconditionally invalid partition).
    pub fn slices(mut self, slices: usize) -> Self {
        self.config.partition = dslice_core::Partition::equal(slices).expect("slices must be ≥ 1");
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the base attribute distribution (initial population and joiners
    /// until a [`shift_distribution`](Scenario::shift_distribution) event).
    pub fn distribution(mut self, distribution: AttributeDistribution) -> Self {
        self.config.distribution = distribution;
        self
    }

    /// Sets the total run length.
    pub fn for_cycles(mut self, cycles: usize) -> Self {
        self.cycles = cycles;
        self
    }

    /// Sets the trajectory sampling cadence (every `k` cycles; the final
    /// cycle is always sampled).
    pub fn sample_every(mut self, k: usize) -> Self {
        self.sample_every = k;
        self
    }

    /// The trajectory sampling cadence.
    pub fn sampling(&self) -> usize {
        self.sample_every
    }

    /// Records the per-cycle defense counters (`samples_rejected`,
    /// `swaps_abandoned`) in the sampled trajectory. Opt-in — like
    /// `time_phases`, tracking is off by default so reports (and goldens)
    /// authored before the counters existed stay byte-identical.
    pub fn track_defense(mut self) -> Self {
        self.track_defense = true;
        self
    }

    /// Whether the trajectory records per-cycle defense counters.
    pub fn defense_tracking(&self) -> bool {
        self.track_defense
    }

    // ----- the timed-event language ---------------------------------------

    /// Moves the cursor: subsequent events fire at the start of `cycle`
    /// (1-based).
    pub fn at_cycle(mut self, cycle: usize) -> Self {
        self.cursor = cycle;
        self
    }

    fn push(mut self, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent {
            cycle: self.cursor,
            event,
        });
        self
    }

    /// `count` nodes join at the cursor cycle.
    pub fn join(self, count: usize) -> Self {
        self.push(ScenarioEvent::Join { count })
    }

    /// `count` uniformly random nodes leave at the cursor cycle.
    pub fn leave(self, count: usize) -> Self {
        self.push(ScenarioEvent::Leave { count })
    }

    /// A flash crowd at the cursor cycle (see
    /// [`ScenarioEvent::FlashCrowd`]).
    pub fn flash_crowd(self, fraction: f64) -> Self {
        self.push(ScenarioEvent::FlashCrowd { fraction })
    }

    /// A mass departure at the cursor cycle (see
    /// [`ScenarioEvent::MassLeave`]).
    pub fn mass_leave(self, fraction: f64) -> Self {
        self.push(ScenarioEvent::MassLeave { fraction })
    }

    /// A correlated regional failure at the cursor cycle (see
    /// [`ScenarioEvent::RegionalFailure`]).
    pub fn regional_failure(self, fraction: f64) -> Self {
        self.push(ScenarioEvent::RegionalFailure { fraction })
    }

    /// Shifts the joiner distribution from the cursor cycle on (see
    /// [`ScenarioEvent::ShiftDistribution`]).
    pub fn shift_distribution(self, distribution: AttributeDistribution) -> Self {
        self.push(ScenarioEvent::ShiftDistribution { distribution })
    }

    /// Corrupts a fraction of the population into rank-inflating liars at
    /// the cursor cycle (see [`ScenarioEvent::Corrupt`]).
    pub fn lying_nodes(self, fraction: f64, inflation: f64) -> Self {
        self.push(ScenarioEvent::Corrupt {
            fraction,
            inflation,
        })
    }

    /// Corrupts the boundary-nearest honest nodes into rank-inflating liars
    /// at the cursor cycle (see [`ScenarioEvent::CorruptBoundary`]).
    pub fn lying_boundary_nodes(self, fraction: f64, inflation: f64) -> Self {
        self.push(ScenarioEvent::CorruptBoundary {
            fraction,
            inflation,
        })
    }

    /// Re-partitions into `slices` equal slices at the cursor cycle (see
    /// [`ScenarioEvent::Repartition`]).
    pub fn repartition(self, slices: usize) -> Self {
        self.push(ScenarioEvent::Repartition { slices })
    }

    /// Partitions the network into `bands` attribute bands at the cursor
    /// cycle; the partition holds until a [`heal`](Scenario::heal) event
    /// (see [`ScenarioEvent::PartitionBands`]).
    pub fn partition_bands(self, bands: usize) -> Self {
        self.push(ScenarioEvent::PartitionBands {
            bands,
            heal_at: None,
        })
    }

    /// Partitions the network at the cursor cycle, healing automatically at
    /// the start of cycle `heal_at` (see
    /// [`ScenarioEvent::PartitionBands`]).
    pub fn partition_bands_until(self, bands: usize, heal_at: usize) -> Self {
        self.push(ScenarioEvent::PartitionBands {
            bands,
            heal_at: Some(heal_at),
        })
    }

    /// Heals the installed network partition at the cursor cycle (see
    /// [`ScenarioEvent::Heal`]).
    pub fn heal(self) -> Self {
        self.push(ScenarioEvent::Heal)
    }

    /// Sets the per-message drop probability from the cursor cycle on (see
    /// [`ScenarioEvent::DropRate`]).
    pub fn drop_rate(self, rate: f64) -> Self {
        self.push(ScenarioEvent::DropRate { rate })
    }

    /// Overrides the delivery latency into band `region` of the installed
    /// partition from the cursor cycle on (see
    /// [`ScenarioEvent::RegionLatency`]).
    pub fn region_latency(self, region: usize, model: LatencyModel) -> Self {
        self.push(ScenarioEvent::RegionLatency { region, model })
    }

    /// Corrupts a fraction of the honest population into adaptive
    /// adversaries at the cursor cycle (see
    /// [`ScenarioEvent::AdaptiveLiars`]).
    pub fn adaptive_liars(self, fraction: f64, attacker: AttackerSpec) -> Self {
        self.push(ScenarioEvent::AdaptiveLiars { fraction, attacker })
    }

    // ----- compilation -----------------------------------------------------

    /// Validates the program and compiles it into a deterministic
    /// [`Schedule`]: events stably sorted by cycle, with a population
    /// projection proving no cycle empties the system.
    pub fn compile(&self) -> Result<Schedule> {
        self.config.validate()?;
        self.protocol.validate()?;
        if self.cycles == 0 {
            return Err(Error::InvalidConfig(
                "a scenario must run for at least one cycle".into(),
            ));
        }
        if self.sample_every == 0 {
            return Err(Error::InvalidConfig(
                "the sampling cadence must be at least 1".into(),
            ));
        }
        for te in &self.events {
            if te.cycle == 0 || te.cycle > self.cycles {
                return Err(Error::InvalidConfig(format!(
                    "event `{}` at cycle {} falls outside the run (1..={})",
                    te.event.label(),
                    te.cycle,
                    self.cycles
                )));
            }
            self.validate_event(&te.event)?;
        }

        let mut events = self.events.clone();
        events.sort_by_key(|te| te.cycle); // stable: authoring order kept

        // Partition-consistency scan (events are now cycle-ordered, matching
        // the order the runner applies them): a region latency override must
        // land inside a partition still holding at its cycle, and a
        // scheduled heal must fall strictly after the install cycle — the
        // engine would reject these at runtime, but rejecting them here
        // names the offending event before anything runs.
        let mut bands_now: Option<(usize, Option<usize>)> = None;
        for te in &events {
            if let Some((_, Some(at))) = bands_now {
                if te.cycle >= at {
                    bands_now = None; // the scheduled heal fired first
                }
            }
            match &te.event {
                ScenarioEvent::PartitionBands { bands, heal_at } => {
                    if let Some(at) = heal_at {
                        if *at <= te.cycle {
                            return Err(Error::InvalidFault(format!(
                                "partition installed at cycle {} cannot heal at cycle {at}",
                                te.cycle
                            )));
                        }
                    }
                    bands_now = Some((*bands, *heal_at));
                }
                ScenarioEvent::Heal => bands_now = None,
                ScenarioEvent::RegionLatency { region, .. } => match bands_now {
                    Some((bands, _)) if *region < bands => {}
                    Some((bands, _)) => {
                        return Err(Error::InvalidFault(format!(
                            "region {region} at cycle {} is out of range for {bands} bands",
                            te.cycle
                        )))
                    }
                    None => {
                        return Err(Error::InvalidFault(format!(
                            "region latency at cycle {} has no installed partition to override",
                            te.cycle
                        )))
                    }
                },
                _ => {}
            }
        }

        // Population projection: replay the exact arithmetic the scripted
        // churn model will use — fraction counts against the start-of-cycle
        // population, departures capped so one node always survives.
        let mut projection = Vec::new();
        let mut n = self.config.n;
        let mut i = 0;
        while i < events.len() {
            let cycle = events[i].cycle;
            let n0 = n;
            let mut remaining = n0;
            let mut joined = 0usize;
            while i < events.len() && events[i].cycle == cycle {
                let (leave, join) = population_delta(&events[i].event, n0);
                if leave >= remaining {
                    return Err(Error::InvalidConfig(format!(
                        "event `{}` at cycle {cycle} would empty the population \
                         ({remaining} alive, {leave} leaving)",
                        events[i].event.label()
                    )));
                }
                remaining -= leave;
                joined += join;
                i += 1;
            }
            let after = remaining + joined;
            if after != n {
                projection.push(PopulationPoint { cycle, n: after });
            }
            n = after;
        }

        Ok(Schedule {
            events,
            cycles: self.cycles,
            initial_n: self.config.n,
            projection,
        })
    }

    fn validate_event(&self, event: &ScenarioEvent) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidConfig(msg));
        match event {
            ScenarioEvent::Join { count } | ScenarioEvent::Leave { count } => {
                if *count == 0 {
                    return bad(format!("`{}` of zero nodes is a no-op", event.label()));
                }
            }
            ScenarioEvent::FlashCrowd { fraction } => {
                if !fraction.is_finite() || *fraction <= 0.0 {
                    return bad(format!(
                        "flash-crowd fraction must be positive and finite, got {fraction}"
                    ));
                }
            }
            ScenarioEvent::MassLeave { fraction } | ScenarioEvent::RegionalFailure { fraction } => {
                if !(0.0..1.0).contains(fraction) || *fraction <= 0.0 {
                    return bad(format!(
                        "`{}` fraction must lie in (0, 1), got {fraction}",
                        event.label()
                    ));
                }
            }
            ScenarioEvent::ShiftDistribution { distribution } => {
                distribution.validate()?;
            }
            ScenarioEvent::Corrupt {
                fraction,
                inflation,
            }
            | ScenarioEvent::CorruptBoundary {
                fraction,
                inflation,
            } => {
                if !(0.0..=1.0).contains(fraction) || *fraction <= 0.0 {
                    return bad(format!(
                        "`{}` fraction must lie in (0, 1], got {fraction}",
                        event.label()
                    ));
                }
                if !inflation.is_finite() || *inflation < 1.0 {
                    return bad(format!(
                        "rank inflation must be finite and ≥ 1, got {inflation}"
                    ));
                }
            }
            ScenarioEvent::Repartition { slices } => {
                if *slices == 0 {
                    return bad("a repartition needs at least one slice".into());
                }
            }
            ScenarioEvent::PartitionBands { bands, .. } => {
                if *bands < 2 {
                    return bad(format!(
                        "a network partition needs at least 2 bands, got {bands}"
                    ));
                }
            }
            ScenarioEvent::Heal => {}
            ScenarioEvent::DropRate { rate } => {
                if !rate.is_finite() || !(0.0..1.0).contains(rate) {
                    return bad(format!("drop rate must lie in [0, 1), got {rate}"));
                }
            }
            ScenarioEvent::RegionLatency { model, .. } => {
                model.validate()?;
            }
            ScenarioEvent::AdaptiveLiars { fraction, attacker } => {
                if !(0.0..=1.0).contains(fraction) || *fraction <= 0.0 {
                    return bad(format!(
                        "`adaptive-liars` fraction must lie in (0, 1], got {fraction}"
                    ));
                }
                attacker.validate()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_places_events() {
        let s = Scenario::new("t")
            .for_cycles(100)
            .at_cycle(10)
            .join(5)
            .leave(3)
            .at_cycle(50)
            .flash_crowd(0.5);
        let cycles: Vec<usize> = s.events().iter().map(|te| te.cycle).collect();
        assert_eq!(cycles, vec![10, 10, 50]);
    }

    #[test]
    fn compile_sorts_stably_by_cycle() {
        let s = Scenario::new("t")
            .population(100)
            .for_cycles(100)
            .at_cycle(50)
            .join(1)
            .at_cycle(10)
            .leave(2)
            .at_cycle(50)
            .leave(3);
        let schedule = s.compile().unwrap();
        let got: Vec<(usize, &'static str)> = schedule
            .events
            .iter()
            .map(|te| (te.cycle, te.event.label()))
            .collect();
        assert_eq!(got, vec![(10, "leave"), (50, "join"), (50, "leave")]);
    }

    #[test]
    fn projection_tracks_population() {
        let s = Scenario::new("t")
            .population(100)
            .for_cycles(100)
            .at_cycle(10)
            .flash_crowd(1.0) // 100 join -> 200
            .at_cycle(20)
            .mass_leave(0.25) // 50 leave -> 150
            .at_cycle(30)
            .join(10)
            .leave(60); // same cycle: 150 - 60 + 10 = 100
        let schedule = s.compile().unwrap();
        assert_eq!(
            schedule.projection,
            vec![
                PopulationPoint { cycle: 10, n: 200 },
                PopulationPoint { cycle: 20, n: 150 },
                PopulationPoint { cycle: 30, n: 100 },
            ]
        );
        assert_eq!(schedule.final_population(), 100);
        assert_eq!(schedule.min_population(), 100);
    }

    #[test]
    fn emptying_the_population_is_rejected() {
        let s = Scenario::new("t")
            .population(10)
            .for_cycles(50)
            .at_cycle(5)
            .leave(10);
        assert!(s.compile().is_err());
        // Leaving all-but-one is fine.
        let s = Scenario::new("t")
            .population(10)
            .for_cycles(50)
            .at_cycle(5)
            .leave(9);
        assert_eq!(s.compile().unwrap().final_population(), 1);
    }

    #[test]
    fn out_of_range_events_are_rejected() {
        let base = || Scenario::new("t").population(100).for_cycles(50);
        assert!(base().at_cycle(0).join(1).compile().is_err());
        assert!(base().at_cycle(51).join(1).compile().is_err());
        assert!(base().at_cycle(10).join(0).compile().is_err());
        assert!(base().at_cycle(10).flash_crowd(-0.5).compile().is_err());
        assert!(base().at_cycle(10).mass_leave(1.0).compile().is_err());
        assert!(base().at_cycle(10).regional_failure(1.5).compile().is_err());
        assert!(base().at_cycle(10).lying_nodes(0.0, 2.0).compile().is_err());
        assert!(base().at_cycle(10).lying_nodes(0.5, 0.5).compile().is_err());
        assert!(base()
            .at_cycle(10)
            .lying_boundary_nodes(1.5, 2.0)
            .compile()
            .is_err());
        assert!(base()
            .at_cycle(10)
            .lying_boundary_nodes(0.1, 0.5)
            .compile()
            .is_err());
        assert!(base().at_cycle(10).repartition(0).compile().is_err());
        assert!(base().at_cycle(10).join(1).compile().is_ok());
        assert!(base()
            .at_cycle(10)
            .lying_boundary_nodes(0.1, 10.0)
            .compile()
            .is_ok());
    }

    #[test]
    fn fault_events_are_validated() {
        let base = || Scenario::new("t").population(100).for_cycles(50);
        assert!(base().at_cycle(10).partition_bands(1).compile().is_err());
        assert!(base().at_cycle(10).partition_bands(2).compile().is_ok());
        // A scheduled heal must fall strictly after the install cycle.
        assert!(base()
            .at_cycle(10)
            .partition_bands_until(2, 10)
            .compile()
            .is_err());
        assert!(base()
            .at_cycle(10)
            .partition_bands_until(2, 30)
            .compile()
            .is_ok());
        assert!(base().at_cycle(10).drop_rate(1.0).compile().is_err());
        assert!(base().at_cycle(10).drop_rate(-0.1).compile().is_err());
        assert!(base().at_cycle(10).drop_rate(f64::NAN).compile().is_err());
        assert!(base().at_cycle(10).drop_rate(0.25).compile().is_ok());
        assert!(base()
            .at_cycle(10)
            .adaptive_liars(0.0, AttackerSpec::Colluder { target: 0.9 })
            .compile()
            .is_err());
        assert!(
            base()
                .at_cycle(10)
                .adaptive_liars(0.2, AttackerSpec::Colluder { target: 2.0 })
                .compile()
                .is_err(),
            "the attacker spec itself must validate"
        );
        assert!(base()
            .at_cycle(10)
            .adaptive_liars(0.2, AttackerSpec::Colluder { target: 0.9 })
            .compile()
            .is_ok());
    }

    #[test]
    fn region_latency_needs_a_holding_partition() {
        let base = || Scenario::new("t").population(100).for_cycles(50);
        let slow = LatencyModel::Fixed { cycles: 3 };
        // No partition at all.
        assert!(base()
            .at_cycle(10)
            .region_latency(0, slow)
            .compile()
            .is_err());
        // Region index out of range for the installed band count.
        assert!(base()
            .at_cycle(10)
            .partition_bands(2)
            .at_cycle(12)
            .region_latency(2, slow)
            .compile()
            .is_err());
        // After an explicit heal the override has nothing to attach to.
        assert!(base()
            .at_cycle(10)
            .partition_bands(2)
            .at_cycle(20)
            .heal()
            .at_cycle(25)
            .region_latency(1, slow)
            .compile()
            .is_err());
        // Same once the scheduled heal has fired (heal cycle inclusive:
        // the engine heals before the cycle's exchanges run).
        assert!(base()
            .at_cycle(10)
            .partition_bands_until(2, 20)
            .at_cycle(20)
            .region_latency(1, slow)
            .compile()
            .is_err());
        // Inside the holding window the override compiles; a degenerate
        // latency model is still rejected.
        assert!(base()
            .at_cycle(10)
            .partition_bands_until(2, 30)
            .at_cycle(12)
            .region_latency(1, slow)
            .compile()
            .is_ok());
        assert!(base()
            .at_cycle(10)
            .partition_bands(2)
            .at_cycle(12)
            .region_latency(1, LatencyModel::Uniform { min: 5, max: 2 })
            .compile()
            .is_err());
    }

    #[test]
    fn degenerate_protocol_parameters_fail_compilation() {
        let bad = Scenario::new("t")
            .population(100)
            .for_cycles(50)
            .with_protocol(ProtocolKind::SlidingRanking { window: 0 });
        assert!(bad.compile().is_err());
        let ok = Scenario::new("t")
            .population(100)
            .for_cycles(50)
            .with_protocol(ProtocolKind::SlidingRanking { window: 64 });
        assert!(ok.compile().is_ok());
    }

    #[test]
    fn fraction_count_convention() {
        assert_eq!(fraction_count(1000, 0.001), 1);
        assert_eq!(fraction_count(1000, 0.5), 500);
        assert_eq!(
            fraction_count(10, 0.0001),
            1,
            "positive fractions round up to 1"
        );
        assert_eq!(fraction_count(0, 0.5), 0);
        assert_eq!(fraction_count(100, 0.0), 0);
    }

    #[test]
    fn schedule_roundtrips_through_json() {
        let schedule = Scenario::new("t")
            .population(50)
            .for_cycles(60)
            .at_cycle(10)
            .shift_distribution(AttributeDistribution::Pareto {
                scale: 1.0,
                shape: 1.5,
            })
            .at_cycle(20)
            .lying_nodes(0.1, 5.0)
            .at_cycle(30)
            .partition_bands_until(2, 45)
            .at_cycle(32)
            .region_latency(1, LatencyModel::Uniform { min: 1, max: 3 })
            .at_cycle(35)
            .drop_rate(0.05)
            .at_cycle(40)
            .heal()
            .at_cycle(50)
            .adaptive_liars(
                0.1,
                AttackerSpec::Throttler {
                    accept_period: 2,
                    inflation: 8.0,
                },
            )
            .compile()
            .unwrap();
        let json = serde_json::to_string(&schedule).unwrap();
        let parsed: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, schedule);
    }
}
