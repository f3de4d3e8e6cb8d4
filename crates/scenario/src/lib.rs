//! # dslice-scenario
//!
//! A scripted scenario engine for the cycle simulator: a fluent, timed-event
//! DSL that compiles to a deterministic event schedule, a library of
//! committed adversarial workloads, and structured JSON reports with
//! SDM/accuracy trajectories.
//!
//! The paper's central claim is that gossip-based slicing stays accurate
//! *under dynamics* — churn, concurrency, skewed attribute distributions.
//! This crate turns each such condition (and their compositions, and the
//! natural adversarial extension: **lying nodes** that claim inflated
//! ranks) into a first-class, replayable scenario:
//!
//! ```
//! use dslice_scenario::Scenario;
//!
//! let report = Scenario::new("demo")
//!     .population(200)
//!     .slices(4)
//!     .seed(7)
//!     .for_cycles(120)
//!     .at_cycle(40)
//!     .flash_crowd(0.5)        // +50% of the population at once
//!     .at_cycle(80)
//!     .lying_nodes(0.1, 5.0)   // 10% start claiming 5× their rank
//!     .run()
//!     .unwrap();
//! assert!(report.final_honest_accuracy > report.final_accuracy - 1e-9);
//! ```
//!
//! ## Structure
//!
//! * [`dsl`] — the [`Scenario`] builder, [`ScenarioEvent`]s, and the
//!   compiled [`Schedule`] (cycle-ordered, population-consistent).
//! * [`script`] — [`ScriptedChurn`], the churn model executing a schedule's
//!   population events inside the engine's churn phase.
//! * [`runner`] — [`Scenario::run`]: drives the engine, applies control
//!   events (corruption, repartitioning), samples the trajectory.
//! * [`report`] — the serializable [`ScenarioReport`] (the golden format).
//! * [`library`] — the committed scenario matrix (see `docs/SCENARIOS.md`).
//!
//! The `scenario_matrix` binary runs the whole library, writes one JSON
//! report per scenario, and — in `--check` mode — compares them
//! byte-for-byte against the goldens under `docs/scenarios/goldens/`.
//!
//! ## Determinism
//!
//! A report is pure simulated state: `(scenario, seed)` fully determines
//! it. Event selection (leaver draws, regional band
//! placement, corruption targets) flows through the engine's sequential
//! seeded RNG; node-level work stays on per-node counter streams. The one
//! exception is the opt-in `phase_ns` wall-clock block, which golden
//! scenarios keep disabled.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod dsl;
pub mod library;
pub mod report;
pub mod runner;
pub mod script;

pub use dsl::{
    fraction_count, population_delta, PopulationPoint, Scenario, ScenarioEvent, Schedule,
    TimedEvent,
};
pub use dslice_sim::Totals;
pub use report::{ScenarioReport, TrajectoryPoint};
pub use script::ScriptedChurn;
