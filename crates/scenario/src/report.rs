//! Structured scenario reports: what a run emits, what CI uploads, what the
//! goldens under `docs/scenarios/goldens/` pin byte-for-byte.
//!
//! A report is pure simulated state — disorder/accuracy trajectory, event
//! log, message totals — so it is deterministic for a given scenario.
//! Wall-clock phase timings are host noise, so they ride in an
//! `Option` that stays `None` unless the scenario explicitly opts in
//! (golden scenarios never do).

use crate::dsl::TimedEvent;
use dslice_obs::{Registry, COUNT_BUCKETS};
use dslice_sim::{FieldReader, PhaseTimings, Totals};
use serde::{Serialize, Value};

/// One sampled point of the run's trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// The cycle this point was sampled after.
    pub cycle: usize,
    /// Live population size.
    pub n: usize,
    /// Slice disorder measure over the full population.
    pub sdm: f64,
    /// Global disorder measure over the full population.
    pub gdm: f64,
    /// Fraction of all nodes in their true slice.
    pub accuracy: f64,
    /// Fraction of *honest* nodes in their true slice (equals `accuracy`
    /// while nobody lies).
    pub honest_accuracy: f64,
    /// Live lying nodes at this point.
    pub liars: usize,
    /// Nodes that left during this cycle.
    pub left: usize,
    /// Nodes that joined during this cycle.
    pub joined: usize,
    /// Nodes whose believed slice changed this cycle (§3.2 stability).
    pub slice_changes: usize,
    /// Attribute samples rejected by outlier-robust admission *during the
    /// sampled cycle* (defended ranking variants only; 0 otherwise).
    pub samples_rejected: u64,
    /// Swap proposals abandoned unresolved *during the sampled cycle*
    /// (liveness-tracking ordering variant only; 0 otherwise).
    pub swaps_abandoned: u64,
}

// A trajectory point's counter columns share their keys with the counter
// table; the per-cycle defence counters come last, in the opposite order to
// `Totals`, and like there are written only when non-zero.

impl Serialize for TrajectoryPoint {
    fn to_value(&self) -> Value {
        let [.., (left, _), (joined, _), (slice_changes, _), (abandoned, _), (rejected, _)] =
            Totals::COUNTERS;
        let mut map: Vec<(String, Value)> = vec![
            ("cycle".into(), self.cycle.to_value()),
            ("n".into(), self.n.to_value()),
            ("sdm".into(), self.sdm.to_value()),
            ("gdm".into(), self.gdm.to_value()),
            ("accuracy".into(), self.accuracy.to_value()),
            ("honest_accuracy".into(), self.honest_accuracy.to_value()),
            ("liars".into(), self.liars.to_value()),
            (left.into(), self.left.to_value()),
            (joined.into(), self.joined.to_value()),
            (slice_changes.into(), self.slice_changes.to_value()),
        ];
        for (name, v) in [
            (rejected, self.samples_rejected),
            (abandoned, self.swaps_abandoned),
        ] {
            if v != 0 {
                map.push((name.into(), v.to_value()));
            }
        }
        Value::Map(map)
    }
}

impl serde::Deserialize for TrajectoryPoint {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let [.., (left, _), (joined, _), (slice_changes, _), (abandoned, _), (rejected, _)] =
            Totals::COUNTERS;
        let f = FieldReader::of("TrajectoryPoint", v)?;
        Ok(TrajectoryPoint {
            cycle: f.req("cycle")?,
            n: f.req("n")?,
            sdm: f.req("sdm")?,
            gdm: f.req("gdm")?,
            accuracy: f.req("accuracy")?,
            honest_accuracy: f.req("honest_accuracy")?,
            liars: f.req("liars")?,
            left: f.req(left)?,
            joined: f.req(joined)?,
            slice_changes: f.req(slice_changes)?,
            samples_rejected: f.opt(rejected)?,
            swaps_abandoned: f.opt(abandoned)?,
        })
    }
}

/// The structured result of one scenario run.
///
/// Serde is hand-written (not derived) to pin the golden byte shape: every
/// report carries `"phase_us": null` — the derived shape every golden was
/// committed with — and timed reports append the nanosecond block under
/// `phase_ns` after it.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (the report/golden file stem).
    pub name: String,
    /// Protocol label (`jk`, `mod-jk`, `ranking`, …).
    pub protocol: String,
    /// Run seed.
    pub seed: u64,
    /// Initial population size.
    pub initial_n: usize,
    /// Population size at the end of the run.
    pub final_n: usize,
    /// Slices in the partition at the end of the run.
    pub slices: usize,
    /// Run length in cycles.
    pub cycles: usize,
    /// The compiled event schedule the run executed (cycle-ordered).
    pub events: Vec<TimedEvent>,
    /// Sampled SDM/accuracy trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Whole-run event and message totals.
    pub totals: Totals,
    /// Final slice disorder measure.
    pub final_sdm: f64,
    /// Final global disorder measure.
    pub final_gdm: f64,
    /// Final full-population accuracy.
    pub final_accuracy: f64,
    /// Final honest-only accuracy.
    pub final_honest_accuracy: f64,
    /// Live lying nodes at the end of the run.
    pub liars: usize,
    /// Per-phase wall-clock totals over the run, in nanoseconds — host
    /// noise, present only when the scenario opted into timing; never part
    /// of goldens (which pin the untimed `"phase_us": null` shape).
    pub phase_ns: Option<PhaseTimings>,
}

impl Serialize for ScenarioReport {
    fn to_value(&self) -> Value {
        let mut map: Vec<(String, Value)> = vec![
            ("name".into(), self.name.to_value()),
            ("protocol".into(), self.protocol.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("initial_n".into(), self.initial_n.to_value()),
            ("final_n".into(), self.final_n.to_value()),
            ("slices".into(), self.slices.to_value()),
            ("cycles".into(), self.cycles.to_value()),
            ("events".into(), self.events.to_value()),
            ("trajectory".into(), self.trajectory.to_value()),
            ("totals".into(), self.totals.to_value()),
            ("final_sdm".into(), self.final_sdm.to_value()),
            ("final_gdm".into(), self.final_gdm.to_value()),
            ("final_accuracy".into(), self.final_accuracy.to_value()),
            (
                "final_honest_accuracy".into(),
                self.final_honest_accuracy.to_value(),
            ),
            ("liars".into(), self.liars.to_value()),
        ];
        // The exact byte the goldens pin: a literal null, last when untimed.
        map.push(("phase_us".into(), Value::Null));
        if let Some(t) = &self.phase_ns {
            map.push(("phase_ns".into(), t.to_value()));
        }
        Value::Map(map)
    }
}

impl serde::Deserialize for ScenarioReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let f = FieldReader::of("ScenarioReport", v)?;
        // A `phase_us` map holds timings in a format no longer read: fail
        // rather than parse the report as untimed and drop them.
        if f.opt::<Option<Value>>("phase_us")?.is_some() {
            return Err(f.error("phase_us", "microsecond timings are no longer read"));
        }
        Ok(ScenarioReport {
            name: f.req("name")?,
            protocol: f.req("protocol")?,
            seed: f.req("seed")?,
            initial_n: f.req("initial_n")?,
            final_n: f.req("final_n")?,
            slices: f.req("slices")?,
            cycles: f.req("cycles")?,
            events: f.req("events")?,
            trajectory: f.req("trajectory")?,
            totals: f.req("totals")?,
            final_sdm: f.req("final_sdm")?,
            final_gdm: f.req("final_gdm")?,
            final_accuracy: f.req("final_accuracy")?,
            final_honest_accuracy: f.req("final_honest_accuracy")?,
            liars: f.req("liars")?,
            phase_ns: f.opt("phase_ns")?,
        })
    }
}

impl ScenarioReport {
    /// Serializes the report as pretty-printed JSON (the golden format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// Parses a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The trajectory point with the worst (highest) SDM — scenarios shock
    /// the system and this is the shock's peak.
    pub fn peak_sdm(&self) -> Option<&TrajectoryPoint> {
        self.trajectory
            .iter()
            .max_by(|a, b| a.sdm.total_cmp(&b.sdm))
    }

    /// Exports the report under the `dslice_scenario_*` metric namespace:
    /// final gauges, whole-run totals as counters, per-phase timing counters
    /// (when timed), and deterministic per-sample activity histograms.
    ///
    /// Everything here derives from simulated state (except the opt-in
    /// `phase_ns` block), so for an untimed scenario the rendered registry
    /// is byte-identical across reruns.
    pub fn metrics_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.gauge_set(
            "dslice_scenario_final_n",
            "Final population.",
            self.final_n as f64,
        );
        reg.gauge_set(
            "dslice_scenario_cycles",
            "Run length in cycles.",
            self.cycles as f64,
        );
        reg.gauge_set(
            "dslice_scenario_final_sdm",
            "Final slice disorder measure.",
            self.final_sdm,
        );
        reg.gauge_set(
            "dslice_scenario_final_gdm",
            "Final global disorder measure.",
            self.final_gdm,
        );
        reg.gauge_set(
            "dslice_scenario_final_accuracy",
            "Final full-population accuracy.",
            self.final_accuracy,
        );
        reg.gauge_set(
            "dslice_scenario_final_honest_accuracy",
            "Final honest-only accuracy.",
            self.final_honest_accuracy,
        );
        reg.gauge_set(
            "dslice_scenario_liars",
            "Live lying nodes at the end.",
            self.liars as f64,
        );
        self.totals.export(&mut reg, "dslice_scenario");
        for p in &self.trajectory {
            reg.observe(
                "dslice_scenario_slice_changes_per_sample",
                "Believed-slice changes per sampled cycle.",
                &COUNT_BUCKETS,
                p.slice_changes as f64,
            );
            reg.observe(
                "dslice_scenario_joined_per_sample",
                "Arrivals per sampled cycle.",
                &COUNT_BUCKETS,
                p.joined as f64,
            );
        }
        if let Some(t) = &self.phase_ns {
            t.export(&mut reg, "dslice_scenario");
        }
        reg
    }

    /// One-line human summary for matrix output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<24} {:>8} {:>7} {:>6} {:>10.3} {:>9.3} {:>9.3}",
            self.name,
            self.protocol,
            self.cycles,
            self.final_n,
            self.final_sdm,
            self.final_accuracy,
            self.final_honest_accuracy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::ScenarioEvent;
    use dslice_sim::CycleStats;

    fn report() -> ScenarioReport {
        ScenarioReport {
            name: "t".into(),
            protocol: "ranking".into(),
            seed: 7,
            initial_n: 100,
            final_n: 120,
            slices: 4,
            cycles: 50,
            events: vec![TimedEvent {
                cycle: 10,
                event: ScenarioEvent::FlashCrowd { fraction: 0.2 },
            }],
            trajectory: vec![
                TrajectoryPoint {
                    cycle: 10,
                    n: 120,
                    sdm: 5.0,
                    gdm: 1.0,
                    accuracy: 0.8,
                    honest_accuracy: 0.8,
                    liars: 0,
                    left: 0,
                    joined: 20,
                    slice_changes: 3,
                    samples_rejected: 0,
                    swaps_abandoned: 0,
                },
                TrajectoryPoint {
                    cycle: 50,
                    n: 120,
                    sdm: 1.5,
                    gdm: 0.0,
                    accuracy: 0.95,
                    honest_accuracy: 0.95,
                    liars: 0,
                    left: 0,
                    joined: 0,
                    slice_changes: 0,
                    samples_rejected: 0,
                    swaps_abandoned: 0,
                },
            ],
            totals: Totals::default(),
            final_sdm: 1.5,
            final_gdm: 0.0,
            final_accuracy: 0.95,
            final_honest_accuracy: 0.95,
            liars: 0,
            phase_ns: None,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let r = report();
        let parsed = ScenarioReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn untimed_report_pins_the_golden_null_shape() {
        // The goldens all end with `"phase_us": null` as the last key; the
        // hand-written impl must keep emitting exactly that, and no
        // `phase_ns` key at all.
        let json = report().to_json();
        assert!(json.trim_end().ends_with("\"phase_us\": null\n}"), "{json}");
        assert!(!json.contains("phase_ns"), "golden drift: {json}");
    }

    #[test]
    fn timed_report_roundtrips_with_both_blocks() {
        let mut r = report();
        r.phase_ns = Some(PhaseTimings {
            membership_ns: 2_500,
            ..PhaseTimings::default()
        });
        let json = r.to_json();
        assert!(
            json.contains("\"phase_us\": null,\n  \"phase_ns\": {"),
            "{json}"
        );
        assert!(json.contains("\"membership_ns\": 2500"));
        let parsed = ScenarioReport::from_json(&json).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn microsecond_timing_block_is_rejected() {
        // A timed report written before the nanosecond block: only a
        // `phase_us` map. It must not parse as an untimed report.
        let json = report().to_json().replace(
            "\"phase_us\": null",
            "\"phase_us\": {\"churn_us\": 1, \"membership_us\": 3}",
        );
        let err = ScenarioReport::from_json(&json).unwrap_err().to_string();
        assert!(err.contains("ScenarioReport.phase_us: "), "got: {err}");
    }

    #[test]
    fn peak_sdm_finds_the_shock() {
        let r = report();
        assert_eq!(r.peak_sdm().unwrap().cycle, 10);
    }

    #[test]
    fn totals_accumulate_cycle_stats() {
        let mut totals = Totals::default();
        let mut stats = CycleStats {
            cycle: 1,
            n: 100,
            sdm: 0.0,
            gdm: 0.0,
            events: Default::default(),
            dropped_messages: 2,
            left: 1,
            joined: 3,
            slice_changes: 4,
            timings: None,
        };
        stats.events.updates_sent = 10;
        stats.events.swaps_abandoned = 1;
        stats.events.samples_rejected = 5;
        totals.accumulate(&stats);
        totals.accumulate(&stats);
        assert_eq!(totals.updates_sent, 20);
        assert_eq!(totals.dropped_messages, 4);
        assert_eq!(totals.joined, 6);
        assert_eq!(totals.slice_changes, 8);
        assert_eq!(totals.swaps_abandoned, 2);
        assert_eq!(totals.samples_rejected, 10);
    }

    #[test]
    fn defense_counters_serialize_only_when_nonzero() {
        // Zero defense counters → invisible on the wire, so every
        // pre-defense golden stays byte-identical.
        let quiet = Totals {
            swaps_proposed: 3,
            ..Totals::default()
        };
        let json = serde_json::to_string(&quiet).unwrap();
        assert!(!json.contains("swaps_abandoned"), "golden drift: {json}");
        assert!(!json.contains("samples_rejected"), "golden drift: {json}");
        let parsed: Totals = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, quiet);

        // Non-zero counters round-trip.
        let loud = Totals {
            swaps_abandoned: 7,
            samples_rejected: 11,
            ..quiet.clone()
        };
        let json = serde_json::to_string(&loud).unwrap();
        assert!(json.contains("\"swaps_abandoned\""));
        assert!(json.contains("\"samples_rejected\""));
        let parsed: Totals = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, loud);
    }

    #[test]
    fn trajectory_defense_counters_serialize_only_when_nonzero() {
        let mut point = report().trajectory[0].clone();
        let json = serde_json::to_string(&point).unwrap();
        assert!(!json.contains("samples_rejected"), "golden drift: {json}");
        assert!(!json.contains("swaps_abandoned"), "golden drift: {json}");
        let parsed: TrajectoryPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, point);

        point.samples_rejected = 4;
        point.swaps_abandoned = 2;
        let json = serde_json::to_string(&point).unwrap();
        assert!(json.contains("\"samples_rejected\""));
        assert!(json.contains("\"swaps_abandoned\""));
        let parsed: TrajectoryPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, point);
    }

    #[test]
    fn pre_defense_trajectory_json_still_parses() {
        // The exact shape the derived impl used to emit (no defense keys).
        let json = r#"{"cycle":10,"n":120,"sdm":5.0,"gdm":1.0,"accuracy":0.8,
            "honest_accuracy":0.8,"liars":0,"left":0,"joined":20,
            "slice_changes":3}"#;
        let parsed: TrajectoryPoint = serde_json::from_str(json).unwrap();
        assert_eq!(parsed, report().trajectory[0]);
        // A truncated record (missing an original column) is still an error.
        let truncated = r#"{"cycle":10}"#;
        let err = serde_json::from_str::<TrajectoryPoint>(truncated)
            .unwrap_err()
            .to_string();
        assert!(err.contains("TrajectoryPoint.n"), "got: {err}");
    }

    #[test]
    fn pre_defense_totals_json_still_parses() {
        // The exact shape the derived impl used to emit (no defense keys).
        let json = r#"{"swaps_proposed":1,"swaps_applied":2,"swaps_useless":3,
            "updates_sent":4,"samples_absorbed":5,"dropped_messages":6,
            "left":7,"joined":8,"slice_changes":9}"#;
        let parsed: Totals = serde_json::from_str(json).unwrap();
        assert_eq!(parsed.slice_changes, 9);
        assert_eq!(parsed.swaps_abandoned, 0);
        assert_eq!(parsed.samples_rejected, 0);
        // A truncated record (missing an original counter) is still an error.
        let truncated = r#"{"swaps_proposed":1}"#;
        let err = serde_json::from_str::<Totals>(truncated)
            .unwrap_err()
            .to_string();
        assert!(err.contains("swaps_applied"), "got: {err}");
    }
}
