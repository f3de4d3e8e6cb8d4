//! Structured scenario reports: what a run emits, what CI uploads, what the
//! goldens under `docs/scenarios/goldens/` pin byte-for-byte.
//!
//! A report is pure simulated state — disorder/accuracy trajectory, event
//! log, message totals — so it is deterministic for a given scenario, at any
//! shard count. Wall-clock phase timings are host noise, so they ride in an
//! `Option` that stays `None` unless the scenario explicitly opts in
//! (golden scenarios never do).

use crate::dsl::TimedEvent;
use dslice_obs::{Registry, COUNT_BUCKETS};
use dslice_sim::{CycleStats, PhaseTimings};

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

impl serde::Serialize for TrajectoryPoint {
    /// Hand-written on the same scheme as [`Totals`]: the ten original
    /// columns serialize exactly as the derived impl always did, and the
    /// per-cycle defense counters are appended **only when non-zero** —
    /// undefended scenarios can never record them, so their goldens stay
    /// byte-identical.
    fn to_value(&self) -> serde::Value {
        let mut map: Vec<(String, serde::Value)> = vec![
            ("cycle".into(), serde::Serialize::to_value(&self.cycle)),
            ("n".into(), serde::Serialize::to_value(&self.n)),
            ("sdm".into(), serde::Serialize::to_value(&self.sdm)),
            ("gdm".into(), serde::Serialize::to_value(&self.gdm)),
            (
                "accuracy".into(),
                serde::Serialize::to_value(&self.accuracy),
            ),
            (
                "honest_accuracy".into(),
                serde::Serialize::to_value(&self.honest_accuracy),
            ),
            ("liars".into(), serde::Serialize::to_value(&self.liars)),
            ("left".into(), serde::Serialize::to_value(&self.left)),
            ("joined".into(), serde::Serialize::to_value(&self.joined)),
            (
                "slice_changes".into(),
                serde::Serialize::to_value(&self.slice_changes),
            ),
        ];
        for (name, v) in [
            ("samples_rejected", self.samples_rejected),
            ("swaps_abandoned", self.swaps_abandoned),
        ] {
            if v != 0 {
                map.push((name.to_string(), serde::Serialize::to_value(&v)));
            }
        }
        serde::Value::Map(map)
    }
}

impl serde::Deserialize for TrajectoryPoint {
    /// Mirror of the conditional [`serde::Serialize`] impl: the defense
    /// counters default to 0 when absent, so pre-defense goldens parse.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct TrajectoryPoint"))?;
        let count = |name: &str| -> Result<usize, serde::Error> {
            serde::Deserialize::from_value(serde::__field(m, name))
                .map_err(|e| serde::Error::custom(format!("TrajectoryPoint.{name}: {e}")))
        };
        let metric = |name: &str| -> Result<f64, serde::Error> {
            serde::Deserialize::from_value(serde::__field(m, name))
                .map_err(|e| serde::Error::custom(format!("TrajectoryPoint.{name}: {e}")))
        };
        let optional = |name: &str| -> Result<u64, serde::Error> {
            match serde::__field(m, name) {
                serde::Value::Null => Ok(0),
                present => serde::Deserialize::from_value(present)
                    .map_err(|e| serde::Error::custom(format!("TrajectoryPoint.{name}: {e}"))),
            }
        };
        Ok(TrajectoryPoint {
            cycle: count("cycle")?,
            n: count("n")?,
            sdm: metric("sdm")?,
            gdm: metric("gdm")?,
            accuracy: metric("accuracy")?,
            honest_accuracy: metric("honest_accuracy")?,
            liars: count("liars")?,
            left: count("left")?,
            joined: count("joined")?,
            slice_changes: count("slice_changes")?,
            samples_rejected: optional("samples_rejected")?,
            swaps_abandoned: optional("swaps_abandoned")?,
        })
    }
}

/// Event and message counters accumulated over the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Swap proposals sent (ordering family).
    pub swaps_proposed: u64,
    /// Swaps applied (either side).
    pub swaps_applied: u64,
    /// Unsuccessful swaps (§4.5.2).
    pub swaps_useless: u64,
    /// One-way `UPD` attribute samples sent (ranking family).
    pub updates_sent: u64,
    /// Attribute samples folded into rank estimates.
    pub samples_absorbed: u64,
    /// Messages dropped (loss model or departed endpoints).
    pub dropped_messages: u64,
    /// Total departures over the run.
    pub left: u64,
    /// Total arrivals over the run.
    pub joined: u64,
    /// Total believed-slice changes over the run.
    pub slice_changes: u64,
    /// Swap proposals abandoned unresolved (liveness-tracking ordering
    /// variant only; 0 for every paper-faithful protocol).
    pub swaps_abandoned: u64,
    /// Attribute samples rejected by outlier-robust admission (defended
    /// ranking variants only; 0 otherwise).
    pub samples_rejected: u64,
}

impl Totals {
    /// Folds one cycle's statistics in.
    pub fn accumulate(&mut self, stats: &CycleStats) {
        self.swaps_proposed += stats.events.swaps_proposed;
        self.swaps_applied += stats.events.swaps_applied;
        self.swaps_useless += stats.events.swaps_useless;
        self.updates_sent += stats.events.updates_sent;
        self.samples_absorbed += stats.events.samples_absorbed;
        self.dropped_messages += stats.dropped_messages;
        self.left += stats.left as u64;
        self.joined += stats.joined as u64;
        self.slice_changes += stats.slice_changes as u64;
        self.swaps_abandoned += stats.events.swaps_abandoned;
        self.samples_rejected += stats.events.samples_rejected;
    }
}

/// Field order of the nine original counters, shared by both hand-written
/// impls below so they cannot drift apart.
const TOTALS_FIELDS: [&str; 9] = [
    "swaps_proposed",
    "swaps_applied",
    "swaps_useless",
    "updates_sent",
    "samples_absorbed",
    "dropped_messages",
    "left",
    "joined",
    "slice_changes",
];

impl serde::Serialize for Totals {
    /// Hand-written to keep the golden files stable: the nine original
    /// counters serialize exactly as the derived impl always did, and the
    /// defense counters (`swaps_abandoned`, `samples_rejected`) are appended
    /// **only when non-zero** — undefended scenarios can never record them,
    /// so their goldens stay byte-identical.
    fn to_value(&self) -> serde::Value {
        let base = [
            self.swaps_proposed,
            self.swaps_applied,
            self.swaps_useless,
            self.updates_sent,
            self.samples_absorbed,
            self.dropped_messages,
            self.left,
            self.joined,
            self.slice_changes,
        ];
        let mut map: Vec<(String, serde::Value)> = TOTALS_FIELDS
            .iter()
            .zip(base)
            .map(|(name, v)| (name.to_string(), serde::Serialize::to_value(&v)))
            .collect();
        for (name, v) in [
            ("swaps_abandoned", self.swaps_abandoned),
            ("samples_rejected", self.samples_rejected),
        ] {
            if v != 0 {
                map.push((name.to_string(), serde::Serialize::to_value(&v)));
            }
        }
        serde::Value::Map(map)
    }
}

impl serde::Deserialize for Totals {
    /// Mirror of the conditional [`serde::Serialize`] impl: the defense
    /// counters default to 0 when absent, so pre-defense goldens parse.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct Totals"))?;
        let strict = |name: &str| -> Result<u64, serde::Error> {
            serde::Deserialize::from_value(serde::__field(m, name))
                .map_err(|e| serde::Error::custom(format!("Totals.{name}: {e}")))
        };
        let optional = |name: &str| -> Result<u64, serde::Error> {
            match serde::__field(m, name) {
                serde::Value::Null => Ok(0),
                present => serde::Deserialize::from_value(present)
                    .map_err(|e| serde::Error::custom(format!("Totals.{name}: {e}"))),
            }
        };
        let mut base = [0u64; 9];
        for (slot, name) in base.iter_mut().zip(TOTALS_FIELDS) {
            *slot = strict(name)?;
        }
        let [swaps_proposed, swaps_applied, swaps_useless, updates_sent, samples_absorbed, dropped_messages, left, joined, slice_changes] =
            base;
        Ok(Totals {
            swaps_proposed,
            swaps_applied,
            swaps_useless,
            updates_sent,
            samples_absorbed,
            dropped_messages,
            left,
            joined,
            slice_changes,
            swaps_abandoned: optional("swaps_abandoned")?,
            samples_rejected: optional("samples_rejected")?,
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

/// Field order of the scalar golden columns, shared by both hand-written
/// impls below so they cannot drift apart.
const REPORT_HEAD_FIELDS: [&str; 7] = [
    "name",
    "protocol",
    "seed",
    "initial_n",
    "final_n",
    "slices",
    "cycles",
];

impl serde::Serialize for ScenarioReport {
    fn to_value(&self) -> serde::Value {
        let mut map: Vec<(String, serde::Value)> = vec![
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
        map.push(("phase_us".into(), serde::Value::Null));
        if let Some(t) = &self.phase_ns {
            map.push(("phase_ns".into(), t.to_value()));
        }
        serde::Value::Map(map)
    }
}

impl serde::Deserialize for ScenarioReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct ScenarioReport"))?;
        let ctx = |name: &str, e: serde::Error| {
            serde::Error::custom(format!("ScenarioReport.{name}: {e}"))
        };
        // Validate the head columns exist (same strictness the derived impl
        // had), then read each typed field.
        for name in REPORT_HEAD_FIELDS {
            if matches!(serde::__field(m, name), serde::Value::Null) {
                return Err(serde::Error::custom(format!(
                    "ScenarioReport.{name}: missing"
                )));
            }
        }
        // A `phase_us` map holds timings in a format no longer read: fail
        // rather than parse the report as untimed and drop them.
        if !matches!(serde::__field(m, "phase_us"), serde::Value::Null) {
            return Err(ctx(
                "phase_us",
                serde::Error::custom("microsecond timings are no longer read; expected null"),
            ));
        }
        let phase_ns = match serde::__field(m, "phase_ns") {
            serde::Value::Null => None,
            ns => Some(PhaseTimings::from_value(ns).map_err(|e| ctx("phase_ns", e))?),
        };
        Ok(ScenarioReport {
            name: String::from_value(serde::__field(m, "name")).map_err(|e| ctx("name", e))?,
            protocol: String::from_value(serde::__field(m, "protocol"))
                .map_err(|e| ctx("protocol", e))?,
            seed: u64::from_value(serde::__field(m, "seed")).map_err(|e| ctx("seed", e))?,
            initial_n: usize::from_value(serde::__field(m, "initial_n"))
                .map_err(|e| ctx("initial_n", e))?,
            final_n: usize::from_value(serde::__field(m, "final_n"))
                .map_err(|e| ctx("final_n", e))?,
            slices: usize::from_value(serde::__field(m, "slices")).map_err(|e| ctx("slices", e))?,
            cycles: usize::from_value(serde::__field(m, "cycles")).map_err(|e| ctx("cycles", e))?,
            events: Vec::from_value(serde::__field(m, "events")).map_err(|e| ctx("events", e))?,
            trajectory: Vec::from_value(serde::__field(m, "trajectory"))
                .map_err(|e| ctx("trajectory", e))?,
            totals: Totals::from_value(serde::__field(m, "totals"))
                .map_err(|e| ctx("totals", e))?,
            final_sdm: f64::from_value(serde::__field(m, "final_sdm"))
                .map_err(|e| ctx("final_sdm", e))?,
            final_gdm: f64::from_value(serde::__field(m, "final_gdm"))
                .map_err(|e| ctx("final_gdm", e))?,
            final_accuracy: f64::from_value(serde::__field(m, "final_accuracy"))
                .map_err(|e| ctx("final_accuracy", e))?,
            final_honest_accuracy: f64::from_value(serde::__field(m, "final_honest_accuracy"))
                .map_err(|e| ctx("final_honest_accuracy", e))?,
            liars: usize::from_value(serde::__field(m, "liars")).map_err(|e| ctx("liars", e))?,
            phase_ns,
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
    /// is byte-identical across reruns and shard counts.
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
        for (name, help, v) in [
            (
                "dslice_scenario_swaps_proposed_total",
                "Swap proposals sent.",
                self.totals.swaps_proposed,
            ),
            (
                "dslice_scenario_swaps_applied_total",
                "Swaps applied.",
                self.totals.swaps_applied,
            ),
            (
                "dslice_scenario_swaps_useless_total",
                "Unsuccessful swaps.",
                self.totals.swaps_useless,
            ),
            (
                "dslice_scenario_updates_sent_total",
                "UPD samples sent.",
                self.totals.updates_sent,
            ),
            (
                "dslice_scenario_samples_absorbed_total",
                "Samples absorbed.",
                self.totals.samples_absorbed,
            ),
            (
                "dslice_scenario_dropped_messages_total",
                "Messages dropped.",
                self.totals.dropped_messages,
            ),
            (
                "dslice_scenario_left_total",
                "Departures.",
                self.totals.left,
            ),
            (
                "dslice_scenario_joined_total",
                "Arrivals.",
                self.totals.joined,
            ),
            (
                "dslice_scenario_slice_changes_total",
                "Believed-slice changes.",
                self.totals.slice_changes,
            ),
            (
                "dslice_scenario_swaps_abandoned_total",
                "Swaps abandoned unresolved.",
                self.totals.swaps_abandoned,
            ),
            (
                "dslice_scenario_samples_rejected_total",
                "Samples rejected by admission.",
                self.totals.samples_rejected,
            ),
        ] {
            reg.counter_add(name, help, v);
        }
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
            for (phase, ns) in t.rows() {
                reg.counter_add(
                    &dslice_obs::labeled("dslice_scenario_phase_ns_total", "phase", phase),
                    "Wall-clock nanoseconds spent per engine phase.",
                    ns,
                );
            }
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
