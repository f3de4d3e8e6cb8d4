//! Per-cycle metrics and run records.
//!
//! The paper's figures plot the slice disorder measure (SDM), the global
//! disorder measure (GDM) and the percentage of unsuccessful swaps against
//! the cycle count. [`CycleStats`] captures all of them (plus message
//! accounting), and [`RunRecord`] bundles a whole run with its configuration
//! for the figure pipeline — serializable to JSON, dumpable as CSV, and
//! exportable as a `dslice_obs` metrics registry.

use dslice_core::protocol::Event;
use dslice_obs::{Registry, COUNT_BUCKETS};
use serde::{Deserialize, Serialize, Value};
use std::io::{self, Write};

/// Counters of protocol events within one cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounters {
    /// Swap proposals (`REQ`) sent.
    pub swaps_proposed: u64,
    /// Swap applications (either side).
    pub swaps_applied: u64,
    /// Swap messages that arrived stale (unsuccessful swaps, §4.5.2).
    pub swaps_useless: u64,
    /// `UPD` attribute samples sent (ranking algorithm).
    pub updates_sent: u64,
    /// Attribute samples folded into estimates.
    pub samples_absorbed: u64,
    /// Swap proposals abandoned unresolved (liveness-tracking ordering
    /// variant only; always 0 for the paper-faithful protocols).
    pub swaps_abandoned: u64,
    /// Attribute samples rejected by outlier-robust admission (defended
    /// ranking variants only; always 0 otherwise).
    pub samples_rejected: u64,
}

impl EventCounters {
    /// Folds a protocol event in.
    pub fn record(&mut self, event: Event) {
        self.record_n(event, 1);
    }

    /// Folds `n` occurrences of one protocol event in.
    pub(crate) fn record_n(&mut self, event: Event, n: u64) {
        let counter = match event {
            Event::SwapProposed => &mut self.swaps_proposed,
            Event::SwapApplied => &mut self.swaps_applied,
            Event::SwapUseless => &mut self.swaps_useless,
            Event::UpdateSent => &mut self.updates_sent,
            Event::SampleAbsorbed => &mut self.samples_absorbed,
            Event::SwapAbandoned => &mut self.swaps_abandoned,
            Event::SampleRejected => &mut self.samples_rejected,
        };
        *counter += n;
    }

    /// Percentage of swap messages that were unsuccessful (Fig. 4(c)):
    /// `100 · useless / (useless + applied)`, or 0 when no swap message
    /// was processed.
    pub fn unsuccessful_swap_pct(&self) -> f64 {
        let total = self.swaps_useless + self.swaps_applied;
        if total == 0 {
            0.0
        } else {
            100.0 * self.swaps_useless as f64 / total as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EventCounters) {
        self.swaps_proposed += other.swaps_proposed;
        self.swaps_applied += other.swaps_applied;
        self.swaps_useless += other.swaps_useless;
        self.updates_sent += other.updates_sent;
        self.samples_absorbed += other.samples_absorbed;
        self.swaps_abandoned += other.swaps_abandoned;
        self.samples_rejected += other.samples_rejected;
    }
}

/// Wall-clock cost of each engine phase within one cycle, in nanoseconds.
///
/// Filled only when [`time_phases`](crate::SimConfig::time_phases) is on —
/// timings are host noise, so the determinism contract excludes them: two
/// runs of the same seed produce identical simulated bytes but different
/// timings, which is why they ride in an `Option` the goldens keep `None`.
///
/// Timings were recorded in microseconds before PR 10; nanoseconds stop
/// sub-microsecond phases (churn/drain at small n) from flooring to zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Churn phase: leave/join application, view pruning, rank-cache merge.
    pub churn_ns: u64,
    /// Latency drain: delivery of messages whose cross-cycle delay elapsed.
    pub drain_ns: u64,
    /// Membership phase: exchange scheduling, batching and execution (or
    /// the oracle refill).
    pub membership_ns: u64,
    /// Refresh phase: the per-slot snapshot of published values.
    pub refresh_ns: u64,
    /// Active phase: per-node view refresh against that snapshot, then the
    /// protocol's active step.
    pub active_ns: u64,
    /// Delivery phase plus the end-of-cycle deferred drain.
    pub delivery_ns: u64,
    /// Metrics: SDM/GDM/stability evaluation (on measured cycles).
    pub metrics_ns: u64,
}

impl PhaseTimings {
    /// Sum over all phases, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.churn_ns
            + self.drain_ns
            + self.membership_ns
            + self.refresh_ns
            + self.active_ns
            + self.delivery_ns
            + self.metrics_ns
    }

    /// Adds another cycle's timings into this accumulator (used to average
    /// over a run).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.churn_ns += other.churn_ns;
        self.drain_ns += other.drain_ns;
        self.membership_ns += other.membership_ns;
        self.refresh_ns += other.refresh_ns;
        self.active_ns += other.active_ns;
        self.delivery_ns += other.delivery_ns;
        self.metrics_ns += other.metrics_ns;
    }

    /// The phases as `(name, ns)` rows, for tabular output and tracing.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("churn", self.churn_ns),
            ("drain", self.drain_ns),
            ("membership", self.membership_ns),
            ("refresh", self.refresh_ns),
            ("active", self.active_ns),
            ("delivery", self.delivery_ns),
            ("metrics", self.metrics_ns),
        ]
    }
}

/// Everything measured at the end of one simulation cycle.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// 1-based cycle number.
    pub cycle: usize,
    /// Live population size after churn.
    pub n: usize,
    /// Slice disorder measure (§4.4) over the live population.
    pub sdm: f64,
    /// Global disorder measure (§4.2) over the live population.
    pub gdm: f64,
    /// Event counters for this cycle.
    pub events: EventCounters,
    /// Messages dropped because their target departed.
    pub dropped_messages: u64,
    /// Nodes that left this cycle.
    pub left: usize,
    /// Nodes that joined this cycle.
    pub joined: usize,
    /// Live nodes whose *believed* slice changed this cycle (the §3.2
    /// stability measure; joiners count from their second cycle).
    pub slice_changes: usize,
    /// Per-phase wall-clock breakdown (opt-in; `None` unless
    /// [`time_phases`](crate::SimConfig::time_phases) is set).
    pub timings: Option<PhaseTimings>,
}

impl CycleStats {
    /// Percentage of unsuccessful swaps in this cycle.
    pub fn unsuccessful_swap_pct(&self) -> f64 {
        self.events.unsuccessful_swap_pct()
    }
}

/// A complete simulation run: configuration summary plus per-cycle stats.
///
/// Serde is hand-written (not derived) so the aggregate `phase_ns` key is
/// *omitted* when timing was off — run manifests written before PR 10 parse
/// unchanged, and untimed manifests stay byte-identical to the old shape.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Free-form run label (protocol, scenario).
    pub label: String,
    /// Seed the run was driven by.
    pub seed: u64,
    /// Initial population size.
    pub initial_n: usize,
    /// Number of slices.
    pub slices: usize,
    /// View size `c`.
    pub view_size: usize,
    /// Per-cycle measurements, in cycle order.
    pub cycles: Vec<CycleStats>,
    /// Whole-run per-phase wall-clock totals (sum over timed cycles); `None`
    /// unless [`time_phases`](crate::SimConfig::time_phases) was set.
    pub phase_ns: Option<PhaseTimings>,
}

impl Serialize for RunRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("label".to_string(), self.label.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("initial_n".to_string(), self.initial_n.to_value()),
            ("slices".to_string(), self.slices.to_value()),
            ("view_size".to_string(), self.view_size.to_value()),
            ("cycles".to_string(), self.cycles.to_value()),
        ];
        if let Some(t) = &self.phase_ns {
            fields.push(("phase_ns".to_string(), t.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("RunRecord: expected map"))?;
        Ok(RunRecord {
            label: String::from_value(serde::__field(m, "label"))?,
            seed: u64::from_value(serde::__field(m, "seed"))?,
            initial_n: usize::from_value(serde::__field(m, "initial_n"))?,
            slices: usize::from_value(serde::__field(m, "slices"))?,
            view_size: usize::from_value(serde::__field(m, "view_size"))?,
            cycles: Vec::from_value(serde::__field(m, "cycles"))?,
            phase_ns: Option::from_value(serde::__field(m, "phase_ns"))?,
        })
    }
}

impl RunRecord {
    /// The last recorded SDM, if any cycle was recorded.
    pub fn final_sdm(&self) -> Option<f64> {
        self.cycles.last().map(|c| c.sdm)
    }

    /// The last recorded GDM.
    pub fn final_gdm(&self) -> Option<f64> {
        self.cycles.last().map(|c| c.gdm)
    }

    /// The first cycle (1-based index into the record) whose SDM is at or
    /// below `threshold`, if any — a convergence-speed summary.
    pub fn cycles_to_reach_sdm(&self, threshold: f64) -> Option<usize> {
        self.cycles
            .iter()
            .find(|c| c.sdm <= threshold)
            .map(|c| c.cycle)
    }

    /// Writes the record as CSV (`cycle,n,sdm,gdm,unsuccessful_pct,…`).
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "cycle,n,sdm,gdm,unsuccessful_pct,swaps_proposed,swaps_applied,swaps_useless,updates_sent,dropped,left,joined,slice_changes,swaps_abandoned,samples_rejected"
        )?;
        for c in &self.cycles {
            writeln!(
                w,
                "{},{},{},{},{:.4},{},{},{},{},{},{},{},{},{},{}",
                c.cycle,
                c.n,
                c.sdm,
                c.gdm,
                c.unsuccessful_swap_pct(),
                c.events.swaps_proposed,
                c.events.swaps_applied,
                c.events.swaps_useless,
                c.events.updates_sent,
                c.dropped_messages,
                c.left,
                c.joined,
                c.slice_changes,
                c.events.swaps_abandoned,
                c.events.samples_rejected,
            )?;
        }
        Ok(())
    }

    /// Serializes the record to pretty JSON (the run manifest format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunRecord serializes")
    }

    /// Exports the run under the `dslice_sim_*` metric namespace: final
    /// gauges, whole-run event counters, per-phase timing counters (when
    /// timed), and deterministic per-cycle activity histograms.
    pub fn metrics_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.gauge_set(
            "dslice_sim_population",
            "Live population after the last cycle.",
            self.cycles.last().map_or(self.initial_n, |c| c.n) as f64,
        );
        reg.gauge_set(
            "dslice_sim_cycles",
            "Number of simulated cycles.",
            self.cycles.len() as f64,
        );
        if let Some(sdm) = self.final_sdm() {
            reg.gauge_set("dslice_sim_sdm", "Final slice disorder measure.", sdm);
        }
        if let Some(gdm) = self.final_gdm() {
            reg.gauge_set("dslice_sim_gdm", "Final global disorder measure.", gdm);
        }
        let mut events = EventCounters::default();
        let (mut dropped, mut left, mut joined, mut slice_changes) = (0u64, 0u64, 0u64, 0u64);
        for c in &self.cycles {
            events.merge(&c.events);
            dropped += c.dropped_messages;
            left += c.left as u64;
            joined += c.joined as u64;
            slice_changes += c.slice_changes as u64;
            reg.observe(
                "dslice_sim_swaps_applied_per_cycle",
                "Distribution of swaps applied per cycle.",
                &COUNT_BUCKETS,
                c.events.swaps_applied as f64,
            );
            reg.observe(
                "dslice_sim_updates_per_cycle",
                "Distribution of UPD samples sent per cycle.",
                &COUNT_BUCKETS,
                c.events.updates_sent as f64,
            );
        }
        for (name, help, v) in [
            (
                "dslice_sim_swaps_proposed_total",
                "Swap proposals sent.",
                events.swaps_proposed,
            ),
            (
                "dslice_sim_swaps_applied_total",
                "Swaps applied.",
                events.swaps_applied,
            ),
            (
                "dslice_sim_swaps_useless_total",
                "Stale (unsuccessful) swap messages.",
                events.swaps_useless,
            ),
            (
                "dslice_sim_updates_sent_total",
                "UPD attribute samples sent.",
                events.updates_sent,
            ),
            (
                "dslice_sim_samples_absorbed_total",
                "Attribute samples absorbed.",
                events.samples_absorbed,
            ),
            (
                "dslice_sim_swaps_abandoned_total",
                "Swap proposals abandoned unresolved.",
                events.swaps_abandoned,
            ),
            (
                "dslice_sim_samples_rejected_total",
                "Samples rejected by robust admission.",
                events.samples_rejected,
            ),
            (
                "dslice_sim_dropped_messages_total",
                "Messages dropped (target departed).",
                dropped,
            ),
            ("dslice_sim_left_total", "Nodes that left.", left),
            ("dslice_sim_joined_total", "Nodes that joined.", joined),
            (
                "dslice_sim_slice_changes_total",
                "Believed-slice changes.",
                slice_changes,
            ),
        ] {
            reg.counter_add(name, help, v);
        }
        if let Some(t) = &self.phase_ns {
            for (phase, ns) in t.rows() {
                reg.counter_add(
                    &dslice_obs::labeled("dslice_sim_phase_ns_total", "phase", phase),
                    "Wall-clock nanoseconds spent per engine phase.",
                    ns,
                );
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycle: usize, sdm: f64) -> CycleStats {
        CycleStats {
            cycle,
            n: 100,
            sdm,
            gdm: sdm / 2.0,
            events: EventCounters::default(),
            dropped_messages: 0,
            left: 0,
            joined: 0,
            slice_changes: 0,
            timings: None,
        }
    }

    fn record(cycles: Vec<CycleStats>) -> RunRecord {
        RunRecord {
            label: "test".into(),
            seed: 7,
            initial_n: 100,
            slices: 10,
            view_size: 5,
            cycles,
            phase_ns: None,
        }
    }

    #[test]
    fn counters_record_all_event_kinds() {
        let mut c = EventCounters::default();
        c.record(Event::SwapProposed);
        c.record(Event::SwapApplied);
        c.record(Event::SwapApplied);
        c.record(Event::SwapUseless);
        c.record(Event::UpdateSent);
        c.record(Event::SampleAbsorbed);
        c.record(Event::SwapAbandoned);
        c.record(Event::SampleRejected);
        c.record(Event::SampleRejected);
        assert_eq!(c.swaps_proposed, 1);
        assert_eq!(c.swaps_applied, 2);
        assert_eq!(c.swaps_useless, 1);
        assert_eq!(c.updates_sent, 1);
        assert_eq!(c.samples_absorbed, 1);
        assert_eq!(c.swaps_abandoned, 1);
        assert_eq!(c.samples_rejected, 2);
    }

    #[test]
    fn unsuccessful_pct() {
        let mut c = EventCounters::default();
        assert_eq!(c.unsuccessful_swap_pct(), 0.0, "no swaps yet");
        c.swaps_applied = 3;
        c.swaps_useless = 1;
        assert!((c.unsuccessful_swap_pct() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = EventCounters {
            swaps_proposed: 1,
            swaps_applied: 2,
            swaps_useless: 3,
            updates_sent: 4,
            samples_absorbed: 5,
            swaps_abandoned: 6,
            samples_rejected: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.swaps_proposed, 2);
        assert_eq!(a.samples_absorbed, 10);
        assert_eq!(a.swaps_abandoned, 12);
        assert_eq!(a.samples_rejected, 14);
    }

    #[test]
    fn record_summaries() {
        let rec = record(vec![stats(1, 50.0), stats(2, 10.0), stats(3, 2.0)]);
        assert_eq!(rec.final_sdm(), Some(2.0));
        assert_eq!(rec.final_gdm(), Some(1.0));
        assert_eq!(rec.cycles_to_reach_sdm(10.0), Some(2));
        assert_eq!(rec.cycles_to_reach_sdm(0.5), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rec = record(vec![stats(1, 5.0)]);
        let mut buf = Vec::new();
        rec.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("cycle,n,sdm,gdm"));
        assert!(lines[1].starts_with("1,100,5,2.5"));
    }

    #[test]
    fn phase_timings_total_and_accumulate() {
        let mut acc = PhaseTimings::default();
        let cycle = PhaseTimings {
            churn_ns: 1,
            drain_ns: 2,
            membership_ns: 3,
            refresh_ns: 4,
            active_ns: 5,
            delivery_ns: 6,
            metrics_ns: 7,
        };
        assert_eq!(cycle.total_ns(), 28);
        acc.accumulate(&cycle);
        acc.accumulate(&cycle);
        assert_eq!(acc.total_ns(), 56);
        assert_eq!(acc.membership_ns, 6);
        let rows = cycle.rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[2], ("membership", 3));
        assert_eq!(rows.iter().map(|&(_, ns)| ns).sum::<u64>(), 28);
    }

    #[test]
    fn timings_roundtrip_through_json() {
        let mut s = stats(1, 5.0);
        s.timings = Some(PhaseTimings {
            membership_ns: 42,
            ..PhaseTimings::default()
        });
        let mut rec = record(vec![s]);
        rec.phase_ns = Some(PhaseTimings {
            membership_ns: 42,
            ..PhaseTimings::default()
        });
        let parsed: RunRecord = serde_json::from_str(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(parsed.cycles[0].timings.unwrap().membership_ns, 42);
        assert_eq!(parsed.phase_ns.unwrap().membership_ns, 42);
    }

    #[test]
    fn untimed_record_omits_phase_ns_key() {
        let rec = record(vec![stats(1, 5.0)]);
        let json = rec.to_json();
        assert!(!json.contains("phase_ns"));
        let parsed: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_roundtrip() {
        let rec = record(vec![stats(1, 5.0)]);
        let parsed: RunRecord = serde_json::from_str(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn metrics_registry_unifies_counters_and_phases() {
        let mut s = stats(1, 5.0);
        s.events.swaps_applied = 4;
        s.events.updates_sent = 9;
        let mut rec = record(vec![s]);
        rec.phase_ns = Some(PhaseTimings {
            membership_ns: 1_000,
            ..PhaseTimings::default()
        });
        let reg = rec.metrics_registry();
        assert_eq!(reg.counter("dslice_sim_swaps_applied_total"), Some(4));
        assert_eq!(reg.gauge("dslice_sim_sdm"), Some(5.0));
        assert_eq!(
            reg.counter("dslice_sim_phase_ns_total{phase=\"membership\"}"),
            Some(1_000)
        );
        let text = reg.to_prometheus();
        assert!(dslice_obs::validate_prometheus(&text).unwrap() > 10);
    }
}
