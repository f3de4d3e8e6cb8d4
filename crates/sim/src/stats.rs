//! Per-cycle metrics and run records.
//!
//! The paper's figures plot the slice disorder measure (SDM), the global
//! disorder measure (GDM) and the percentage of unsuccessful swaps against
//! the cycle count. [`CycleStats`] captures all of them (plus message
//! accounting), and [`RunRecord`] bundles a whole run with its configuration
//! for the figure pipeline — serializable to JSON, dumpable as CSV, and
//! exportable as a `dslice_obs` metrics registry. [`Totals`] folds a run's
//! counters; its [`COUNTERS`](Totals::COUNTERS) table names each one once.

use dslice_core::protocol::Event;
use dslice_obs::{labeled, Registry, COUNT_BUCKETS};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Display;
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
        let mut other = *other;
        for (total, n) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *total += *n;
        }
    }

    fn fields_mut(&mut self) -> [&mut u64; 7] {
        [
            &mut self.swaps_proposed,
            &mut self.swaps_applied,
            &mut self.swaps_useless,
            &mut self.updates_sent,
            &mut self.samples_absorbed,
            &mut self.swaps_abandoned,
            &mut self.samples_rejected,
        ]
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
    /// Refresh phase: the per-id-row snapshot of published values.
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
        self.rows().iter().map(|&(_, ns)| ns).sum()
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

    /// Adds each phase to `reg` as `<namespace>_phase_ns_total{phase="…"}`.
    pub fn export(&self, reg: &mut Registry, namespace: &str) {
        let name = format!("{namespace}_phase_ns_total");
        for (phase, ns) in self.rows() {
            reg.counter_add(
                &labeled(&name, "phase", phase),
                "Wall-clock nanoseconds spent per engine phase.",
                ns,
            );
        }
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
    /// Messages and membership exchanges that never arrived: the target
    /// departed, the loss-rate or fault drop coin came up, or a network
    /// partition severed them.
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

/// Run counters summed over cycles: scenario report totals, and the
/// counters of the `dslice_sim_*` and `dslice_scenario_*` registries.
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
    /// See [`CycleStats::dropped_messages`].
    pub dropped_messages: u64,
    /// Total departures over the run.
    pub left: u64,
    /// Total arrivals over the run.
    pub joined: u64,
    /// Total believed-slice changes over the run.
    pub slice_changes: u64,
    /// Swap proposals abandoned unresolved (liveness-tracking mod-JK only).
    pub swaps_abandoned: u64,
    /// Attribute samples rejected by robust admission (defended ranking only).
    pub samples_rejected: u64,
}

impl Totals {
    /// Every counter as `(field, help)`, in golden key order. The field is
    /// the serde key and, as `<namespace>_<field>_total`, the registry
    /// counter; the help is that counter's one help string.
    pub const COUNTERS: [(&'static str, &'static str); 11] = [
        ("swaps_proposed", "Swap proposals sent."),
        ("swaps_applied", "Swaps applied (either side)."),
        ("swaps_useless", "Stale (unsuccessful) swap messages."),
        ("updates_sent", "UPD attribute samples sent."),
        ("samples_absorbed", "Attribute samples absorbed."),
        (
            "dropped_messages",
            "Messages and membership exchanges lost: target departed, \
             loss or fault drop, or severed by a network partition.",
        ),
        ("left", "Nodes that left."),
        ("joined", "Nodes that joined."),
        ("slice_changes", "Believed-slice changes."),
        ("swaps_abandoned", "Swap proposals abandoned unresolved."),
        ("samples_rejected", "Samples rejected by robust admission."),
    ];

    /// How many leading counters are always written. The defence counters
    /// after them are written only when non-zero: no undefended run records
    /// them, so goldens committed before they existed stay byte-identical.
    const REQUIRED: usize = 9;

    fn fields_mut(&mut self) -> [&mut u64; 11] {
        [
            &mut self.swaps_proposed,
            &mut self.swaps_applied,
            &mut self.swaps_useless,
            &mut self.updates_sent,
            &mut self.samples_absorbed,
            &mut self.dropped_messages,
            &mut self.left,
            &mut self.joined,
            &mut self.slice_changes,
            &mut self.swaps_abandoned,
            &mut self.samples_rejected,
        ]
    }

    /// The counters' values, in [`COUNTERS`](Totals::COUNTERS) order.
    fn values(&self) -> [u64; 11] {
        self.clone().fields_mut().map(|v| *v)
    }

    /// Folds one cycle's statistics in.
    pub fn accumulate(&mut self, stats: &CycleStats) {
        let e = &stats.events;
        self.swaps_proposed += e.swaps_proposed;
        self.swaps_applied += e.swaps_applied;
        self.swaps_useless += e.swaps_useless;
        self.updates_sent += e.updates_sent;
        self.samples_absorbed += e.samples_absorbed;
        self.dropped_messages += stats.dropped_messages;
        self.left += stats.left as u64;
        self.joined += stats.joined as u64;
        self.slice_changes += stats.slice_changes as u64;
        self.swaps_abandoned += e.swaps_abandoned;
        self.samples_rejected += e.samples_rejected;
    }

    /// Adds every counter to `reg` as `<namespace>_<field>_total`.
    pub fn export(&self, reg: &mut Registry, namespace: &str) {
        for ((field, help), v) in Self::COUNTERS.iter().zip(self.values()) {
            reg.counter_add(&format!("{namespace}_{field}_total"), help, v);
        }
    }
}

impl Serialize for Totals {
    fn to_value(&self) -> Value {
        Value::Map(
            Self::COUNTERS
                .iter()
                .zip(self.values())
                .enumerate()
                .filter(|&(i, (_, v))| i < Self::REQUIRED || v != 0)
                .map(|(_, ((field, _), v))| (field.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Totals {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let f = FieldReader::of("Totals", v)?;
        let (required, defence) = Self::COUNTERS.split_at(Self::REQUIRED);
        let mut totals = Totals::default();
        let mut slots = totals.fields_mut().into_iter();
        for ((field, _), slot) in required.iter().zip(&mut slots) {
            *slot = f.req(field)?;
        }
        for ((field, _), slot) in defence.iter().zip(slots) {
            *slot = f.opt(field)?;
        }
        Ok(totals)
    }
}

/// The fields of one struct for a hand-written deserializer: every error
/// names the struct and the field (`Type.field: …`).
#[derive(Clone, Copy, Debug)]
pub struct FieldReader<'a> {
    ty: &'static str,
    map: &'a [(String, Value)],
}

impl<'a> FieldReader<'a> {
    /// The fields of `v`, which must be a map holding no non-finite number
    /// at any depth: JSON cannot write one back.
    pub fn of(ty: &'static str, v: &'a Value) -> Result<Self, serde::Error> {
        fn finite(v: &Value) -> bool {
            match v {
                Value::Float(f) => f.is_finite(),
                Value::Seq(items) => items.iter().all(finite),
                Value::Map(entries) => entries.iter().all(|(_, v)| finite(v)),
                _ => true,
            }
        }
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom(format!("expected map for struct {ty}")))?;
        if !finite(v) {
            return Err(serde::Error::custom(format!("{ty}: non-finite number")));
        }
        Ok(FieldReader { ty, map })
    }

    /// A field every well-formed value carries.
    pub fn req<T: Deserialize>(&self, name: &str) -> Result<T, serde::Error> {
        T::from_value(serde::__field(self.map, name)).map_err(|e| self.error(name, e))
    }

    /// A field that may be absent or null, reading as `T::default()`.
    pub fn opt<T: Deserialize + Default>(&self, name: &str) -> Result<T, serde::Error> {
        match serde::__field(self.map, name) {
            Value::Null => Ok(T::default()),
            present => T::from_value(present).map_err(|e| self.error(name, e)),
        }
    }

    /// An error about field `name`.
    pub fn error(&self, name: &str, e: impl Display) -> serde::Error {
        serde::Error::custom(format!("{}.{name}: {e}", self.ty))
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
        let f = FieldReader::of("RunRecord", v)?;
        Ok(RunRecord {
            label: f.req("label")?,
            seed: f.req("seed")?,
            initial_n: f.req("initial_n")?,
            slices: f.req("slices")?,
            view_size: f.req("view_size")?,
            cycles: f.req("cycles")?,
            phase_ns: f.opt("phase_ns")?,
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
        for c in &self.cycles {
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
        self.totals().export(&mut reg, "dslice_sim");
        if let Some(t) = &self.phase_ns {
            t.export(&mut reg, "dslice_sim");
        }
        reg
    }

    /// The run's counters, summed over every recorded cycle.
    pub fn totals(&self) -> Totals {
        let mut totals = Totals::default();
        for c in &self.cycles {
            totals.accumulate(c);
        }
        totals
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

    #[test]
    fn counter_table_names_each_field() {
        // Distinct values tie every table key to the field it reads.
        let json = r#"{"swaps_proposed":1,"swaps_applied":2,"swaps_useless":3,"updates_sent":4,"samples_absorbed":5,"dropped_messages":6,"left":7,"joined":8,"slice_changes":9,"swaps_abandoned":10,"samples_rejected":11}"#;
        let totals = Totals {
            swaps_proposed: 1,
            swaps_applied: 2,
            swaps_useless: 3,
            updates_sent: 4,
            samples_absorbed: 5,
            dropped_messages: 6,
            left: 7,
            joined: 8,
            slice_changes: 9,
            swaps_abandoned: 10,
            samples_rejected: 11,
        };
        assert_eq!(serde_json::to_string(&totals).unwrap(), json);
        assert_eq!(serde_json::from_str::<Totals>(json).unwrap(), totals);
        let mut reg = Registry::new();
        totals.export(&mut reg, "x");
        assert_eq!(reg.counter("x_dropped_messages_total"), Some(6));
        assert_eq!(reg.counter("x_samples_rejected_total"), Some(11));
        assert_eq!(reg.len(), Totals::COUNTERS.len());
    }

    #[test]
    fn run_record_totals_fold_every_cycle() {
        let mut a = stats(1, 5.0);
        a.events.swaps_applied = 4;
        a.dropped_messages = 2;
        let mut b = stats(2, 4.0);
        b.events.samples_rejected = 3;
        b.left = 1;
        let totals = record(vec![a, b]).totals();
        assert_eq!(totals.swaps_applied, 4);
        assert_eq!(totals.dropped_messages, 2);
        assert_eq!(totals.samples_rejected, 3);
        assert_eq!(totals.left, 1);
    }

    #[test]
    fn readers_name_the_struct_and_field_and_refuse_non_finite_numbers() {
        let json = record(vec![stats(1, 5.0)]).to_json();
        let err =
            serde_json::from_str::<RunRecord>(&json.replace("\"seed\": 7", "\"seed\": \"7\""))
                .unwrap_err()
                .to_string();
        assert!(err.contains("RunRecord.seed: "), "got: {err}");
        // `1e999` parses to infinity, which JSON cannot write back.
        let err = serde_json::from_str::<RunRecord>(&json.replace("\"sdm\": 5", "\"sdm\": 1e999"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("non-finite"), "got: {err}");
    }
}
