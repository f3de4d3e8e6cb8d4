//! The two engine workloads: `sim-ranking-100k` and `sim-modjk-churn-10k`.
//!
//! Both drive `dslice_sim::Engine` one `step()` at a time from a single
//! thread (a closed loop of one client). Host-time numbers come from the
//! clock around each step; simulated statistics (`slice_accuracy`, the
//! record fingerprint, the event counts) are taken over a fixed number of
//! cycles — the *cycle budget* — so they repeat exactly for a seed however
//! many cycles the time budget lets a faster or slower engine run.

use crate::host;
use crate::micro::{self, Families, Micro};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{median, Fnv1a, Summary};
use crate::RunArgs;
use dslice_core::Partition;
use dslice_obs::TraceConfig;
use dslice_sim::stats::EventCounters;
use dslice_sim::{
    AttributeDistribution, ChurnSchedule, Concurrency, CycleStats, Engine, PhaseTimings,
    ProtocolKind, SimConfig, UncorrelatedChurn,
};
use serde_json::json;
use std::time::{Duration, Instant};

/// Cycles run and discarded after construction, so scratch buffers are
/// sized and membership is past its bootstrap transient before timing.
const WARM_UP_CYCLES: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Cycles per shard setting in the `sim.shard_speedup` probe.
const SHARD_PROBE_CYCLES: usize = 5;

/// One engine workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct SimWorkload {
    /// The protocol every node runs.
    pub protocol: ProtocolKind,
    /// Initial population.
    pub n: usize,
    /// View size `c`.
    pub view_size: usize,
    /// Equal slices.
    pub slices: usize,
    /// Message concurrency model.
    pub concurrency: Concurrency,
    /// Metrics cadence.
    pub metrics_every: usize,
    /// Uncorrelated churn, if any.
    pub churn: Option<ChurnSchedule>,
    /// Timed cycles the simulated statistics are taken over; at least this
    /// many are always run.
    pub cycle_budget: usize,
}

impl SimWorkload {
    /// `sim-ranking-100k` (or its smoke size).
    pub fn ranking_100k(smoke: bool) -> Self {
        SimWorkload {
            protocol: ProtocolKind::Ranking,
            n: if smoke { 2_000 } else { 100_000 },
            view_size: 10,
            slices: 100,
            concurrency: Concurrency::None,
            metrics_every: 10,
            churn: None,
            cycle_budget: if smoke { 5 } else { 30 },
        }
    }

    /// `sim-modjk-churn-10k` (or its smoke size): the paper's §5.3.3 churn
    /// rate, every cycle, never stopping.
    pub fn modjk_churn_10k(smoke: bool) -> Self {
        SimWorkload {
            protocol: ProtocolKind::ModJk,
            n: if smoke { 2_000 } else { 10_000 },
            view_size: 20,
            slices: 10,
            concurrency: Concurrency::Half,
            metrics_every: 1,
            churn: Some(ChurnSchedule {
                rate: 0.001,
                period: 1,
                stop_after: None,
            }),
            cycle_budget: if smoke { 5 } else { 300 },
        }
    }

    fn config(&self, seed: u64, shards: usize, time_phases: bool) -> SimConfig {
        SimConfig {
            n: self.n,
            view_size: self.view_size,
            partition: Partition::equal(self.slices).expect("slices > 0"),
            concurrency: self.concurrency,
            metrics_every: self.metrics_every,
            seed,
            shards,
            time_phases,
            ..SimConfig::default()
        }
    }

    /// Builds the engine; nothing has been stepped yet.
    fn build(&self, seed: u64, shards: usize, traced: bool) -> Engine {
        let mut engine = Engine::new(self.config(seed, shards, traced), self.protocol)
            .expect("the workload's configuration is valid");
        if let Some(schedule) = self.churn {
            engine = engine.with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            )));
        }
        if traced {
            engine.set_tracer(TraceConfig::on());
        }
        engine
    }

    fn warm_up(engine: &mut Engine) {
        for _ in 0..WARM_UP_CYCLES {
            engine.step();
        }
    }

    fn churn_per_cycle(&self) -> usize {
        self.churn.map_or(0, |s| s.count(self.n))
    }
}

/// What the timed section of one engine observed.
#[derive(Default)]
struct Timed {
    cycle_ms: Vec<f64>,
    node_cycles: u64,
    failed: u64,
    cpu_cores_busy: f64,
    /// Simulated statistics over the cycle budget.
    accuracy_at_budget: f64,
    fingerprint: u64,
    events: EventCounters,
    dropped: u64,
}

fn violates_invariants(stats: &CycleStats, n_before: usize) -> bool {
    stats.n + stats.left != n_before + stats.joined
        || !stats.sdm.is_finite()
        || !stats.gdm.is_finite()
}

/// Steps `engine` for at least `budget` cycles and until `seconds` have
/// passed, timing each step. With `spans`, each step is a `sim.step` span
/// whose children are the engine's own phase timings.
fn timed_section(
    engine: &mut Engine,
    budget: usize,
    seconds: Duration,
    mut spans: Option<&mut Spans>,
) -> Timed {
    let mut t = Timed::default();
    let mut fingerprint = Fnv1a::default();
    let mut population = engine.population();
    let cpu_start = host::cpu_seconds();
    let wall_start = Instant::now();
    loop {
        let span_start = spans.as_deref().map(Spans::now_ns);
        let step_start = Instant::now();
        let mut stats = engine.step();
        let took = step_start.elapsed();
        if let (Some(spans), Some(start_ns)) = (spans.as_deref_mut(), span_start) {
            let step = spans.record(
                "sim.step",
                None,
                start_ns,
                start_ns + took.as_nanos() as u64,
            );
            if let Some(timings) = &stats.timings {
                record_phases(spans, step, timings);
            }
        }
        t.cycle_ms.push(took.as_secs_f64() * 1e3);
        t.node_cycles += stats.n as u64;
        t.failed += u64::from(violates_invariants(&stats, population));
        population = stats.n;

        let done = t.cycle_ms.len();
        if done <= budget {
            stats.timings = None;
            let line = serde_json::to_string(&stats).expect("finite cycle stats");
            fingerprint.write(line.as_bytes());
            t.events.merge(&stats.events);
            t.dropped += stats.dropped_messages;
        }
        if done == budget {
            t.accuracy_at_budget = engine.accuracy();
            t.fingerprint = fingerprint.finish();
        }
        if done >= budget && wall_start.elapsed() >= seconds {
            break;
        }
    }
    let wall = wall_start.elapsed().as_secs_f64();
    t.cpu_cores_busy = (host::cpu_seconds() - cpu_start) / wall;
    // Final estimates must be probabilities (the lowest-ranked node of the
    // ranking family legitimately estimates 0).
    let bad_estimate = engine
        .snapshot()
        .iter()
        .any(|&(_, _, est)| !(0.0..=1.0).contains(&est));
    t.failed += u64::from(bad_estimate);
    t
}

/// The engine's phases in `PhaseTimings::rows` order: the span each
/// becomes under `sim.step`, and the metric its mean is reported as.
pub const PHASES: [(&str, &str); 7] = [
    ("sim.churn", "sim.churn_ns"),
    ("sim.drain", "sim.drain_ns"),
    ("sim.membership", "sim.membership_ns"),
    ("sim.refresh", "sim.refresh_ns"),
    ("sim.active", "sim.active_ns"),
    ("sim.delivery", "sim.delivery_ns"),
    ("sim.metrics", "sim.metrics_ns"),
];

/// Lays a cycle's phase timings out as children of its `sim.step` span.
pub fn record_phases(spans: &mut Spans, step: crate::span::SpanId, timings: &PhaseTimings) {
    let rows = timings.rows();
    let children: Vec<(&'static str, u64)> = PHASES
        .iter()
        .zip(rows)
        .map(|(&(span, _), (_, ns))| (span, ns))
        .collect();
    spans.record_consecutive(step, &children);
}

/// Reports each phase's mean span duration under its metric name.
pub fn set_phase_metrics(spans: &Spans, out: &mut Outcome) {
    for (span, metric) in PHASES {
        out.set(metric, spans.mean_ns(span));
    }
    out.set("sim.step_self_ns", spans.mean_self_ns("sim.step"));
}

fn record_common(out: &mut Outcome, timed: &Timed, budget: usize) {
    out.attempted = timed.cycle_ms.len() as u64;
    out.failed = timed.failed.min(out.attempted);
    out.info.extend([
        ("timed_cycles".to_string(), json!(timed.cycle_ms.len())),
        ("cycle_budget".to_string(), json!(budget)),
        (
            "record_fingerprint".to_string(),
            json!(format!("{:016x}", timed.fingerprint)),
        ),
        ("cycle_ms".to_string(), json!(timed.cycle_ms)),
    ]);
}

/// Runs the workload: traced (per-layer metrics) when given a span log,
/// untraced (end-to-end metrics) otherwise.
pub fn run(w: &SimWorkload, args: &RunArgs, out: &mut Outcome, spans: Option<&mut Spans>) {
    match spans {
        None => run_untraced(w, args, out),
        Some(spans) => run_traced(w, args, out, spans),
    }
}

/// The untraced run: end-to-end metrics.
fn run_untraced(w: &SimWorkload, args: &RunArgs, out: &mut Outcome) {
    // Set-up = construction + warm-up, so work moved into either shows.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(engine.take());
        let start = Instant::now();
        let mut fresh = w.build(args.seed, 1, false);
        SimWorkload::warm_up(&mut fresh);
        setups.push(start.elapsed().as_secs_f64());
        engine = Some(fresh);
    }
    let mut engine = engine.expect("at least one set-up");

    let timed = timed_section(&mut engine, w.cycle_budget, args.duration(), None);
    let cycles = Summary::of(&timed.cycle_ms);
    out.set("setup_s", median(&setups));
    out.set(
        "work_per_s",
        timed.node_cycles as f64 / (timed.cycle_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("op_ms_p50", cycles.p50);
    out.set("op_ms_p75", cycles.p75);
    out.set("slice_accuracy", timed.accuracy_at_budget);
    out.set("cpu_cores_busy", timed.cpu_cores_busy);
    record_common(out, &timed, w.cycle_budget);
    out.info.push(("setups".to_string(), json!(setups.len())));
}

/// The traced run: per-layer metrics, the span log, and the overhead of
/// tracing against an untraced reference taken in the same process.
fn run_traced(w: &SimWorkload, args: &RunArgs, out: &mut Outcome, spans: &mut Spans) {
    let half = args.duration() / 2;

    // Untraced reference: no phase timing, no tracer, no spans.
    let mut plain = w.build(args.seed, 1, false);
    SimWorkload::warm_up(&mut plain);
    let plain_p50 = median(&timed_section(&mut plain, 1, half, None).cycle_ms);
    drop(plain);

    let (new_span, mut engine) = spans.time("sim.engine_new", None, || w.build(args.seed, 1, true));
    out.set("sim.engine_new_ms", spans.dur_ns(new_span) as f64 / 1e6);
    SimWorkload::warm_up(&mut engine);
    let timed = timed_section(&mut engine, w.cycle_budget, half, Some(spans));
    drop(engine);

    set_phase_metrics(spans, out);
    let budget = w.cycle_budget as f64;
    let e = timed.events;
    let events = e.swaps_proposed
        + e.swaps_applied
        + e.swaps_useless
        + e.updates_sent
        + e.samples_absorbed
        + e.swaps_abandoned
        + e.samples_rejected;
    out.set("sim.events_per_cycle", events as f64 / budget);
    let swaps = e.swaps_applied + e.swaps_useless;
    if swaps > 0 {
        out.set(
            "sim.useful_swap_ratio",
            e.swaps_applied as f64 / swaps as f64,
        );
    }
    out.set("sim.dropped_msgs_per_cycle", timed.dropped as f64 / budget);
    out.set("sim.cpu_cores_busy", timed.cpu_cores_busy);
    out.set(
        "obs.trace_overhead_pct",
        (median(&timed.cycle_ms) / plain_p50 - 1.0) * 100.0,
    );
    record_common(out, &timed, w.cycle_budget);
    out.info
        .push(("untraced_reference_op_ms_p50".to_string(), json!(plain_p50)));

    // Shards = every processor against shards = 1, same seed, same cycles.
    let shard_ms = |shards: usize, spans: &mut Spans| {
        let mut engine = w.build(args.seed, shards, false);
        SimWorkload::warm_up(&mut engine);
        let (span, ()) = spans.time("sim.shard_probe", None, || {
            for _ in 0..SHARD_PROBE_CYCLES {
                engine.step();
            }
        });
        spans.dur_ns(span) as f64
    };
    let nproc = host::nproc();
    out.set(
        "sim.shard_speedup",
        shard_ms(1, spans) / shard_ms(nproc, spans),
    );
    out.info
        .push(("shard_probe_shards".to_string(), json!(nproc)));

    let mut m = Micro {
        spans,
        out,
        smoke: args.smoke,
    };
    micro::core_view(&mut m, w.view_size);
    micro::core_population(&mut m, w.n, w.churn_per_cycle(), w.slices);
    micro::gossip(&mut m, w.view_size, w.n);
    micro::algorithms(
        &mut m,
        w.view_size,
        w.slices,
        Families {
            ranking: !w.protocol.is_ordering(),
            ordering: w.protocol.is_ordering(),
            defences: false,
        },
    );
    micro::obs(&mut m);
}
