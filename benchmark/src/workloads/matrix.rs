//! `scenario-matrix`: every scenario of `dslice_scenario::library`, run and
//! byte-compared to its golden under `docs/scenarios/goldens/`.
//!
//! This is what CI and every developer wait for, and the behavioural
//! identity check of the whole benchmark. `--seed` does not apply: the
//! library pins each scenario's seed and the goldens are seed-specific.

use crate::host;
use crate::micro::{self, Families, Micro};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{median, Summary};
use crate::workloads::sim::{record_phases, PHASES};
use crate::RunArgs;
use dslice_obs::TraceConfig;
use dslice_scenario::{library, Scenario};
use dslice_sim::{Engine, SimConfig};
use serde_json::{json, Value};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;
/// The smoke run's scenarios: the first three of the library.
const SMOKE_SCENARIOS: usize = 3;
/// The traced run's scenarios, one per protocol family: ranking, mod-JK,
/// decay, sliding window, fence-trimmed, mod-JK with swap liveness.
const TRACED_SCENARIOS: [&str; 6] = [
    "baseline-static",
    "lying-ordering",
    "regional-failure-decay",
    "regional-failure-sliding",
    "colluding-liars-fence-trim",
    "lying-ordering-live",
];

fn golden_path(root: &Path, name: &str) -> PathBuf {
    root.join("docs/scenarios/goldens")
        .join(format!("{name}.json"))
}

/// The matrix ready to run: scenarios in library order, each with its
/// golden's text and with its program already validated.
struct Matrix {
    scenarios: Vec<(Scenario, String)>,
}

impl Matrix {
    /// Set-up: build the library, load every golden, compile every program
    /// and construct every scenario's engine once — everything a scenario
    /// needs before its first cycle can run, so work moved out of `step()`
    /// into construction shows in `setup_s`.
    fn load(root: &Path, smoke: bool) -> Result<Matrix, String> {
        let mut all = library::all();
        if smoke {
            all.truncate(SMOKE_SCENARIOS);
        }
        let scenarios = all
            .into_iter()
            .map(|scenario| {
                let path = golden_path(root, scenario.name());
                let golden = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
                scenario
                    .compile()
                    .map_err(|e| format!("scenario `{}` does not compile: {e}", scenario.name()))?;
                Engine::new(scenario.config().clone(), scenario.protocol())
                    .map_err(|e| format!("scenario `{}` cannot start: {e}", scenario.name()))?;
                Ok((scenario, golden))
            })
            .collect::<Result<_, String>>()?;
        Ok(Matrix { scenarios })
    }

    /// Node-cycles one pass simulates: Σ cycles × initial population.
    fn node_cycles(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|(s, _)| (s.cycles() * s.config().n) as u64)
            .sum()
    }
}

/// Runs the workload: traced (per-layer metrics) when given a span log,
/// untraced (end-to-end metrics) otherwise.
pub fn run(
    root: &Path,
    args: &RunArgs,
    out: &mut Outcome,
    spans: Option<&mut Spans>,
) -> Result<(), String> {
    match spans {
        None => run_untraced(root, args, out),
        Some(spans) => run_traced(root, args, out, spans),
    }
}

/// The untraced run: whole passes over the matrix until the time is up.
fn run_untraced(root: &Path, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut matrix = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        let start = Instant::now();
        matrix = Some(Matrix::load(root, args.smoke)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let matrix = matrix.expect("at least one set-up");

    let mut run_ms = Vec::new();
    let mut per_scenario = Vec::new();
    let (mut passes, mut accuracy_sum) = (0u64, 0.0);
    let cpu_start = host::cpu_seconds();
    let wall_start = Instant::now();
    // Whole passes only, so every scenario weighs the same in the
    // percentiles: another pass starts only if it can end within the time.
    let mut last_pass = Duration::ZERO;
    while passes == 0 || wall_start.elapsed() + last_pass <= args.duration() {
        let pass_start = Instant::now();
        accuracy_sum = 0.0;
        per_scenario.clear();
        for (scenario, golden) in &matrix.scenarios {
            let start = Instant::now();
            let result = scenario.run().map(|report| {
                let json = report.to_json();
                (report.final_accuracy, json == *golden)
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            run_ms.push(ms);
            per_scenario.push((scenario.name().to_string(), json!(ms / 1e3)));
            out.attempted += 1;
            match result {
                Ok((accuracy, true)) => accuracy_sum += accuracy,
                Ok((_, false)) => {
                    eprintln!("scenario `{}` diverged from its golden", scenario.name());
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("scenario `{}` failed: {e}", scenario.name());
                    out.failed += 1;
                }
            }
        }
        passes += 1;
        last_pass = pass_start.elapsed();
    }
    let wall = wall_start.elapsed().as_secs_f64();
    let runs = Summary::of(&run_ms);
    out.set("setup_s", median(&setups));
    out.set(
        "work_per_s",
        (matrix.node_cycles() * passes) as f64 / (run_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("op_ms_p50", runs.p50);
    out.set("op_ms_p75", runs.p75);
    out.set(
        "slice_accuracy",
        accuracy_sum / matrix.scenarios.len() as f64,
    );
    out.set("cpu_cores_busy", (host::cpu_seconds() - cpu_start) / wall);
    out.info.extend([
        ("passes".to_string(), json!(passes)),
        ("scenarios".to_string(), json!(matrix.scenarios.len())),
        ("scenario_runs".to_string(), json!(runs.n)),
        (
            "matrix_wall_s_per_pass".to_string(),
            json!(run_ms.iter().sum::<f64>() / 1e3 / passes as f64),
        ),
        ("setups".to_string(), json!(setups.len())),
        ("last_pass_scenario_s".to_string(), Value::Map(per_scenario)),
    ]);
    Ok(())
}

/// The traced run: one scenario per protocol family, each run plain (the
/// untraced reference) and then with phase timing and a tracer attached.
fn run_traced(
    root: &Path,
    args: &RunArgs,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let names = &TRACED_SCENARIOS[..if args.smoke {
        2
    } else {
        TRACED_SCENARIOS.len()
    }];
    let scenarios: Vec<Scenario> = names
        .iter()
        .map(|name| library::by_name(name).ok_or(format!("the library has no `{name}`")))
        .collect::<Result<_, _>>()?;

    let mut plain_ms = Vec::new();
    for scenario in &scenarios {
        let start = Instant::now();
        black_box(scenario.run().map_err(|e| e.to_string())?);
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let (mut traced_ms, mut compile_ns, mut json_ns, mut compare_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut phase_ns = [0u64; PHASES.len()];
    let (mut cycles, mut events, mut applied, mut useless, mut dropped) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut slowest = (0.0, "");
    for scenario in &scenarios {
        out.attempted += 1;
        let (span, compiled) = spans.time("scenario.compile", None, || scenario.compile());
        compiled.map_err(|e| e.to_string())?;
        compile_ns.push(spans.dur_ns(span) as f64);

        let timed = scenario.clone().with_config(SimConfig {
            time_phases: true,
            ..scenario.config().clone()
        });
        let (run, result) =
            spans.time("scenario.run", None, || timed.run_traced(TraceConfig::on()));
        let (mut report, _recorder) = result.map_err(|e| e.to_string())?;
        let ms = spans.dur_ns(run) as f64 / 1e6;
        traced_ms.push(ms);
        if ms > slowest.0 {
            slowest = (ms, scenario.name());
        }
        let timings = report.phase_ns.take().expect("time_phases was on");
        record_phases(spans, run, &timings);
        for (total, (_, ns)) in phase_ns.iter_mut().zip(timings.rows()) {
            *total += ns;
        }
        cycles += report.cycles as u64;
        let t = &report.totals;
        events += t.swaps_proposed
            + t.swaps_applied
            + t.swaps_useless
            + t.updates_sent
            + t.samples_absorbed
            + t.swaps_abandoned
            + t.samples_rejected;
        applied += t.swaps_applied;
        useless += t.swaps_useless;
        dropped += t.dropped_messages;

        // With the timings taken back out the report is the golden again.
        let (span, json) = spans.time("scenario.report_json", None, || report.to_json());
        json_ns.push(spans.dur_ns(span) as f64);
        let path = golden_path(root, scenario.name());
        let (span, same) = spans.time("scenario.golden_compare", None, || {
            fs::read_to_string(&path).is_ok_and(|golden| golden == json)
        });
        compare_ns.push(spans.dur_ns(span) as f64);
        if !same {
            eprintln!("scenario `{}` diverged from its golden", scenario.name());
            out.failed += 1;
        }
    }

    let runs = Summary::of(&traced_ms);
    out.set("scenario.compile_ns", median(&compile_ns));
    out.set("scenario.run_s_p50", runs.p50 / 1e3);
    out.set("scenario.run_s_max", runs.max / 1e3);
    out.set("scenario.report_json_ns", median(&json_ns));
    out.set("scenario.golden_compare_ns", median(&compare_ns));
    for ((_, metric), total) in PHASES.iter().zip(phase_ns) {
        out.set(metric, total as f64 / cycles as f64);
    }
    out.set("sim.events_per_cycle", events as f64 / cycles as f64);
    if applied + useless > 0 {
        out.set(
            "sim.useful_swap_ratio",
            applied as f64 / (applied + useless) as f64,
        );
    }
    out.set("sim.dropped_msgs_per_cycle", dropped as f64 / cycles as f64);
    out.set(
        "obs.trace_overhead_pct",
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
    );
    out.info.extend([
        ("traced_scenarios".to_string(), json!(names.to_vec())),
        ("slowest_traced_scenario".to_string(), json!(slowest.1)),
        (
            "untraced_reference_op_ms_p50".to_string(),
            json!(median(&plain_ms)),
        ),
    ]);

    // Construction and the per-sample accuracy probe, at the matrix's size.
    let base = &scenarios[0];
    let (span, engine) = spans.time("sim.engine_new", None, || {
        Engine::new(base.config().clone(), base.protocol())
    });
    let mut engine = engine.map_err(|e| e.to_string())?;
    out.set("sim.engine_new_ms", spans.dur_ns(span) as f64 / 1e6);
    for _ in 0..5 {
        engine.step();
    }
    let mut m = Micro {
        spans,
        out,
        smoke: args.smoke,
    };
    m.bench("scenario.accuracy_probe_ns", 1, || {
        black_box(engine.accuracy() + engine.honest_accuracy());
    });
    let cfg = base.config();
    micro::core_view(&mut m, cfg.view_size);
    micro::core_population(&mut m, cfg.n, 3, cfg.partition.len());
    micro::gossip(&mut m, cfg.view_size, cfg.n);
    micro::algorithms(
        &mut m,
        cfg.view_size,
        cfg.partition.len(),
        Families {
            ranking: true,
            ordering: true,
            defences: true,
        },
    );
    micro::obs(&mut m);
    Ok(())
}
