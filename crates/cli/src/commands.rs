//! Command execution.

use crate::args::{
    AnalyzeArgs, ChurnSpec, Command, NetRunArgs, Outputs, ScenarioArgs, SimArgs, USAGE,
};
use dslice_analysis as analysis;
use dslice_core::{NodeId, Partition};
use dslice_net::{ChaosPlan, ClusterConfig, FaultPlan, LocalCluster};
use dslice_obs::{export, Registry, TraceConfig, TraceEvent};
use dslice_scenario::library;
use dslice_sim::{ChurnModel, CorrelatedChurn, Engine, SimConfig, UncorrelatedChurn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::time::Duration;

impl Outputs {
    /// The trace configuration the trace flags ask for, if any.
    fn trace_config(&self) -> Option<TraceConfig> {
        (self.trace_out.is_some() || self.trace_jsonl.is_some())
            .then(|| TraceConfig::on().with_sample_every(self.trace_sample))
    }

    /// Writes what the output flags ask for, in this order: the JSON
    /// report (`report` names it on stderr), the trace files from the
    /// recorder's retained `events`, and the metrics registry (Prometheus
    /// text).
    fn write(
        &self,
        report: &str,
        json: impl FnOnce() -> Result<String, String>,
        events: Option<Vec<TraceEvent>>,
        registry: impl FnOnce() -> Option<Registry>,
    ) -> Result<(), String> {
        if let Some(path) = &self.json {
            self.write_file(path, &json()?, &format!("{report} JSON"))?;
        }
        if let Some(events) = events {
            let n = events.len();
            if let Some(path) = &self.trace_out {
                let what = format!("chrome trace ({n} events)");
                self.write_file(path, &export::to_chrome(&events), &what)?;
            }
            if let Some(path) = &self.trace_jsonl {
                let what = format!("trace JSON lines ({n} events)");
                self.write_file(path, &export::to_jsonl(&events), &what)?;
            }
        }
        if let Some(path) = &self.metrics_out {
            if let Some(registry) = registry() {
                let text = registry.to_prometheus();
                self.write_file(path, &text, "metrics (Prometheus text)")?;
            }
        }
        Ok(())
    }

    fn write_file(&self, path: &str, contents: &str, what: &str) -> Result<(), String> {
        std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !self.quiet {
            eprintln!("{what} -> {path}");
        }
        Ok(())
    }
}

/// Runs a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Sim(args) => run_sim(args),
        Command::Analyze(args) => run_analyze(args),
        Command::SliceOf { slices, rank } => run_slice_of(slices, rank),
        Command::RunScenario(args) => run_scenario(args),
        Command::NetRun(args) => run_net_run(args),
    }
}

/// How many of `n` nodes a chaos fraction targets (at least one).
fn chaos_count(frac: f64, n: usize) -> usize {
    ((frac * n as f64).ceil() as usize).clamp(1, n)
}

/// Builds the chaos schedule the CLI flags describe: crashes hit the
/// lowest-id nodes, refusal/stall windows the highest-id ones, so the two
/// fault families overlap as little as possible at small fractions.
fn build_chaos(args: &NetRunArgs) -> ChaosPlan {
    let n = args.run.n;
    let mut chaos = ChaosPlan::new();
    if let Some((frac, at_ms)) = args.crash {
        let k = chaos_count(frac, n);
        chaos = chaos.at_ms(at_ms);
        for i in 0..k {
            chaos = chaos.crash(NodeId::new(i as u64));
        }
        if let Some(restart_at) = args.restart_at_ms {
            chaos = chaos.at_ms(restart_at);
            for i in 0..k {
                chaos = chaos.restart(NodeId::new(i as u64));
            }
        }
    }
    if let Some((frac, at_ms, window_ms)) = args.refuse {
        let k = chaos_count(frac, n);
        chaos = chaos.at_ms(at_ms);
        for i in (n - k)..n {
            chaos = chaos.refuse_for_ms(NodeId::new(i as u64), window_ms);
        }
    }
    if let Some((frac, at_ms, window_ms)) = args.stall {
        let k = chaos_count(frac, n);
        chaos = chaos.at_ms(at_ms);
        for i in (n - k)..n {
            chaos = chaos.stall_for_ms(NodeId::new(i as u64), window_ms);
        }
    }
    chaos
}

fn run_net_run(args: NetRunArgs) -> Result<(), String> {
    let setup = &args.run;
    let partition = Partition::equal(setup.slices).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(setup.seed ^ 0xA77);
    let attributes = setup.distribution.sample_n(setup.n, &mut rng);
    let faults = FaultPlan {
        loss: args.loss,
        delay: args
            .delay_ms
            .map(|(lo, hi)| (Duration::from_millis(lo), Duration::from_millis(hi))),
    };
    let chaos = build_chaos(&args);
    let cfg = ClusterConfig {
        sampler: setup.sampler,
        faults,
        view_size: setup.view,
        period: Duration::from_millis(args.period_ms),
        bootstrap_degree: args.bootstrap,
        seed: setup.seed,
        chaos,
        ..ClusterConfig::new(attributes, partition, setup.protocol)
    };

    if !args.out.quiet {
        eprintln!(
            "net-run {} | n = {} | {} slices | view {} | period {} ms | {} ms | seed {}",
            setup.protocol.label(),
            setup.n,
            setup.slices,
            setup.view,
            args.period_ms,
            args.duration_ms,
            setup.seed,
        );
        if !cfg.chaos.is_empty() {
            eprintln!("chaos plan: {} event(s)", cfg.chaos.len());
        }
    }

    let (report, registry) = tokio::runtime::Runtime::new()
        .map_err(|e| e.to_string())?
        .block_on(async {
            let mut cluster = LocalCluster::spawn(cfg).await?;
            if let Some(path) = &args.metrics_stream {
                cluster.stream_metrics(path.as_str(), Duration::from_millis(args.scrape_every_ms));
            }
            cluster
                .run_for(Duration::from_millis(args.duration_ms))
                .await;
            // Scrape before shutdown: the registry reads live snapshots.
            let registry = args.out.metrics_out.is_some().then(|| cluster.scrape());
            Ok::<_, std::io::Error>((cluster.shutdown().await, registry))
        })
        .map_err(|e| format!("cluster run failed: {e}"))?;

    if !args.out.quiet {
        println!(
            "final: {} node(s), SDM {:.3}, accuracy {:.1}%",
            report.nodes.len(),
            report.sdm(),
            report.accuracy() * 100.0
        );
        let t = &report.totals;
        println!(
            "wire:  {} retries, {} timeouts, {} send failures, {} evictions, \
             {} dropped, {} queue drops, peak queue depth {}",
            t.retries,
            t.timeouts,
            t.send_failures,
            t.evictions,
            t.dropped,
            t.queue_drops,
            t.peak_queue_depth
        );
        println!(
            "chaos: {} crash(es), {} chaos kill(s), {} restart(s)",
            t.crashes, t.chaos_kills, t.restarts
        );
        for exit in &report.exits {
            println!(
                "  @{:<6} node {} exited: {:?}{}",
                exit.at_ms,
                exit.id,
                exit.kind,
                if exit.restarted { " (restarted)" } else { "" }
            );
        }
    }
    let json =
        || serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"));
    args.out.write("cluster report", json, None, || registry)?;
    if let Some(path) = &args.metrics_stream {
        if !args.out.quiet {
            eprintln!("metrics stream (JSON lines) -> {path}");
        }
    }
    Ok(())
}

fn run_scenario(args: ScenarioArgs) -> Result<(), String> {
    if args.list {
        for scenario in library::all() {
            let schedule = scenario.compile().map_err(|e| e.to_string())?;
            println!(
                "{:<24} {:>8} {:>7} cycles {:>6} -> {:<6} {} event(s)",
                scenario.name(),
                scenario.protocol().label(),
                scenario.cycles(),
                schedule.initial_n,
                schedule.final_population(),
                schedule.events.len(),
            );
        }
        return Ok(());
    }
    let name = args.name.as_deref().expect("parser guarantees a name");
    let scenario = library::by_name(name).ok_or_else(|| {
        format!(
            "unknown scenario {name:?} (try: {})",
            library::names().join(", ")
        )
    })?;
    let (report, recorder) = match args.out.trace_config() {
        Some(tc) => {
            let (report, recorder) = scenario.run_traced(tc).map_err(|e| e.to_string())?;
            (report, Some(recorder))
        }
        None => (scenario.run().map_err(|e| e.to_string())?, None),
    };

    if !args.out.quiet {
        eprintln!(
            "scenario {} | {} | n0 = {} | {} slices | {} cycles | seed {}",
            report.name,
            report.protocol,
            report.initial_n,
            report.slices,
            report.cycles,
            report.seed,
        );
        for te in &report.events {
            eprintln!("  @{:<5} {}", te.cycle, te.event.label());
        }
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>9} {:>9} {:>6}",
            "cycle", "n", "sdm", "gdm", "accuracy", "honest", "liars"
        );
        for p in &report.trajectory {
            println!(
                "{:>6} {:>6} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>6}",
                p.cycle, p.n, p.sdm, p.gdm, p.accuracy, p.honest_accuracy, p.liars
            );
        }
        if let Some(peak) = report.peak_sdm() {
            println!("peak SDM {:.3} at cycle {}", peak.sdm, peak.cycle);
        }
        println!(
            "final: SDM {:.3}, accuracy {:.1}% (honest {:.1}%), {} liar(s), n = {}",
            report.final_sdm,
            report.final_accuracy * 100.0,
            report.final_honest_accuracy * 100.0,
            report.liars,
            report.final_n,
        );
    }
    let events = recorder.map(|r| r.into_events());
    args.out.write(
        "scenario report",
        || Ok(report.to_json()),
        events,
        || Some(report.metrics_registry()),
    )
}

fn run_sim(args: SimArgs) -> Result<(), String> {
    let cfg = SimConfig {
        n: args.run.n,
        view_size: args.run.view,
        partition: Partition::equal(args.run.slices).map_err(|e| e.to_string())?,
        sampler: args.run.sampler,
        concurrency: args.concurrency,
        latency: args.latency,
        distribution: args.run.distribution,
        seed: args.run.seed,
        metrics_every: args.metrics_every,
        time_phases: args.time_phases,
        ..SimConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;

    let mut engine = Engine::new(cfg, args.run.protocol).map_err(|e| e.to_string())?;
    let churn: Option<Box<dyn ChurnModel>> = match args.churn {
        ChurnSpec::None => None,
        ChurnSpec::Correlated { rate, period } => Some(Box::new(CorrelatedChurn::new(
            ChurnSpec::schedule(rate, period),
            1.0,
        ))),
        ChurnSpec::Uncorrelated { rate, period } => Some(Box::new(UncorrelatedChurn::new(
            ChurnSpec::schedule(rate, period),
            args.run.distribution,
        ))),
    };
    if let Some(churn) = churn {
        engine = engine.with_churn(churn);
    }
    if let Some(tc) = args.out.trace_config() {
        engine.set_tracer(tc);
    }

    if !args.out.quiet {
        eprintln!(
            "running {} | n = {} | {} slices | view {} | {} cycles | seed {} | concurrency {}",
            args.run.protocol.label(),
            args.run.n,
            args.run.slices,
            args.run.view,
            args.cycles,
            args.run.seed,
            args.concurrency,
        );
    }
    let record = engine.run(args.cycles);

    if !args.out.quiet {
        let checkpoints: Vec<usize> = [1usize, 5, 10, 25, 50, 100, 250, 500, 1000]
            .into_iter()
            .filter(|&c| c <= args.cycles)
            .collect();
        println!("cycle      n        SDM          GDM   unsuccessful%");
        for &c in &checkpoints {
            let s = &record.cycles[c - 1];
            println!(
                "{:>5} {:>6} {:>10.1} {:>12.3} {:>14.1}",
                s.cycle,
                s.n,
                s.sdm,
                s.gdm,
                s.unsuccessful_swap_pct()
            );
        }
        if checkpoints.last() != Some(&args.cycles) {
            let s = record.cycles.last().expect("at least one cycle");
            println!(
                "{:>5} {:>6} {:>10.1} {:>12.3} {:>14.1}",
                s.cycle,
                s.n,
                s.sdm,
                s.gdm,
                s.unsuccessful_swap_pct()
            );
        }
    }

    if !args.out.quiet {
        println!("\nSDM trajectory: {}", sparkline(&record));
        println!(
            "final: SDM {:.1}, GDM {:.3}, accuracy {:.1}%",
            record.final_sdm().unwrap_or(0.0),
            record.final_gdm().unwrap_or(0.0),
            engine.accuracy() * 100.0
        );
        let hist = engine.slice_histogram();
        println!(
            "believed slice populations: [{}]",
            hist.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if args.time_phases && !args.out.quiet {
        print_phase_breakdown(&record);
    }

    if let Some(path) = &args.csv {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        record
            .write_csv(file)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.out.quiet {
            eprintln!("per-cycle CSV -> {path}");
        }
    }
    let events = engine.take_recorder().map(|r| r.into_events());
    args.out.write(
        "run record",
        || Ok(record.to_json()),
        events,
        || Some(record.metrics_registry()),
    )
}

/// Prints the mean per-phase wall-clock breakdown of a timed run.
fn print_phase_breakdown(record: &dslice_sim::RunRecord) {
    let mut total = dslice_sim::PhaseTimings::default();
    let mut cycles = 0u64;
    for stats in &record.cycles {
        if let Some(t) = &stats.timings {
            total.accumulate(t);
            cycles += 1;
        }
    }
    if cycles == 0 {
        return;
    }
    let grand = total.total_ns().max(1);
    println!("\nper-phase cost (mean over {cycles} cycles):");
    for (name, ns) in total.rows() {
        println!(
            "  {name:<10} {:>10.1} µs/cycle {:>5.1}%",
            ns as f64 / 1000.0 / cycles as f64,
            100.0 * ns as f64 / grand as f64
        );
    }
    println!(
        "  {:<10} {:>10.1} µs/cycle",
        "total",
        grand as f64 / 1000.0 / cycles as f64
    );
}

/// Renders the run's SDM trajectory as a unicode sparkline (log-scaled,
/// downsampled to at most 60 columns).
fn sparkline(record: &dslice_sim::RunRecord) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let sdm: Vec<f64> = record.cycles.iter().map(|c| c.sdm).collect();
    if sdm.is_empty() {
        return String::new();
    }
    // Downsample by taking bucket means.
    let cols = sdm.len().min(60);
    let bucket = sdm.len().div_ceil(cols);
    let samples: Vec<f64> = sdm
        .chunks(bucket)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let logs: Vec<f64> = samples.iter().map(|v| (v + 1.0).ln()).collect();
    let max = logs.iter().cloned().fold(f64::MIN, f64::max);
    let min = logs.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-9);
    logs.iter()
        .map(|v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

fn run_analyze(args: AnalyzeArgs) -> Result<(), String> {
    match args {
        AnalyzeArgs::Lemma41 {
            beta,
            epsilon,
            n,
            p,
        } => {
            if !(beta > 0.0 && beta <= 1.0) {
                return Err(format!("--beta must lie in (0, 1], got {beta}"));
            }
            if !(epsilon > 0.0 && epsilon < 1.0) {
                return Err(format!("--epsilon must lie in (0, 1), got {epsilon}"));
            }
            if n == 0 {
                return Err("--n must be positive".into());
            }
            let p_min = analysis::min_slice_length(beta, epsilon, n);
            println!("Lemma 4.1  (β = {beta}, ε = {epsilon}, n = {n})");
            println!("  minimal slice length for the (1±{beta})·np guarantee: p ≥ {p_min:.6}");
            println!(
                "  i.e. at most {} equal slices at this population",
                if p_min <= 1.0 {
                    ((1.0 / p_min).floor() as usize).max(1).to_string()
                } else {
                    "0 (population too small)".to_string()
                }
            );
            if let Some(p) = p {
                if !(p > 0.0 && p <= 1.0) {
                    return Err(format!("--p must lie in (0, 1], got {p}"));
                }
                let bound = analysis::deviation_probability_bound(beta, n, p);
                let pop = analysis::expected_slice_population(n, p);
                println!("  slice of length p = {p}:");
                println!("    Pr[|X − np| ≥ βnp] ≤ {bound:.6}");
                println!(
                    "    E[X] = {:.1}, σ = {:.2}, relative deviation ≈ {:.4}",
                    pop.mean, pop.std_dev, pop.relative_deviation
                );
                println!(
                    "    premise {}",
                    if p >= p_min { "HOLDS" } else { "does NOT hold" }
                );
            }
            Ok(())
        }
        AnalyzeArgs::Samples { p, d, alpha } => {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--p must lie in [0, 1], got {p}"));
            }
            if d <= 0.0 {
                return Err(format!("--d must be positive, got {d}"));
            }
            if !(alpha > 0.0 && alpha < 1.0) {
                return Err(format!("--alpha must lie in (0, 1), got {alpha}"));
            }
            let k = analysis::required_samples(p, d, alpha);
            let z = analysis::z_alpha_2(alpha);
            println!("Theorem 5.1  (p̂ = {p}, d = {d}, α = {alpha})");
            println!("  Z_α/2 = {z:.4}");
            println!(
                "  messages required for a {:.0}%-confident slice estimate: k ≥ {k}",
                (1.0 - alpha) * 100.0
            );
            println!(
                "  sliding-window memory at 1 bit/sample: {:.2} kB",
                k as f64 / 8.0 / 1000.0
            );
            Ok(())
        }
        AnalyzeArgs::Population { n, p } => {
            if n == 0 {
                return Err("--n must be positive".into());
            }
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("--p must lie in (0, 1], got {p}"));
            }
            let pop = analysis::expected_slice_population(n, p);
            let (exact, bound) = analysis::even_split_probability(n);
            println!("Slice population  (n = {n}, p = {p})   [§4.4]");
            println!("  E[X] = {:.1}", pop.mean);
            println!("  σ(X) = {:.2}", pop.std_dev);
            println!(
                "  relative expected deviation ≈ {:.4}",
                pop.relative_deviation
            );
            println!("  P[even 2-way split of n] = {exact:.6} (bound √(2/nπ) = {bound:.6})");
            Ok(())
        }
    }
}

fn run_slice_of(slices: usize, rank: f64) -> Result<(), String> {
    let partition = Partition::equal(slices).map_err(|e| e.to_string())?;
    if !(rank > 0.0 && rank <= 1.0) {
        return Err(format!("--rank must lie in (0, 1], got {rank}"));
    }
    let idx = partition.slice_of(rank);
    let slice = partition.slice(idx).expect("index in range");
    println!(
        "rank {rank} -> slice {idx} = {slice} (distance to closest boundary: {:.4})",
        partition.boundary_distance(rank)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        run(Command::Help).unwrap();
    }

    #[test]
    fn tiny_sim_runs_end_to_end() {
        let cmd = parse(&argv(
            "sim --protocol ranking --n 60 --slices 4 --view 5 --cycles 5 --quiet",
        ))
        .unwrap();
        run(cmd).unwrap();
    }

    #[test]
    fn sim_with_churn_and_outputs() {
        let dir = std::env::temp_dir();
        let csv = dir.join("dslice_cli_test.csv");
        let json = dir.join("dslice_cli_test.json");
        let cmd = parse(&argv(&format!(
            "sim --protocol mod-jk --n 60 --slices 4 --view 5 --cycles 5 --quiet \
             --churn correlated:0.01:2 --csv {} --json {}",
            csv.display(),
            json.display()
        )))
        .unwrap();
        run(cmd).unwrap();
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("cycle,n,sdm"));
        let json_text = std::fs::read_to_string(&json).unwrap();
        assert!(json_text.contains("\"label\": \"mod-jk\""));
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn timed_sim_prints_phase_breakdown() {
        let cmd = parse(&argv(
            "sim --protocol ranking --n 80 --slices 4 --view 5 --cycles 6 --time-phases",
        ))
        .unwrap();
        run(cmd).unwrap();
    }

    #[test]
    fn analyze_commands_run() {
        run(parse(&argv(
            "analyze lemma41 --beta 0.5 --epsilon 0.05 --n 10000 --p 0.01",
        ))
        .unwrap())
        .unwrap();
        run(parse(&argv("analyze samples --p 0.45 --d 0.05")).unwrap()).unwrap();
        run(parse(&argv("analyze population --n 10000 --p 0.1")).unwrap()).unwrap();
    }

    #[test]
    fn analyze_rejects_bad_domains() {
        assert!(
            run(parse(&argv("analyze lemma41 --beta 2 --epsilon 0.05 --n 10")).unwrap()).is_err()
        );
        assert!(run(parse(&argv("analyze samples --p 2 --d 0.05")).unwrap()).is_err());
        assert!(run(parse(&argv("analyze samples --p 0.4 --d -1")).unwrap()).is_err());
        assert!(run(parse(&argv("analyze population --n 0 --p 0.1")).unwrap()).is_err());
    }

    #[test]
    fn run_scenario_lists_and_rejects_unknown_names() {
        run(parse(&argv("run-scenario --list")).unwrap()).unwrap();
        let err = run(parse(&argv("run-scenario no-such-scenario")).unwrap()).unwrap_err();
        assert!(err.contains("unknown scenario"));
        assert!(err.contains("lying-nodes"), "error lists the library");
    }

    #[test]
    fn tiny_net_run_with_chaos_writes_report() {
        let json = std::env::temp_dir().join("dslice_cli_net_run_test.json");
        let cmd = parse(&argv(&format!(
            "net-run --n 6 --slices 2 --view 4 --period-ms 10 --duration-ms 250 \
             --crash 0.2:60 --restart 140 --quiet --json {}",
            json.display()
        )))
        .unwrap();
        run(cmd).unwrap();
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"totals\""));
        // ceil(0.2 * 6) = 2 nodes crash and restart.
        assert!(text.contains("\"chaos_kills\": 2"), "report: {text}");
        assert!(text.contains("\"restarts\": 2"), "report: {text}");
        let _ = std::fs::remove_file(json);
    }

    #[test]
    fn net_run_refuses_a_zero_view() {
        let err = run(parse(&argv("net-run --view 0 --quiet")).unwrap()).unwrap_err();
        assert_eq!(err, "cluster run failed: view size must be at least 1");
    }

    #[test]
    fn slice_of_runs_and_validates() {
        run(parse(&argv("slice-of --slices 100 --rank 0.423")).unwrap()).unwrap();
        assert!(run(parse(&argv("slice-of --slices 100 --rank 1.5")).unwrap()).is_err());
        assert!(run(parse(&argv("slice-of --slices 0 --rank 0.5")).unwrap()).is_err());
    }
}
