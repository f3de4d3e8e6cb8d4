//! A production-scale slicing run: 100 000 nodes, 50 cycles, the ranking
//! algorithm — ten times the paper's population (§4.5 runs 10⁴) — then the
//! paper's dynamic setting at its own scale: mod-JK over 10 000 nodes with
//! §5.3.3's churn (0.1 % of nodes replaced per cycle) for 200 cycles.
//!
//! Demonstrates the engine's scale architecture end to end: slab-backed
//! node storage, per-node RNG streams and a sparse metrics cadence. It
//! times every phase of every cycle (timing changes no simulated byte) and
//! prints the median milliseconds per phase of each run as a Markdown table
//! under a `###` heading naming the run, the rows beginning with `|`. The
//! 100k run has no churn and measures every 10th cycle, so its churn and
//! metrics medians read about 0; the churned run measures every cycle. On
//! Linux it also reports the process's peak resident set (`VmHWM`) after
//! the 100k run and that peak per node, the figure a memory budget per
//! node is held to, and beside it the engine's own heap ledger
//! (`Engine::heap_bytes`): its total and per node on one line, then one
//! indented `  <row>: <bytes> bytes` line per row, twelve in all. The
//! ledger reads buffer capacities, so it repeats exactly run to run, and a
//! memory change shows in the row it touches (CI copies the total and the
//! rows into the job summary).
//! Run with:
//!
//! ```text
//! cargo run --release --example scale_run
//! ```

use dslice::prelude::*;
use dslice::sim::churn::ChurnSchedule;
use std::time::Instant;

/// Peak resident set size of this process in bytes (`VmHWM`), where the
/// platform reports it.
fn peak_rss_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Prints the median wall-clock milliseconds of each phase over the run's
/// cycles as a Markdown table under the heading `run`.
fn print_phase_medians(run: &str, record: &RunRecord) {
    let cycles: Vec<PhaseTimings> = record.cycles.iter().filter_map(|c| c.timings).collect();
    println!("### {run}: median ms per phase");
    println!("| phase | median ms/cycle |");
    println!("|---|---:|");
    let phases = PhaseTimings::default().rows().map(|(phase, _)| phase);
    for (i, phase) in phases.into_iter().enumerate() {
        let mut ns: Vec<u64> = cycles.iter().map(|t| t.rows()[i].1).collect();
        ns.sort_unstable();
        let median = ns.get(ns.len() / 2).copied().unwrap_or(0);
        println!("| {phase} | {:.2} |", median as f64 / 1e6);
    }
}

fn main() {
    let cfg = SimConfig {
        n: 100_000,
        view_size: 10,
        partition: Partition::equal(100).unwrap(),
        seed: 0xD51CE,
        // Measure every 10th cycle: the evaluation oracle (global sort for
        // the GDM) is the one O(n log n) piece, so at scale it runs on a
        // cadence while the protocol itself stays O(n) per cycle.
        metrics_every: 10,
        time_phases: true,
        ..SimConfig::default()
    };

    println!(
        "scale run: n = {}, slices = {}, view = {}",
        cfg.n,
        cfg.partition.len(),
        cfg.view_size,
    );

    let build_start = Instant::now();
    let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
    println!(
        "built + bootstrapped in {:.2}s | initial SDM {:.0}",
        build_start.elapsed().as_secs_f64(),
        engine.sdm()
    );

    let run_start = Instant::now();
    let record = engine.run(50);
    let elapsed = run_start.elapsed().as_secs_f64();

    for stats in record.cycles.iter().filter(|c| c.cycle % 10 == 0) {
        println!(
            "cycle {:>3}: SDM {:>9.1} | accuracy-relevant population {}",
            stats.cycle, stats.sdm, stats.n
        );
    }
    println!(
        "50 cycles over {} nodes in {elapsed:.2}s ({:.0} ms/cycle) | final SDM {:.0} | accuracy {:.1}%",
        engine.population(),
        1000.0 * elapsed / 50.0,
        engine.sdm(),
        100.0 * engine.accuracy(),
    );
    print_phase_medians(
        "ranking, 100k nodes, 50 cycles, metrics every 10th",
        &record,
    );
    match peak_rss_bytes() {
        Some(peak) => println!(
            "peak RSS {:.1} MiB | {:.0} bytes per node",
            peak as f64 / (1024.0 * 1024.0),
            peak as f64 / engine.population() as f64,
        ),
        None => println!("peak RSS: not reported on this platform"),
    }
    let ledger = engine.heap_bytes();
    println!(
        "heap ledger {:.1} MiB | {:.0} bytes per node",
        ledger.total() as f64 / (1024.0 * 1024.0),
        ledger.total() as f64 / engine.population() as f64,
    );
    for (what, bytes) in ledger.rows {
        println!("  {what}: {bytes} bytes");
    }

    assert!(
        engine.sdm() < record.cycles[0].sdm / 4.0,
        "slicing must converge at scale"
    );
    churned_run();
}

/// The paper's churn rate at its population: mod-JK, 10k nodes, view 20,
/// half-concurrent swaps, 0.1 % of nodes replaced and the disorder metrics
/// measured every cycle — where the churn and metrics phases do real work.
fn churned_run() {
    let cfg = SimConfig {
        n: 10_000,
        view_size: 20,
        partition: Partition::equal(10).unwrap(),
        concurrency: Concurrency::Half,
        seed: 0xD51CE,
        time_phases: true,
        ..SimConfig::default()
    };
    let churn = UncorrelatedChurn::new(
        ChurnSchedule {
            rate: 0.001,
            period: 1,
            stop_after: None,
        },
        AttributeDistribution::default(),
    );
    let mut engine = Engine::new(cfg, ProtocolKind::ModJk)
        .unwrap()
        .with_churn(Box::new(churn));
    let record = engine.run(200);
    let churned: usize = record.cycles.iter().map(|c| c.joined).sum();
    println!(
        "churned run: 200 cycles, {churned} joiners | final SDM {:.0} | accuracy {:.1}%",
        engine.sdm(),
        100.0 * engine.accuracy(),
    );
    print_phase_medians(
        "mod-JK, 10k nodes, 0.1 % churn, 200 cycles, metrics every cycle",
        &record,
    );
}
