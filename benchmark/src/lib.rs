//! The repo benchmark: four workloads, end-to-end metrics measured with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! Everything is measured from outside the workspace crates, through their
//! public items; see `README.md` for the tables and `../BENCHMARK.json` for
//! the driver's contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod micro;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;

use report::Outcome;
use span::Spans;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::sim::SimWorkload;

/// The chrome trace file holds at most this many spans (the net workload
/// records three per probe); the metrics are computed from all of them.
const CHROME_SPAN_LIMIT: usize = 30_000;

/// What one workload run is asked to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// The workload's name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Smoke sizes: seconds-long, for the self-tests only, not comparable.
    pub smoke: bool,
}

impl RunArgs {
    /// The measuring time. A smoke run does its fixed minimum of work
    /// (cycle budget, one pass, 200 probes) whatever `seconds` says.
    pub fn duration(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs(self.seconds)
        }
    }
}

/// The checkout's root: the current directory when it holds the benchmark
/// (how the driver and the documented commands run it), else the parent of
/// the directory this package was built from.
pub fn repo_root() -> PathBuf {
    let built_from = Path::new(env!("CARGO_MANIFEST_DIR"));
    match std::env::current_dir() {
        Ok(cwd) if cwd.join("benchmark/Cargo.toml").is_file() => cwd,
        _ => built_from.parent().unwrap_or(built_from).to_path_buf(),
    }
}

/// Runs one workload and returns its settled outcome plus, for a traced
/// run, the span log.
pub fn run_workload(args: &RunArgs, root: &Path) -> Result<(Outcome, Option<Spans>), String> {
    let loadavg1 = host::loadavg1();
    let mut out = Outcome {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        noisy: host::is_noisy(loadavg1, host::nproc()),
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        info: vec![(
            "loadavg1_at_start".to_string(),
            serde_json::json!(loadavg1.unwrap_or(-1.0)),
        )],
    };
    let mut spans = args.traced.then(|| Spans::new(&args.workload));
    let traced = spans.as_mut();
    match args.workload.as_str() {
        "sim-ranking-100k" => workloads::sim::run(
            &SimWorkload::ranking_100k(args.smoke),
            args,
            &mut out,
            traced,
        ),
        "sim-modjk-churn-10k" => workloads::sim::run(
            &SimWorkload::modjk_churn_10k(args.smoke),
            args,
            &mut out,
            traced,
        ),
        "scenario-matrix" => workloads::matrix::run(root, args, &mut out, traced)?,
        "net-loopback-8" => workloads::net::run(args, &mut out, traced)?,
        other => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}`; known: {names:?}"));
        }
    }
    if !args.traced {
        out.set("peak_rss_mb", host::peak_rss_mb());
    }
    out.settle();
    Ok((out, spans))
}

/// Writes the run's artifacts under `<root>/benchmark/out/`:
/// `<workload>.json` (untraced) or `<workload>.layers.json` plus the chrome
/// trace `<workload>.trace.json` (traced). Returns the metrics file's path.
pub fn write_artifacts(
    root: &Path,
    out: &Outcome,
    spans: Option<&Spans>,
) -> std::io::Result<PathBuf> {
    let dir = root.join("benchmark/out");
    std::fs::create_dir_all(&dir)?;
    let suffix = if out.traced { "layers.json" } else { "json" };
    let path = dir.join(format!("{}.{suffix}", out.workload));
    let artifact = out.artifact(&host::host_block());
    let text = serde_json::to_string_pretty(&artifact).map_err(std::io::Error::other)?;
    std::fs::write(&path, text + "\n")?;
    if let Some(spans) = spans {
        std::fs::write(
            dir.join(format!("{}.trace.json", out.workload)),
            spans.to_chrome(CHROME_SPAN_LIMIT),
        )?;
    }
    Ok(path)
}
