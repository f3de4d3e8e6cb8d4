//! What the host says about this process and itself, read from `/proc`.
//!
//! Every reader returns `None`/`0` rather than failing when `/proc` is
//! missing or shaped differently: host facts annotate a run, they never
//! decide whether it is correct.

use serde_json::{json, Value};
use std::fs;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times. Linux
/// has reported 100 here on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis: state is the 1st after it, utime the
    // 12th, stime the 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / CLK_TCK,
        _ => 0.0,
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `Threads`, …).
fn status_field(name: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Threads this process currently has.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0.0) as u64
}

/// The 1-minute load average.
pub fn loadavg1() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the host was already busy when the run started: the 1-minute
/// load average exceeds half the processors. Such a run is marked
/// `"noisy": true`; its numbers are still printed.
pub fn is_noisy(loadavg1: Option<f64>, nproc: usize) -> bool {
    loadavg1.is_some_and(|load| load > nproc as f64 / 2.0)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// First line of a helper command's output (`rustc --version`, `git …`).
/// The child is waited for by `output()`.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .to_string(),
    )
}

/// The host block recorded in every artifact, from `/proc` alone.
pub fn host_block() -> Value {
    json!({
        "nproc": nproc(),
        "cpu_model": cpu_model().unwrap_or_else(|| "unknown".to_string())
    })
}

/// What built and what was built, for the combined `run --all` artifact:
/// asks `rustc` and `git`, so it is kept out of the single-workload runs
/// the driver makes.
pub fn toolchain_block() -> Value {
    let unknown = || "unknown".to_string();
    json!({
        "rustc": first_line("rustc", &["--version"]).unwrap_or_else(unknown),
        "commit": first_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown)
    })
}
