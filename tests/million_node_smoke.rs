//! The 1M-node ranking smoke, `#[ignore]`d so tier-1 stays fast; CI's
//! Large-N job runs it with the other ignored tests
//! (`cargo test --release -- --ignored`).
//!
//! It is a test binary of its own because it asserts the process's peak
//! resident set (`VmHWM`), which is per process: any other test sharing the
//! binary would count against the ceiling.

use dslice::prelude::*;

/// Nodes in the smoke run.
const N: usize = 1_000_000;
/// Cycles in the smoke run.
const CYCLES: usize = 50;
/// Peak RSS ceiling: the 279 MiB measured on a 2-vCPU Linux host once the
/// active sweep's outbox kept 13-byte message records and the membership
/// batches a 4-byte mask per slot, plus 25 % (the same host read 333 MiB
/// with 32-byte envelopes and 16-byte masks, 389 MiB with a heap buffer
/// per view and 531 MiB with 24-byte entries; 25–45 s in release). Node
/// state, views, the id-indexed columns and a cycle's messages all scale
/// with `n`, so a per-node regression shows here first.
const PEAK_RSS_CEILING_MIB: f64 = 349.0;

/// Peak resident set size of this process in MiB (`VmHWM`), where the
/// platform reports it.
fn peak_rss_mib() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
#[ignore = "1M-node smoke: run with --release -- --ignored"]
fn million_nodes_fifty_cycles_of_ranking() {
    let cfg = SimConfig {
        n: N,
        view_size: 10,
        partition: Partition::equal(100).unwrap(),
        seed: 0x1_000_000,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
    for _ in 0..CYCLES {
        let stats = engine.step();
        assert_eq!(
            stats.n, N,
            "cycle {}: population not conserved",
            stats.cycle
        );
        assert!(
            stats.sdm.is_finite() && stats.gdm.is_finite(),
            "cycle {}: SDM {} / GDM {}",
            stats.cycle,
            stats.sdm,
            stats.gdm
        );
    }
    assert_eq!(engine.cycle(), CYCLES);
    if let Some(peak) = peak_rss_mib() {
        assert!(
            peak <= PEAK_RSS_CEILING_MIB,
            "peak RSS {peak:.0} MiB over the {PEAK_RSS_CEILING_MIB} MiB ceiling"
        );
    }
}
