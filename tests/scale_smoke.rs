//! Large-N smoke tests, `#[ignore]`d so tier-1 stays fast.
//!
//! CI runs these in a dedicated release-mode job
//! (`cargo test --release -- --ignored`); they verify that the scale
//! architecture actually carries a 10⁵-node population: the run completes,
//! disorder decreases, and memory stays bounded by the peak population
//! (the slab's free list reuses slots under churn instead of growing).

use dslice::prelude::*;
use dslice::sim::churn::ChurnSchedule;

#[test]
#[ignore = "large-N smoke: run with --release -- --ignored"]
fn hundred_k_nodes_ten_cycles_converges() {
    let cfg = SimConfig {
        n: 100_000,
        view_size: 10,
        partition: Partition::equal(100).unwrap(),
        seed: 0x5CA1E,
        metrics_every: 5,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
    let before = engine.sdm();
    let record = engine.run(10);
    let after = engine.sdm();
    assert_eq!(record.cycles.len(), 10);
    assert_eq!(engine.population(), 100_000);
    assert!(
        after < before / 2.0,
        "SDM must at least halve over 10 cycles at 100k: {before} -> {after}"
    );
}

#[test]
#[ignore = "large-N smoke: run with --release -- --ignored"]
fn churning_hundred_k_run_keeps_memory_bounded() {
    let cfg = SimConfig {
        n: 100_000,
        view_size: 10,
        partition: Partition::equal(100).unwrap(),
        seed: 0xB0B,
        metrics_every: 5,
        ..SimConfig::default()
    };
    // 1% of the population leaves and rejoins every cycle.
    let churn = UncorrelatedChurn::new(
        ChurnSchedule {
            rate: 0.01,
            period: 1,
            stop_after: None,
        },
        AttributeDistribution::default(),
    );
    let mut engine = Engine::new(cfg, ProtocolKind::Ranking)
        .unwrap()
        .with_churn(Box::new(churn));
    let record = engine.run(10);
    let total_left: usize = record.cycles.iter().map(|c| c.left).sum();
    assert!(
        total_left >= 9_000,
        "churn must actually fire: {total_left}"
    );
    // Population stays at 100k (same-rate churn), and the slab reused the
    // freed slots: storage is bounded by peak population + one cycle's
    // churn, not by total identities ever created.
    assert_eq!(engine.population(), 100_000);
    let upper_bound = 100_000 + 2_000;
    assert!(
        engine.slot_count() <= upper_bound,
        "slab grew to {} slots (> {upper_bound}): free-list reuse is broken",
        engine.slot_count()
    );
}
