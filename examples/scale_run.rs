//! A production-scale slicing run: 100 000 nodes, 50 cycles, the ranking
//! algorithm — ten times the paper's population (§4.5 runs 10⁴).
//!
//! Demonstrates the engine's scale architecture end to end: slab-backed
//! node storage, per-node RNG streams and a sparse metrics cadence. Run
//! with:
//!
//! ```text
//! cargo run --release --example scale_run
//! ```

use dslice::prelude::*;
use std::time::Instant;

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

    assert!(
        engine.sdm() < record.cycles[0].sdm / 4.0,
        "slicing must converge at scale"
    );
}
