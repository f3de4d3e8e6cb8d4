//! Integration: the analytic results validated against the simulator.
//!
//! Lemma 4.1 and Theorem 5.1 are proved on idealized sampling models; these
//! tests check they actually describe what the *simulated protocols* do —
//! slice populations under the ordering algorithm follow the binomial
//! characterization, and ranking-node confidence tracks the sample-size
//! bound.

use dslice::analysis;
use dslice::prelude::*;

#[test]
fn ordering_slice_populations_follow_the_binomial_model() {
    // Run mod-JK to full order, then count the population of each slice
    // (by final random value). §4.4: the count is Binomial(n, p); Lemma 4.1
    // bounds the deviation from np.
    let n = 1_000usize;
    let slices = 10usize;
    let p = 1.0 / slices as f64;
    let cfg = SimConfig {
        n,
        view_size: 15,
        partition: Partition::equal(slices).unwrap(),
        seed: 77,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
    // Run to total order (the convergence tail is long: the final inversions
    // wait for specific pairs to meet in a view).
    engine.run(120);
    while engine.gdm() > 0.0 && engine.cycle() < 600 {
        engine.step();
    }
    assert_eq!(engine.gdm(), 0.0, "fully ordered before measuring");

    let partition = engine.partition().clone();
    let mut counts = vec![0usize; slices];
    for (_, _, r) in engine.snapshot() {
        counts[partition.slice_of(r).as_usize()] += 1;
    }
    assert_eq!(counts.iter().sum::<usize>(), n);

    // Lemma 4.1 with β = 1.0: for p = 0.1 and n = 1000 the premise holds at
    // ε = 0.05, so each slice count should lie within [0, 2np] — and the
    // binomial std dev (≈ 9.5) says typical counts are 100 ± 30.
    assert!(analysis::chernoff::lemma_applies(1.0, 0.05, n, p));
    let expectation = analysis::expected_slice_population(n, p);
    for (idx, &count) in counts.iter().enumerate() {
        let deviation = (count as f64 - expectation.mean).abs();
        assert!(
            deviation <= 5.0 * expectation.std_dev,
            "slice {idx} holds {count}, > 5σ from np = {}",
            expectation.mean
        );
    }
}

#[test]
fn slice_counts_are_rarely_exact() {
    // §4.4: the probability of an exactly even split is ≈ √(2/nπ) — tiny.
    // Verify on the simulator: across 20 seeds, 2-slice populations almost
    // never split exactly 150/150.
    let mut exact = 0;
    for seed in 0..20u64 {
        let cfg = SimConfig {
            n: 300,
            view_size: 10,
            partition: Partition::equal(2).unwrap(),
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
        engine.run(60);
        let partition = engine.partition().clone();
        let low = engine
            .snapshot()
            .iter()
            .filter(|(_, _, r)| partition.slice_of(*r).as_usize() == 0)
            .count();
        if low == 150 {
            exact += 1;
        }
    }
    // Per-seed probability ≈ √(2/300π) ≈ 4.6%; 20 seeds → expect ~1.
    assert!(
        exact <= 5,
        "exactly-even splits should be rare: {exact}/20 seeds"
    );
}

#[test]
fn ranking_confidence_tracks_theorem_51() {
    // After enough cycles, nodes far from a boundary should satisfy the
    // theorem's sample requirement while freshly-joined nodes would not.
    let cfg = SimConfig {
        n: 400,
        view_size: 10,
        partition: Partition::equal(4).unwrap(),
        seed: 91,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
    engine.run(120);
    let partition = engine.partition().clone();

    // Every cycle a node folds ~view_size + received samples; after 120
    // cycles ≳ 1200 samples. Theorem 5.1 at d = 0.1 (mid-slice of quarter
    // slices), p̂ = 0.5: k = (1.96·0.5/0.1)² ≈ 96 — amply satisfied, and
    // indeed mid-slice nodes are essentially always right.
    let required = analysis::required_samples(0.5, 0.1, 0.05);
    assert!(
        required < 1_200,
        "mid-slice requirement ({required}) met by cycle budget"
    );

    let snapshot = engine.snapshot();
    let alpha = dslice::core::rank::attribute_ranks(snapshot.iter().map(|&(id, a, _)| (id, a)));
    let n = snapshot.len();
    let (mut mid_total, mut mid_correct) = (0usize, 0usize);
    for (id, _, est) in &snapshot {
        let truth = alpha[id] as f64 / n as f64;
        if partition.boundary_distance(truth) >= 0.1 {
            mid_total += 1;
            if partition.slice_of(*est) == partition.slice_of(truth) {
                mid_correct += 1;
            }
        }
    }
    let rate = mid_correct as f64 / mid_total.max(1) as f64;
    assert!(
        rate >= 0.95,
        "mid-slice nodes must be ≥95% correct (Theorem 5.1): {rate:.3}"
    );
}

#[test]
fn wald_interval_covers_the_simulated_estimates() {
    // For every node, the Wald 95% interval around the final estimate should
    // cover the true normalized rank, seed after seed.
    let coverage = |seed: u64| -> (f64, usize) {
        let cfg = SimConfig {
            n: 300,
            view_size: 10,
            partition: Partition::equal(4).unwrap(),
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
        let record = engine.run(100);
        // Approximate per-node sample count: absorbed samples / population.
        let absorbed: u64 = record
            .cycles
            .iter()
            .map(|c| c.events.samples_absorbed)
            .sum();
        let k = (absorbed / 300).max(1) as usize;

        let snapshot = engine.snapshot();
        let alpha = dslice::core::rank::attribute_ranks(snapshot.iter().map(|&(id, a, _)| (id, a)));
        let n = snapshot.len();
        let covered = snapshot
            .iter()
            .filter(|(id, _, est)| {
                let truth = alpha[id] as f64 / n as f64;
                let (lo, hi) = analysis::wald_interval(est.clamp(0.0, 1.0), k, 0.05);
                lo <= truth && truth <= hi
            })
            .count();
        (covered as f64 / n as f64, k)
    };
    // Samples are view-correlated rather than iid, and every node is given
    // the population-mean k, so coverage sits below the nominal 95%: seeds
    // 90–105 read 0.86–0.94, mean 0.91.
    let seeds = 90..106u64;
    let mut total = 0.0;
    for seed in seeds.clone() {
        let (rate, k) = coverage(seed);
        assert!(
            rate >= 0.80,
            "seed {seed}: Wald coverage {rate:.3} below 0.80 with k = {k}"
        );
        total += rate;
    }
    let mean = total / seeds.count() as f64;
    assert!(mean >= 0.88, "mean Wald coverage {mean:.3} below 0.88");
}
