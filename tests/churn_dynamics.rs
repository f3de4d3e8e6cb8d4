//! Integration: churn (§3.3, §5.3.3, §5.3.4) at reduced scale.
//!
//! Asserts the qualitative results of Figs. 6(c) and 6(d): under
//! attribute-correlated churn the ordering algorithms degrade and cannot
//! recover, the ranking algorithm recovers once a burst stops, and the
//! sliding window bounds the long-run SDM growth under sustained churn.
//! It also checks Fig. 6(c)'s mechanism directly: correlated churn skews
//! the ordering algorithm's random-value multiset away from uniformity
//! (detected by a KS test), which is why no amount of further sorting can
//! repair its slice assignment.

use dslice::analysis::{ks_statistic, ks_test};
use dslice::prelude::*;
use dslice::sim::churn::ChurnSchedule;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        n: 600,
        view_size: 10,
        partition: Partition::equal(10).unwrap(),
        seed,
        ..SimConfig::default()
    }
}

fn burst_churn(stop_after: usize) -> Box<CorrelatedChurn> {
    Box::new(CorrelatedChurn::new(
        ChurnSchedule {
            rate: 0.002,
            period: 1,
            stop_after: Some(stop_after),
        },
        1.0,
    ))
}

#[test]
fn ranking_recovers_after_a_correlated_burst() {
    // Fig. 6(c): burst for 100 cycles, then quiet. After the burst, the
    // ranking SDM must resume decreasing.
    let record = Engine::new(config(31), ProtocolKind::Ranking)
        .unwrap()
        .with_churn(burst_churn(100))
        .run(400);
    let at_burst_end = record.cycles[99].sdm;
    let final_sdm = record.final_sdm().unwrap();
    assert!(
        final_sdm < at_burst_end / 2.0,
        "ranking must recover after the burst: {at_burst_end} -> {final_sdm}"
    );
}

#[test]
fn ordering_cannot_recover_from_a_correlated_burst() {
    // Fig. 6(c): the ordering SDM "gets stuck" — the drained low random
    // values cannot be regenerated, so the post-burst SDM stays at or above
    // a floor well above the ranking algorithm's.
    let ordering = Engine::new(config(32), ProtocolKind::Jk)
        .unwrap()
        .with_churn(burst_churn(100))
        .run(400);
    let ranking = Engine::new(config(32), ProtocolKind::Ranking)
        .unwrap()
        .with_churn(burst_churn(100))
        .run(400);
    let o = ordering.final_sdm().unwrap();
    let r = ranking.final_sdm().unwrap();
    assert!(
        o > r * 2.0,
        "ordering must end far above ranking after a correlated burst: {o} vs {r}"
    );
}

#[test]
fn uncorrelated_churn_is_benign_for_ranking() {
    // §3.3's "easier case": leavers uniform, joiners from the same
    // distribution — the ranking estimates stay calibrated.
    let quiet = Engine::new(config(33), ProtocolKind::Ranking)
        .unwrap()
        .run(300);
    let churned = Engine::new(config(33), ProtocolKind::Ranking)
        .unwrap()
        .with_churn(Box::new(UncorrelatedChurn::new(
            ChurnSchedule {
                rate: 0.002,
                period: 1,
                stop_after: None,
            },
            AttributeDistribution::default(),
        )))
        .run(300);
    let q = quiet.final_sdm().unwrap();
    let c = churned.final_sdm().unwrap();
    // Joining nodes are always catching up, so some penalty is expected —
    // but bounded, not runaway.
    assert!(
        c < q * 6.0 + 60.0,
        "uncorrelated churn must stay benign: quiet {q} vs churned {c}"
    );
}

#[test]
fn sliding_window_bounds_sdm_growth_under_sustained_churn() {
    // Fig. 6(d): under sustained correlated churn, plain ranking's frozen
    // history eventually biases estimates; the sliding window forgets it.
    let sustained = || {
        Box::new(CorrelatedChurn::new(
            ChurnSchedule {
                rate: 0.005,
                period: 5,
                stop_after: None,
            },
            1.0,
        ))
    };
    let plain = Engine::new(config(34), ProtocolKind::Ranking)
        .unwrap()
        .with_churn(sustained())
        .run(600);
    let window = Engine::new(config(34), ProtocolKind::SlidingRanking { window: 600 })
        .unwrap()
        .with_churn(sustained())
        .run(600);

    let tail = |r: &RunRecord| -> f64 {
        let t: Vec<f64> = r.cycles[550..].iter().map(|c| c.sdm).collect();
        t.iter().sum::<f64>() / t.len() as f64
    };
    let p = tail(&plain);
    let w = tail(&window);
    assert!(
        w < p,
        "sliding window must end below plain ranking under sustained churn: {w} vs {p}"
    );
}

#[test]
fn population_size_is_conserved_under_symmetric_churn() {
    let mut engine = Engine::new(config(35), ProtocolKind::Ranking)
        .unwrap()
        .with_churn(burst_churn(50));
    let record = engine.run(80);
    assert_eq!(engine.population(), 600);
    let left: usize = record.cycles.iter().map(|c| c.left).sum();
    let joined: usize = record.cycles.iter().map(|c| c.joined).sum();
    assert_eq!(left, joined);
    assert!(left > 0, "churn actually happened");
}

#[test]
fn views_never_reference_departed_nodes_after_a_cycle() {
    let mut engine = Engine::new(config(36), ProtocolKind::ModJk)
        .unwrap()
        .with_churn(burst_churn(60));
    for _ in 0..60 {
        engine.step();
        let alive: std::collections::HashSet<u64> = engine
            .snapshot()
            .iter()
            .map(|(id, _, _)| id.as_u64())
            .collect();
        for (owner, view_ids) in engine.view_snapshot() {
            for id in view_ids {
                assert!(
                    alive.contains(&id.as_u64()),
                    "node {owner} still references departed node {id}"
                );
            }
        }
    }
}

#[test]
fn correlated_churn_skews_ordering_random_values() {
    // The Fig. 6(c) mechanism. After a long attribute-correlated burst, the
    // leavers (lowest attributes) drag the *small* random values out of the
    // system while joiners draw fresh uniform values — the surviving
    // multiset stops looking uniform, so slice lookups via `r_i` are
    // permanently biased.
    let schedule = ChurnSchedule {
        rate: 0.01,
        period: 1,
        stop_after: Some(150),
    };
    let mut engine = Engine::new(
        SimConfig {
            n: 800,
            ..config(87)
        },
        ProtocolKind::ModJk,
    )
    .unwrap()
    .with_churn(Box::new(CorrelatedChurn::new(schedule, 1.0)));
    engine.run(200);

    let survivors: Vec<f64> = engine.snapshot().iter().map(|&(_, _, r)| r).collect();
    let outcome = ks_test(&survivors, 0.01);
    assert!(
        outcome.rejected,
        "random values should be skewed after correlated churn: {outcome:?}"
    );

    // Control: the same run without churn keeps a uniform multiset (swaps
    // permute values, never create or destroy them).
    let mut control = Engine::new(
        SimConfig {
            n: 800,
            ..config(87)
        },
        ProtocolKind::ModJk,
    )
    .unwrap();
    control.run(200);
    let values: Vec<f64> = control.snapshot().iter().map(|&(_, _, r)| r).collect();
    let d = ks_statistic(&values);
    let outcome = ks_test(&values, 0.01);
    assert!(
        !outcome.rejected,
        "static ordering run must keep its uniform draw (D = {d})"
    );
}
