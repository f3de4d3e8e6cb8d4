//! Golden determinism tests: the engine's headline contract.
//!
//! Identical `(config, protocol, churn, seed)` must yield identical runs,
//! **byte for byte** in the serialized [`RunRecord`] — and the shard count
//! must be invisible: with the membership phase *and* the active sweep (view
//! refresh included) sharded, `shards ∈ {2, 4, 8}` must reproduce the sequential run
//! (`shards = 1`) exactly, across every protocol family, every
//! peer-sampling substrate, and under churn, concurrency and latency. These
//! tests lock the contract down at the serialization boundary, where any
//! drift (a reordered float sum, a scheduling-dependent RNG draw, a
//! hash-ordered iteration, a batch-order-sensitive exchange) becomes a
//! visible diff.

use dslice::prelude::*;
use dslice::sim::churn::ChurnSchedule;

fn base_cfg(seed: u64, shards: usize) -> SimConfig {
    SimConfig {
        n: 200,
        view_size: 10,
        partition: Partition::equal(8).unwrap(),
        seed,
        shards,
        ..SimConfig::default()
    }
}

fn churned(schedule_rate: f64) -> Box<dyn ChurnModel> {
    Box::new(UncorrelatedChurn::new(
        ChurnSchedule {
            rate: schedule_rate,
            period: 2,
            stop_after: None,
        },
        AttributeDistribution::default(),
    ))
}

/// Runs `cycles` and returns the serialized record (the golden bytes).
fn golden(
    cfg: SimConfig,
    kind: ProtocolKind,
    churn: Option<Box<dyn ChurnModel>>,
    cycles: usize,
) -> String {
    let mut engine = Engine::new(cfg, kind).unwrap();
    if let Some(churn) = churn {
        engine = engine.with_churn(churn);
    }
    engine.run(cycles).to_json()
}

#[test]
fn same_inputs_twice_are_byte_identical() {
    for kind in [ProtocolKind::Ranking, ProtocolKind::Jk, ProtocolKind::ModJk] {
        let a = golden(base_cfg(42, 1), kind, Some(churned(0.05)), 25);
        let b = golden(base_cfg(42, 1), kind, Some(churned(0.05)), 25);
        assert_eq!(a, b, "{}: same inputs must reproduce exactly", kind.label());
        let c = golden(base_cfg(43, 1), kind, Some(churned(0.05)), 25);
        assert_ne!(a, c, "{}: a different seed must show", kind.label());
    }
}

#[test]
fn sharded_runs_match_sequential_for_every_protocol() {
    for kind in [ProtocolKind::Ranking, ProtocolKind::Jk, ProtocolKind::ModJk] {
        let sequential = golden(base_cfg(7, 1), kind, None, 20);
        let sharded = golden(base_cfg(7, 4), kind, None, 20);
        assert_eq!(
            sequential,
            sharded,
            "{}: shards=4 must be byte-identical to shards=1",
            kind.label()
        );
    }
}

#[test]
fn sharding_is_invisible_under_churn_concurrency_and_latency() {
    for kind in [ProtocolKind::Ranking, ProtocolKind::Jk, ProtocolKind::ModJk] {
        let cfg = |shards| {
            let mut cfg = base_cfg(1234, shards);
            cfg.concurrency = Concurrency::Half;
            cfg.latency = LatencyModel::Uniform { min: 0, max: 2 };
            cfg
        };
        let correlated = || -> Box<dyn ChurnModel> {
            Box::new(CorrelatedChurn::new(
                ChurnSchedule {
                    rate: 0.03,
                    period: 3,
                    stop_after: None,
                },
                1.0,
            ))
        };
        let sequential = golden(cfg(1), kind, Some(correlated()), 30);
        for shards in [2, 4, 8] {
            let sharded = golden(cfg(shards), kind, Some(correlated()), 30);
            assert_eq!(
                sequential,
                sharded,
                "{}: shards={shards} diverged under churn+concurrency+latency",
                kind.label()
            );
        }
    }
}

#[test]
fn metrics_cadence_preserves_shard_identity() {
    // A sparse metrics cadence must not interact with sharding: the
    // carried-forward disorder values come from the same measured cycles.
    let cfg = |shards| {
        let mut cfg = base_cfg(77, shards);
        cfg.metrics_every = 5;
        cfg
    };
    let a = golden(cfg(1), ProtocolKind::Ranking, Some(churned(0.1)), 23);
    let b = golden(cfg(4), ProtocolKind::Ranking, Some(churned(0.1)), 23);
    assert_eq!(a, b);
}

#[test]
fn sharded_membership_is_invisible_for_every_substrate() {
    // The schedule-then-execute membership phase (and the sharded oracle
    // refill and active-sweep view refresh) must be byte-invisible for every sampler,
    // not just the default Cyclon variant — each substrate consumes its
    // membership stream differently (aging, partner draw, digest draws).
    for sampler in [
        SamplerKind::Cyclon,
        SamplerKind::Newscast,
        SamplerKind::Lpbcast,
        SamplerKind::UniformOracle,
    ] {
        let cfg = |shards| {
            let mut cfg = base_cfg(2024, shards);
            cfg.sampler = sampler;
            cfg
        };
        let sequential = golden(cfg(1), ProtocolKind::Ranking, Some(churned(0.05)), 20);
        for shards in [2, 4, 8] {
            let sharded = golden(cfg(shards), ProtocolKind::Ranking, Some(churned(0.05)), 20);
            assert_eq!(
                sequential, sharded,
                "sampler {sampler}: shards={shards} diverged"
            );
        }
    }
}

#[test]
fn phase_timings_do_not_perturb_the_run() {
    // Opt-in timings must be measurement, not intervention: the simulated
    // bytes with `time_phases` on, minus the timing fields themselves, must
    // equal the run with timings off — at any shard count.
    let cfg = |time_phases, shards| {
        let mut cfg = base_cfg(99, shards);
        cfg.time_phases = time_phases;
        cfg
    };
    let strip = |record: RunRecord| -> RunRecord {
        let mut record = record;
        for stats in &mut record.cycles {
            stats.timings = None;
        }
        record.phase_ns = None;
        record
    };
    let plain = Engine::new(cfg(false, 1), ProtocolKind::Ranking)
        .unwrap()
        .run(15);
    for shards in [1, 4] {
        let timed = Engine::new(cfg(true, shards), ProtocolKind::Ranking)
            .unwrap()
            .run(15);
        assert!(
            timed.cycles.iter().all(|c| c.timings.is_some()),
            "time_phases must fill every cycle's breakdown"
        );
        assert_eq!(
            strip(timed).to_json(),
            plain.to_json(),
            "timings leaked into the simulation (shards={shards})"
        );
    }
}

#[test]
fn golden_record_roundtrips_through_json() {
    // The golden bytes are not just stable — they parse back to the same
    // record, so goldens can be archived and diffed structurally.
    let mut engine = Engine::new(base_cfg(5, 2), ProtocolKind::Ranking).unwrap();
    let record = engine.run(10);
    let parsed: RunRecord = serde_json::from_str(&record.to_json()).unwrap();
    assert_eq!(parsed, record);
}

/// FNV-1a-64 over the golden bytes: a compact pin for records far too large
/// to commit (n = 5000 × 20 cycles serializes to tens of kilobytes).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `kind` at n = 5000 for 20 cycles at shards 1 and 4 and compares the
/// FNV-1a-64 of the serialized record with `pinned`.
///
/// The scenario goldens stop at n ≤ 1000, where a slab never recycles more
/// than a handful of slots. These pins hold the record past the golden
/// sizes — slot reuse under churn, deferred swaps and the windowed
/// estimators all in play — to constants captured on the commit before the
/// engine's hot path became slot-addressed. A hot-path change that reorders
/// a single draw, merge or float sum shows here as a changed hash.
fn assert_pinned_at_5000(
    kind: ProtocolKind,
    concurrency: Concurrency,
    churn_rate: Option<f64>,
    pinned: u64,
) {
    assert_pinned_with(kind, churn_rate, pinned, |cfg| {
        cfg.concurrency = concurrency
    });
}

/// [`assert_pinned_at_5000`] with `tweak` applied to the base configuration
/// (view size 10, Cyclon, no concurrency) — for pins on another view size
/// or peer-sampling substrate.
fn assert_pinned_with(
    kind: ProtocolKind,
    churn_rate: Option<f64>,
    pinned: u64,
    tweak: impl Fn(&mut SimConfig),
) {
    for shards in [1, 4] {
        let mut cfg = SimConfig {
            n: 5000,
            view_size: 10,
            partition: Partition::equal(20).unwrap(),
            seed: 4242,
            shards,
            ..SimConfig::default()
        };
        tweak(&mut cfg);
        let churn = churn_rate.map(|rate| -> Box<dyn ChurnModel> {
            Box::new(UncorrelatedChurn::new(
                ChurnSchedule {
                    rate,
                    period: 1,
                    stop_after: None,
                },
                AttributeDistribution::default(),
            ))
        });
        let hash = fnv1a64(golden(cfg, kind, churn, 20).as_bytes());
        assert_eq!(
            hash,
            pinned,
            "{}, shards={shards}: record bytes changed (got {hash:#018x})",
            kind.label()
        );
    }
}

#[test]
fn ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::Ranking,
        Concurrency::None,
        None,
        0x67f3_e717_1805_84b4,
    );
}

#[test]
fn churned_half_concurrent_mod_jk_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::ModJk,
        Concurrency::Half,
        Some(0.001),
        0x4e92_cbfb_3fa0_83e8,
    );
}

// Pins captured on the commit before the in-process Cyclon exchange and the
// id-indexed node tables. Every other pin runs c = 10; the mod-JK churn
// workload the benchmark measures runs c = 20, where a payload overflows
// the view and the self-descriptor is cut. Newscast and Lpbcast keep the
// message exchange path, so their pins hold it to its old bytes.

#[test]
fn wide_view_churned_half_concurrent_mod_jk_record_is_pinned_at_5000_nodes() {
    assert_pinned_with(
        ProtocolKind::ModJk,
        Some(0.001),
        0x9ce2_2897_4bcc_9409,
        |cfg| {
            cfg.concurrency = Concurrency::Half;
            cfg.view_size = 20;
        },
    );
}

#[test]
fn newscast_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_with(ProtocolKind::Ranking, None, 0xcfb9_dbc4_1dcc_e3bd, |cfg| {
        cfg.sampler = SamplerKind::Newscast;
    });
}

#[test]
fn lpbcast_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_with(ProtocolKind::Ranking, None, 0x567e_c16a_e0bf_387c, |cfg| {
        cfg.sampler = SamplerKind::Lpbcast;
    });
}

/// Ranking over a skewed partition: three boundaries crowd below 0.05, so
/// they share one cell of the partition's lookup grid and the slice and
/// `j1` lookups take the in-cell bisection as well as the direct path.
/// Captured on the commit before the grid replaced the plain bisection.
#[test]
fn skewed_partition_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_with(ProtocolKind::Ranking, None, 0xb1ef_b6eb_05bc_1250, |cfg| {
        cfg.partition =
            Partition::from_fractions(&[0.01, 0.01, 0.02, 0.06, 0.2, 0.3, 0.4]).unwrap();
    });
}

#[test]
fn sliding_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::SlidingRanking { window: 256 },
        Concurrency::None,
        None,
        0x5dee_b327_d238_e5a9,
    );
}

#[test]
fn fence_trim_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::FencedTrimmedRanking {
            window: 16,
            trim_ppm: 100_000,
        },
        Concurrency::None,
        None,
        0xe376_f7ca_1425_46b2,
    );
}

// The three defended tiers at the window sizes the scenario library runs
// them with (64 / 128 samples), constants captured on the commit before
// `ValueWindow` kept its samples sorted incrementally. Every sample crosses
// `RobustFilter::admit`, so any drift in the window's order statistics — one
// quartile interpolated from a neighbouring sample, one wrong twin evicted —
// changes these bytes.

#[test]
fn robust_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::RobustRanking { window: 64 },
        Concurrency::None,
        None,
        0x8c95_723a_03e7_bde0,
    );
}

#[test]
fn trimmed_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::trimmed(128, 0.1),
        Concurrency::None,
        None,
        0x39f4_e0a6_bbd7_9dbc,
    );
}

#[test]
fn wide_fence_trim_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::fenced_trimmed(128, 0.1),
        Concurrency::None,
        None,
        0x367a_49ad_8753_169a,
    );
}
