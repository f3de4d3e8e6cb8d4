//! Golden determinism tests: the engine's headline contract.
//!
//! Identical `(config, protocol, churn, seed)` must yield identical runs,
//! **byte for byte** in the serialized [`RunRecord`]. These tests lock the
//! contract down at the serialization boundary, where any drift (a
//! reordered float sum, a scheduling-dependent RNG draw, a hash-ordered
//! iteration, a batch-order-sensitive exchange) becomes a visible diff:
//! reruns are compared with each other, and the records of every protocol
//! family, every peer-sampling substrate, and runs under churn, concurrency
//! and latency are held to pinned hashes.

use dslice::core::digest::fnv1a64;
use dslice::prelude::*;
use dslice::sim::churn::ChurnSchedule;

fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        n: 200,
        view_size: 10,
        partition: Partition::equal(8).unwrap(),
        seed,
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
        let a = golden(base_cfg(42), kind, Some(churned(0.05)), 25);
        let b = golden(base_cfg(42), kind, Some(churned(0.05)), 25);
        assert_eq!(a, b, "{}: same inputs must reproduce exactly", kind.label());
        let c = golden(base_cfg(43), kind, Some(churned(0.05)), 25);
        assert_ne!(a, c, "{}: a different seed must show", kind.label());
    }
}

// The small-population pins below were captured on the commit before the
// engine became single-threaded, where each of these records was also
// checked byte-identical at 2, 4 and 8 worker threads.

#[test]
fn every_family_record_is_pinned_at_200_nodes() {
    let pins = [
        (ProtocolKind::Ranking, 0x1c1d_bc34_5c14_285c),
        (ProtocolKind::Jk, 0xaa2e_9cb9_d0c9_5862),
        (ProtocolKind::ModJk, 0xe2aa_c8d5_fa64_5efa),
    ];
    for (kind, pinned) in pins {
        let record = golden(base_cfg(7), kind, None, 20);
        assert_pinned(&record, pinned, kind.label());
    }
}

#[test]
fn churned_concurrent_delayed_records_are_pinned() {
    let pins = [
        (ProtocolKind::Ranking, 0xc68e_1cbe_56b3_11ce),
        (ProtocolKind::Jk, 0xa42f_4e11_e4cb_b7e1),
        (ProtocolKind::ModJk, 0xced8_267a_d986_89af),
    ];
    for (kind, pinned) in pins {
        let mut cfg = base_cfg(1234);
        cfg.concurrency = Concurrency::Half;
        cfg.latency = LatencyModel::Uniform { min: 0, max: 2 };
        let correlated = CorrelatedChurn::new(
            ChurnSchedule {
                rate: 0.03,
                period: 3,
                stop_after: None,
            },
            1.0,
        );
        let record = golden(cfg, kind, Some(Box::new(correlated)), 30);
        assert_pinned(&record, pinned, kind.label());
    }
}

#[test]
fn sparse_metrics_cadence_record_is_pinned() {
    // The carried-forward disorder values of a sparse cadence come from
    // the measured cycles alone.
    let mut cfg = base_cfg(77);
    cfg.metrics_every = 5;
    let record = golden(cfg, ProtocolKind::Ranking, Some(churned(0.1)), 23);
    assert_pinned(&record, 0xd7ef_9614_6d1d_2f53, "ranking, metrics every 5");
}

#[test]
fn every_substrate_ranking_record_is_pinned() {
    // Each substrate consumes its membership stream differently (aging,
    // partner draw, digest draws; the oracle refills every view).
    let pins = [
        (SamplerKind::Cyclon, 0x8b8d_7234_a580_b179),
        (SamplerKind::Newscast, 0x3d4e_676b_03c0_e010),
        (SamplerKind::Lpbcast, 0x7472_817f_2ee9_9a83),
        (SamplerKind::UniformOracle, 0xd26b_2833_4c1d_7374),
    ];
    for (sampler, pinned) in pins {
        let mut cfg = base_cfg(2024);
        cfg.sampler = sampler;
        let record = golden(cfg, ProtocolKind::Ranking, Some(churned(0.05)), 20);
        assert_pinned(&record, pinned, &format!("sampler {sampler}"));
    }
}

#[test]
fn phase_timings_do_not_perturb_the_run() {
    // Opt-in timings must be measurement, not intervention: the simulated
    // bytes with `time_phases` on, minus the timing fields themselves, must
    // equal the run with timings off.
    let cfg = |time_phases| {
        let mut cfg = base_cfg(99);
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
    let plain = Engine::new(cfg(false), ProtocolKind::Ranking)
        .unwrap()
        .run(15);
    let timed = Engine::new(cfg(true), ProtocolKind::Ranking)
        .unwrap()
        .run(15);
    assert!(
        timed.cycles.iter().all(|c| c.timings.is_some()),
        "time_phases must fill every cycle's breakdown"
    );
    assert_eq!(
        strip(timed).to_json(),
        plain.to_json(),
        "timings leaked into the simulation"
    );
}

#[test]
fn golden_record_roundtrips_through_json() {
    // The golden bytes are not just stable — they parse back to the same
    // record, so goldens can be archived and diffed structurally.
    let mut engine = Engine::new(base_cfg(5), ProtocolKind::Ranking).unwrap();
    let record = engine.run(10);
    let parsed: RunRecord = serde_json::from_str(&record.to_json()).unwrap();
    assert_eq!(parsed, record);
}

/// Asserts that the FNV-1a-64 of `record` is `pinned`.
fn assert_pinned(record: &str, pinned: u64, what: &str) {
    let hash = fnv1a64(record.bytes());
    assert_eq!(
        hash, pinned,
        "{what}: record bytes changed (got {hash:#018x})"
    );
}

/// Runs `kind` at n = 5000 for 20 cycles and compares the FNV-1a-64 of the
/// serialized record with `pinned`.
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
    let mut cfg = SimConfig {
        n: 5000,
        view_size: 10,
        partition: Partition::equal(20).unwrap(),
        seed: 4242,
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
    assert_pinned(&golden(cfg, kind, churn, 20), pinned, kind.label());
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

/// Plain ranking under uncorrelated churn: leavers free slots and the LIFO
/// free list hands them to joiners with fresh ids, so id rows and slots
/// part ways within a cycle or two. The static 5000-node ranking pin keeps
/// ids and slots equal; this one holds every id- or slot-addressed column
/// of the hot path (the refresh snapshot among them) to bytes captured
/// before that column changed shape.
#[test]
fn churned_ranking_record_is_pinned_at_5000_nodes() {
    assert_pinned_at_5000(
        ProtocolKind::Ranking,
        Concurrency::None,
        Some(0.01),
        0x3253_eb3f_6adb_4a51,
    );
}

/// Wide-view, half-concurrent mod-JK under 1 % uncorrelated churn with the
/// disorder metrics on every third cycle: three churn batches recycle slots
/// between two slice-tracker observations, so a joiner can sit in a slot
/// whose previous owner was seen in the last observation. Captured on the
/// commit before the tracker, the rank-cache merge and the GDM moved to
/// slot-keyed, in-place state.
#[test]
fn sparse_metrics_churned_wide_view_mod_jk_record_is_pinned_at_5000_nodes() {
    assert_pinned_with(
        ProtocolKind::ModJk,
        Some(0.01),
        0x83b1_c6c8_c577_9f06,
        |cfg| {
            cfg.concurrency = Concurrency::Half;
            cfg.view_size = 20;
            cfg.metrics_every = 3;
        },
    );
}

/// Half-concurrent mod-JK under 1 % uncorrelated churn with a fifth of the
/// population lying: every liar claims its inflated value, capped at 1, so
/// the GDM ranks many ties at the top of the range alongside the honest
/// values. Captured on the same commit as the pin above.
#[test]
fn churned_mod_jk_record_with_liars_is_pinned_at_5000_nodes() {
    let cfg = SimConfig {
        n: 5000,
        view_size: 10,
        partition: Partition::equal(20).unwrap(),
        seed: 4242,
        concurrency: Concurrency::Half,
        ..SimConfig::default()
    };
    let churn = UncorrelatedChurn::new(
        ChurnSchedule {
            rate: 0.01,
            period: 1,
            stop_after: None,
        },
        AttributeDistribution::default(),
    );
    let mut engine = Engine::new(cfg, ProtocolKind::ModJk)
        .unwrap()
        .with_churn(Box::new(churn));
    assert_eq!(engine.corrupt_nodes(0.2, 3.0), 1000);
    let record = engine.run(20).to_json();
    assert_pinned(&record, 0xed8e_e5df_968b_d325, "mod-JK with 20 % liars");
}
