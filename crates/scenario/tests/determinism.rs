//! Golden determinism: a scenario report is pure simulated state, so the
//! same program must produce **byte-identical** JSON across reruns. This is
//! the invariant that makes the committed goldens under
//! `docs/scenarios/goldens/` (and `scenario_matrix --check`) meaningful.

use dslice_core::digest::fnv1a64;
use dslice_obs::TraceConfig;
use dslice_scenario::{Scenario, ScenarioReport};
use dslice_sim::{AttackerSpec, AttributeDistribution, LatencyModel, ProtocolKind};

/// A small but eventful program touching every event kind, sized so the
/// full determinism matrix stays fast in debug builds.
fn eventful(seed: u64) -> Scenario {
    Scenario::new("determinism-probe")
        .population(160)
        .view_size(8)
        .slices(5)
        .seed(seed)
        .sample_every(7)
        .for_cycles(70)
        .at_cycle(10)
        .flash_crowd(0.25)
        .at_cycle(20)
        .regional_failure(0.15)
        .at_cycle(25)
        .shift_distribution(AttributeDistribution::Pareto {
            scale: 1.0,
            shape: 1.5,
        })
        .at_cycle(30)
        .leave(12)
        .join(12)
        .at_cycle(40)
        .lying_nodes(0.1, 6.0)
        .at_cycle(45)
        .lying_boundary_nodes(0.05, 4.0)
        .at_cycle(50)
        .mass_leave(0.1)
        .at_cycle(55)
        .repartition(3)
        .at_cycle(58)
        .partition_bands_until(2, 66)
        .at_cycle(59)
        .region_latency(1, LatencyModel::Uniform { min: 1, max: 2 })
        .at_cycle(60)
        .drop_rate(0.05)
        .at_cycle(62)
        .adaptive_liars(0.05, AttackerSpec::Colluder { target: 0.9 })
}

#[test]
fn reports_are_byte_identical_across_reruns() {
    let a = eventful(42).run().unwrap().to_json();
    let b = eventful(42).run().unwrap().to_json();
    assert_eq!(a, b, "same program, same seed, same bytes");
    // And a different seed genuinely changes the run (the test would be
    // vacuous if the report ignored the simulation).
    let c = eventful(43).run().unwrap().to_json();
    assert_ne!(a, c, "a different seed must change the trajectory");
}

#[test]
fn ordering_protocol_reports_are_deterministic_too() {
    let probe = || {
        eventful(11)
            .with_protocol(ProtocolKind::ModJk)
            .view_size(12)
    };
    let a = probe().run().unwrap().to_json();
    let b = probe().run().unwrap().to_json();
    assert_eq!(a, b);
}

/// `scenario` with [`SimConfig::shards`](dslice_sim::SimConfig::shards) set
/// off its default. The engine is single-threaded and ignores the field, so
/// a run must not see it; one non-default value shows that.
fn with_inert_shards(scenario: Scenario) -> Scenario {
    let mut cfg = scenario.config().clone();
    cfg.shards = 4;
    scenario.with_config(cfg)
}

// The pins below were captured on the commit before the engine became
// single-threaded, where each of these bytes was also checked identical at
// 2, 4 and 8 worker threads.

#[test]
fn reports_are_byte_identical_at_every_shard_count() {
    let report = eventful(7).run().unwrap().to_json();
    let hash = fnv1a64(report.bytes());
    assert_eq!(
        hash, 0xc7bc_6458_ae15_f9bb,
        "report bytes changed (got {hash:#018x})"
    );
    let sharded = with_inert_shards(eventful(7)).run().unwrap().to_json();
    assert_eq!(report, sharded, "the shard count leaked into the report");
}

#[test]
fn defended_protocol_variants_are_shard_invariant() {
    // The hardened variants carry extra per-node state (decay totals,
    // raw-value windows, strike books).
    let variants = [
        (ProtocolKind::decay(0.998), 0xe7e9_5177_b4a5_bf37),
        (
            ProtocolKind::SlidingRanking { window: 512 },
            0x2800_cace_5222_157d,
        ),
        (
            ProtocolKind::RobustRanking { window: 64 },
            0xd465_b152_5463_0be5,
        ),
        (
            ProtocolKind::ModJkLive {
                strike_limit: 2,
                cooldown: 64,
            },
            0x6e38_1948_61b8_2876,
        ),
    ];
    for (kind, pinned) in variants {
        let view = match kind {
            ProtocolKind::ModJkLive { .. } => 12,
            _ => 8,
        };
        let probe = || eventful(19).with_protocol(kind).view_size(view);
        let report = probe().run().unwrap().to_json();
        let hash = fnv1a64(report.bytes());
        assert_eq!(
            hash, pinned,
            "{kind:?}: report bytes changed (got {hash:#018x})"
        );
        let sharded = with_inert_shards(probe()).run().unwrap().to_json();
        assert_eq!(
            report, sharded,
            "{kind:?}: the shard count leaked into the report"
        );
    }
}

#[test]
fn tracing_is_invisible_in_the_report_bytes() {
    // The flight recorder must be pure observation: a traced run's report —
    // the same bytes the goldens pin — is identical to the untraced run's,
    // at the default sampling and at a sparse stride.
    let plain = eventful(42).run().unwrap().to_json();
    let (traced, recorder) = eventful(42).run_traced(TraceConfig::on()).unwrap();
    assert_eq!(plain, traced.to_json(), "tracing perturbed the report");
    assert!(!recorder.is_empty(), "the recorder must actually record");
    let (sampled, sparse) = eventful(42)
        .run_traced(TraceConfig::on().with_sample_every(8))
        .unwrap();
    assert_eq!(
        plain,
        sampled.to_json(),
        "sampled tracing perturbed the report"
    );
    assert!(
        sparse.recorded() < recorder.recorded(),
        "sampling must thin the event stream"
    );
}

#[test]
fn metrics_registries_are_deterministic_across_shard_counts() {
    // The exported registry — histograms included — derives from simulated
    // state only.
    let registry = eventful(7)
        .run()
        .unwrap()
        .metrics_registry()
        .to_prometheus();
    assert!(dslice_obs::validate_prometheus(&registry).unwrap() > 20);
    let hash = fnv1a64(registry.bytes());
    assert_eq!(
        hash, 0x9b50_d3c2_6f27_ae80,
        "registry bytes changed (got {hash:#018x})"
    );
    let sharded = with_inert_shards(eventful(7))
        .run()
        .unwrap()
        .metrics_registry()
        .to_prometheus();
    assert_eq!(registry, sharded, "the shard count leaked into metrics");
}

/// Full-size, so `#[ignore]`d out of tier-1: a *traced* library run must
/// reproduce its committed golden byte-for-byte.
#[test]
#[ignore = "full library scenario against the committed golden; run in release"]
fn traced_library_run_matches_the_committed_golden_bytes() {
    use dslice_scenario::library;
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/scenarios/goldens");
    for scenario in library::all() {
        let name = scenario.name().to_string();
        let golden = std::fs::read_to_string(format!("{golden_dir}/{name}.json"))
            .unwrap_or_else(|e| panic!("golden for `{name}`: {e}"));
        let (report, _) = scenario.run_traced(TraceConfig::on()).unwrap();
        assert_eq!(
            report.to_json(),
            golden,
            "`{name}`: tracing broke the golden"
        );
    }
}

#[test]
fn reports_roundtrip_losslessly_through_the_golden_format() {
    let report = eventful(42).run().unwrap();
    let parsed = ScenarioReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(
        parsed.to_json(),
        report.to_json(),
        "re-serialization is stable"
    );

    // Every committed golden parses and re-serializes to its exact bytes.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/scenarios/goldens");
    let mut goldens = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let golden = std::fs::read_to_string(&path).unwrap();
            let parsed = ScenarioReport::from_json(&golden)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(parsed.to_json(), golden, "{} drifted", path.display());
            goldens += 1;
        }
    }
    assert!(goldens > 0, "no goldens under {dir}");
}

#[test]
fn compiled_schedules_are_byte_identical_across_reruns() {
    let a = serde_json::to_string_pretty(&eventful(0).compile().unwrap()).unwrap();
    let b = serde_json::to_string_pretty(&eventful(0).compile().unwrap()).unwrap();
    assert_eq!(a, b);
}
