//! Self-tests of the benchmark harness, at `--smoke` sizes (seconds in
//! total). They check the harness's arithmetic and output shape, never a
//! timing.

use dslice_benchmark::compare::{self, Verdict};
use dslice_benchmark::report::{get, parse_artifact, Outcome};
use dslice_benchmark::span::Spans;
use dslice_benchmark::stats::{percentile, Fnv1a, Summary};
use dslice_benchmark::{host, repo_root, run_workload, spec, RunArgs};
use serde_json::Value;
use std::collections::BTreeSet;

fn smoke(workload: &str, traced: bool) -> (Outcome, Option<Spans>) {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1,
        traced,
        smoke: true,
    };
    run_workload(&args, &repo_root()).expect("smoke run succeeds")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    get(v, name).unwrap_or_else(|| panic!("no field `{name}`"))
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json is JSON")
}

fn names(list: &Value) -> BTreeSet<String> {
    list.as_seq()
        .expect("a list")
        .iter()
        .map(|m| field(m, "name").as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn percentiles_interpolate_and_report_the_sample_count() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = Summary::of(&samples);
    assert_eq!(s.n, 100);
    assert!((s.p50 - 50.5).abs() < 1e-9);
    assert!((s.p75 - 75.25).abs() < 1e-9);
    assert!((s.p99 - 99.01).abs() < 1e-9);
    assert_eq!(s.max, 100.0);
    assert!((s.mean - 50.5).abs() < 1e-9);
    assert_eq!(percentile(&[3.0], 90.0), 3.0);
    assert!(Summary::of(&[]).p50.is_nan());
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    let hash = |bytes: &[u8]| {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    };
    assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn span_self_time_is_duration_minus_child_cover() {
    let mut spans = Spans::new("test");
    let parent = spans.record("parent", None, 100, 200);
    // Two overlapping children cover 110..150 once; a third starts inside
    // the parent and is clipped at its end.
    spans.record("a", Some(parent), 110, 140);
    spans.record("b", Some(parent), 130, 150);
    let clipped = spans.record("c", Some(parent), 190, 260);
    assert_eq!(spans.spans()[clipped].end_ns, 200);
    assert_eq!(spans.self_ns(parent), 100 - 40 - 10);
    assert_eq!(spans.mean_self_ns("parent"), 50.0);
    // Consecutive children longer than the parent never exceed it.
    let step = spans.record("step", None, 1_000, 1_100);
    spans.record_consecutive(step, &[("x", 60), ("y", 60)]);
    let inside: u64 = spans
        .spans()
        .iter()
        .filter(|s| s.parent == Some(step))
        .map(|s| s.dur_ns())
        .sum();
    assert_eq!(inside, 100);
    assert_eq!(spans.self_ns(step), 0);
    assert_eq!(spans.mean_ns("missing"), 0.0);
}

#[test]
fn sim_phases_add_up_to_the_step_span() {
    let (_, spans) = smoke("sim-modjk-churn-10k", true);
    let spans = spans.expect("a traced run keeps its spans");
    let steps: Vec<usize> = (0..spans.spans().len())
        .filter(|&i| spans.spans()[i].name == "sim.step")
        .collect();
    assert_eq!(steps.len(), 5, "the smoke run times its 5 budget cycles");
    let (mut step_ns, mut phase_ns) = (0u64, 0u64);
    for &step in &steps {
        let children: Vec<_> = spans
            .spans()
            .iter()
            .filter(|s| s.parent == Some(step))
            .collect();
        assert_eq!(children.len(), 7, "seven engine phases per cycle");
        let parent = &spans.spans()[step];
        for child in &children {
            assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
        }
        step_ns += parent.dur_ns();
        phase_ns += children.iter().map(|c| c.dur_ns()).sum::<u64>();
    }
    assert!(phase_ns <= step_ns);
    assert!(
        phase_ns as f64 >= 0.95 * step_ns as f64,
        "phases {phase_ns} ns of steps {step_ns} ns"
    );
}

#[test]
fn simulated_statistics_repeat_for_a_seed() {
    let info = |out: &Outcome, key: &str| {
        out.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("no info `{key}`"))
    };
    let (first, _) = smoke("sim-ranking-100k", false);
    let (second, _) = smoke("sim-ranking-100k", false);
    assert_eq!(
        info(&first, "record_fingerprint"),
        info(&second, "record_fingerprint")
    );
    assert_eq!(
        first.metrics["slice_accuracy"],
        second.metrics["slice_accuracy"]
    );
    // The traced run simulates the same thing as the untraced one.
    let (traced, _) = smoke("sim-ranking-100k", true);
    assert_eq!(
        info(&first, "record_fingerprint"),
        info(&traced, "record_fingerprint")
    );
}

#[test]
fn spec_tables_and_benchmark_json_agree() {
    let doc = benchmark_json();
    let workloads: Vec<(String, String)> = field(&doc, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| {
            (
                field(w, "name").as_str().expect("name").to_string(),
                field(w, "why").as_str().expect("why").to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert!(
        workloads.iter().all(|(n, _)| !n.contains("smoke")),
        "smoke is not a workload"
    );

    for (key, table) in [
        ("end_to_end", &spec::END_TO_END[..]),
        ("per_layer", &spec::PER_LAYER[..]),
    ] {
        let listed = field(&doc, key).as_seq().expect("a list");
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
            let bound = get(entry, "bound").map(|v| match v {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                other => panic!("bound {other:?}"),
            });
            assert_eq!(bound, m.bound, "{}", m.name);
        }
    }
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == spec::Better::Lower));
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let doc = benchmark_json();
    let end_to_end = names(field(&doc, "end_to_end"));
    let per_layer = names(field(&doc, "per_layer"));
    for (workload, _) in spec::WORKLOADS {
        for traced in [false, true] {
            let (out, spans) = smoke(workload, traced);
            assert!(out.correct, "{workload} traced={traced}: {out:?}");
            assert!(out.attempted >= 1 && out.failed == 0);
            assert_eq!(spans.is_some(), traced);

            // The driver's line: exactly four keys, exactly the listed names.
            let line: Value = serde_json::from_str(&out.driver_line()).expect("one JSON object");
            let keys: Vec<&str> = line
                .as_map()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: BTreeSet<String> = field(&line, "metrics")
                .as_map()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(&printed, if traced { &per_layer } else { &end_to_end });
            if !traced {
                for (name, value) in &out.metrics {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                }
            }

            // Smoke numbers are labelled as not comparable everywhere.
            assert!(out.table().contains("NOT COMPARABLE"));
            let artifact = out.artifact(&host::host_block());
            assert_eq!(*field(&artifact, "comparable"), Value::Bool(false));

            // The artifact survives a trip through its JSON text.
            let text = serde_json::to_string_pretty(&artifact).expect("finite values");
            let parsed: Value = serde_json::from_str(&text).expect("parses back");
            assert_eq!(parse_artifact(&parsed).expect("a full artifact"), out);

            if let Some(spans) = spans {
                let chrome: Value = serde_json::from_str(&spans.to_chrome(1_000)).expect("JSON");
                let events = field(&chrome, "traceEvents").as_seq().expect("a list");
                assert!(!events.is_empty() && events.len() <= 1_000);
                assert_eq!(field(&events[0], "ph").as_str(), Some("X"));
            }
        }
    }
}

#[test]
fn a_busy_host_is_marked_noisy() {
    assert!(host::is_noisy(Some(1.2), 2));
    assert!(!host::is_noisy(Some(1.0), 2));
    assert!(!host::is_noisy(Some(0.1), 1));
    assert!(!host::is_noisy(None, 2));
}

/// An untraced, comparable artifact with every end-to-end metric at
/// `value`, except those in `overrides`.
fn artifact(workload: &str, value: f64, overrides: &[(&'static str, f64)], failed: u64) -> Value {
    let mut out = Outcome {
        workload: workload.to_string(),
        seed: 1,
        seconds: 1,
        traced: false,
        smoke: false,
        noisy: false,
        correct: failed == 0,
        attempted: 100,
        failed,
        metrics: spec::END_TO_END.iter().map(|m| (m.name, value)).collect(),
        info: Vec::new(),
    };
    for &(name, v) in overrides {
        out.set(name, v);
    }
    out.artifact(&host::host_block())
}

fn side(runs: Vec<Value>) -> String {
    serde_json::to_string(&serde_json::json!({ "runs": runs })).expect("finite values")
}

#[test]
fn compare_gives_one_row_per_metric_and_workload_with_a_verdict() {
    let base = side(vec![
        artifact("w1", 100.0, &[], 0),
        artifact("w2", 100.0, &[], 0),
    ]);
    // Past its bound a lower-is-better metric is worse and a
    // higher-is-better one better; half the bound is within.
    let bound = |name: &str| spec::find(name).and_then(|m| m.bound).expect("a bound");
    let past = |name: &str| 100.0 * (1.0 + bound(name) + 0.05);
    let new = side(vec![
        artifact(
            "w1",
            100.0,
            &[
                ("op_ms_p50", past("op_ms_p50")),
                ("work_per_s", past("work_per_s")),
                ("setup_s", 100.0 * (1.0 + bound("setup_s") / 2.0)),
            ],
            0,
        ),
        artifact("w2", 100.0, &[], 0),
    ]);
    let (rows, more_failures) = compare::compare(
        &compare::parse_side(&base).expect("base parses"),
        &compare::parse_side(&new).expect("new parses"),
    );
    assert!(!more_failures);
    assert_eq!(rows.len(), 2 * spec::END_TO_END.len());
    let verdict = |workload: &str, metric: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .expect("a row")
            .verdict
    };
    assert_eq!(verdict("w1", "op_ms_p50"), Verdict::Worse);
    assert_eq!(verdict("w1", "work_per_s"), Verdict::Better);
    assert_eq!(verdict("w1", "setup_s"), Verdict::Within);
    assert_eq!(verdict("w2", "op_ms_p50"), Verdict::Within);
    let row = rows
        .iter()
        .find(|r| r.workload == "w1" && r.metric == "op_ms_p50")
        .expect("a row");
    assert_eq!(
        (row.base, row.new, row.ratio, row.bound),
        (
            100.0,
            past("op_ms_p50"),
            past("op_ms_p50") / 100.0,
            Some(bound("op_ms_p50"))
        )
    );
    assert!(compare::table(&rows).contains("worse"));
}

#[test]
fn compare_reports_wide_spreads_as_unresolved_and_counts_failures() {
    // Four runs a side whose op_ms_p50 spread (IQR/median = 0.4) exceeds the
    // bound and whose ranges overlap: a 5 % median shift cannot be told.
    let runs = |shift: f64| {
        side(
            [60.0, 90.0, 110.0, 140.0]
                .iter()
                .map(|v| artifact("w1", 100.0, &[("op_ms_p50", v + shift)], 0))
                .collect(),
        )
    };
    let (rows, _) = compare::compare(
        &compare::parse_side(&runs(0.0)).expect("parses"),
        &compare::parse_side(&runs(5.0)).expect("parses"),
    );
    let row = rows
        .iter()
        .find(|r| r.metric == "op_ms_p50")
        .expect("a row");
    assert_eq!(row.verdict, Verdict::Unresolved);

    // A single artifact is accepted as a side; more failures are flagged.
    let base = serde_json::to_string(&artifact("w1", 100.0, &[], 0)).expect("finite");
    let new = serde_json::to_string(&artifact("w1", 100.0, &[], 3)).expect("finite");
    let (rows, more_failures) = compare::compare(
        &compare::parse_side(&base).expect("parses"),
        &compare::parse_side(&new).expect("parses"),
    );
    assert!(more_failures);
    assert!(rows.iter().all(|r| r.verdict == Verdict::Within));
}
