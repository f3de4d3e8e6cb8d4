//! The run counters reach four outputs: the `RunRecord` JSON and CSV, the
//! `dslice_sim_*` registry and the `dslice_scenario_*` registry. These tests
//! hold all four to constants captured on the commit before one counter
//! table replaced the hand-written folds, and fuzz the hand-written report
//! deserializers with mutated copies of the committed goldens.

use dslice_core::digest::fnv1a64;
use dslice_core::Partition;
use dslice_obs::{parse_prometheus, Registry};
use dslice_scenario::ScenarioReport;
use dslice_sim::churn::ChurnSchedule;
use dslice_sim::{
    AttributeDistribution, Concurrency, Engine, PhaseTimings, ProtocolKind, RunRecord, SimConfig,
    UncorrelatedChurn,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/scenarios/goldens");

/// A registry's content with its presentation stripped: every sample as
/// `(name, labels, value)` plus every `# TYPE` line, sorted. HELP text and
/// line order are free to change; names, types, labels and values are not.
fn registry_pin(reg: &Registry) -> u64 {
    let text = reg.to_prometheus();
    let mut lines: Vec<String> = parse_prometheus(&text)
        .unwrap()
        .into_iter()
        .map(|s| format!("{}{:?} {:?}", s.name, s.labels, s.value))
        .collect();
    lines.extend(
        text.lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(String::from),
    );
    lines.sort();
    fnv1a64(lines.join("\n").bytes())
}

/// Distinct per-phase timings, so the phase export is pinned too.
fn fixed_timings() -> PhaseTimings {
    PhaseTimings {
        churn_ns: 1,
        drain_ns: 2,
        membership_ns: 3,
        refresh_ns: 4,
        active_ns: 5,
        delivery_ns: 6,
        metrics_ns: 7,
    }
}

/// mod-JK at n = 2000 under 0.1 % churn and half concurrency, with 10 % of
/// the nodes turned into liars after cycle 10: every counter but the two
/// defence counters moves.
fn churned_mod_jk_record() -> RunRecord {
    let cfg = SimConfig {
        n: 2000,
        view_size: 10,
        partition: Partition::equal(10).unwrap(),
        concurrency: Concurrency::Half,
        seed: 2029,
        ..SimConfig::default()
    };
    let churn = UncorrelatedChurn::new(
        ChurnSchedule {
            rate: 0.001,
            period: 1,
            stop_after: None,
        },
        AttributeDistribution::default(),
    );
    let mut engine = Engine::new(cfg, ProtocolKind::ModJk)
        .unwrap()
        .with_churn(Box::new(churn));
    let mut record = engine.run(10);
    assert_eq!(engine.corrupt_nodes(0.1, 4.0), 200);
    record.cycles.extend(engine.run(20).cycles);
    record
}

#[test]
fn run_record_outputs_are_pinned() {
    let mut record = churned_mod_jk_record();
    let json = fnv1a64(record.to_json().bytes());
    let mut csv = Vec::new();
    record.write_csv(&mut csv).unwrap();
    let csv = fnv1a64(csv);
    record.phase_ns = Some(fixed_timings());
    let registry = registry_pin(&record.metrics_registry());
    assert_eq!(
        (json, csv, registry),
        (
            0xaceb_489a_66b6_f885,
            0x7389_bf2e_c31e_ba90,
            0xbf17_3315_a836_b2bf
        ),
        "got ({json:#018x}, {csv:#018x}, {registry:#018x})"
    );
}

#[test]
fn scenario_registry_is_pinned() {
    let golden = std::fs::read_to_string(format!("{GOLDENS}/lying-nodes-robust.json")).unwrap();
    let mut report = ScenarioReport::from_json(&golden).unwrap();
    assert!(
        report.totals.samples_rejected > 0,
        "the defence counters move"
    );
    report.phase_ns = Some(fixed_timings());
    let registry = registry_pin(&report.metrics_registry());
    assert_eq!(registry, 0x0c3c_7a5e_afeb_5596, "got {registry:#018x}");
}

/// Calls `f` on every node of `v`, depth first, until it returns true.
fn visit(v: &mut Value, f: &mut dyn FnMut(&mut Value) -> bool) -> bool {
    if f(v) {
        return true;
    }
    match v {
        Value::Seq(items) => items.iter_mut().any(|x| visit(x, f)),
        Value::Map(entries) => entries.iter_mut().any(|(_, x)| visit(x, f)),
        _ => false,
    }
}

/// Applies `edit` to the `pick`-th node (mod the node count) that `edit`
/// accepts, returning the edited document.
fn edit_nth(doc: &Value, pick: usize, edit: impl Fn(&mut Value, bool) -> bool) -> String {
    let mut v = doc.clone();
    let mut count = 0;
    visit(&mut v, &mut |x| {
        count += usize::from(edit(x, false));
        false
    });
    let mut target = pick % count.max(1);
    visit(&mut v, &mut |x| {
        if !edit(x, false) {
            return false;
        }
        if target == 0 {
            return edit(x, true);
        }
        target -= 1;
        false
    });
    serde_json::to_string(&v).unwrap()
}

/// One seeded mutation of `text` (whose parse is `doc`): a byte flip, a
/// truncation, a deleted map key, or a number turned into a string or back.
fn mutate(rng: &mut StdRng, text: &str, doc: &Value) -> Vec<u8> {
    let pick = rng.gen_range(0..usize::MAX);
    match rng.gen_range(0..4) {
        0 => {
            const BYTES: &[u8] = b"\"{}[],:-.eE+0159 nul\\\xff\x00";
            let mut bytes = text.as_bytes().to_vec();
            let at = pick % bytes.len();
            bytes[at] = BYTES[rng.gen_range(0..BYTES.len())];
            bytes
        }
        1 => text.as_bytes()[..pick % text.len()].to_vec(),
        2 => {
            let key = rng.gen_range(0..usize::MAX);
            edit_nth(doc, pick, |v, apply| match v {
                Value::Map(entries) if !entries.is_empty() => {
                    if apply {
                        entries.remove(key % entries.len());
                    }
                    true
                }
                _ => false,
            })
            .into_bytes()
        }
        _ => edit_nth(doc, pick, |v, apply| {
            let swapped = match v {
                Value::Int(i) => Value::Str(i.to_string()),
                Value::UInt(u) => Value::Str(u.to_string()),
                Value::Float(f) => Value::Str(f.to_string()),
                Value::Str(s) => s
                    .parse::<i64>()
                    .map_or(Value::Int(s.len() as i64), Value::Int),
                _ => return false,
            };
            if apply {
                *v = swapped;
            }
            true
        })
        .into_bytes(),
    }
}

/// Feeds `rounds` mutants of every document in `corpus` to `T`'s
/// deserializer. Nothing may panic, and whatever is accepted must write
/// back to JSON that parses to an equal value. Returns how many mutants
/// were accepted and rejected.
fn fuzz<T>(rng: &mut StdRng, corpus: &[String], rounds: usize) -> (usize, usize)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let (mut accepted, mut rejected) = (0, 0);
    for text in corpus {
        let doc: Value = serde_json::from_str(text).unwrap();
        for _ in 0..rounds {
            let mutant = mutate(rng, text, &doc);
            let Ok(value) = serde_json::from_slice::<T>(&mutant) else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            let written = serde_json::to_string(&value).unwrap_or_else(|e| {
                panic!(
                    "accepted but unwritable ({e}): {}",
                    String::from_utf8_lossy(&mutant)
                )
            });
            let back: T = serde_json::from_str(&written).unwrap();
            assert_eq!(back, value, "{written}");
        }
    }
    (accepted, rejected)
}

#[test]
fn mutated_goldens_never_panic_and_accepted_ones_roundtrip() {
    let mut goldens = Vec::new();
    for entry in std::fs::read_dir(GOLDENS).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            goldens.push(std::fs::read_to_string(&path).unwrap());
        }
    }
    goldens.sort();
    assert_eq!(goldens.len(), 26);
    // The nested hand-written impls get corpora of their own too.
    let block = |key: &str| -> Vec<String> {
        goldens
            .iter()
            .map(|g| {
                let doc: Value = serde_json::from_str(g).unwrap();
                let block = serde::__field(doc.as_map().unwrap(), key);
                let block = match block {
                    Value::Seq(points) => points.last().unwrap(),
                    other => other,
                };
                serde_json::to_string_pretty(block).unwrap()
            })
            .collect()
    };
    let mut record = churned_mod_jk_record();
    record.cycles.truncate(12);
    record.phase_ns = Some(fixed_timings());
    let records = [record.to_json()];

    let mut rng = StdRng::seed_from_u64(0x00D5_11CE);
    for (name, (accepted, rejected)) in [
        (
            "ScenarioReport",
            fuzz::<ScenarioReport>(&mut rng, &goldens, 60),
        ),
        (
            "Totals",
            fuzz::<dslice_scenario::Totals>(&mut rng, &block("totals"), 60),
        ),
        (
            "TrajectoryPoint",
            fuzz::<dslice_scenario::TrajectoryPoint>(&mut rng, &block("trajectory"), 60),
        ),
        ("RunRecord", fuzz::<RunRecord>(&mut rng, &records, 600)),
    ] {
        assert!(
            accepted > 0 && rejected > 0,
            "{name}: {accepted} accepted, {rejected} rejected"
        );
    }
}
