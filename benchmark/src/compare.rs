//! `compare A.json B.json`: one row per (metric, workload) with base, new,
//! ratio, the bound and a verdict.
//!
//! Each file is one run's artifact or the combined file `run --all` writes
//! (any number of runs per workload). A side's value is the median of its
//! runs. With four or more runs on a side its spread — the distance between
//! the first and third quartile as a share of the median — is known, and a
//! difference inside a spread wider than the bound is `unresolved`, not
//! `within`.

use crate::report::{get, parse_artifact, Outcome};
use crate::spec::{self, Better};
use crate::stats::{median, percentile};
use serde_json::Value;
use std::collections::BTreeMap;

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound.
    Within,
    /// Got worse by more than the bound.
    Worse,
    /// Cannot be told: no bound, a zero base, a smoke run, or a
    /// run-to-run spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: &'static str,
    /// Median of the base side's runs.
    pub base: f64,
    /// Median of the new side's runs.
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// The metric's regression bound, if it has one.
    pub bound: Option<f64>,
    /// The conclusion.
    pub verdict: Verdict,
}

/// One side of the comparison: its runs grouped by (workload, traced).
type Side = BTreeMap<(String, bool), Vec<Outcome>>;

/// Parses one artifact or a combined `{"runs": [...]}` file.
pub fn parse_side(text: &str) -> Result<Side, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs: Vec<&Value> = match get(&doc, "runs") {
        Some(runs) => runs
            .as_seq()
            .ok_or("`runs` is not a list")?
            .iter()
            .collect(),
        None => vec![&doc],
    };
    let mut side = Side::new();
    for run in runs {
        let outcome = parse_artifact(run)?;
        side.entry((outcome.workload.clone(), outcome.traced))
            .or_default()
            .push(outcome);
    }
    Ok(side)
}

/// Interquartile range as a share of the median; `None` under four values.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = percentile(&sorted, 50.0);
    Some((percentile(&sorted, 75.0) - percentile(&sorted, 25.0)) / mid.abs())
}

fn judge(base: &[f64], new: &[f64], spec: &spec::MetricSpec, trusted: bool) -> Verdict {
    let (b, n) = (median(base), median(new));
    let Some(bound) = spec.bound else {
        return if b == n {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    };
    if !trusted || b == 0.0 {
        return Verdict::Unresolved;
    }
    let worsening = match spec.better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    // A spread wider than the bound hides a difference of the bound's size,
    // unless every run of one side beats every run of the other.
    let wide = [base, new]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let disjoint = {
        let range = |v: &[f64]| {
            v.iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
        };
        let ((b_lo, b_hi), (n_lo, n_hi)) = (range(base), range(new));
        n_lo > b_hi || n_hi < b_lo
    };
    if wide && !disjoint {
        Verdict::Unresolved
    } else {
        verdict
    }
}

/// The comparison: rows in workload, then metric-table, order, and whether
/// the new side failed a larger share of its operations on any workload.
pub fn compare(base: &Side, new: &Side) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    let mut more_failures = false;
    for (key, base_runs) in base {
        let Some(new_runs) = new.get(key) else {
            continue;
        };
        let failed_share = |runs: &[Outcome]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<u64>() as f64 / attempted.max(1) as f64
        };
        more_failures |= failed_share(new_runs) > failed_share(base_runs);
        let trusted = base_runs.iter().chain(new_runs).all(|r| !r.smoke);
        for spec in base_runs[0].expected() {
            let values = |runs: &[Outcome]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(spec.name).copied())
                    .collect()
            };
            let (b, n) = (values(base_runs), values(new_runs));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: key.0.clone(),
                metric: spec.name,
                base: median(&b),
                new: median(&n),
                ratio: median(&n) / median(&b),
                bound: spec.bound,
                verdict: judge(&b, &n, spec, trusted),
            });
        }
    }
    (rows, more_failures)
}

/// The table `compare` prints.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<32} {:>16} {:>16} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<32} {:>16.6} {:>16.6} {:>8.4} {:>6}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.bound.map_or("-".to_string(), |b| format!("{b}")),
            r.verdict.as_str()
        ));
    }
    out
}
