//! What one workload run produced, and its three renderings: the table a
//! person reads, the one-line JSON the driver reads, and the artifact file.

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// The result of running one workload once.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The workload's name.
    pub workload: String,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// The measuring time asked for, in seconds.
    pub seconds: u64,
    /// Whether this was the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Smoke sizes were used: the numbers are not comparable with anything.
    pub smoke: bool,
    /// The host was already busy when the run started.
    pub noisy: bool,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (cycles, scenarios, probes).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: sample counts, the record
    /// fingerprint, per-scenario seconds.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    /// The metric table this run must fill.
    pub fn expected(&self) -> &'static [MetricSpec] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Brings the metrics to exactly the expected table. A per-layer metric
    /// nobody set is 0: that layer did no work on this workload. An
    /// end-to-end metric nobody set, a value that is not a finite number
    /// and a name outside the table are harness bugs: the run is marked
    /// incorrect.
    pub fn settle(&mut self) {
        let expected = self.expected();
        let before = self.metrics.len();
        self.metrics
            .retain(|name, _| expected.iter().any(|m| m.name == *name));
        if self.metrics.len() != before {
            self.correct = false;
        }
        for m in expected {
            match self.metrics.get(m.name) {
                Some(v) if v.is_finite() => {}
                None if self.traced => {
                    self.metrics.insert(m.name, 0.0);
                }
                _ => {
                    self.metrics.insert(m.name, 0.0);
                    self.correct = false;
                }
            }
        }
        if self.failed > 0 {
            self.correct = false;
        }
    }

    fn metrics_value(&self) -> Value {
        Value::Map(
            self.expected()
                .iter()
                .filter_map(|m| {
                    let value = *self.metrics.get(m.name)?;
                    Some((
                        m.name.to_string(),
                        json!({ "value": value, "unit": m.unit }),
                    ))
                })
                .collect(),
        )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_line(&self) -> String {
        let line = json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_value()
        });
        serde_json::to_string(&line).expect("settled metrics are finite")
    }

    /// The artifact written under `benchmark/out/`.
    pub fn artifact(&self, host: &Value) -> Value {
        json!({
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "smoke": self.smoke,
            "comparable": !self.smoke,
            "noisy": self.noisy,
            "host": host.clone(),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_value(),
            "info": Value::Map(self.info.clone())
        })
    }

    /// The table a person reads: one metric per line, by name, with unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} s, {}){}{}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            if self.smoke {
                " SMOKE SIZES - NOT COMPARABLE"
            } else {
                ""
            },
            if self.noisy { " NOISY HOST" } else { "" },
        );
        for m in self.expected() {
            if let Some(v) = self.metrics.get(m.name) {
                out.push_str(&format!(
                    "{:<34} {:>18.6} {:<9} ({} is better)\n",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                ));
            }
        }
        for (key, value) in &self.info {
            if !matches!(value, Value::Seq(_) | Value::Map(_)) {
                let text = serde_json::to_string(value).unwrap_or_default();
                out.push_str(&format!("{key:<34} {text:>18}\n"));
            }
        }
        out.push_str(&format!(
            "{:<34} {:>18}\n{:<34} {:>18}\n{:<34} {:>18}\n",
            "attempted", self.attempted, "failed", self.failed, "correct", self.correct
        ));
        out
    }
}

/// The value under `key` of a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Reads an [`Outcome`]'s comparable part back from an artifact: used by
/// `compare` and by the round-trip self-test.
pub fn parse_artifact(v: &Value) -> Result<Outcome, String> {
    let field = |name: &str| get(v, name).ok_or_else(|| format!("artifact lacks `{name}`"));
    let number = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let uint = |name: &str| -> Result<u64, String> {
        number(field(name)?)
            .filter(|n| *n >= 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("`{name}` is not a whole number"))
    };
    let flag = |name: &str| -> Result<bool, String> {
        match field(name)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{name}` is not a boolean")),
        }
    };
    let traced = flag("traced")?;
    let mut metrics = BTreeMap::new();
    for (name, entry) in field("metrics")?
        .as_map()
        .ok_or("`metrics` is not an object")?
    {
        let spec = crate::spec::find(name).ok_or_else(|| format!("unknown metric `{name}`"))?;
        let value = get(entry, "value")
            .and_then(number)
            .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
        metrics.insert(spec.name, value);
    }
    Ok(Outcome {
        workload: field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string(),
        seed: uint("seed")?,
        seconds: uint("seconds")?,
        traced,
        smoke: flag("smoke")?,
        noisy: flag("noisy")?,
        correct: flag("correct")?,
        attempted: uint("attempted")?,
        failed: uint("failed")?,
        metrics,
        info: field("info")?
            .as_map()
            .map(<[_]>::to_vec)
            .unwrap_or_default(),
    })
}
