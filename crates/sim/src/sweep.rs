//! Multi-seed aggregation.
//!
//! A single seeded run is reproducible but still one draw from the
//! protocol's randomness; the paper's curves are likewise single
//! trajectories. [`run_seeds`] repeats a configuration across seeds and
//! aggregates the per-cycle statistics into mean ± standard deviation, so
//! experiment tables can carry confidence bands.

use crate::churn::ChurnModel;
use crate::config::{ProtocolKind, SimConfig};
use crate::engine::Engine;
use crate::stats::RunRecord;
use dslice_core::Result;
use serde::{Deserialize, Serialize};

/// Per-cycle aggregate over several seeds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateCycle {
    /// 1-based cycle number.
    pub cycle: usize,
    /// Mean SDM across seeds.
    pub sdm_mean: f64,
    /// Standard deviation of the SDM across seeds.
    pub sdm_std: f64,
    /// Mean GDM across seeds.
    pub gdm_mean: f64,
    /// Mean unsuccessful-swap percentage across seeds.
    pub unsuccessful_pct_mean: f64,
}

/// The aggregate of one configuration over several seeds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateRecord {
    /// Label of the aggregated runs (protocol label by default).
    pub label: String,
    /// The seeds that contributed.
    pub seeds: Vec<u64>,
    /// Per-cycle aggregates, in cycle order.
    pub cycles: Vec<AggregateCycle>,
}

impl AggregateRecord {
    /// Aggregates per-cycle statistics of several runs (which must share a
    /// cycle count).
    ///
    /// # Panics
    /// Panics if `records` is empty or the cycle counts differ.
    pub fn from_records(records: &[RunRecord]) -> Self {
        assert!(!records.is_empty(), "need at least one record");
        let cycles = records[0].cycles.len();
        assert!(
            records.iter().all(|r| r.cycles.len() == cycles),
            "all runs must cover the same number of cycles"
        );
        let k = records.len() as f64;
        let mut out = Vec::with_capacity(cycles);
        for i in 0..cycles {
            let sdms: Vec<f64> = records.iter().map(|r| r.cycles[i].sdm).collect();
            let sdm_mean = sdms.iter().sum::<f64>() / k;
            let sdm_var = sdms.iter().map(|s| (s - sdm_mean).powi(2)).sum::<f64>() / k;
            let gdm_mean = records.iter().map(|r| r.cycles[i].gdm).sum::<f64>() / k;
            let pct_mean = records
                .iter()
                .map(|r| r.cycles[i].unsuccessful_swap_pct())
                .sum::<f64>()
                / k;
            out.push(AggregateCycle {
                cycle: records[0].cycles[i].cycle,
                sdm_mean,
                sdm_std: sdm_var.sqrt(),
                gdm_mean,
                unsuccessful_pct_mean: pct_mean,
            });
        }
        AggregateRecord {
            label: records[0].label.clone(),
            seeds: records.iter().map(|r| r.seed).collect(),
            cycles: out,
        }
    }

    /// The final mean SDM.
    pub fn final_sdm_mean(&self) -> Option<f64> {
        self.cycles.last().map(|c| c.sdm_mean)
    }
}

/// Runs `base` under each seed (overriding `base.seed`) and aggregates.
///
/// `churn` builds a fresh churn model per run (models are stateful).
pub fn run_seeds<F>(
    base: &SimConfig,
    kind: ProtocolKind,
    cycles: usize,
    seeds: &[u64],
    mut churn: F,
) -> Result<AggregateRecord>
where
    F: FnMut() -> Option<Box<dyn ChurnModel>>,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut records = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let cfg = SimConfig {
            seed,
            ..base.clone()
        };
        let mut engine = Engine::new(cfg, kind)?;
        if let Some(model) = churn() {
            engine = engine.with_churn(model);
        }
        records.push(engine.run(cycles));
    }
    Ok(AggregateRecord::from_records(&records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::Partition;

    fn base(n: usize) -> SimConfig {
        SimConfig {
            n,
            view_size: 6,
            partition: Partition::equal(4).unwrap(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn aggregate_of_identical_runs_has_zero_std() {
        let cfg = base(80);
        let mut e1 = Engine::new(cfg.clone(), ProtocolKind::ModJk).unwrap();
        let mut e2 = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
        let r1 = e1.run(5);
        let r2 = e2.run(5);
        let agg = AggregateRecord::from_records(&[r1, r2]);
        for c in &agg.cycles {
            assert_eq!(c.sdm_std, 0.0, "same seed, zero spread");
        }
    }

    #[test]
    fn run_seeds_aggregates_distinct_seeds() {
        let agg = run_seeds(&base(100), ProtocolKind::Ranking, 10, &[1, 2, 3], || None).unwrap();
        assert_eq!(agg.seeds, vec![1, 2, 3]);
        assert_eq!(agg.cycles.len(), 10);
        // Different seeds: almost surely nonzero spread early on.
        assert!(agg.cycles[0].sdm_std > 0.0);
        // And the mean still converges.
        assert!(agg.final_sdm_mean().unwrap() < agg.cycles[0].sdm_mean);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_aggregate_panics() {
        AggregateRecord::from_records(&[]);
    }

    #[test]
    #[should_panic(expected = "same number of cycles")]
    fn mismatched_lengths_panic() {
        let mut e1 = Engine::new(base(50), ProtocolKind::Jk).unwrap();
        let mut e2 = Engine::new(base(50), ProtocolKind::Jk).unwrap();
        let r1 = e1.run(3);
        let r2 = e2.run(4);
        AggregateRecord::from_records(&[r1, r2]);
    }
}
