//! Simulation configuration and protocol selection.

use crate::concurrency::Concurrency;
use crate::distributions::AttributeDistribution;
use crate::latency::LatencyModel;
pub use dslice_algorithms::ProtocolKind;
use dslice_core::{Error, Partition, Result};
pub use dslice_gossip::SamplerKind;
use serde::{Deserialize, Serialize};

/// Static configuration of a simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Initial population size `n`.
    pub n: usize,
    /// View size `c` (the paper uses 20 for the ordering experiments and 10
    /// for the ranking ones).
    pub view_size: usize,
    /// The slice partition, global knowledge per §3.2.
    pub partition: Partition,
    /// Peer-sampling substrate.
    pub sampler: SamplerKind,
    /// Message concurrency model (§4.5.2).
    pub concurrency: Concurrency,
    /// Cross-cycle message latency (Zero = the paper's cycle model).
    pub latency: LatencyModel,
    /// Attribute-value distribution of the initial population (and of
    /// uncorrelated joiners).
    pub distribution: AttributeDistribution,
    /// Probability that any protocol message is lost in transit (view
    /// exchanges are not affected — the membership layer is the paper's
    /// given substrate). Gossip tolerates loss by design; this knob lets
    /// tests quantify how much.
    pub loss_rate: f64,
    /// RNG seed: `(config, seed)` fully determines the run.
    pub seed: u64,
    /// Ignored: the engine runs on one thread. Still validated (≥ 1) and
    /// serialized so existing configurations keep loading; to be deleted
    /// once no caller sets it.
    pub shards: usize,
    /// Metrics cadence (≥ 1): full metrics (SDM, GDM, slice-change
    /// tracking) are computed every `metrics_every`-th cycle; skipped
    /// cycles repeat the last computed disorder values and report zero
    /// slice changes. `1` (the default) measures every cycle, the paper's
    /// setup; large-population runs amortize the O(n log n) evaluation
    /// oracle with higher cadences.
    pub metrics_every: usize,
    /// Opt-in per-phase wall-clock breakdown: when set, every
    /// [`CycleStats`](crate::CycleStats) carries a
    /// [`PhaseTimings`](crate::PhaseTimings) measuring each engine phase.
    /// Off by default — timings are host noise, and the golden determinism
    /// suite compares records byte-for-byte.
    pub time_phases: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 1000,
            view_size: 20,
            partition: Partition::equal(10).expect("10 > 0"),
            sampler: SamplerKind::Cyclon,
            concurrency: Concurrency::None,
            latency: LatencyModel::Zero,
            distribution: AttributeDistribution::default(),
            loss_rate: 0.0,
            seed: 0xD51CE,
            shards: 1,
            metrics_every: 1,
            time_phases: false,
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(Error::InvalidConfig("population must be non-empty".into()));
        }
        // The population's ids are `0..n`, and an id lies below `u32::MAX`.
        if self.n > u32::MAX as usize {
            return Err(Error::IdOutOfRange(self.n as u64 - 1));
        }
        if self.view_size == 0 {
            return Err(Error::ZeroViewCapacity);
        }
        self.distribution.validate()?;
        self.latency.validate()?;
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(Error::InvalidConfig(format!(
                "loss rate must lie in [0, 1], got {}",
                self.loss_rate
            )));
        }
        if self.shards == 0 {
            return Err(Error::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if self.metrics_every == 0 {
            return Err(Error::InvalidConfig(
                "metrics cadence must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn population_beyond_the_id_range_is_rejected() {
        // Validation alone: neither population is ever built.
        let max = u32::MAX as usize;
        let cfg = |n| SimConfig {
            n,
            ..SimConfig::default()
        };
        let last = u64::from(u32::MAX);
        assert_eq!(cfg(max + 1).validate(), Err(Error::IdOutOfRange(last)));
        assert_eq!(cfg(max).validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = SimConfig {
            n: 0,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "invalid configuration: population must be non-empty"
        );
        let cfg = SimConfig {
            view_size: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            distribution: AttributeDistribution::Uniform { lo: 2.0, hi: 1.0 },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            loss_rate: 1.5,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            latency: LatencyModel::Uniform { min: 3, max: 1 },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            shards: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            metrics_every: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = SimConfig {
            n: 123,
            view_size: 7,
            partition: Partition::from_fractions(&[0.25, 0.75]).unwrap(),
            concurrency: Concurrency::Half,
            distribution: AttributeDistribution::Pareto {
                scale: 2.0,
                shape: 1.25,
            },
            loss_rate: 0.05,
            seed: 99,
            shards: 4,
            metrics_every: 10,
            time_phases: true,
            ..SimConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let parsed: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.n, cfg.n);
        assert_eq!(parsed.partition, cfg.partition);
        assert_eq!(parsed.concurrency, cfg.concurrency);
        assert_eq!(parsed.distribution, cfg.distribution);
        assert_eq!(parsed.loss_rate, cfg.loss_rate);
        assert_eq!(parsed.shards, cfg.shards);
        assert_eq!(parsed.metrics_every, cfg.metrics_every);
        assert!(parsed.time_phases);
    }
}
