//! Attribute-value distributions.
//!
//! The paper's system model allows attribute values with "an arbitrary
//! skewed distribution" (§3.1) and motivates slicing precisely by the
//! heavy-tailed capacities measured in deployed P2P systems (§1.1, refs
//! [16, 3, 17]). The experiments therefore need several population shapes:
//!
//! * [`AttributeDistribution::Uniform`] — the neutral baseline.
//! * [`AttributeDistribution::Pareto`] — heavy-tailed capacities
//!   (bandwidth, storage), sampled by inverse transform.
//! * [`AttributeDistribution::Normal`] — bell-shaped populations such as the
//!   height example of Fig. 1, sampled by Box–Muller.
//! * [`AttributeDistribution::Exponential`] — session-time-like skews.
//!
//! Samplers are implemented from scratch on top of `rand`'s uniform source
//! so the workspace does not need `rand_distr`.

use dslice_core::{Attribute, Error, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over attribute values.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttributeDistribution {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive); must exceed `lo`.
        hi: f64,
    },
    /// Pareto with scale `x_m > 0` and shape `alpha > 0`: heavy-tailed.
    Pareto {
        /// Scale parameter `x_m` (the minimum value).
        scale: f64,
        /// Shape parameter `alpha`; smaller means heavier tail.
        shape: f64,
    },
    /// Normal with the given mean and standard deviation (Box–Muller).
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation; must be positive.
        std_dev: f64,
    },
    /// Exponential with rate `lambda > 0`.
    Exponential {
        /// Rate parameter `lambda`.
        rate: f64,
    },
}

impl Default for AttributeDistribution {
    /// The paper's simulations draw capacities without a stated shape; a
    /// unit-uniform population is the neutral default.
    fn default() -> Self {
        AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 }
    }
}

impl AttributeDistribution {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            AttributeDistribution::Uniform { lo, hi } => {
                lo.is_finite() && hi.is_finite() && lo < hi
            }
            AttributeDistribution::Pareto { scale, shape } => scale > 0.0 && shape > 0.0,
            AttributeDistribution::Normal { mean, std_dev } => mean.is_finite() && std_dev > 0.0,
            AttributeDistribution::Exponential { rate } => rate > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidConfig(format!(
                "invalid distribution parameters: {self:?}"
            )))
        }
    }

    /// Draws one raw sample.
    pub fn sample_f64<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            AttributeDistribution::Uniform { lo, hi } => rng.gen_range(lo..hi),
            AttributeDistribution::Pareto { scale, shape } => {
                // Inverse transform: X = x_m / U^(1/alpha), U ∈ (0, 1].
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                scale / u.powf(1.0 / shape)
            }
            AttributeDistribution::Normal { mean, std_dev } => {
                // Box–Muller; one variate per call keeps the sampler
                // stateless (determinism over elegance).
                let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                mean + std_dev * z
            }
            AttributeDistribution::Exponential { rate } => {
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                -u.ln() / rate
            }
        }
    }

    /// Draws one attribute value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Attribute {
        Attribute::new(self.sample_f64(rng)).expect("samplers produce finite values")
    }

    /// Draws `n` attribute values.
    pub fn sample_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Attribute> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The theoretical mean, if finite (used by sanity tests).
    pub fn mean(&self) -> Option<f64> {
        match *self {
            AttributeDistribution::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            AttributeDistribution::Pareto { scale, shape } => {
                (shape > 1.0).then(|| shape * scale / (shape - 1.0))
            }
            AttributeDistribution::Normal { mean, .. } => Some(mean),
            AttributeDistribution::Exponential { rate } => Some(1.0 / rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(dist: AttributeDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample_f64(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn validation() {
        assert!(AttributeDistribution::Uniform { lo: 0.0, hi: 1.0 }
            .validate()
            .is_ok());
        assert!(AttributeDistribution::Uniform { lo: 1.0, hi: 0.0 }
            .validate()
            .is_err());
        assert!(AttributeDistribution::Pareto {
            scale: 1.0,
            shape: 2.0
        }
        .validate()
        .is_ok());
        assert!(AttributeDistribution::Pareto {
            scale: 0.0,
            shape: 2.0
        }
        .validate()
        .is_err());
        assert!(AttributeDistribution::Normal {
            mean: 0.0,
            std_dev: 1.0
        }
        .validate()
        .is_ok());
        assert!(AttributeDistribution::Normal {
            mean: 0.0,
            std_dev: 0.0
        }
        .validate()
        .is_err());
        assert!(AttributeDistribution::Exponential { rate: 2.0 }
            .validate()
            .is_ok());
        assert!(AttributeDistribution::Exponential { rate: -1.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn uniform_stays_in_range_and_centers() {
        let dist = AttributeDistribution::Uniform { lo: 10.0, hi: 20.0 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = dist.sample_f64(&mut rng);
            assert!((10.0..20.0).contains(&x));
        }
        let m = sample_mean(dist, 20_000, 2);
        assert!((m - 15.0).abs() < 0.1, "mean {m} far from 15");
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let dist = AttributeDistribution::Pareto {
            scale: 1.0,
            shape: 3.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(dist.sample_f64(&mut rng) >= 1.0, "Pareto below scale");
        }
        // Mean = alpha/(alpha-1) * x_m = 1.5.
        let m = sample_mean(dist, 100_000, 4);
        assert!((m - 1.5).abs() < 0.05, "mean {m} far from 1.5");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // With shape 1.1, the top 1% of samples should dwarf the median.
        let dist = AttributeDistribution::Pareto {
            scale: 1.0,
            shape: 1.1,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs: Vec<f64> = (0..10_000).map(|_| dist.sample_f64(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[5000];
        let p99 = xs[9900];
        assert!(p99 / median > 10.0, "p99/median = {}", p99 / median);
    }

    #[test]
    fn normal_mean_and_spread() {
        let dist = AttributeDistribution::Normal {
            mean: 170.0,
            std_dev: 10.0,
        };
        let m = sample_mean(dist, 50_000, 6);
        assert!((m - 170.0).abs() < 0.3, "mean {m} far from 170");
        // ~68% within one std dev.
        let mut rng = StdRng::seed_from_u64(7);
        let within = (0..10_000)
            .filter(|_| (dist.sample_f64(&mut rng) - 170.0).abs() <= 10.0)
            .count();
        assert!((6500..7100).contains(&within), "within-1σ count {within}");
    }

    #[test]
    fn exponential_mean() {
        let dist = AttributeDistribution::Exponential { rate: 0.5 };
        let m = sample_mean(dist, 50_000, 8);
        assert!((m - 2.0).abs() < 0.1, "mean {m} far from 2");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(dist.sample_f64(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn theoretical_means() {
        assert_eq!(
            AttributeDistribution::Uniform { lo: 0.0, hi: 2.0 }.mean(),
            Some(1.0)
        );
        assert_eq!(
            AttributeDistribution::Pareto {
                scale: 1.0,
                shape: 0.9
            }
            .mean(),
            None,
            "heavy tail: infinite mean"
        );
        assert_eq!(
            AttributeDistribution::Normal {
                mean: 5.0,
                std_dev: 1.0
            }
            .mean(),
            Some(5.0)
        );
        assert_eq!(
            AttributeDistribution::Exponential { rate: 4.0 }.mean(),
            Some(0.25)
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let dist = AttributeDistribution::default();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs = dist.sample_n(10, &mut a);
        let ys = dist.sample_n(10, &mut b);
        assert_eq!(xs, ys);
    }

    #[test]
    fn samples_are_valid_attributes() {
        let dist = AttributeDistribution::Pareto {
            scale: 1.0,
            shape: 1.5,
        };
        let mut rng = StdRng::seed_from_u64(10);
        let attrs = dist.sample_n(100, &mut rng);
        assert_eq!(attrs.len(), 100);
    }
}
