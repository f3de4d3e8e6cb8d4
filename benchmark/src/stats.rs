//! Order statistics over timing samples, and the record fingerprint hash.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of an ascending-sorted sample,
/// linearly interpolated between the two nearest ranks. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median and tail of one timing sample, with the sample count beside them
/// so a reader can tell how many observations lie beyond each percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). All fields are `NaN` when empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 50.0),
            p75: percentile(&sorted, 75.0),
            p99: percentile(&sorted, 99.0),
            max: sorted.last().copied().unwrap_or(f64::NAN),
        }
    }
}

/// The median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Incremental FNV-1a (64 bit), used to fingerprint a run's simulated
/// statistics so two runs of the same code and seed can be compared exactly.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
