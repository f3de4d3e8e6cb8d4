//! The concurrency model of §4.5.2.
//!
//! The cycle-based model executes each exchange atomically; real networks do
//! not. The paper re-introduces concurrency by declaring some messages
//! *overlapping* ("it exists, for any couple of overlapping messages, at
//! least one instant at which they are both in-transit") and studies two
//! regimes on top of the atomic baseline:
//!
//! > For each algorithm we simulated (i) **full concurrency**: in a given
//! > cycle, all messages are overlapping messages; and (ii) **half
//! > concurrency**: in a given cycle, each message is an overlapping message
//! > with probability ½.
//!
//! In this simulator an overlapping message is deferred to an end-of-cycle
//! drain (delivered in random order after every node took its active step),
//! so its payload snapshot can go stale — producing exactly the
//! *unsuccessful swaps* the paper measures in Fig. 4(c). Non-overlapping
//! messages are delivered immediately, preserving atomic exchanges.
//!
//! View snapshots are refreshed before each active step in *every* mode,
//! mirroring the paper's setup ("each node updates its view before sending
//! its random value"); staleness enters only through in-flight overlap,
//! which is what makes the convergence impact of full concurrency "slight"
//! (Fig. 4(d)) while still wasting a measurable share of swap messages.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How much message concurrency the simulation injects.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum Concurrency {
    /// The paper's baseline cycle model: atomic exchanges, fresh views,
    /// no overlapping messages.
    #[default]
    None,
    /// Each message overlaps with probability ½.
    Half,
    /// Every message overlaps.
    Full,
}

impl Concurrency {
    /// Decides whether the next message is an overlapping message.
    pub fn overlaps<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            Concurrency::None => false,
            Concurrency::Half => rng.gen::<bool>(),
            Concurrency::Full => true,
        }
    }

    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Concurrency::None => "none",
            Concurrency::Half => "half",
            Concurrency::Full => "full",
        }
    }
}

impl fmt::Display for Concurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_overlaps_full_always() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!Concurrency::None.overlaps(&mut rng));
            assert!(Concurrency::Full.overlaps(&mut rng));
        }
    }

    #[test]
    fn half_overlaps_about_half_the_time() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000)
            .filter(|_| Concurrency::Half.overlaps(&mut rng))
            .count();
        assert!((4700..5300).contains(&hits), "got {hits} / 10000");
    }

    #[test]
    fn labels() {
        assert_eq!(Concurrency::None.to_string(), "none");
        assert_eq!(Concurrency::Half.to_string(), "half");
        assert_eq!(Concurrency::Full.to_string(), "full");
        assert_eq!(Concurrency::default(), Concurrency::None);
    }
}
