//! # dslice-algorithms
//!
//! The distributed slicing protocols of the paper, implemented against the
//! [`SliceProtocol`](dslice_core::protocol::SliceProtocol) interface so the
//! same code runs in the cycle simulator and the network runtime.
//!
//! ## The two families
//!
//! **Ordering algorithms** (§4) sort a set of uniform random values along
//! the attribute order by pairwise swaps; the random value then determines
//! the slice:
//!
//! * [`Ordering::jk`] — the baseline JK algorithm: gossip with a *random*
//!   misplaced neighbor.
//! * [`Ordering::mod_jk`] — the paper's first contribution: gossip with the
//!   misplaced neighbor maximizing the local-disorder gain `G_{i,j}` (Eq. 1),
//!   which accelerates convergence.
//!
//! **Ranking algorithms** (§5) estimate the normalized rank directly from the
//! stream of attribute values observed in gossip messages:
//!
//! * [`Ranking`] — unbounded counters `ℓ_i / g_i` (Fig. 5).
//! * [`SlidingRanking`] — the §5.3.4 variant that retains only the freshest
//!   samples in a fixed-size bit window, making the estimate track
//!   attribute-correlated churn.
//! * [`DecayRanking`] — exponential sample aging ([`DecayEstimator`]):
//!   evidence fades geometrically, so correlated shocks (a regional
//!   failure) are forgotten at a tunable rate instead of harmonically.
//!
//! ## Hardened variants
//!
//! Three opt-in defenses address fragilities the scenario matrix exposed:
//! sample aging (above), outlier-robust sample admission
//! ([`RobustFilter`] — bounds the influence of rank-inflating liars on
//! honest estimates), and swap liveness ([`Ordering::mod_jk_live`] —
//! excludes persistently unresponsive swap partners from selection so
//! mod-JK cannot wedge against swap-refusers), plus trimmed-mean sample
//! admission ([`RobustFilter::trimmed`] — rejects samples outside a
//! symmetric quantile band, robust even against fence-aware attackers).
//!
//! ## Adversaries
//!
//! [`Liar`] is the static attacker (fixed rank inflation, blanket swap
//! refusal); [`adversary`] holds the *adaptive* tier — [`Colluder`],
//! [`Throttler`], [`Drifter`] behind the [`AdaptiveAdversary`] trait and
//! the [`Adaptive`] wrapper — attackers that observe the defense and react.
//!
//! ## Choosing between them
//!
//! The ordering algorithms converge fast but inherit two structural problems
//! the paper identifies: slice assignment is only as accurate as the uniform
//! spread of the initial random values (§4.4, Lemma 4.1), and churn
//! correlated with the attribute skews the random-value distribution
//! irrecoverably (§5). The ranking algorithms converge more slowly but keep
//! improving without bound and readapt under churn.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod any;
pub mod estimator;
pub mod kind;
pub mod liar;
pub mod ordering;
pub mod ranking;
pub mod window;

pub use adversary::{
    Adaptive, AdaptiveAdversary, AttackPlan, AttackerSpec, Colluder, Drifter, Throttler,
};
pub use any::AnyProtocol;
pub use estimator::{CounterEstimator, DecayEstimator, RankEstimator, WindowEstimator};
pub use kind::ProtocolKind;
pub use liar::Liar;
pub use ordering::{Ordering, SwapSelection};
pub use ranking::{
    DecayRanking, Ranking, RankingProtocol, RobustFilter, SlidingRanking, Targeting,
};
pub use window::{BitWindow, ValueWindow};
