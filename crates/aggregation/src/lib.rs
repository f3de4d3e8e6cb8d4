//! # dslice-aggregation
//!
//! Gossip-based aggregation: the substrate behind two systems the paper's
//! related-work section positions slicing against, rebuilt here so the
//! benchmark harness can compare them under identical conditions.
//!
//! * **Push–pull averaging** (Jelasity, Montresor, Babaoglu, *Gossip-based
//!   aggregation in large dynamic networks*, ACM TOCS 2005 — ref \[12\] of
//!   the paper). Every node holds a local estimate; each cycle it exchanges
//!   the estimate with a random peer and both adopt the pairwise average.
//!   The estimate variance provably drops by an expected factor of
//!   `1/(2√e)` per cycle, so the network mean is learned in `O(log n)`
//!   cycles.
//! * **Epidemic min/max** — the same exchange with `min`/`max` in place of
//!   the average; converges to the exact extremum in `O(log n)` cycles.
//! * **Network-size estimation** — the inverse-of-the-average trick from
//!   ref \[12\]: one initiator holds `1.0`, everyone else `0.0`; the common
//!   average converges to `1/n`, so `n ≈ 1/estimate`. Slicing deliberately
//!   *avoids* needing `n` (§2 of the paper criticizes quantile-search
//!   methods for requiring it); this module exists to make that comparison
//!   concrete.
//! * **φ-quantile search** (Kempe, Dobra, Gehrke, FOCS 2003 — ref \[13\]) —
//!   the related-work baseline: find the attribute value of rank `⌈φ·n⌉` by
//!   bisection, with each probe's rank measured by gossip-averaging an
//!   indicator. [`quantile`] reproduces the paper's §2 argument that this
//!   answers a *global* question (one value) rather than the slicing
//!   problem's *per-node* question.
//!
//! Everything is deterministic given a seeded RNG. Every exchange is
//! message-shaped (initiate → respond → absorb), and one driver runs them:
//! [`swarm::Swarm`], which gives each node one push–pull exchange per round
//! with a uniformly random peer, the model of ref \[12\]'s analysis.
//! Neither the cycle simulator nor `dslice-net` runs these state machines.
//!
//! ## Example: learn the network mean in a handful of rounds
//!
//! ```
//! use dslice_aggregation::{AggregateKind, Swarm};
//!
//! let locals: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let mut swarm = Swarm::new(AggregateKind::Average, &locals, 42);
//! while swarm.variance() > 1e-9 {
//!     swarm.round();
//! }
//! // Every node now holds the exact mean, 49.5.
//! assert!(swarm.values().iter().all(|v| (v - 49.5).abs() < 1e-4));
//! assert!(swarm.rounds() < 40, "O(log n) convergence");
//! ```
//!
//! ## Example: find the median by gossip (ref \[13\])
//!
//! ```
//! use dslice_aggregation::{exact_quantile, QuantileSearch};
//!
//! let values: Vec<f64> = (1..=999).map(|i| i as f64).collect();
//! let result = QuantileSearch::new(0.5).run(&values, 7);
//! assert!((result.value - exact_quantile(&values, 0.5)).abs() < 5.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod protocol;
pub mod quantile;
pub mod size;
pub mod swarm;

pub use protocol::{AggregateKind, AggregationState, ExchangeOutcome};
pub use quantile::{exact_quantile, QuantileResult, QuantileSearch};
pub use size::{estimate_size, SizeEstimator};
pub use swarm::Swarm;
