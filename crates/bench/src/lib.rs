//! # dslice-bench
//!
//! The experiment harness behind the `figures` binary: one [`Figure`] per
//! figure of the paper's evaluation, listed in [`experiments::FIGURES`],
//! each computing a [`Table`] that `figures` writes as CSV (`figures --help`
//! lists the ids). Integration tests compute the same tables at reduced
//! scale and assert the *shapes* the paper reports (who wins, what
//! plateaus, where curves inflect) rather than absolute values.
//!
//! | Experiment | Paper | `--fig` id |
//! |-----------|-------|----------|
//! | SDM vs GDM | Fig. 4(a) | `4a` |
//! | JK vs mod-JK convergence | Fig. 4(b) | `4b` |
//! | JK vs mod-JK, mean ± std over seeds | Fig. 4(b) | `4b-banded` |
//! | Unsuccessful swaps under concurrency | Fig. 4(c) | `4c` |
//! | Convergence under full concurrency | Fig. 4(d) | `4d` |
//! | Ranking vs ordering (static) | Fig. 6(a) | `6a` |
//! | Uniform oracle vs Cyclon views | Fig. 6(b) | `6b` |
//! | Churn burst, attribute-correlated | Fig. 6(c) | `6c` |
//! | Regular churn + sliding window | Fig. 6(d) | `6d` |
//! | Slice population bounds | Lemma 4.1 | `lemma41` |
//! | Sample-size bound | Theorem 5.1 | `thm51` |
//!
//! The `ablation-*` ids vary one design choice each (sampler substrate
//! under mod-JK and under ranking, attribute distribution, view size,
//! slice count, message loss, `j1` targeting, window size, message
//! latency), and `baseline-quantile` is the quantile-search baseline of
//! ref \[13\].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::{Figure, Scale};
pub use table::Table;
