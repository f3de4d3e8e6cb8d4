//! # dslice-bench
//!
//! The experiment harness behind the `figures` binary: one function per
//! figure of the paper's evaluation, each returning a [`Table`] that
//! `figures` writes as CSV (`figures --help` lists the ids). Integration
//! tests call the same functions at reduced scale and assert the *shapes*
//! the paper reports (who wins, what plateaus, where curves inflect) rather
//! than absolute values.
//!
//! | Experiment | Paper | Function |
//! |-----------|-------|----------|
//! | SDM vs GDM | Fig. 4(a) | [`experiments::fig4a`] |
//! | JK vs mod-JK convergence | Fig. 4(b) | [`experiments::fig4b`] |
//! | JK vs mod-JK, mean ± std over seeds | Fig. 4(b) | [`experiments::fig4b_banded`] |
//! | Unsuccessful swaps under concurrency | Fig. 4(c) | [`experiments::fig4c`] |
//! | Convergence under full concurrency | Fig. 4(d) | [`experiments::fig4d`] |
//! | Ranking vs ordering (static) | Fig. 6(a) | [`experiments::fig6a`] |
//! | Uniform oracle vs Cyclon views | Fig. 6(b) | [`experiments::fig6b`] |
//! | Churn burst, attribute-correlated | Fig. 6(c) | [`experiments::fig6c`] |
//! | Regular churn + sliding window | Fig. 6(d) | [`experiments::fig6d`] |
//! | Slice population bounds | Lemma 4.1 | [`experiments::lemma41`] |
//! | Sample-size bound | Theorem 5.1 | [`experiments::thm51`] |
//!
//! [`ablations`] adds one function per design choice (view size, slice
//! count, message loss, `j1` targeting, sampler substrate, window size) and
//! the quantile-search baseline of ref \[13\].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod experiments;
pub mod table;

pub use experiments::Scale;
pub use table::Table;
