//! The four workloads. Each fills an [`Outcome`](crate::report::Outcome)
//! with end-to-end metrics (untraced) or per-layer metrics (traced).

pub mod matrix;
pub mod net;
pub mod sim;
