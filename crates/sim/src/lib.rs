//! # dslice-sim
//!
//! A deterministic, cycle-based network simulator reproducing the
//! experimental setup of "Distributed Slicing in Dynamic Systems".
//!
//! The paper evaluates its protocols on PeerSim "using a simplified
//! cycle-based simulation model, where all message exchanges are atomic"
//! (§4.5), then artificially re-introduces message concurrency to study
//! unsuccessful swaps (§4.5.2) and drives churn bursts correlated with the
//! attribute values (§5.3.3). This crate rebuilds that harness natively:
//!
//! * [`Engine`] — the cycle scheduler: churn step, membership shuffle,
//!   a node-local active phase, message routing, metrics, all on one
//!   thread in one fixed order. Node state lives in a dense slab
//!   ([`dslice_core::NodeSlab`]).
//! * [`Concurrency`] — `None` (atomic exchanges, fresh views), `Half`
//!   (each message overlaps with probability ½) and `Full` (all messages
//!   overlap), matching §4.5.2.
//! * [`churn`] — no churn, uncorrelated churn, and the paper's
//!   attribute-correlated churn (lowest-attribute nodes leave, joiners
//!   arrive above the current maximum).
//! * [`AttributeDistribution`] — uniform, Pareto (heavy-tailed, the
//!   motivating shape of §1.1), normal and exponential attribute
//!   populations, implemented from scratch (inverse transform and
//!   Box–Muller) to keep the dependency set minimal.
//! * [`stats`] — per-cycle [`stats::CycleStats`] with SDM, GDM,
//!   message and swap counters; serializable run records for the figure
//!   pipeline.
//!
//! Every stochastic decision is derived from the run seed: sequential
//! phases (churn, membership, routing) draw from one seeded
//! [`StdRng`](rand::rngs::StdRng), while each node's active step draws
//! from its own counter-based stream keyed by `(seed, node id, cycle)`
//! ([`stream::NodeRng`]) — so runs are exactly reproducible from
//! `(config, seed)`.
//!
//! ## Example: mod-JK at small scale
//!
//! ```
//! use dslice_core::Partition;
//! use dslice_sim::{Concurrency, Engine, ProtocolKind, SimConfig};
//!
//! let cfg = SimConfig {
//!     n: 128,
//!     view_size: 10,
//!     partition: Partition::equal(4).unwrap(),
//!     seed: 1,
//!     ..SimConfig::default()
//! };
//! let mut engine = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
//! let record = engine.run(30);
//! let last = record.cycles.last().unwrap();
//! assert!(last.sdm < record.cycles[0].sdm, "disorder must decrease");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod concurrency;
pub mod config;
pub mod distributions;
pub mod engine;
pub mod fault;
pub mod latency;
pub mod sessions;
pub mod stats;
pub mod stream;
pub mod sweep;

pub use churn::{
    ChurnModel, ChurnPlan, ChurnSchedule, CorrelatedChurn, NoChurn, UncorrelatedChurn,
};
pub use concurrency::Concurrency;
pub use config::{ProtocolKind, SamplerKind, SimConfig};
pub use distributions::AttributeDistribution;
pub use dslice_algorithms::AttackerSpec;
pub use engine::{Engine, HeapLedger};
pub use fault::{BandPartition, NetworkFault};
pub use latency::LatencyModel;
pub use sessions::{FlashCrowd, SessionChurn, WeibullSessions};
pub use stats::{CycleStats, FieldReader, PhaseTimings, RunRecord, Totals};
pub use sweep::{run_seeds, AggregateRecord};
