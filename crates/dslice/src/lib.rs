//! # dslice — distributed slicing in dynamic systems
//!
//! A full Rust implementation of the gossip-based *distributed slicing*
//! protocols of Fernández, Gramoli, Jiménez, Kermarrec and Raynal
//! ("Distributed Slicing in Dynamic Systems", INRIA RR-6051 / ICDCS 2007).
//!
//! Slicing partitions a large, churning peer-to-peer network into *slices* —
//! groups holding a fixed **proportion** of the network, ordered by an
//! attribute (bandwidth, storage, uptime…) — with every node discovering its
//! own slice through gossip alone. This facade crate re-exports the whole
//! workspace:
//!
//! * [`dslice_core`] — the problem model: attributes, slices,
//!   partitions, views, disorder metrics, the protocol interface.
//! * [`dslice_gossip`] — peer-sampling substrates (the paper's
//!   Cyclon variant, Newscast, Lpbcast, a uniform oracle).
//! * [`dslice_algorithms`] — JK, mod-JK, the ranking algorithm
//!   and its sliding-window variant.
//! * [`dslice_sim`] — the deterministic cycle simulator with churn and
//!   concurrency models (the PeerSim substitute).
//! * [`dslice_analysis`] — Lemma 4.1 and Theorem 5.1 as
//!   executable statistics.
//! * [`dslice_aggregation`] — the related-work substrate (refs \[12\],
//!   \[13\]): push–pull averaging, size estimation, φ-quantile search.
//! * [`dslice_net`] — a tokio runtime running the same protocols over
//!   TCP.
//!
//! ## Quickstart
//!
//! Slice 1 000 nodes by a bandwidth-like attribute into 10 equal groups:
//!
//! ```
//! use dslice::prelude::*;
//!
//! let cfg = SimConfig {
//!     n: 1000,
//!     view_size: 12,
//!     partition: Partition::equal(10).unwrap(),
//!     seed: 7,
//!     ..SimConfig::default()
//! };
//! let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
//! let record = engine.run(60);
//!
//! // Disorder decreases monotonically-ish; every node ends near its slice.
//! assert!(record.final_sdm().unwrap() < record.cycles[0].sdm / 4.0);
//! ```
//!
//! See the repository `examples/` for runnable scenarios (the paper's Fig. 1
//! height example, heterogeneous bandwidth allocation, uptime-correlated
//! churn, and a real tokio cluster).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dslice_aggregation as aggregation;
pub use dslice_algorithms as algorithms;
pub use dslice_analysis as analysis;
pub use dslice_core as core;
pub use dslice_gossip as gossip;
pub use dslice_net as net;
pub use dslice_sim as sim;

/// The most commonly used items, one import away.
pub mod prelude {
    pub use dslice_algorithms::{
        BitWindow, Liar, Ordering, ProtocolKind, Ranking, SlidingRanking, SwapSelection,
    };
    pub use dslice_core::{
        metrics, rank, Attribute, NodeId, Partition, ProtocolMsg, Slice, SliceIndex, View,
        ViewEntry,
    };
    pub use dslice_gossip::{
        CyclonSampler, LpbcastSampler, NewscastSampler, PeerSampler, SamplerKind, UniformOracle,
    };
    pub use dslice_net::{
        AcceptGate, ChaosAction, ChaosEvent, ChaosPlan, ClusterConfig, ClusterReport,
        ClusterTotals, FaultPlan, LocalCluster, NodeExit, NodeExitKind, NodeExitRecord,
        RestartPolicy, RetryPolicy,
    };
    pub use dslice_sim::{
        AttributeDistribution, ChurnModel, Concurrency, CorrelatedChurn, CycleStats, Engine,
        LatencyModel, NoChurn, PhaseTimings, RunRecord, SimConfig, UncorrelatedChurn,
    };
}
