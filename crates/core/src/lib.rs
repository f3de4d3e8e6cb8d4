//! # dslice-core
//!
//! Core model for the *distributed slicing* problem, reproducing
//! "Distributed Slicing in Dynamic Systems" (Fernández, Gramoli, Jiménez,
//! Kermarrec, Raynal — INRIA RR-6051 / ICDCS 2007).
//!
//! A network of `n` nodes, each holding an **attribute value** reflecting its
//! capability (bandwidth, uptime, storage…), must partition itself into
//! **slices**: adjacent intervals of the normalized attribute rank. Every
//! node must discover, with only gossip-sized local state, which slice it
//! currently belongs to — in the presence of churn and skewed attribute
//! distributions.
//!
//! This crate defines the vocabulary shared by every other crate of the
//! workspace:
//!
//! * [`NodeId`] — unique node identities, used to break attribute ties
//!   (paper §3.1).
//! * [`Attribute`] — totally-ordered, finite attribute values.
//! * [`Slice`] and [`Partition`] — the slice intervals `(l, u]` partitioning
//!   `(0, 1]` (paper §3.2).
//! * [`View`] / [`ViewEntry`] — the bounded neighbor table with ages, as
//!   introduced in §4.2 (Table 1 of the paper).
//! * [`metrics`] — the three disorder measures of the paper: the *global
//!   disorder measure* (GDM, §4.2), the *local disorder measure* and swap
//!   gain (LDM / `G_{i,j}`, §4.3), and the *slice disorder measure*
//!   (SDM, §4.4).
//! * [`digest`] — the FNV-1a-64 hash that every byte pin uses.
//! * [`protocol`] — the [`SliceProtocol`](protocol::SliceProtocol) trait and
//!   [`Context`](protocol::Context) abstraction through which the same
//!   protocol implementation runs inside the deterministic cycle simulator
//!   (`dslice-sim`) and the asynchronous network runtime (`dslice-net`).
//!
//! The crate is deliberately free of any scheduling or I/O concern: it can be
//! embedded in simulators, property tests and real deployments alike.
//!
//! ## Quick tour
//!
//! ```
//! use dslice_core::{Attribute, NodeId, Partition};
//!
//! // Three nodes with the attribute values of the paper's running example
//! // (§3.1): a1 = 50, a2 = 120, a3 = 25.
//! let nodes = [
//!     (NodeId::new(1), Attribute::new(50.0).unwrap()),
//!     (NodeId::new(2), Attribute::new(120.0).unwrap()),
//!     (NodeId::new(3), Attribute::new(25.0).unwrap()),
//! ];
//! let ranks = dslice_core::rank::attribute_ranks(nodes.iter().copied());
//! // Node 1 has the 2nd smallest attribute value: alpha_1 = 2.
//! assert_eq!(ranks[&NodeId::new(1)], 2);
//!
//! // Two equal slices over (0, 1]: S_{0,1/2} and S_{1/2,1}.
//! let part = Partition::equal(2).unwrap();
//! assert_eq!(part.slice_of(0.3).as_usize(), 0);
//! assert_eq!(part.slice_of(0.9).as_usize(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod attribute;
pub mod digest;
pub mod error;
pub mod message;
pub mod metrics;
pub mod node;
pub mod protocol;
pub mod rank;
pub mod slab;
pub mod slice;
pub mod view;

pub use attribute::Attribute;
pub use error::{Error, Result};
pub use message::ProtocolMsg;
pub use node::{NodeId, NodeIdSet};
pub use slab::{NodeSlab, SlotLookup, TakenPair};
pub use slice::{Partition, Slice, SliceIndex};
pub use view::{View, ViewEntry};
