//! # dslice-gossip
//!
//! Peer-sampling substrates for the distributed slicing protocols.
//!
//! The slicing algorithms of the paper assume an underlying *peer sampling
//! service* that keeps every node's bounded [`View`](dslice_core::View)
//! stocked with a continuously refreshed, quasi-uniform sample of the live
//! network (§4.3.1):
//!
//! > Several protocols may be used to provide a random and dynamic sampling
//! > in a peer to peer system such as Newscast, Cyclon or Lpbcast. […] In
//! > this report, we chose to use a variant of the Cyclon protocol […] as it
//! > is reportedly the best approach to achieve a uniform random neighbor
//! > set for all nodes.
//!
//! This crate provides four interchangeable samplers:
//!
//! * [`CyclonSampler`] — the paper's Cyclon variant (Fig. 3): swap the
//!   *entire view* with the *oldest* neighbor each cycle.
//! * [`NewscastSampler`] — a Newscast-style sampler (random partner,
//!   freshness-based merge), the substrate used by the original JK paper.
//! * [`LpbcastSampler`] — an Lpbcast-style sampler (push-only digests,
//!   random eviction), the third substrate §4.3.1 names.
//! * [`UniformOracle`] — an idealized sampler whose view is refilled with
//!   uniformly random live nodes by the runtime each cycle; the "uniform"
//!   baseline of Fig. 6(b).
//!
//! All four implement [`PeerSampler`], a three-phase message-level
//! interface (`initiate` → `handle_request` → `handle_reply`) that the
//! network runtime drives over real sockets. A sampler defines the active
//! side once, as `schedule_exchange` (age the view, pick the partner) and
//! `initiate_into` (build the payload); `initiate` is the trait's provided
//! composition of the two, shared by every sampler. The cycle simulator
//! drives whole exchanges atomically through
//! [`PeerSampler::exchange_local`], which two Cyclon samplers carry out as a
//! swap of their views in place. Both runtimes run each node's sampler as
//! an [`AnySampler`], built by [`AnySampler::over`].
//!
//! Every sampler reads only an entry's id and age, so each is generic over
//! the view's [`Entry`](dslice_core::Entry) type: the network node's views
//! hold full [`ViewEntry`](dslice_core::ViewEntry)s, the default, and the
//! cycle simulator's hold 8-byte [`AgedId`](dslice_core::AgedId)s. The
//! `new` constructors build the `ViewEntry` form; `empty` builds any.
//!
//! Every sampler is generic over where its view is stored as well. The
//! network node's sampler owns its view, the default. The cycle simulator
//! keeps the views of its whole population as the rows of one
//! [`ViewArena`](dslice_core::ViewArena), and the rest of each sampler's
//! state in a [`SamplerColumn`], which binds a sampler over a row for each
//! operation ([`SamplerColumn::bind`]). Either way the sampler runs the one
//! definition of each operation in this crate, over the one definition of
//! each view operation in `dslice_core`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod any;
pub mod column;
pub mod cyclon;
pub mod lpbcast;
pub mod newscast;
pub mod sampler;
pub mod uniform;

pub use any::AnySampler;
pub use column::{RowSampler, SamplerColumn};
pub use cyclon::CyclonSampler;
pub use lpbcast::{LpbcastSampler, LpbcastState};
pub use newscast::NewscastSampler;
pub use sampler::{prune_dead, ExchangeBuffers, PeerSampler, SamplerKind};
pub use uniform::UniformOracle;
