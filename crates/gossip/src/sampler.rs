//! The [`PeerSampler`] interface.
//!
//! A peer sampler owns a node's [`View`] and refreshes it by periodic
//! pairwise exchanges. The interface is deliberately message-shaped — an
//! exchange is `initiate` (active side) → `handle_request` (passive side) →
//! `handle_reply` (active side) — so that:
//!
//! * the **cycle simulator** can run the three phases back-to-back, which is
//!   exactly the atomic view exchange of the paper's PeerSim setup (§4.5);
//! * the **network runtime** can ship the two payloads as real `ViewReq` /
//!   `ViewAck` messages.
//!
//! A runtime that holds both endpoints in one process calls
//! [`PeerSampler::exchange_local`] instead: by default the same three
//! phases through reusable [`ExchangeBuffers`], and for a pair of
//! [`CyclonSampler`](crate::CyclonSampler)s a swap of the two views where
//! they live, with no payload copied at all. The message path stays the
//! definition of an exchange all the same: `dslice-net` ships its payloads
//! over sockets, Newscast and Lpbcast exchange only through it, and the
//! in-process Cyclon swap is tested against it.

use dslice_core::{NodeId, View, ViewEntry};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which peer-sampling substrate to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SamplerKind {
    /// The paper's Cyclon variant (Fig. 3): full-view swap with the oldest
    /// neighbor. The default.
    Cyclon,
    /// Newscast-style: random partner, freshest-`c` merge.
    Newscast,
    /// Lpbcast-style: push-only digests, random eviction.
    Lpbcast,
    /// Idealized uniform sampler refilled by the runtime each cycle
    /// (the "uniform" curve of Fig. 6(b)).
    UniformOracle,
}

impl fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerKind::Cyclon => write!(f, "cyclon"),
            SamplerKind::Newscast => write!(f, "newscast"),
            SamplerKind::Lpbcast => write!(f, "lpbcast"),
            SamplerKind::UniformOracle => write!(f, "uniform"),
        }
    }
}

/// The outcome of starting an exchange on the active side.
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeRequest {
    /// The chosen gossip partner.
    pub partner: NodeId,
    /// The entries to send (`N_i \ {e_j} ∪ {⟨i,0,a_i,r_i⟩}` for Cyclon).
    pub entries: Vec<ViewEntry>,
}

/// The request and reply payloads of an exchange run by
/// [`PeerSampler::exchange_local`] through the message path. A runtime that
/// executes exchanges back to back keeps one and reuses it, so the exchange
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ExchangeBuffers {
    /// The initiator's request payload.
    pub request: Vec<ViewEntry>,
    /// The partner's reply payload.
    pub reply: Vec<ViewEntry>,
}

/// One whole exchange between two samplers held in one process, through the
/// message path: [`initiate_into`](PeerSampler::initiate_into) →
/// [`handle_request_into`](PeerSampler::handle_request_into) →
/// [`handle_reply`](PeerSampler::handle_reply), the payloads living in
/// `bufs`. This is the default body of
/// [`PeerSampler::exchange_local`], and what the Cyclon override falls back
/// to.
pub(crate) fn exchange_via_messages<S: PeerSampler + ?Sized>(
    initiator: &mut S,
    self_entry: ViewEntry,
    partner: &mut dyn PeerSampler,
    partner_entry: ViewEntry,
    rng: &mut dyn RngCore,
    bufs: &mut ExchangeBuffers,
) {
    let partner_id = partner.owner();
    initiator.initiate_into(partner_id, self_entry, rng, &mut bufs.request);
    partner.handle_request_into(
        partner_entry,
        initiator.owner(),
        &bufs.request,
        &mut bufs.reply,
    );
    initiator.handle_reply(partner_id, &bufs.reply);
    debug_assert_exchanged(initiator.view(), initiator.owner(), partner);
}

/// Debug builds: after an exchange both views hold at most `c` entries, no
/// duplicate id and no entry for their owner. The in-process Cyclon swap is
/// exact only on views that satisfy this, so every exchange re-checks it.
pub(crate) fn debug_assert_exchanged(view: &View, owner: NodeId, partner: &dyn PeerSampler) {
    if cfg!(debug_assertions) {
        for (view, owner) in [(view, owner), (partner.view(), partner.owner())] {
            if let Err(e) = view.check_invariants(Some(owner)) {
                panic!("view of node {owner} broke its invariants in an exchange: {e}");
            }
        }
    }
}

/// Drops `view`'s entries for departed nodes, keeping the order of the
/// rest: the one definition of the dead-neighbor prune, shared by the
/// default [`PeerSampler::remove_dead`] and the cycle simulator, which
/// passes its live-set lookup as a closure the filter inlines.
pub fn prune_dead(view: &mut View, is_alive: impl Fn(NodeId) -> bool) {
    view.retain(is_alive);
}

/// A peer-sampling service instance owned by one node.
///
/// A sampler overrides only the required methods and, if it gossips,
/// [`schedule_exchange`](Self::schedule_exchange),
/// [`initiate_into`](Self::initiate_into) and (Cyclon)
/// [`exchange_local`](Self::exchange_local). The other provided methods
/// are defined once, here: [`AnySampler`](crate::AnySampler) forwards only
/// the methods a sampler may override, and relies on the rest reaching the
/// concrete sampler through them.
pub trait PeerSampler: Send {
    /// The owning node.
    fn owner(&self) -> NodeId;

    /// Which substrate this is.
    fn kind(&self) -> SamplerKind;

    /// Read access to the current view.
    fn view(&self) -> &View;

    /// Mutable access to the current view (used by the runtime for value
    /// refreshes and churn cleanup).
    fn view_mut(&mut self) -> &mut View;

    /// Active side, phase 1: age the view, pick a partner, build the request
    /// payload — [`schedule_exchange`](PeerSampler::schedule_exchange), then
    /// [`initiate_with`](PeerSampler::initiate_with). Returns `None` when the
    /// view is empty (isolated node) or the substrate does not gossip (the
    /// uniform oracle).
    fn initiate(
        &mut self,
        self_entry: ViewEntry,
        rng: &mut dyn RngCore,
    ) -> Option<ExchangeRequest> {
        let partner = self.schedule_exchange(rng)?;
        Some(self.initiate_with(partner, self_entry, rng))
    }

    /// Schedule half of a **schedule-then-execute** runtime: age the view
    /// and choose the partner [`initiate`](PeerSampler::initiate) would
    /// pick, *without* building the payload. The runtime collects every
    /// node's choice up front, partitions the pairs into conflict-free
    /// batches, and later calls
    /// [`initiate_into`](PeerSampler::initiate_into) to build the payload at
    /// execution time (possibly on another thread).
    ///
    /// Any randomness must come from `rng`, and the *same* stream must be
    /// handed back to `initiate_into` so the pair (choice, payload) consumes
    /// exactly the draws `initiate` would.
    ///
    /// The default declines to gossip (`None`) — correct for oracle-refilled
    /// substrates. **A substrate that gossips overrides this** together with
    /// [`initiate_into`](PeerSampler::initiate_into); every other entry
    /// point of the active side is built from the two.
    fn schedule_exchange(&mut self, rng: &mut dyn RngCore) -> Option<NodeId> {
        let _ = rng;
        None
    }

    /// Execute half of a schedule-then-execute runtime: build the request
    /// payload for `partner`, chosen earlier by
    /// [`schedule_exchange`](PeerSampler::schedule_exchange), into `payload`
    /// (cleared first). The view must **not** be re-aged (aging happened at
    /// schedule time). The view seen here may differ from the one the
    /// partner was chosen from — the node may have responded to other
    /// exchanges in earlier batches.
    ///
    /// The buffer is the caller's, so a runtime that executes exchanges back
    /// to back (the cycle simulator) reuses one and the exchange allocates
    /// nothing.
    ///
    /// The default sends only the fresh self-descriptor; substrates that can
    /// return a partner from `schedule_exchange` override it.
    fn initiate_into(
        &mut self,
        partner: NodeId,
        self_entry: ViewEntry,
        rng: &mut dyn RngCore,
        payload: &mut Vec<ViewEntry>,
    ) {
        let _ = (partner, rng);
        payload.clear();
        payload.push(self_entry);
    }

    /// [`initiate_into`](PeerSampler::initiate_into) for callers that must
    /// own the payload (the network runtime ships it in a message).
    fn initiate_with(
        &mut self,
        partner: NodeId,
        self_entry: ViewEntry,
        rng: &mut dyn RngCore,
    ) -> ExchangeRequest {
        let mut entries = Vec::new();
        self.initiate_into(partner, self_entry, rng, &mut entries);
        ExchangeRequest { partner, entries }
    }

    /// Passive side: absorb the request payload and write the reply payload
    /// (the passive node's view, minus pointers to the requester) into
    /// `reply` (cleared first) — the caller's buffer, as in
    /// [`initiate_into`](PeerSampler::initiate_into).
    fn handle_request_into(
        &mut self,
        self_entry: ViewEntry,
        from: NodeId,
        entries: &[ViewEntry],
        reply: &mut Vec<ViewEntry>,
    );

    /// [`handle_request_into`](PeerSampler::handle_request_into) for callers
    /// that must own the reply (the network runtime ships it in a message).
    fn handle_request(
        &mut self,
        self_entry: ViewEntry,
        from: NodeId,
        entries: &[ViewEntry],
    ) -> Vec<ViewEntry> {
        let mut reply = Vec::new();
        self.handle_request_into(self_entry, from, entries, &mut reply);
        reply
    }

    /// Active side, phase 2: absorb the reply payload.
    fn handle_reply(&mut self, from: NodeId, entries: &[ViewEntry]);

    /// Runs a whole exchange with `partner`, chosen earlier by
    /// [`schedule_exchange`](PeerSampler::schedule_exchange), when both
    /// samplers live in this process (the cycle simulator). `self_entry`
    /// and `partner_entry` are the two nodes' fresh self-descriptors; `rng`
    /// is the stream carried from scheduling, as for
    /// [`initiate_into`](PeerSampler::initiate_into).
    ///
    /// The default is the message path — the three calls above, back to
    /// back — with the payloads in `bufs`. An override may do the same work
    /// without the payloads but must leave both samplers exactly as the
    /// message path would (including the draws taken from `rng`). Either
    /// way, debug builds check both views' invariants afterwards.
    fn exchange_local(
        &mut self,
        self_entry: ViewEntry,
        partner: &mut dyn PeerSampler,
        partner_entry: ViewEntry,
        rng: &mut dyn RngCore,
        bufs: &mut ExchangeBuffers,
    ) {
        exchange_via_messages(self, self_entry, partner, partner_entry, rng, bufs);
    }

    /// Drops entries for nodes that are no longer alive. Runtimes call this
    /// after churn so protocols never gossip with the departed.
    ///
    /// Not overridden by any sampler, and it must not be: the cycle
    /// simulator calls [`prune_dead`] on each view directly, so that its
    /// liveness check inlines instead of being called through `&dyn Fn`
    /// once per entry, and relies on this default doing exactly that.
    fn remove_dead(&mut self, is_alive: &dyn Fn(NodeId) -> bool) {
        prune_dead(self.view_mut(), is_alive);
    }

    /// Seeds the view with bootstrap entries (used at join time).
    fn bootstrap(&mut self, entries: &[ViewEntry]) {
        let owner = self.owner();
        self.view_mut().merge(owner, entries);
    }

    /// Replaces the whole view with `entries` — the oracle-refill path of
    /// idealized substrates, where the runtime re-draws a fresh uniform
    /// sample every cycle instead of gossiping for it. The caller passes at
    /// most `c` entries and none for the owner, as the cycle simulator's
    /// sampling does; the view keeps them in the given order.
    fn refill(&mut self, entries: &[ViewEntry]) {
        let view = self.view_mut();
        view.retain(|_| false);
        for e in entries {
            view.insert(*e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(SamplerKind::Cyclon.to_string(), "cyclon");
        assert_eq!(SamplerKind::Newscast.to_string(), "newscast");
        assert_eq!(SamplerKind::UniformOracle.to_string(), "uniform");
    }

    /// The schedule-then-execute split must be a pure refactoring of
    /// `initiate`: same partner, same payload, same post-state, same rng
    /// consumption — for every gossiping substrate.
    #[test]
    fn split_exchange_matches_combined_initiate() {
        use crate::{CyclonSampler, LpbcastSampler, NewscastSampler, UniformOracle};
        use dslice_core::Attribute;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        fn entry(id: u64, age: u32) -> ViewEntry {
            ViewEntry::with_age(
                NodeId::new(id),
                age,
                Attribute::new(id as f64).unwrap(),
                0.5,
            )
        }

        fn check(mut combined: Box<dyn PeerSampler>, mut split: Box<dyn PeerSampler>, seed: u64) {
            for i in 1..=6 {
                combined.view_mut().insert(entry(i, i as u32 % 3));
                split.view_mut().insert(entry(i, i as u32 % 3));
            }
            let self_entry = entry(combined.owner().as_u64(), 0);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let direct = combined.initiate(self_entry, &mut rng_a);
            let staged = split
                .schedule_exchange(&mut rng_b)
                .map(|partner| split.initiate_with(partner, self_entry, &mut rng_b));
            assert_eq!(direct, staged, "{} diverged", combined.kind());
            assert_eq!(
                combined.view().entries(),
                split.view().entries(),
                "{} post-state diverged",
                combined.kind()
            );
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng draw counts differ");
        }

        let owner = NodeId::new(0);
        check(
            Box::new(CyclonSampler::new(owner, 8).unwrap()),
            Box::new(CyclonSampler::new(owner, 8).unwrap()),
            11,
        );
        check(
            Box::new(NewscastSampler::new(owner, 8).unwrap()),
            Box::new(NewscastSampler::new(owner, 8).unwrap()),
            12,
        );
        check(
            Box::new(LpbcastSampler::new(owner, 8).unwrap()),
            Box::new(LpbcastSampler::new(owner, 8).unwrap()),
            13,
        );
        // The oracle declines both paths.
        let mut oracle = UniformOracle::new(owner, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        assert!(oracle.schedule_exchange(&mut rng).is_none());
        assert!(oracle.initiate(entry(1, 0), &mut rng).is_none());
    }
}
