//! [`AnySampler`]: every concrete sampler of this crate behind one enum.
//!
//! The network node holds its sampler as this enum, and a
//! [`SamplerColumn`](crate::SamplerColumn) binds one over a view arena's
//! row for each operation, where a `Box<dyn PeerSampler>` would cost a heap
//! object per node and a pointer to chase on every visit. The enum
//! implements [`PeerSampler`] by forwarding each required method, and each
//! provided one that a sampler overrides, to the concrete type in its arm;
//! the other provided methods are never overridden, so their defaults reach
//! the arm through the forwards and the enum behaves call for call as that
//! type does. Lpbcast, whose eviction stream makes it larger than the
//! others, holds that state through `T`: boxed in an owned sampler,
//! borrowed from the column in a bound one.

use crate::lpbcast::LpbcastState;
use crate::sampler::{ExchangeBuffers, PeerSampler, SamplerKind};
use crate::{CyclonSampler, LpbcastSampler, NewscastSampler, UniformOracle};
use dslice_core::{EntriesMut, Entry, NodeId, Result, View, ViewEntry};
use rand::RngCore;
use std::borrow::BorrowMut;

/// One sampler of any concrete type (see the module docs), over views of
/// `E` entries stored in `S`, with Lpbcast's state held in `T`.
#[derive(Debug, Clone)]
pub enum AnySampler<E = ViewEntry, S = Vec<E>, T = Box<LpbcastState>> {
    /// The paper's Cyclon variant.
    Cyclon(CyclonSampler<E, S>),
    /// Newscast-style.
    Newscast(NewscastSampler<E, S>),
    /// Lpbcast-style (its state boxed when owned).
    Lpbcast(LpbcastSampler<E, S, T>),
    /// The runtime-refilled uniform oracle.
    UniformOracle(UniformOracle<E, S>),
}

/// Expands `$body` once per arm with `$s` bound to the arm's concrete
/// sampler (`&T` or `&mut T`), so every forward below is statically
/// dispatched and calls the trait method by path — never an inherent
/// method of the same name.
macro_rules! forward {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnySampler::Cyclon($s) => $body,
            AnySampler::Newscast($s) => $body,
            AnySampler::Lpbcast($s) => $body,
            AnySampler::UniformOracle($s) => $body,
        }
    };
}

impl AnySampler {
    /// A sampler of `kind` for `owner` with a view of [`ViewEntry`]s of
    /// capacity `capacity`, as the network node holds;
    /// [`AnySampler::empty`] for any entry type.
    pub fn new(kind: SamplerKind, owner: NodeId, capacity: usize) -> Result<Self> {
        Self::empty(kind, owner, capacity)
    }
}

impl<E: Entry> AnySampler<E> {
    /// A sampler of `kind` for `owner` with an empty view of capacity
    /// `capacity`, owning its view.
    pub fn empty(kind: SamplerKind, owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(Self::over(kind, owner, View::empty(capacity)?, || {
            Box::new(LpbcastState::new(owner))
        }))
    }
}

impl<E: Entry, S: EntriesMut<E>, T: BorrowMut<LpbcastState>> AnySampler<E, S, T> {
    /// A sampler of `kind` for `owner` over `view`, wherever the view is
    /// stored — the one construction path of an owned sampler and of one
    /// bound to an arena row. `lpbcast` supplies Lpbcast's state and is
    /// called for that kind alone.
    pub fn over(
        kind: SamplerKind,
        owner: NodeId,
        view: View<E, S>,
        lpbcast: impl FnOnce() -> T,
    ) -> Self {
        match kind {
            SamplerKind::Cyclon => AnySampler::Cyclon(CyclonSampler::over(owner, view)),
            SamplerKind::Newscast => AnySampler::Newscast(NewscastSampler::over(owner, view)),
            SamplerKind::Lpbcast => {
                AnySampler::Lpbcast(LpbcastSampler::over(owner, view, lpbcast()))
            }
            SamplerKind::UniformOracle => {
                AnySampler::UniformOracle(UniformOracle::over(owner, view))
            }
        }
    }
}

impl<E, S, T> PeerSampler<E, S> for AnySampler<E, S, T>
where
    E: Entry,
    S: EntriesMut<E> + Send,
    T: BorrowMut<LpbcastState> + Send,
{
    fn owner(&self) -> NodeId {
        forward!(self, s => PeerSampler::owner(s))
    }

    fn kind(&self) -> SamplerKind {
        forward!(self, s => PeerSampler::kind(s))
    }

    fn view(&self) -> &View<E, S> {
        forward!(self, s => PeerSampler::view(s))
    }

    fn view_mut(&mut self) -> &mut View<E, S> {
        forward!(self, s => PeerSampler::view_mut(s))
    }

    fn schedule_exchange(&mut self, rng: &mut dyn RngCore) -> Option<NodeId> {
        forward!(self, s => PeerSampler::schedule_exchange(s, rng))
    }

    fn initiate_into(
        &mut self,
        partner: NodeId,
        self_entry: E,
        rng: &mut dyn RngCore,
        payload: &mut Vec<E>,
    ) {
        forward!(self, s => PeerSampler::initiate_into(s, partner, self_entry, rng, payload))
    }

    fn handle_request_into(
        &mut self,
        self_entry: E,
        from: NodeId,
        entries: &[E],
        reply: &mut Vec<E>,
    ) {
        forward!(self, s => PeerSampler::handle_request_into(s, self_entry, from, entries, reply))
    }

    fn handle_reply(&mut self, from: NodeId, entries: &[E]) {
        forward!(self, s => PeerSampler::handle_reply(s, from, entries))
    }

    fn exchange_local(
        &mut self,
        self_entry: E,
        partner: &mut dyn PeerSampler<E, S>,
        partner_entry: E,
        rng: &mut dyn RngCore,
        bufs: &mut ExchangeBuffers<E>,
    ) {
        forward!(self, s => PeerSampler::exchange_local(s, self_entry, partner, partner_entry, rng, bufs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune_dead;
    use dslice_core::{AgedId, Attribute};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::mem::size_of;

    const KINDS: [SamplerKind; 4] = [
        SamplerKind::Cyclon,
        SamplerKind::Newscast,
        SamplerKind::Lpbcast,
        SamplerKind::UniformOracle,
    ];

    fn entry(id: u64, age: u32) -> ViewEntry {
        ViewEntry::with_age(
            NodeId::new(id),
            age,
            Attribute::new(id as f64).unwrap(),
            id as f64 / 100.0,
        )
    }

    /// The concrete sampler `kind` names, boxed — what
    /// [`AnySampler::new`] holds in its arm, built without the enum.
    fn concrete(kind: SamplerKind, owner: NodeId, capacity: usize) -> Box<dyn PeerSampler> {
        match kind {
            SamplerKind::Cyclon => Box::new(CyclonSampler::new(owner, capacity).unwrap()),
            SamplerKind::Newscast => Box::new(NewscastSampler::new(owner, capacity).unwrap()),
            SamplerKind::Lpbcast => Box::new(LpbcastSampler::new(owner, capacity).unwrap()),
            SamplerKind::UniformOracle => Box::new(UniformOracle::new(owner, capacity).unwrap()),
        }
    }

    /// The observable state of a sampler.
    fn state(s: &dyn PeerSampler) -> (NodeId, SamplerKind, Vec<ViewEntry>, usize) {
        (
            s.owner(),
            s.kind(),
            s.view().entries().to_vec(),
            s.view().capacity(),
        )
    }

    /// Drives an enum pair and a concrete pair of `kind` through the same
    /// calls, comparing every answer and both post-states.
    fn assert_agree(kind: SamplerKind) {
        let (a_id, b_id) = (NodeId::new(0), NodeId::new(20));
        let mut any = [
            AnySampler::new(kind, a_id, 6).unwrap(),
            AnySampler::new(kind, b_id, 6).unwrap(),
        ];
        let mut plain = [concrete(kind, a_id, 6), concrete(kind, b_id, 6)];
        let label = kind.to_string();
        let check = |any: &[AnySampler; 2], plain: &[Box<dyn PeerSampler>; 2], step: &str| {
            for (x, y) in any.iter().zip(plain) {
                assert_eq!(state(x), state(&**y), "{label}: {step}");
            }
        };
        let boot_a: Vec<ViewEntry> = (1..=6).map(|i| entry(i, i as u32)).collect();
        let boot_b: Vec<ViewEntry> = (21..=26).map(|i| entry(i, i as u32 % 4)).collect();
        any[0].bootstrap(&boot_a);
        plain[0].bootstrap(&boot_a);
        any[1].bootstrap(&boot_b);
        plain[1].bootstrap(&boot_b);
        check(&any, &plain, "bootstrap");

        let (self_a, self_b) = (entry(0, 0), entry(20, 0));
        let seed_rng = || StdRng::seed_from_u64(3);
        let (mut rng_x, mut rng_y) = (seed_rng(), seed_rng());
        assert_eq!(
            any[0].initiate(self_a, &mut rng_x),
            plain[0].initiate(self_a, &mut rng_y),
            "{label}: initiate"
        );
        assert_eq!(
            any[1].schedule_exchange(&mut rng_x),
            plain[1].schedule_exchange(&mut rng_y),
            "{label}: schedule_exchange"
        );
        let partner = NodeId::new(3);
        let (mut pay_x, mut pay_y) = (Vec::new(), Vec::new());
        any[1].initiate_into(partner, self_b, &mut rng_x, &mut pay_x);
        plain[1].initiate_into(partner, self_b, &mut rng_y, &mut pay_y);
        assert_eq!(pay_x, pay_y, "{label}: initiate_into");
        assert_eq!(
            any[1].initiate_with(partner, self_b, &mut rng_x),
            plain[1].initiate_with(partner, self_b, &mut rng_y),
            "{label}: initiate_with"
        );
        let offer = [entry(7, 1), entry(8, 0), entry(21, 2)];
        assert_eq!(
            any[0].handle_request(self_a, b_id, &offer),
            plain[0].handle_request(self_a, b_id, &offer),
            "{label}: handle_request"
        );
        let (mut reply_x, mut reply_y) = (Vec::new(), Vec::new());
        any[1].handle_request_into(self_b, a_id, &offer, &mut reply_x);
        plain[1].handle_request_into(self_b, a_id, &offer, &mut reply_y);
        assert_eq!(reply_x, reply_y, "{label}: handle_request_into");
        any[0].handle_reply(b_id, &offer);
        plain[0].handle_reply(b_id, &offer);
        check(&any, &plain, "message path");

        // A whole in-process exchange, each side against its own kind of
        // partner; the buffers must be used exactly as the concrete pair
        // uses them (two Cyclon samplers leave them untouched).
        any[0].schedule_exchange(&mut rng_x);
        plain[0].schedule_exchange(&mut rng_y);
        let (mut bufs_x, mut bufs_y) = (ExchangeBuffers::default(), ExchangeBuffers::default());
        let [any_a, any_b] = &mut any;
        any_a.exchange_local(self_a, any_b, self_b, &mut rng_x, &mut bufs_x);
        let [plain_a, plain_b] = &mut plain;
        plain_a.exchange_local(self_a, &mut **plain_b, self_b, &mut rng_y, &mut bufs_y);
        assert_eq!(
            (&bufs_x.request, &bufs_x.reply),
            (&bufs_y.request, &bufs_y.reply),
            "{label}: exchange_local payloads"
        );
        check(&any, &plain, "exchange_local");
        assert_eq!(rng_x.next_u64(), rng_y.next_u64(), "{label}: rng draws");

        let refill = [entry(30, 0), entry(0, 0), entry(31, 3)];
        any[0].refill(&refill);
        plain[0].refill(&refill);
        let is_alive = |id: NodeId| !id.as_u64().is_multiple_of(3);
        any[1].remove_dead(&is_alive);
        plain[1].remove_dead(&is_alive);
        any[1].view_mut().increment_ages();
        plain[1].view_mut().increment_ages();
        check(&any, &plain, "refill, remove_dead, view_mut");
    }

    #[test]
    fn every_kind_agrees_with_its_concrete_type_call_for_call() {
        for kind in KINDS {
            assert_agree(kind);
        }
    }

    /// The simulator prunes every view with [`prune_dead`] directly, not
    /// through `remove_dead`: every kind's `remove_dead` must leave exactly
    /// what the shared filter leaves, concrete and behind the enum alike.
    #[test]
    fn every_kind_removes_the_dead_with_the_shared_filter() {
        let is_alive = |id: NodeId| !id.as_u64().is_multiple_of(3);
        let boot: Vec<ViewEntry> = (1..=9).map(|i| entry(i, i as u32 % 4)).collect();
        for kind in KINDS {
            let mut plain = concrete(kind, NodeId::new(0), 8);
            let mut any = AnySampler::new(kind, NodeId::new(0), 8).unwrap();
            plain.bootstrap(&boot);
            any.bootstrap(&boot);
            let mut filtered = any.clone();
            prune_dead(filtered.view_mut(), is_alive);
            plain.remove_dead(&is_alive);
            any.remove_dead(&is_alive);
            assert_eq!(state(&*plain), state(&filtered), "{kind}: concrete");
            assert_eq!(state(&any), state(&filtered), "{kind}: enum");
            assert!(filtered.view().ids().all(is_alive), "{kind}");
        }
    }

    #[test]
    fn only_lpbcast_is_boxed() {
        assert_eq!(size_of::<CyclonSampler>(), 40);
        assert_eq!(size_of::<NewscastSampler>(), 40);
        assert_eq!(size_of::<UniformOracle>(), 40);
        assert!(size_of::<LpbcastSampler>() > 64);
        assert_eq!(size_of::<AnySampler>(), 48);
        assert_eq!(size_of::<AnySampler<AgedId>>(), 48);
    }

    /// A sampler reads only ids and ages, so over `AgedId` views every kind
    /// keeps the ids and ages it keeps over `ViewEntry` views, exchange for
    /// exchange, through both the message path and `exchange_local`.
    #[test]
    fn every_kind_keeps_the_same_ids_and_ages_over_aged_ids() {
        fn ids_and_ages<E: Entry>(s: &AnySampler<E>) -> Vec<(NodeId, u32)> {
            s.view().iter().map(|e| (e.id(), e.age())).collect()
        }
        let n = 12u64;
        let aged = |e: &ViewEntry| AgedId {
            id: e.id,
            age: e.age,
        };
        for kind in KINDS {
            let mut full: Vec<AnySampler> = Vec::new();
            let mut slim: Vec<AnySampler<AgedId>> = Vec::new();
            for i in 0..n {
                let boot: Vec<ViewEntry> =
                    (1..=4).map(|k| entry((i + 3 * k) % n, k as u32)).collect();
                let owner = NodeId::new(i);
                full.push(AnySampler::new(kind, owner, 5).unwrap());
                slim.push(AnySampler::empty(kind, owner, 5).unwrap());
                full[i as usize].bootstrap(&boot);
                slim[i as usize].bootstrap(&boot.iter().map(aged).collect::<Vec<_>>());
            }
            let (mut rng_full, mut rng_slim) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
            let (mut bufs_full, mut bufs_slim) =
                (ExchangeBuffers::default(), ExchangeBuffers::default());
            for round in 0..30 {
                let i = round % n as usize;
                let me = entry(i as u64, 0);
                let partner = full[i].schedule_exchange(&mut rng_full);
                assert_eq!(partner, slim[i].schedule_exchange(&mut rng_slim), "{kind}");
                let Some(partner) = partner else { continue };
                let j = partner.as_u64() as usize;
                let them = entry(j as u64, 0);
                if round % 2 == 0 {
                    let [x, y] = full.get_disjoint_mut([i, j]).unwrap();
                    x.exchange_local(me, y, them, &mut rng_full, &mut bufs_full);
                    let [x, y] = slim.get_disjoint_mut([i, j]).unwrap();
                    x.exchange_local(aged(&me), y, aged(&them), &mut rng_slim, &mut bufs_slim);
                } else {
                    let request = full[i].initiate_with(partner, me, &mut rng_full).entries;
                    let reply = full[j].handle_request(them, me.id, &request);
                    full[i].handle_reply(partner, &reply);
                    let request = slim[i]
                        .initiate_with(partner, aged(&me), &mut rng_slim)
                        .entries;
                    let reply = slim[j].handle_request(aged(&them), me.id, &request);
                    slim[i].handle_reply(partner, &reply);
                }
                for (x, y) in full.iter().zip(&slim) {
                    assert_eq!(ids_and_ages(x), ids_and_ages(y), "{kind}: round {round}");
                }
            }
        }
    }
}
