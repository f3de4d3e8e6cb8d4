//! [`AnySampler`]: every concrete sampler of this crate behind one enum.
//!
//! The cycle simulator keeps one sampler per node for 10⁵–10⁶ nodes and
//! stores this enum inline in its node storage, where a `Box<dyn
//! PeerSampler>` costs a heap object per node and a pointer to chase on
//! every visit. The enum implements [`PeerSampler`] by forwarding each
//! required method, and each provided one that a sampler overrides, to the
//! concrete type in its arm; the other provided methods are never
//! overridden, so their defaults reach the arm through the forwards and the
//! enum behaves call for call as that type does. Lpbcast, twice the size of
//! the others with its eviction stream, is boxed inside its arm.

use crate::sampler::{ExchangeBuffers, PeerSampler, SamplerKind};
use crate::{CyclonSampler, LpbcastSampler, NewscastSampler, UniformOracle};
use dslice_core::{NodeId, Result, View, ViewEntry};
use rand::RngCore;

/// One sampler of any concrete type (see the module docs).
#[derive(Debug, Clone)]
pub enum AnySampler {
    /// The paper's Cyclon variant.
    Cyclon(CyclonSampler),
    /// Newscast-style.
    Newscast(NewscastSampler),
    /// Lpbcast-style (boxed: 80 bytes).
    Lpbcast(Box<LpbcastSampler>),
    /// The runtime-refilled uniform oracle.
    UniformOracle(UniformOracle),
}

/// Expands `$body` once per arm with `$s` bound to the arm's concrete
/// sampler (`&T` or `&mut T`, the box dereferenced), so every forward below
/// is statically dispatched and calls the trait method by path — never an
/// inherent method of the same name.
macro_rules! forward {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnySampler::Cyclon($s) => $body,
            AnySampler::Newscast($s) => $body,
            AnySampler::Lpbcast(boxed) => {
                let $s = &**boxed;
                $body
            }
            AnySampler::UniformOracle($s) => $body,
        }
    };
    ($self:expr, mut $s:ident => $body:expr) => {
        match $self {
            AnySampler::Cyclon($s) => $body,
            AnySampler::Newscast($s) => $body,
            AnySampler::Lpbcast(boxed) => {
                let $s = &mut **boxed;
                $body
            }
            AnySampler::UniformOracle($s) => $body,
        }
    };
}

impl AnySampler {
    /// A sampler of `kind` for `owner` with view capacity `capacity` — the
    /// one construction path, for the cycle simulator and the network node
    /// alike.
    pub fn new(kind: SamplerKind, owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(match kind {
            SamplerKind::Cyclon => AnySampler::Cyclon(CyclonSampler::new(owner, capacity)?),
            SamplerKind::Newscast => AnySampler::Newscast(NewscastSampler::new(owner, capacity)?),
            SamplerKind::Lpbcast => {
                AnySampler::Lpbcast(Box::new(LpbcastSampler::new(owner, capacity)?))
            }
            SamplerKind::UniformOracle => {
                AnySampler::UniformOracle(UniformOracle::new(owner, capacity)?)
            }
        })
    }
}

impl PeerSampler for AnySampler {
    fn owner(&self) -> NodeId {
        forward!(self, s => PeerSampler::owner(s))
    }

    fn kind(&self) -> SamplerKind {
        forward!(self, s => PeerSampler::kind(s))
    }

    fn view(&self) -> &View {
        forward!(self, s => PeerSampler::view(s))
    }

    fn view_mut(&mut self) -> &mut View {
        forward!(self, mut s => PeerSampler::view_mut(s))
    }

    fn schedule_exchange(&mut self, rng: &mut dyn RngCore) -> Option<NodeId> {
        forward!(self, mut s => PeerSampler::schedule_exchange(s, rng))
    }

    fn initiate_into(
        &mut self,
        partner: NodeId,
        self_entry: ViewEntry,
        rng: &mut dyn RngCore,
        payload: &mut Vec<ViewEntry>,
    ) {
        forward!(self, mut s => PeerSampler::initiate_into(s, partner, self_entry, rng, payload))
    }

    fn handle_request_into(
        &mut self,
        self_entry: ViewEntry,
        from: NodeId,
        entries: &[ViewEntry],
        reply: &mut Vec<ViewEntry>,
    ) {
        forward!(self, mut s => PeerSampler::handle_request_into(s, self_entry, from, entries, reply))
    }

    fn handle_reply(&mut self, from: NodeId, entries: &[ViewEntry]) {
        forward!(self, mut s => PeerSampler::handle_reply(s, from, entries))
    }

    fn exchange_local(
        &mut self,
        self_entry: ViewEntry,
        partner: &mut dyn PeerSampler,
        partner_entry: ViewEntry,
        rng: &mut dyn RngCore,
        bufs: &mut ExchangeBuffers,
    ) {
        forward!(self, mut s => PeerSampler::exchange_local(s, self_entry, partner, partner_entry, rng, bufs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune_dead;
    use dslice_core::Attribute;
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
    }
}
