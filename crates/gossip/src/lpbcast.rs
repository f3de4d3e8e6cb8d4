//! Lpbcast-style peer sampler.
//!
//! Lpbcast (*lightweight probabilistic broadcast*; Eugster, Guerraoui,
//! Handurukande, Kouznetsov, Kermarrec 2003) is the third peer-sampling
//! substrate §4.3.1 of the paper names next to Newscast and Cyclon:
//!
//! > Several protocols may be used to provide a random and dynamic sampling
//! > in a peer to peer system such as Newscast, Cyclon or Lpbcast.
//!
//! Its membership layer differs from the other two in two ways that matter
//! for sampling quality:
//!
//! 1. **Push-only dissemination.** A node gossips a digest of its
//!    subscription list (a random subset of its view plus its own fresh
//!    descriptor) to a random partner; nothing flows back. Under the
//!    three-phase [`PeerSampler`] interface the reply payload is therefore
//!    empty, and a full "exchange" moves descriptors in one direction only.
//! 2. **Random eviction.** When the view overflows, the evicted entry is
//!    chosen *uniformly at random* rather than by age. This keeps old but
//!    live descriptors circulating longer (good for connectivity) at the
//!    cost of slower purging of stale ones — the reason the paper prefers
//!    the Cyclon variant, and a trade-off the ablation benches quantify.
//!
//! Unsubscriptions (departed nodes) are handled by the runtime through
//! [`PeerSampler::remove_dead`], standing in for Lpbcast's `unsubs` list.
//!
//! Eviction randomness is drawn from a private deterministic RNG seeded from
//! the owner id, so simulation runs stay reproducible even though
//! `handle_request` receives no runtime RNG.

use crate::sampler::{PeerSampler, SamplerKind};
use dslice_core::{EntriesMut, Entry, NodeId, Result, View, ViewEntry};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::borrow::BorrowMut;

/// Default number of view entries included in each gossip digest.
pub const DEFAULT_DIGEST_SIZE: usize = 8;

/// What an Lpbcast sampler keeps besides its owner and its view: the private
/// eviction stream. A [`SamplerColumn`](crate::SamplerColumn) keeps one per
/// slot, and an [`AnySampler`](crate::AnySampler) boxes it.
#[derive(Debug, Clone)]
pub struct LpbcastState {
    evict_rng: StdRng,
}

impl LpbcastState {
    /// The state of a fresh sampler owned by `owner`: an eviction stream
    /// seeded from the owner id.
    pub fn new(owner: NodeId) -> Self {
        LpbcastState {
            evict_rng: StdRng::seed_from_u64(owner.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// An Lpbcast-style peer sampler: push-only digests, random eviction. Its
/// view is stored in `S` (see [`PeerSampler`]) and its [`LpbcastState`]
/// held in `T`: inline, boxed or borrowed.
#[derive(Debug, Clone)]
pub struct LpbcastSampler<E = ViewEntry, S = Vec<E>, T = LpbcastState> {
    owner: NodeId,
    view: View<E, S>,
    state: T,
}

impl LpbcastSampler {
    /// Creates a sampler for `owner` with a view of [`ViewEntry`]s of
    /// capacity `c`; [`LpbcastSampler::empty`] for any entry type.
    pub fn new(owner: NodeId, capacity: usize) -> Result<Self> {
        Self::empty(owner, capacity)
    }
}

impl<E: Entry> LpbcastSampler<E> {
    /// Creates a sampler for `owner` with an empty view of capacity `c`.
    pub fn empty(owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(Self::over(
            owner,
            View::empty(capacity)?,
            LpbcastState::new(owner),
        ))
    }
}

impl<E: Entry, S: EntriesMut<E>, T: BorrowMut<LpbcastState>> LpbcastSampler<E, S, T> {
    /// The sampler of `owner` over `view` and `state`, wherever they are
    /// stored.
    pub fn over(owner: NodeId, view: View<E, S>, state: T) -> Self {
        LpbcastSampler { owner, view, state }
    }

    /// Lpbcast merge: add unseen descriptors (preferring the younger copy of
    /// a duplicate), then trim back to capacity by *random* eviction.
    fn lpbcast_merge(&mut self, incoming: &[E]) {
        let mut pool: Vec<E> = self.view.entries().to_vec();
        for e in incoming {
            if e.id() == self.owner {
                continue;
            }
            match pool.iter_mut().find(|p| p.id() == e.id()) {
                Some(existing) => {
                    if e.age() < existing.age() {
                        *existing = *e;
                    }
                }
                None => pool.push(*e),
            }
        }
        let evict_rng = &mut self.state.borrow_mut().evict_rng;
        while pool.len() > self.view.capacity() {
            let victim = evict_rng.gen_range(0..pool.len());
            pool.swap_remove(victim);
        }
        self.view.clear();
        for e in pool {
            self.view.insert(e);
        }
    }

    /// Writes the digest payload into `pool`: up to [`DEFAULT_DIGEST_SIZE`]
    /// random view entries plus the fresh self-descriptor.
    fn digest(&self, self_entry: E, rng: &mut dyn RngCore, pool: &mut Vec<E>) {
        pool.clear();
        pool.extend_from_slice(self.view.entries());
        // Partial Fisher–Yates: the first `take` slots end up holding a
        // uniform sample without cloning the whole pool twice.
        let take = DEFAULT_DIGEST_SIZE.min(pool.len());
        for i in 0..take {
            let j = i + (rng.next_u64() as usize) % (pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(take);
        pool.push(self_entry);
    }
}

impl<E, S, T> PeerSampler<E, S> for LpbcastSampler<E, S, T>
where
    E: Entry,
    S: EntriesMut<E> + Send,
    T: BorrowMut<LpbcastState> + Send,
{
    fn owner(&self) -> NodeId {
        self.owner
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::Lpbcast
    }

    fn view(&self) -> &View<E, S> {
        &self.view
    }

    fn view_mut(&mut self) -> &mut View<E, S> {
        &mut self.view
    }

    fn schedule_exchange(&mut self, rng: &mut dyn RngCore) -> Option<NodeId> {
        self.view.increment_ages();
        Some(self.view.random(rng)?.id())
    }

    fn initiate_into(
        &mut self,
        _partner: NodeId,
        self_entry: E,
        rng: &mut dyn RngCore,
        payload: &mut Vec<E>,
    ) {
        self.digest(self_entry, rng, payload);
    }

    fn handle_request_into(
        &mut self,
        _self_entry: E,
        _from: NodeId,
        entries: &[E],
        reply: &mut Vec<E>,
    ) {
        self.lpbcast_merge(entries);
        reply.clear(); // push-only: nothing flows back
    }

    fn handle_reply(&mut self, _from: NodeId, entries: &[E]) {
        // Push-only protocol: the reply payload is empty. Merge defensively
        // anyway so a mixed-substrate runtime cannot lose descriptors.
        if !entries.is_empty() {
            self.lpbcast_merge(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn entry(id: u64, age: u32) -> ViewEntry {
        ViewEntry::with_age(NodeId::new(id), age, attr(id as f64), 0.5)
    }

    fn descriptor(id: u64) -> ViewEntry {
        ViewEntry::new(NodeId::new(id), attr(id as f64), 0.5)
    }

    #[test]
    fn merge_respects_capacity_and_skips_self() {
        let mut s = LpbcastSampler::new(NodeId::new(0), 3).unwrap();
        s.view_mut().insert(entry(1, 5));
        s.view_mut().insert(entry(2, 3));
        s.lpbcast_merge(&[entry(3, 0), entry(4, 1), entry(0, 0)]);
        assert_eq!(s.view().len(), 3);
        assert!(!s.view().contains(NodeId::new(0)));
        s.view().check_invariants(Some(NodeId::new(0))).unwrap();
    }

    #[test]
    fn merge_prefers_younger_duplicate() {
        let mut s = LpbcastSampler::new(NodeId::new(0), 4).unwrap();
        s.view_mut().insert(entry(1, 6));
        s.lpbcast_merge(&[entry(1, 2)]);
        assert_eq!(s.view().get(NodeId::new(1)).unwrap().age, 2);
    }

    #[test]
    fn random_eviction_is_not_age_biased() {
        // Fill to capacity, merge one newcomer many times across fresh
        // samplers: the oldest entry must survive in a non-trivial fraction
        // of runs (age-based eviction would always kill it).
        let mut survived = 0;
        for seed in 0..200u64 {
            let mut s = LpbcastSampler::new(NodeId::new(seed + 1000), 4).unwrap();
            s.view_mut().insert(entry(1, 99)); // oldest
            for i in 2..=4 {
                s.view_mut().insert(entry(i, 0));
            }
            s.lpbcast_merge(&[entry(5, 0)]);
            if s.view().contains(NodeId::new(1)) {
                survived += 1;
            }
        }
        assert!(
            survived > 100,
            "oldest survived only {survived}/200 merges; eviction looks age-biased"
        );
    }

    #[test]
    fn digest_is_bounded_and_contains_self() {
        let mut s = LpbcastSampler::new(NodeId::new(0), 20).unwrap();
        for i in 1..=20 {
            s.view_mut().insert(entry(i, 0));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let req = s.initiate(descriptor(0), &mut rng).unwrap();
        assert_eq!(
            req.entries.len(),
            DEFAULT_DIGEST_SIZE + 1,
            "digest entries + self descriptor"
        );
        assert!(req.entries.iter().any(|e| e.id == NodeId::new(0)));
        // Digest entries are distinct.
        for (i, a) in req.entries.iter().enumerate() {
            for b in &req.entries[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn exchange_is_push_only() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let mut sa = LpbcastSampler::new(a, 4).unwrap();
        let mut sb = LpbcastSampler::new(b, 4).unwrap();
        sa.view_mut().insert(entry(1, 2));
        sb.view_mut().insert(entry(7, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let req = sa.initiate(descriptor(0), &mut rng).unwrap();
        let reply = sb.handle_request(descriptor(1), a, &req.entries);
        assert!(reply.is_empty(), "lpbcast never replies");
        sa.handle_reply(b, &reply);
        assert!(sb.view().contains(a), "b learned a's descriptor");
        assert!(
            !sa.view().contains(NodeId::new(7)),
            "push-only: a learned nothing from b"
        );
    }

    #[test]
    fn initiate_on_empty_view_returns_none() {
        let mut s = LpbcastSampler::new(NodeId::new(0), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(s.initiate(descriptor(0), &mut rng).is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arbitrary_entries() -> impl Strategy<Value = Vec<ViewEntry>> {
            proptest::collection::vec((0u64..40, 0u32..50), 0..20)
                .prop_map(|pairs| pairs.into_iter().map(|(id, age)| entry(id, age)).collect())
        }

        proptest! {
            /// Any merge sequence keeps the view within capacity, free of
            /// self-pointers, and free of duplicate ids.
            #[test]
            fn merge_preserves_view_invariants(
                capacity in 1usize..12,
                batches in proptest::collection::vec(arbitrary_entries(), 1..6),
            ) {
                let owner = NodeId::new(0);
                let mut s = LpbcastSampler::new(owner, capacity).unwrap();
                for batch in batches {
                    s.lpbcast_merge(&batch);
                    prop_assert!(s.view().check_invariants(Some(owner)).is_ok());
                }
            }

            /// Merging never loses an entry while there is room: the view
            /// after a merge contains every incoming id (≠ owner) whenever
            /// |view ∪ incoming| ≤ capacity.
            #[test]
            fn merge_is_lossless_under_capacity(
                entries in arbitrary_entries(),
            ) {
                let owner = NodeId::new(0);
                let mut distinct: Vec<u64> = entries
                    .iter()
                    .filter(|e| e.id != owner)
                    .map(|e| e.id.as_u64())
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                let mut s = LpbcastSampler::new(owner, distinct.len().max(1)).unwrap();
                s.lpbcast_merge(&entries);
                for id in distinct {
                    prop_assert!(s.view().contains(NodeId::new(id)));
                }
            }

            /// The digest is a subset of view ∪ {self}, within size bounds.
            #[test]
            fn digest_is_a_bounded_subset(
                entries in arbitrary_entries(),
                seed in 0u64..1000,
            ) {
                let owner = NodeId::new(0);
                let mut s = LpbcastSampler::new(owner, 20).unwrap();
                s.lpbcast_merge(&entries);
                let mut rng = StdRng::seed_from_u64(seed);
                if let Some(req) = s.initiate(descriptor(0), &mut rng) {
                    prop_assert!(req.entries.len() <= DEFAULT_DIGEST_SIZE + 1);
                    for e in &req.entries {
                        prop_assert!(
                            e.id == owner || s.view().contains(e.id),
                            "digest leaked an unknown descriptor"
                        );
                    }
                    prop_assert!(req.entries.iter().any(|e| e.id == owner));
                }
            }
        }
    }

    #[test]
    fn descriptors_spread_through_a_small_network() {
        // 16 nodes in a ring of initial views; after enough push rounds every
        // node's view should hold descriptors beyond its ring neighbors.
        let n = 16u64;
        let mut samplers: Vec<LpbcastSampler> = (0..n)
            .map(|i| {
                let mut s = LpbcastSampler::new(NodeId::new(i), 6).unwrap();
                s.view_mut().insert(entry((i + 1) % n, 0));
                s
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            for i in 0..n as usize {
                let desc = descriptor(i as u64);
                let Some(req) = samplers[i].initiate(desc, &mut rng) else {
                    continue;
                };
                let partner = req.partner.as_u64() as usize;
                samplers[partner].handle_request(descriptor(partner as u64), desc.id, &req.entries);
            }
        }
        let mean_degree: f64 =
            samplers.iter().map(|s| s.view().len() as f64).sum::<f64>() / n as f64;
        assert!(
            mean_degree > 4.0,
            "views stayed thin (mean {mean_degree}); digests are not spreading"
        );
    }
}
