//! Newscast-style peer sampler.
//!
//! Newscast (ref. \[12\] in the paper; Jelasity, Montresor, Babaoglu 2005) is the
//! substrate used by the original JK algorithm: each cycle a node picks a
//! *uniformly random* neighbor, the two merge their full views plus fresh
//! self-descriptors, and each keeps the `c` *freshest* entries.
//!
//! Compared to the Cyclon variant it is more aggressive about freshness
//! (entries older than any incoming entry are quickly displaced) at the cost
//! of a slightly less uniform neighbor distribution — the trade-off §6.2 of
//! the paper discusses. It is included so the two substrates can be compared
//! under the same protocols (see `bench/ablations`).

use crate::sampler::{PeerSampler, SamplerKind};
use dslice_core::{EntriesMut, Entry, NodeId, Result, View, ViewEntry};
use rand::RngCore;

/// A Newscast-style peer sampler: random partner, freshest-`c` merge.
#[derive(Debug, Clone)]
pub struct NewscastSampler<E = ViewEntry, S = Vec<E>> {
    owner: NodeId,
    view: View<E, S>,
}

impl NewscastSampler {
    /// Creates a sampler for `owner` with a view of [`ViewEntry`]s of
    /// capacity `c`; [`NewscastSampler::empty`] for any entry type.
    pub fn new(owner: NodeId, capacity: usize) -> Result<Self> {
        Self::empty(owner, capacity)
    }
}

impl<E: Entry> NewscastSampler<E> {
    /// Creates a sampler for `owner` with an empty view of capacity `c`.
    pub fn empty(owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(NewscastSampler {
            owner,
            view: View::empty(capacity)?,
        })
    }
}

impl<E: Entry, S: EntriesMut<E>> NewscastSampler<E, S> {
    /// The sampler of `owner` over `view`, wherever the view is stored.
    pub fn over(owner: NodeId, view: View<E, S>) -> Self {
        NewscastSampler { owner, view }
    }

    /// Newscast merge: union of both views, keep the `c` freshest entries
    /// (smallest age, ties broken by id for determinism), never a
    /// self-pointer, unique ids — youngest first. [`View::merge`] keeps
    /// exactly those `c` entries, inside the view's own storage.
    fn newscast_merge(&mut self, incoming: &[E]) {
        self.view.merge(self.owner, incoming);
        self.view.sort_youngest_first();
    }
}

impl<E: Entry, S: EntriesMut<E> + Send> PeerSampler<E, S> for NewscastSampler<E, S> {
    fn owner(&self) -> NodeId {
        self.owner
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::Newscast
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
        _rng: &mut dyn RngCore,
        payload: &mut Vec<E>,
    ) {
        payload.clear();
        payload.extend_from_slice(self.view.entries());
        payload.push(self_entry);
    }

    fn handle_request_into(
        &mut self,
        self_entry: E,
        from: NodeId,
        entries: &[E],
        reply: &mut Vec<E>,
    ) {
        reply.clear();
        reply.extend(self.view.iter().filter(|e| e.id() != from));
        reply.push(self_entry);
        self.newscast_merge(entries);
    }

    fn handle_reply(&mut self, _from: NodeId, entries: &[E]) {
        self.newscast_merge(entries);
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
    fn merge_keeps_freshest_c() {
        let mut s = NewscastSampler::new(NodeId::new(0), 2).unwrap();
        s.view_mut().insert(entry(1, 5));
        s.view_mut().insert(entry(2, 3));
        s.newscast_merge(&[entry(3, 0), entry(4, 1)]);
        assert_eq!(s.view().len(), 2);
        assert!(s.view().contains(NodeId::new(3)));
        assert!(s.view().contains(NodeId::new(4)));
        assert!(
            !s.view().contains(NodeId::new(1)),
            "stale entries displaced"
        );
    }

    #[test]
    fn merge_prefers_younger_duplicate_and_skips_self() {
        let mut s = NewscastSampler::new(NodeId::new(0), 4).unwrap();
        s.view_mut().insert(entry(1, 6));
        s.newscast_merge(&[entry(1, 2), entry(0, 0)]);
        assert_eq!(s.view().get(NodeId::new(1)).unwrap().age, 2);
        assert!(!s.view().contains(NodeId::new(0)));
    }

    #[test]
    fn initiate_picks_random_partner_and_sends_everything() {
        let mut s = NewscastSampler::new(NodeId::new(0), 4).unwrap();
        for i in 1..=4 {
            s.view_mut().insert(entry(i, 0));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let req = s.initiate(descriptor(0), &mut rng).unwrap();
        assert!((1..=4).contains(&req.partner.as_u64()));
        // Payload: whole view + self descriptor = 5 entries.
        assert_eq!(req.entries.len(), 5);
    }

    #[test]
    fn full_exchange_converges_views() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let mut sa = NewscastSampler::new(a, 4).unwrap();
        let mut sb = NewscastSampler::new(b, 4).unwrap();
        sa.view_mut().insert(entry(1, 2));
        sb.view_mut().insert(entry(7, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let req = sa.initiate(descriptor(0), &mut rng).unwrap();
        let reply = sb.handle_request(descriptor(1), a, &req.entries);
        sa.handle_reply(b, &reply);
        sa.view().check_invariants(Some(a)).unwrap();
        sb.view().check_invariants(Some(b)).unwrap();
        assert!(sb.view().contains(a), "b learned fresh descriptor of a");
        assert!(sa.view().contains(NodeId::new(7)), "a learned b's neighbor");
    }

    #[test]
    fn initiate_on_empty_view_returns_none() {
        let mut s = NewscastSampler::new(NodeId::new(0), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(s.initiate(descriptor(0), &mut rng).is_none());
    }
}
