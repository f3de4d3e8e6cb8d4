//! The paper's Cyclon variant (Fig. 3).
//!
//! > Node `i` copies its view, selects the oldest neighbor `j` of its view,
//! > removes the entry `e_j` of `j` from the copy of its view, and finally
//! > sends the resulting copy to `j`. When `j` receives the view, `j` sends
//! > its own view back to `i` discarding possible pointers to `i`, and `i`
//! > and `j` update their view with the one they receive. This variant of
//! > Cyclon, as opposed to the original version, exchanges **all entries of
//! > the view** at each step.
//!
//! ## Exchange semantics: swap, not union
//!
//! Like the original Cyclon (Voulgaris et al. 2005), the exchange is a
//! **swap**: each side *replaces* its view with the entries it received,
//! topping up with its own freshest entries only if the payload falls short
//! of the capacity `c`. Duplicated ids and self-pointers are discarded
//! (lines 5–6 / 9–10 of Fig. 3).
//!
//! This conservation property is essential. A union-and-truncate merge
//! (keep the freshest `c` of both views) lets fresh self-descriptors crowd
//! out everything else: within tens of cycles one node's descriptor floods
//! every view, most nodes vanish from the overlay, the views freeze, and
//! every protocol on top halts — the overlay degenerates instead of staying
//! "reportedly the best approach to achieve a uniform random neighbor set"
//! (§4.3.1). The swap keeps the global multiset of pointers roughly
//! invariant (each node is referenced ≈ `c` times forever), which is what
//! makes the continuous stream of fresh samples the ranking algorithm
//! relies on actually uniform. The regression test
//! `overlay_stays_diverse_over_many_cycles` pins this property.

use crate::sampler::{ExchangeRequest, PeerSampler, SamplerKind};
use dslice_core::{NodeId, Result, View, ViewEntry};
use rand::RngCore;

/// The Cyclon-variant peer sampler of Fig. 3.
#[derive(Debug, Clone)]
pub struct CyclonSampler {
    owner: NodeId,
    view: View,
}

impl CyclonSampler {
    /// Creates a sampler for `owner` with view capacity `c`.
    pub fn new(owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(CyclonSampler {
            owner,
            view: View::new(capacity)?,
        })
    }
}

impl PeerSampler for CyclonSampler {
    fn owner(&self) -> NodeId {
        self.owner
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::Cyclon
    }

    fn view(&self) -> &View {
        &self.view
    }

    fn view_mut(&mut self) -> &mut View {
        &mut self.view
    }

    fn initiate(
        &mut self,
        self_entry: ViewEntry,
        rng: &mut dyn RngCore,
    ) -> Option<ExchangeRequest> {
        let partner = self.schedule_exchange(rng)?;
        Some(self.initiate_with(partner, self_entry, rng))
    }

    fn schedule_exchange(&mut self, _rng: &mut dyn RngCore) -> Option<NodeId> {
        // Line 1: age every entry.
        self.view.increment_ages();
        // Line 2: pick the oldest neighbor.
        Some(self.view.oldest()?.id)
    }

    fn initiate_into(
        &mut self,
        partner: NodeId,
        self_entry: ViewEntry,
        _rng: &mut dyn RngCore,
        payload: &mut Vec<ViewEntry>,
    ) {
        // Line 3: the request payload is the view copy, minus the partner's
        // own entry, plus a fresh self-descriptor.
        payload.clear();
        payload.extend(self.view.iter().filter(|e| e.id != partner));
        payload.push(self_entry);
    }

    fn handle_request_into(
        &mut self,
        self_entry: ViewEntry,
        from: NodeId,
        entries: &[ViewEntry],
        reply: &mut Vec<ViewEntry>,
    ) {
        // Line 8: reply with the pre-merge view, discarding pointers to the
        // requester, plus a fresh self-descriptor so the requester learns
        // our current value.
        reply.clear();
        reply.extend(self.view.iter().filter(|e| e.id != from));
        reply.push(self_entry);
        // Lines 9–10: adopt the received entries (swap).
        self.view.replace_with(self.owner, entries);
    }

    fn handle_reply(&mut self, _from: NodeId, entries: &[ViewEntry]) {
        // Lines 5–6: adopt the received entries (swap).
        self.view.replace_with(self.owner, entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::Attribute;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

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
    fn initiate_targets_oldest_and_excludes_it() {
        let mut s = CyclonSampler::new(NodeId::new(0), 4).unwrap();
        s.view_mut().insert(entry(1, 5));
        s.view_mut().insert(entry(2, 1));
        s.view_mut().insert(entry(3, 9));
        let mut rng = StdRng::seed_from_u64(1);
        let req = s.initiate(descriptor(0), &mut rng).unwrap();
        assert_eq!(req.partner, NodeId::new(3), "oldest after aging");
        assert!(
            req.entries.iter().all(|e| e.id != NodeId::new(3)),
            "partner's entry removed from payload"
        );
        assert!(
            req.entries
                .iter()
                .any(|e| e.id == NodeId::new(0) && e.age == 0),
            "fresh self-descriptor included"
        );
        // Aging happened before selection.
        assert_eq!(s.view().get(NodeId::new(2)).unwrap().age, 2);
    }

    #[test]
    fn initiate_on_empty_view_returns_none() {
        let mut s = CyclonSampler::new(NodeId::new(0), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.initiate(descriptor(0), &mut rng).is_none());
    }

    #[test]
    fn handle_request_replies_preimage_and_adopts_payload() {
        let mut s = CyclonSampler::new(NodeId::new(9), 4).unwrap();
        s.view_mut().insert(entry(1, 1));
        s.view_mut().insert(entry(7, 2)); // the requester: filtered from reply
        let reply = s.handle_request(descriptor(9), NodeId::new(7), &[entry(2, 0), entry(3, 1)]);
        assert!(reply.iter().any(|e| e.id == NodeId::new(1)));
        assert!(reply.iter().all(|e| e.id != NodeId::new(7)));
        assert!(
            reply.iter().any(|e| e.id == NodeId::new(9)),
            "self descriptor"
        );
        // Swap semantics: the incoming payload forms the new view…
        assert!(s.view().contains(NodeId::new(2)));
        assert!(s.view().contains(NodeId::new(3)));
        // …topped up with previous entries (capacity 4, payload 2).
        assert!(s.view().contains(NodeId::new(1)));
        assert!(s.view().contains(NodeId::new(7)));
    }

    #[test]
    fn reply_discards_self_and_duplicates_and_respects_capacity() {
        let mut s = CyclonSampler::new(NodeId::new(0), 2).unwrap();
        s.view_mut().insert(entry(1, 3));
        s.handle_reply(
            NodeId::new(9),
            &[
                entry(0, 0), // self pointer → dropped
                entry(5, 1),
                entry(5, 0), // duplicate id → first occurrence wins
                entry(6, 2),
                entry(7, 0), // beyond capacity → dropped
            ],
        );
        assert_eq!(s.view().len(), 2);
        assert!(s.view().contains(NodeId::new(5)));
        assert!(s.view().contains(NodeId::new(6)));
        s.view().check_invariants(Some(NodeId::new(0))).unwrap();
    }

    #[test]
    fn full_exchange_swaps_views() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let mut sa = CyclonSampler::new(a, 3).unwrap();
        let mut sb = CyclonSampler::new(b, 3).unwrap();
        sa.view_mut().insert(entry(1, 3)); // a knows b
        sa.view_mut().insert(entry(2, 1));
        sb.view_mut().insert(entry(3, 2));
        sb.view_mut().insert(entry(4, 0));

        let mut rng = StdRng::seed_from_u64(1);
        let req = sa.initiate(descriptor(0), &mut rng).unwrap();
        assert_eq!(req.partner, b);
        let reply = sb.handle_request(descriptor(1), a, &req.entries);
        sa.handle_reply(b, &reply);

        sa.view().check_invariants(Some(a)).unwrap();
        sb.view().check_invariants(Some(b)).unwrap();
        // b adopted a's payload: a's descriptor and node 2.
        assert!(sb.view().contains(a));
        assert!(sb.view().contains(NodeId::new(2)));
        // a adopted b's reply: b's descriptor and b's old neighbors.
        assert!(sa.view().contains(b));
        assert!(sa.view().contains(NodeId::new(3)));
        assert!(sa.view().contains(NodeId::new(4)));
    }

    #[test]
    fn exchange_never_installs_self_pointer() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let mut sa = CyclonSampler::new(a, 3).unwrap();
        let mut sb = CyclonSampler::new(b, 3).unwrap();
        sa.view_mut().insert(entry(1, 1));
        sb.view_mut().insert(entry(0, 4)); // b already knows a
        let mut rng = StdRng::seed_from_u64(2);
        let req = sa.initiate(descriptor(0), &mut rng).unwrap();
        let reply = sb.handle_request(descriptor(1), a, &req.entries);
        sa.handle_reply(b, &reply);
        assert!(!sa.view().contains(a), "no self pointer at a");
        assert!(!sb.view().contains(b), "no self pointer at b");
    }

    #[test]
    fn remove_dead_prunes_view() {
        let mut s = CyclonSampler::new(NodeId::new(0), 4).unwrap();
        s.view_mut().insert(entry(1, 0));
        s.view_mut().insert(entry(2, 0));
        s.remove_dead(&|id| id != NodeId::new(1));
        assert!(!s.view().contains(NodeId::new(1)));
        assert!(s.view().contains(NodeId::new(2)));
    }

    #[test]
    fn bootstrap_seeds_view() {
        let mut s = CyclonSampler::new(NodeId::new(0), 4).unwrap();
        s.bootstrap(&[entry(5, 0), entry(0, 0)]); // self pointer filtered
        assert!(s.view().contains(NodeId::new(5)));
        assert!(!s.view().contains(NodeId::new(0)));
    }

    /// Regression test for the overlay-degeneration bug: run a full overlay
    /// of Cyclon samplers for many cycles and verify the pointer
    /// distribution stays healthy (no node floods the views, almost no node
    /// vanishes, views keep rotating).
    #[test]
    fn overlay_stays_diverse_over_many_cycles() {
        const N: usize = 96;
        const C: usize = 8;
        let mut rng = StdRng::seed_from_u64(77);
        let mut samplers: Vec<CyclonSampler> = (0..N)
            .map(|i| CyclonSampler::new(NodeId::new(i as u64), C).unwrap())
            .collect();
        // Bootstrap: random initial neighbors.
        for (i, sampler) in samplers.iter_mut().enumerate() {
            for _ in 0..C {
                let j = rng.gen_range(0..N);
                if j != i {
                    sampler.view_mut().insert(entry(j as u64, 0));
                }
            }
        }
        let mut prev_views: Vec<Vec<u64>> = Vec::new();
        for cycle in 0..120 {
            for i in 0..N {
                let desc = descriptor(i as u64);
                let Some(req) = samplers[i].initiate(desc, &mut rng) else {
                    continue;
                };
                let p = req.partner.as_u64() as usize;
                let p_desc = descriptor(p as u64);
                let reply = samplers[p].handle_request(p_desc, NodeId::new(i as u64), &req.entries);
                samplers[i].handle_reply(req.partner, &reply);
            }
            if cycle == 119 {
                let mut indeg: HashMap<u64, usize> = HashMap::new();
                for s in &samplers {
                    for e in s.view().iter() {
                        *indeg.entry(e.id.as_u64()).or_default() += 1;
                    }
                }
                let max_in = indeg.values().max().copied().unwrap();
                let missing = N - indeg.len();
                assert!(
                    max_in <= 4 * C,
                    "in-degree concentration: max {max_in} > {}",
                    4 * C
                );
                assert!(
                    missing <= N / 20,
                    "{missing} nodes vanished from the overlay"
                );
            }
            let views: Vec<Vec<u64>> = samplers
                .iter()
                .map(|s| {
                    let mut ids: Vec<u64> = s.view().ids().map(|i| i.as_u64()).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            if cycle > 100 {
                let changed = views
                    .iter()
                    .zip(&prev_views)
                    .filter(|(a, b)| a != b)
                    .count();
                assert!(
                    changed > N / 2,
                    "views frozen at cycle {cycle}: only {changed}/{N} changed"
                );
            }
            prev_views = views;
        }
    }
}
