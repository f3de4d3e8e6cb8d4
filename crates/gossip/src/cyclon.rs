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
//!
//! ## The in-process exchange
//!
//! The message path copies each view twice per exchange: into a payload,
//! then out of it by [`View::replace_with`]. When both samplers live in one
//! process (the cycle simulator) and both are Cyclon, the exchange is only
//! a swap of the two views, and [`PeerSampler::exchange_local`] does it
//! where the views live ([`View::swap_in_place`]): with A the initiator, B
//! the partner and `c` the capacity, B's view becomes the first `c` of (A's
//! view without B, then A's fresh descriptor) and A's view the first `c` of
//! (B's view without A, then B's descriptor) — ages travel with their
//! entries, and a descriptor is appended only where there is room, as the
//! message path's cut at `c` would drop it otherwise.
//!
//! That is exactly the message path's result whenever no view is topped
//! up, i.e. when both capacities are `c`, `|V_A| − [B ∈ V_A] + 1 ≥ c` and
//! `|V_B| − [A ∈ V_B] + 1 ≥ c`. Otherwise — a short view, unequal
//! capacities, a non-Cyclon partner, or self-descriptors that do not carry
//! the samplers' owner ids — the exchange falls back to the message path.
//! In the simulator nearly every exchange qualifies, including the ≈ 40 %
//! whose initiator no longer holds its partner (it served as a responder
//! earlier in the batch order, after scheduling). Both paths are held to
//! each other by a proptest and a 10⁵-case sweep in this module.
//!
//! The swap moves entries element by element between the two existing
//! buffers; it never swaps the `Vec`s themselves. Swapping the vectors gives
//! the same entries but lets every view's heap buffer wander away from its
//! node, so the simulator's slot-ordered sweeps (refresh, active) stop
//! walking memory in order — at 10⁵ nodes that cost more than the copies
//! saved.

use crate::sampler::{
    debug_assert_exchanged, exchange_via_messages, ExchangeBuffers, PeerSampler, SamplerKind,
};
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

    /// Swaps the two views in place when the partner is Cyclon too and no
    /// top-up is needed (see the module docs); the message path otherwise.
    fn exchange_local(
        &mut self,
        self_entry: ViewEntry,
        partner: &mut dyn PeerSampler,
        partner_entry: ViewEntry,
        rng: &mut dyn RngCore,
        bufs: &mut ExchangeBuffers,
    ) {
        let swapped = partner.kind() == SamplerKind::Cyclon
            && self_entry.id == self.owner
            && partner_entry.id == partner.owner()
            && self
                .view
                .swap_in_place(self_entry, partner.view_mut(), partner_entry);
        if swapped {
            debug_assert_exchanged(&self.view, self.owner, partner);
        } else {
            exchange_via_messages(self, self_entry, partner, partner_entry, rng, bufs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{exchange_via_messages, ExchangeBuffers};
    use dslice_core::Attribute;
    use proptest::prelude::*;
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

    /// Fills a Cyclon view for the differential tests: the partner's entry
    /// first when `knows`, then `entries` (repeats skipped) until full.
    fn seeded_sampler(
        owner: u64,
        capacity: usize,
        knows: Option<ViewEntry>,
        entries: &[(u64, u32, f64)],
    ) -> CyclonSampler {
        let mut s = CyclonSampler::new(NodeId::new(owner), capacity).unwrap();
        for e in knows
            .into_iter()
            .chain(entries.iter().map(|&(id, age, value)| {
                ViewEntry::with_age(NodeId::new(id), age, attr(id as f64), value)
            }))
        {
            if !s.view.is_full() && !s.view.contains(e.id) {
                s.view.insert(e);
            }
        }
        s.view.check_invariants(Some(NodeId::new(owner))).unwrap();
        s
    }

    /// Runs `exchange_local` and the message path from the same pair and
    /// asserts both leave identical views — ids, ages, values, order.
    /// Returns whether `exchange_local` skipped the payload buffers (took
    /// the in-place swap), after checking that it did so exactly when the
    /// swap is exact: equal capacities and no top-up on either side.
    fn assert_local_matches_messages(a: CyclonSampler, b: CyclonSampler, seed: u64) -> bool {
        let (own_a, own_b) = (descriptor(a.owner.as_u64()), descriptor(b.owner.as_u64()));
        let c = a.view.capacity();
        let eligible = b.view.capacity() == c
            && a.view.len() - usize::from(a.view.contains(b.owner)) + 1 >= c
            && b.view.len() - usize::from(b.view.contains(a.owner)) + 1 >= c;

        let (mut local_a, mut local_b) = (a.clone(), b.clone());
        let mut bufs = ExchangeBuffers::default();
        local_a.exchange_local(
            own_a,
            &mut local_b,
            own_b,
            &mut StdRng::seed_from_u64(seed),
            &mut bufs,
        );
        let in_place = bufs.request.is_empty() && bufs.reply.is_empty();

        let (mut msg_a, mut msg_b) = (a, b);
        let mut bufs = ExchangeBuffers::default();
        exchange_via_messages(
            &mut msg_a,
            own_a,
            &mut msg_b,
            own_b,
            &mut StdRng::seed_from_u64(seed),
            &mut bufs,
        );

        assert_eq!(
            local_a.view.entries(),
            msg_a.view.entries(),
            "initiator's view"
        );
        assert_eq!(
            local_b.view.entries(),
            msg_b.view.entries(),
            "partner's view"
        );
        assert!(
            in_place || !eligible,
            "an exact swap went through the payloads"
        );
        assert!(
            !in_place || eligible,
            "the swap ran where the message path tops up"
        );
        in_place
    }

    proptest! {
        /// The in-process exchange equals the message path, entry for entry,
        /// over capacities 1..=24 (equal and unequal), views from empty to
        /// full, random ages and values, and either side holding the other.
        #[test]
        fn exchange_local_matches_the_message_path(
            cap_a in 1usize..=24,
            cap_b in prop_oneof![Just(0usize), 1usize..=24],
            a_entries in proptest::collection::vec((2u64..64, 0u32..12, 0.0f64..1.0), 0..=24),
            b_entries in proptest::collection::vec((2u64..64, 0u32..12, 0.0f64..1.0), 0..=24),
            knows in (0u8..2, 0u8..2, 0u32..12, 0u32..12),
            seed in 0u64..1 << 40,
        ) {
            let cap_b = if cap_b == 0 { cap_a } else { cap_b };
            let (a_knows_b, b_knows_a, age_b, age_a) = knows;
            let a = seeded_sampler(0, cap_a, (a_knows_b == 1).then(|| entry(1, age_b)), &a_entries);
            let b = seeded_sampler(1, cap_b, (b_knows_a == 1).then(|| entry(0, age_a)), &b_entries);
            assert_local_matches_messages(a, b, seed);
        }
    }

    /// The seeded sweep: 10⁵ random pairs shaped like the simulator's (full
    /// or nearly full views, equal capacities most of the time), each
    /// checked against the message path — and the in-place swap must
    /// actually carry most of them.
    #[test]
    fn exchange_local_sweep_takes_the_in_place_swap() {
        const CASES: usize = 100_000;
        let mut rng = StdRng::seed_from_u64(0xC1C1_0AE5);
        let mut in_place = 0;
        for case in 0..CASES {
            let cap_a = rng.gen_range(1..=24);
            let cap_b = if rng.gen_bool(0.9) {
                cap_a
            } else {
                rng.gen_range(1..=24)
            };
            let fill = |cap: usize, rng: &mut StdRng| -> Vec<(u64, u32, f64)> {
                let len = if rng.gen_bool(0.8) {
                    cap
                } else {
                    rng.gen_range(0..=cap)
                };
                rand::seq::index::sample(rng, 78, len)
                    .into_iter()
                    .map(|k| (k as u64 + 2, rng.gen_range(0..12), rng.gen::<f64>()))
                    .collect()
            };
            let (a_entries, b_entries) = (fill(cap_a, &mut rng), fill(cap_b, &mut rng));
            let knows =
                |rng: &mut StdRng, id| rng.gen_bool(0.5).then(|| entry(id, rng.gen_range(0..12)));
            let a = seeded_sampler(0, cap_a, knows(&mut rng, 1), &a_entries);
            let b = seeded_sampler(1, cap_b, knows(&mut rng, 0), &b_entries);
            in_place += usize::from(assert_local_matches_messages(a, b, case as u64));
        }
        assert!(
            in_place * 2 > CASES,
            "only {in_place} of {CASES} exchanges were swapped in place"
        );
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
