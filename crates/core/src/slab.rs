//! Dense slab storage for per-node runtime state.
//!
//! Runtimes that simulate large populations (the cycle engine of
//! `dslice-sim` targets 10⁵+ nodes) need three things from their node store
//! that a `BTreeMap<NodeId, T>` does not give them:
//!
//! * **O(1) lookup** on the message-delivery hot path (no tree descent);
//! * **cache-friendly iteration** — node state laid out contiguously, walked
//!   in slot order every cycle;
//! * **stable slots** during a cycle, so the two nodes of a pairwise
//!   exchange can be borrowed mutably together where they live (or
//!   temporarily moved out and put back) without disturbing any other node.
//!
//! [`NodeSlab`] provides exactly that: a `Vec<Option<(NodeId, T)>>` of
//! *slots*, a `NodeId → slot` index, and a LIFO free list so that churn
//! reuses slots instead of growing the vector forever. All operations are
//! deterministic: slot assignment depends only on the sequence of inserts
//! and removes.
//!
//! Slots are stable for as long as a node lives, so a runtime resolves
//! `NodeId → slot` **once** per phase ([`slot_of`](NodeSlab::slot_of)) and
//! addresses the node by slot afterwards ([`slot`](NodeSlab::slot),
//! [`slot_mut`](NodeSlab::slot_mut), [`slot_pair_mut`](NodeSlab::slot_pair_mut),
//! [`take_slot`](NodeSlab::take_slot),
//! [`take_pair_slots`](NodeSlab::take_pair_slots)). The id-addressed
//! accessors are the same operations behind one lookup — and the lookup is
//! an array index too, nothing hashes: the index is a `Vec<u32>` indexed by
//! the raw id, [`u32::MAX`] marking an id that is not live. That is the
//! right shape for identities the program issued itself, sequentially from
//! 0 (the simulator's `NodeIdAllocator`): the index costs 4 bytes per
//! identity ever issued, live or not, and every `NodeId` lies below
//! `u32::MAX`. It is the wrong shape for peer-supplied ids.

use crate::NodeId;

/// An index row whose id is not live.
const ABSENT: u32 = u32::MAX;

/// The live slot of `id` in an id-indexed slot index.
fn lookup(index: &[u32], id: NodeId) -> Option<usize> {
    let slot = *index.get(id.row())?;
    (slot != ABSENT).then_some(slot as usize)
}

/// A slot-addressed, id-indexed dense store of per-node state.
///
/// Iteration ([`iter`](NodeSlab::iter), [`iter_mut`](NodeSlab::iter_mut))
/// visits live nodes in **slot order**, which is the canonical deterministic
/// order runtimes use for phased processing; it is *not* id order once churn
/// has recycled slots.
#[derive(Debug, Clone)]
pub struct NodeSlab<T> {
    /// Slot storage. `None` marks a free (or temporarily vacated) slot.
    slots: Vec<Option<(NodeId, T)>>,
    /// Id → slot, indexed by the raw id ([`ABSENT`] for ids that are not
    /// live). Rows persist while a node is [`take`](NodeSlab::take)n.
    index: Vec<u32>,
    /// Free slots, reused LIFO (deterministic).
    free: Vec<usize>,
    /// Live nodes (including temporarily taken ones).
    len: usize,
}

impl<T> Default for NodeSlab<T> {
    fn default() -> Self {
        NodeSlab {
            slots: Vec::new(),
            index: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> NodeSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty slab with room for `capacity` nodes (and index rows
    /// for ids `0..capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSlab {
            slots: Vec::with_capacity(capacity),
            index: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live nodes (including temporarily taken ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + free). Slot storage is bounded
    /// by the *peak* population, not the current one; the id index adds 4
    /// bytes per identity ever inserted.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// The slot currently assigned to `id`, if live.
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        lookup(&self.index, id)
    }

    /// Inserts `value` under `id`, reusing the most recently freed slot if
    /// any. Returns the assigned slot.
    ///
    /// Panics if `id` is already present — node identities are unique for
    /// the lifetime of a run (the allocator never reuses them).
    pub fn insert(&mut self, id: NodeId, value: T) -> usize {
        let row = id.row();
        if row >= self.index.len() {
            self.index.resize(row + 1, ABSENT);
        }
        assert!(
            self.index[row] == ABSENT,
            "node {id} inserted twice into slab"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.slots[slot].is_none(),
                    "free list points at a live slot"
                );
                self.slots[slot] = Some((id, value));
                slot
            }
            None => {
                self.slots.push(Some((id, value)));
                self.slots.len() - 1
            }
        };
        // Never truncates nor hits `ABSENT`: every slot ever allocated held a
        // distinct id below `u32::MAX`, so there are fewer slots than that.
        self.index[row] = slot as u32;
        self.len += 1;
        slot
    }

    /// Removes `id`, freeing its slot for reuse. Returns the value.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let slot = self.slot_of(id)?;
        self.index[id.row()] = ABSENT;
        self.len -= 1;
        let (stored_id, value) = self.slots[slot]
            .take()
            .expect("indexed slot must be occupied");
        debug_assert_eq!(stored_id, id, "index and slot disagree");
        self.free.push(slot);
        Some(value)
    }

    /// Shared access to `id`'s state.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slot(self.slot_of(id)?)
    }

    /// Mutable access to `id`'s state.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.slot_of(id)?;
        self.slot_mut(slot)
    }

    /// Shared access to the state stored in `slot`: `None` for a free,
    /// vacated ([`take_slot`](NodeSlab::take_slot)n) or out-of-range slot.
    pub fn slot(&self, slot: usize) -> Option<&T> {
        self.slots.get(slot)?.as_ref().map(|(_, v)| v)
    }

    /// The id of the node stored in `slot`: `None` for a free, vacated or
    /// out-of-range slot, as for [`slot`](NodeSlab::slot).
    pub fn id_at(&self, slot: usize) -> Option<NodeId> {
        self.slots.get(slot)?.as_ref().map(|(id, _)| *id)
    }

    /// Mutable access to the state stored in `slot` (see
    /// [`slot`](NodeSlab::slot)).
    pub fn slot_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots.get_mut(slot)?.as_mut().map(|(_, v)| v)
    }

    /// Temporarily moves `id`'s state out of the slab, keeping its slot
    /// reserved (the node stays "live": `len`, `contains` and `slot_of` are
    /// unaffected, but `get` returns `None` until [`put_back`](NodeSlab::put_back)).
    ///
    /// This is the borrow-splitting primitive for pairwise interactions:
    /// take one node, mutate it against `&mut self` access to its partner,
    /// put it back — all O(1), with no slot churn.
    pub fn take(&mut self, id: NodeId) -> Option<(usize, T)> {
        let slot = self.slot_of(id)?;
        let (_, value) = self.take_slot(slot)?;
        Some((slot, value))
    }

    /// The slot-addressed form of [`take`](NodeSlab::take): moves the state
    /// stored in `slot` out, keeping the slot reserved. `None` for a free,
    /// already vacated or out-of-range slot.
    pub fn take_slot(&mut self, slot: usize) -> Option<(NodeId, T)> {
        self.slots.get_mut(slot)?.take()
    }

    /// Restores a node moved out by [`take`](NodeSlab::take) or
    /// [`take_slot`](NodeSlab::take_slot) into its reserved slot.
    pub fn put_back(&mut self, slot: usize, id: NodeId, value: T) {
        debug_assert!(self.slots[slot].is_none(), "slot occupied on put_back");
        debug_assert_eq!(self.slot_of(id), Some(slot), "slot not reserved");
        self.slots[slot] = Some((id, value));
    }

    /// Iterates live nodes in slot order as `(slot, id, &state)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, cell)| cell.as_ref().map(|(id, v)| (slot, *id, v)))
    }

    /// Iterates live nodes in slot order as `(slot, id, &mut state)`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, NodeId, &mut T)> {
        live_mut(&mut self.slots)
    }

    /// [`iter_mut`](NodeSlab::iter_mut) beside a read-only id → slot lookup
    /// that stays usable *while* the iterator borrows the slot storage (the
    /// borrows are split at the field level).
    ///
    /// This is the substrate for phases that mutate every node against the
    /// rest of the population — an immutable per-slot snapshot, or the live
    /// set itself: the walk resolves cross-node references through the
    /// lookup without touching any other node's state. The iterator yields
    /// only `(slot, id, &mut state)`, never the cells, so it cannot desync
    /// the index or the free list.
    pub fn iter_mut_with_lookup(
        &mut self,
    ) -> (
        impl Iterator<Item = (usize, NodeId, &mut T)>,
        SlotLookup<'_>,
    ) {
        (live_mut(&mut self.slots), SlotLookup { index: &self.index })
    }

    /// Iterates live node ids in slot order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .filter_map(|cell| cell.as_ref().map(|(id, _)| *id))
    }

    /// Temporarily moves *both* endpoints of a pairwise exchange out of the
    /// slab (see [`take`](NodeSlab::take)), keeping their slots reserved.
    ///
    /// Returns `None` — with any partially taken state restored — when the
    /// endpoints alias (`a == b`) or either endpoint is absent or already
    /// taken. Pair-batch runtimes schedule conflict-free batches (no node in
    /// two pairs of one batch), so within a batch every `take_pair` succeeds.
    pub fn take_pair(&mut self, a: NodeId, b: NodeId) -> Option<TakenPair<T>> {
        self.take_pair_slots(self.slot_of(a)?, self.slot_of(b)?)
    }

    /// The slot-addressed form of [`take_pair`](NodeSlab::take_pair), for
    /// runtimes that resolved both endpoints when they scheduled the
    /// exchange. Same contract: `None`, with nothing left taken, when the
    /// slots alias or either is free, vacated or out of range.
    pub fn take_pair_slots(&mut self, a_slot: usize, b_slot: usize) -> Option<TakenPair<T>> {
        if a_slot == b_slot {
            return None;
        }
        let (a_id, a) = self.take_slot(a_slot)?;
        match self.take_slot(b_slot) {
            Some((b_id, b)) => Some(TakenPair {
                a_slot,
                a_id,
                a,
                b_slot,
                b_id,
                b,
            }),
            None => {
                self.put_back(a_slot, a_id, a);
                None
            }
        }
    }

    /// Borrows the states stored in two distinct slots mutably at once,
    /// where they live — the in-place form of
    /// [`take_pair_slots`](NodeSlab::take_pair_slots) for a pairwise
    /// exchange that needs nothing from the slab beyond the two nodes.
    /// Same contract: `None`, with the slab untouched, when the slots alias
    /// or either is free, vacated or out of range.
    pub fn slot_pair_mut(&mut self, a_slot: usize, b_slot: usize) -> Option<(&mut T, &mut T)> {
        match self.slots.get_disjoint_mut([a_slot, b_slot]) {
            Ok([Some((_, a)), Some((_, b))]) => Some((a, b)),
            _ => None,
        }
    }

    /// Restores a pair moved out by [`take_pair`](NodeSlab::take_pair) into
    /// its reserved slots.
    pub fn put_back_pair(&mut self, pair: TakenPair<T>) {
        self.put_back(pair.a_slot, pair.a_id, pair.a);
        self.put_back(pair.b_slot, pair.b_id, pair.b);
    }
}

/// The live cells of `slots`, in slot order, as `(slot, id, &mut state)`:
/// the walk behind [`NodeSlab::iter_mut`], on the slot storage alone so a
/// caller can keep a concurrent borrow of the index.
fn live_mut<T>(slots: &mut [Option<(NodeId, T)>]) -> impl Iterator<Item = (usize, NodeId, &mut T)> {
    slots
        .iter_mut()
        .enumerate()
        .filter_map(|(slot, cell)| cell.as_mut().map(|(id, v)| (slot, *id, v)))
}

/// Read-only id → slot lookup handed out by
/// [`NodeSlab::iter_mut_with_lookup`]; valid while the iterator is live.
/// It lends the slab's id-indexed slot column: a lookup is an array index.
#[derive(Debug, Clone, Copy)]
pub struct SlotLookup<'a> {
    index: &'a [u32],
}

impl SlotLookup<'_> {
    /// The slot currently assigned to `id`, if live.
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        lookup(self.index, id)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }
}

/// Both endpoints of one pairwise exchange, temporarily owned outside the
/// slab (see [`NodeSlab::take_pair`]). Field names follow the exchange
/// roles: `a` initiates, `b` responds.
#[derive(Debug)]
pub struct TakenPair<T> {
    /// Initiator slot (global, reserved while taken).
    pub a_slot: usize,
    /// Initiator id.
    pub a_id: NodeId,
    /// Initiator state.
    pub a: T,
    /// Responder slot (global, reserved while taken).
    pub b_slot: usize,
    /// Responder id.
    pub b_id: NodeId,
    /// Responder state.
    pub b: T,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut slab: NodeSlab<&str> = NodeSlab::new();
        assert!(slab.is_empty());
        let s0 = slab.insert(id(10), "a");
        let s1 = slab.insert(id(11), "b");
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(id(10)), Some(&"a"));
        assert_eq!(slab.slot_of(id(11)), Some(1));
        assert_eq!(slab.remove(id(10)), Some("a"));
        assert!(!slab.contains(id(10)));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(id(10)), None);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..4 {
            slab.insert(id(i), i as u32);
        }
        slab.remove(id(1));
        slab.remove(id(3));
        // LIFO: the most recently freed slot (3) goes first.
        assert_eq!(slab.insert(id(10), 10), 3);
        assert_eq!(slab.insert(id(11), 11), 1);
        // No growth beyond the peak.
        assert_eq!(slab.slot_count(), 4);
        assert_eq!(slab.insert(id(12), 12), 4, "full slab grows");
    }

    #[test]
    fn iteration_is_slot_ordered() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..5 {
            slab.insert(id(100 - i), i as u32);
        }
        slab.remove(id(98)); // slot 2 vacated
        let ids: Vec<u64> = slab.ids().map(|n| n.as_u64()).collect();
        assert_eq!(ids, vec![100, 99, 97, 96]);
        slab.insert(id(5), 50); // reuses slot 2
        let ids: Vec<u64> = slab.ids().map(|n| n.as_u64()).collect();
        assert_eq!(ids, vec![100, 99, 5, 97, 96]);
    }

    #[test]
    fn take_reserves_the_slot() {
        let mut slab: NodeSlab<String> = NodeSlab::new();
        slab.insert(id(1), "one".into());
        slab.insert(id(2), "two".into());
        let (slot, value) = slab.take(id(1)).unwrap();
        assert_eq!(value, "one");
        assert!(slab.contains(id(1)), "taken node stays live");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(id(1)), None, "state is out");
        assert!(slab.take(id(1)).is_none(), "cannot take twice");
        // The vacated slot is NOT on the free list: an insert must not steal it.
        assert_eq!(slab.insert(id(3), "three".into()), 2);
        slab.put_back(slot, id(1), value);
        assert_eq!(slab.get(id(1)), Some(&"one".to_string()));
    }

    #[test]
    fn iter_mut_reaches_every_live_node() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..3 {
            slab.insert(id(i), 0);
        }
        for (_, _, v) in slab.iter_mut() {
            *v += 1;
        }
        assert!(slab.iter().all(|(_, _, v)| *v == 1));
    }

    #[test]
    fn take_pair_reserves_both_slots_and_rejects_conflicts() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..4 {
            slab.insert(id(i), i as u32);
        }
        let pair = slab.take_pair(id(1), id(3)).unwrap();
        assert_eq!((pair.a_id, pair.a, pair.b_id, pair.b), (id(1), 1, id(3), 3));
        assert_eq!(slab.len(), 4, "taken nodes stay live");
        // Either endpoint being out blocks an overlapping pair.
        assert!(slab.take_pair(id(0), id(1)).is_none());
        assert!(slab.get(id(0)).is_some(), "failed take_pair restored a");
        assert!(slab.take_pair(id(3), id(2)).is_none());
        assert!(
            slab.get(id(2)).is_some(),
            "failed take_pair restored b side"
        );
        // Self-pairs and missing endpoints are rejected.
        assert!(slab.take_pair(id(0), id(0)).is_none());
        assert!(slab.take_pair(id(0), id(99)).is_none());
        assert!(slab.get(id(0)).is_some());
        slab.put_back_pair(pair);
        assert_eq!(slab.get(id(1)), Some(&1));
        assert_eq!(slab.get(id(3)), Some(&3));
    }

    #[test]
    fn borrowed_walk_covers_every_live_node_exactly_once() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..10 {
            slab.insert(id(i), i as u32);
        }
        slab.remove(id(3));
        slab.remove(id(7));
        for _ in 0..5 {
            let (nodes, _) = slab.iter_mut_with_lookup();
            let mut seen: Vec<(usize, u64)> = Vec::new();
            for (slot, node, v) in nodes {
                *v += 1; // mutation reaches the slab
                seen.push((slot, node.as_u64()));
            }
            // Slot order, no duplicates, exactly the live set.
            assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
            let ids: Vec<u64> = seen.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        }
        assert!(slab.iter().all(|(_, i, v)| *v == i.as_u64() as u32 + 5));
        let mut empty: NodeSlab<u32> = NodeSlab::new();
        assert!(empty.iter_mut_with_lookup().0.next().is_none());
    }

    #[test]
    fn lookup_stays_usable_while_nodes_are_borrowed() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..9 {
            slab.insert(id(i), i as u32);
        }
        slab.remove(id(4));
        let (nodes, lookup) = slab.iter_mut_with_lookup();
        let mut seen = Vec::new();
        for (slot, node, v) in nodes {
            assert_eq!(lookup.slot_of(node), Some(slot));
            *v += 100;
            seen.push(node.as_u64());
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 5, 6, 7, 8], "slot order, live only");
        assert!(!lookup.contains(id(4)));
        assert_eq!(slab.get(id(7)), Some(&107));
    }

    #[test]
    fn slot_addressing_rejects_dead_slots() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        slab.insert(id(1), 10);
        slab.insert(id(2), 20);
        slab.remove(id(1)); // slot 0 is now free
        assert_eq!(slab.slot(0), None);
        assert_eq!(slab.id_at(0), None);
        assert_eq!(slab.id_at(1), Some(id(2)));
        assert_eq!(slab.id_at(7), None, "out of range");
        assert_eq!(slab.slot_mut(0), None);
        assert_eq!(slab.take_slot(0), None);
        assert_eq!(slab.slot(7), None, "out of range");
        assert!(slab.take_pair_slots(0, 1).is_none(), "free endpoint");
        assert_eq!(slab.slot(1), Some(&20), "failed pair take restored b");
        assert!(slab.take_pair_slots(1, 1).is_none(), "aliasing slots");
        assert!(
            slab.take_pair_slots(1, 9).is_none(),
            "out-of-range endpoint"
        );
        assert_eq!(slab.slot(1), Some(&20), "failed pair take restored a");
    }

    #[test]
    fn pair_borrow_refuses_what_take_pair_slots_refuses() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        for i in 0..4 {
            slab.insert(id(i), i as u32 * 10);
        }
        slab.remove(id(1)); // slot 1 is free
        let (slot, taken) = slab.take(id(2)).unwrap(); // slot 2 is vacated
        let before = (slab.slots.clone(), slab.index.clone(), slab.free.clone());
        let unchanged = |slab: &NodeSlab<u32>| {
            (slab.slots.clone(), slab.index.clone(), slab.free.clone()) == before
        };
        for (a, b, why) in [
            (0, 0, "aliasing slots"),
            (0, 1, "free slot"),
            (1, 3, "free slot first"),
            (3, 2, "vacated slot"),
            (0, 9, "out-of-range slot"),
            (9, 3, "out-of-range slot first"),
        ] {
            assert!(slab.slot_pair_mut(a, b).is_none(), "{why}");
            assert!(unchanged(&slab), "{why}: the slab changed");
            assert!(slab.take_pair_slots(a, b).is_none(), "{why}");
            assert!(unchanged(&slab), "{why}: take_pair_slots changed the slab");
        }
        slab.put_back(slot, id(2), taken);
        let (a, b) = slab.slot_pair_mut(3, 0).unwrap();
        assert_eq!((*a, *b), (30, 0));
        (*a, *b) = (31, 1);
        assert_eq!(slab.get(id(3)), Some(&31), "write through a landed");
        assert_eq!(slab.get(id(0)), Some(&1), "write through b landed");
        assert_eq!(slab.len(), 3, "borrowing changes no liveness");
    }

    /// Index, slots and free list must describe one population: every
    /// indexed id sits in its slot, free slots are empty and indexed by
    /// nobody, and no slot is free twice.
    fn assert_consistent(slab: &NodeSlab<u32>, model: &BTreeMap<u64, u32>) {
        assert_eq!(slab.len(), model.len());
        for (&raw, value) in model {
            let slot = slab.slot_of(id(raw)).expect("live id is indexed");
            assert_eq!(slab.slots[slot], Some((id(raw), *value)));
        }
        let mut free = slab.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), slab.free.len(), "a slot is free twice");
        for &slot in &free {
            assert!(slab.slots[slot].is_none(), "free slot {slot} is occupied");
            assert!(
                slab.index.iter().all(|&live| live as usize != slot),
                "free slot {slot} is also live"
            );
        }
        assert_eq!(slab.slot_count(), model.len() + free.len());
        let indexed = slab.index.iter().filter(|&&slot| slot != ABSENT).count();
        assert_eq!(indexed, model.len(), "index rows and live nodes disagree");
    }

    proptest! {
        /// Whatever sequence of inserts, removes and takes a run performs,
        /// addressing a node by slot does exactly what addressing it by id
        /// does, and the free list never overlaps the live set — for the
        /// allocator's sequential ids and for gapped, non-monotone ones (a
        /// bijective scramble of the insert counter over `0..10_007`).
        #[test]
        fn slot_and_id_addressing_agree_under_churn(
            ops in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..120),
            scramble in prop_oneof![Just(None), (1u64..10_007, 0u64..10_007).prop_map(Some)],
        ) {
            let mut slab: NodeSlab<u32> = NodeSlab::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut inserted = 0u64;
            for (op, pick_a, pick_b) in ops {
                let live: Vec<u64> = model.keys().copied().collect();
                let pick = |p: usize| live[p % live.len()];
                match op {
                    0 => {
                        let raw = match scramble {
                            None => inserted,
                            Some((stride, offset)) => (inserted * stride + offset) % 10_007,
                        };
                        inserted += 1;
                        let slot = slab.insert(id(raw), raw as u32);
                        prop_assert_eq!(slab.slot(slot), Some(&(raw as u32)));
                        model.insert(raw, raw as u32);
                    }
                    1 if !live.is_empty() => {
                        let raw = pick(pick_a);
                        prop_assert_eq!(slab.remove(id(raw)), model.remove(&raw));
                    }
                    2 if !live.is_empty() => {
                        let raw = pick(pick_a);
                        let slot = slab.slot_of(id(raw)).unwrap();
                        let by_id = slab.take(id(raw)).unwrap();
                        prop_assert_eq!(slab.slot(slot), None, "taken state is out");
                        slab.put_back(by_id.0, id(raw), by_id.1);
                        let by_slot = slab.take_slot(slot).unwrap();
                        prop_assert_eq!(slab.get(id(raw)), None, "taken state is out");
                        prop_assert_eq!((slot, by_slot.1), by_id);
                        prop_assert_eq!(by_slot.0, id(raw));
                        slab.put_back(slot, by_slot.0, by_slot.1);
                        *slab.slot_mut(slot).unwrap() += 1;
                        *model.get_mut(&raw).unwrap() += 1;
                        prop_assert_eq!(slab.get(id(raw)), model.get(&raw));
                    }
                    3 if !live.is_empty() => {
                        let (a, b) = (pick(pick_a), pick(pick_b));
                        let slots = (slab.slot_of(id(a)).unwrap(), slab.slot_of(id(b)).unwrap());
                        let by_id = slab.take_pair(id(a), id(b));
                        prop_assert_eq!(by_id.is_some(), a != b);
                        let seen = by_id.map(|pair| {
                            let seen = (pair.a_slot, pair.a_id, pair.a, pair.b_slot, pair.b_id, pair.b);
                            slab.put_back_pair(pair);
                            seen
                        });
                        let by_slot = slab.take_pair_slots(slots.0, slots.1).map(|pair| {
                            let seen = (pair.a_slot, pair.a_id, pair.a, pair.b_slot, pair.b_id, pair.b);
                            slab.put_back_pair(pair);
                            seen
                        });
                        prop_assert_eq!(seen, by_slot);
                        // In place: the same refusals, and both writes land.
                        let in_place = slab.slot_pair_mut(slots.0, slots.1).map(|(x, y)| {
                            let seen = (*x, *y);
                            (*x, *y) = (seen.0 + 1, seen.1 + 2);
                            seen
                        });
                        prop_assert_eq!(in_place, seen.map(|s| (s.2, s.5)));
                        if in_place.is_some() {
                            *model.get_mut(&a).unwrap() += 1;
                            *model.get_mut(&b).unwrap() += 2;
                        }
                        prop_assert_eq!(slab.get(id(a)), model.get(&a));
                        prop_assert_eq!(slab.get(id(b)), model.get(&b));
                    }
                    _ => {}
                }
                assert_consistent(&slab, &model);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        slab.insert(id(1), 1);
        slab.insert(id(1), 2);
    }

    #[test]
    fn ids_beyond_the_index_just_miss() {
        let mut slab: NodeSlab<u32> = NodeSlab::new();
        slab.insert(id(3), 3);
        let far = id(u64::from(u32::MAX) - 1);
        assert_eq!(slab.slot_of(far), None);
        assert_eq!(slab.remove(far), None);
        assert_eq!(slab.get(far), None);
    }
}
