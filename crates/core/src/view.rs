//! The bounded neighbor table (*view*) of §4.2.
//!
//! > Every node `i` keeps track of some neighbors and their age. […] node `i`
//! > maintains an array containing the id, the age, the attribute value, and
//! > the random value of its neighbors. This array, denoted `N_i`, is called
//! > the view of node `i`. The views of all nodes have the same size, denoted
//! > by `c`.
//!
//! [`ViewEntry`] is the row of Table 1. The `value` field carries the random
//! value `r_j` for the ordering algorithms (§4) and the *rank estimate* for
//! the ranking algorithm (§5) — both live in `(0, 1]` and both are gossiped
//! the same way, so they share a field.
//!
//! Entries are **snapshots**: the attribute never changes (paper assumption),
//! but the value may go stale between gossip exchanges. The simulator decides
//! when snapshots are refreshed, which is exactly the staleness knob behind
//! the paper's concurrency study (§4.5.2).
//!
//! ## Entry types
//!
//! The peer-sampling layer (the Cyclon variant of Fig. 3 and its
//! alternatives) reads only an entry's id and age, so a [`View`] is generic
//! over the [`Entry`] it stores. Protocols, the network runtime and the wire
//! use the full [`ViewEntry`], the default. The cycle simulator stores the
//! 8-byte [`AgedId`] instead: it refreshes every value before a protocol
//! reads a view anyway, and an attribute is a copy of an immutable per-node
//! field, so it joins both in from its per-cycle snapshot at the moment a
//! protocol reads the view.

use crate::{Attribute, Error, NodeId, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// What a [`View`] needs of an entry: the neighbor's id and the entry's age
/// — everything the peer-sampling layer reads (Fig. 3).
pub trait Entry: Copy + PartialEq + fmt::Debug + Send {
    /// The identifier of the neighbor the entry describes.
    fn id(&self) -> NodeId;
    /// The age of the entry, in gossip cycles.
    fn age(&self) -> u32;
    /// Replaces the age of the entry.
    fn set_age(&mut self, age: u32);
}

/// One row of a node's view: Table 1 of the paper.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ViewEntry {
    /// The identifier of the neighbor (`j`).
    pub id: NodeId,
    /// The age of the entry (`t_j`): 0 when the neighbor was (re-)inserted,
    /// incremented once per gossip cycle.
    pub age: u32,
    /// The attribute value of the neighbor (`a_j`) — immutable per the model.
    pub attribute: Attribute,
    /// The random value (`r_j`, ordering algorithms) or rank estimate
    /// (ranking algorithm) of the neighbor as of the snapshot.
    pub value: f64,
}

impl ViewEntry {
    /// Creates a fresh entry (age 0).
    pub fn new(id: NodeId, attribute: Attribute, value: f64) -> Self {
        ViewEntry {
            id,
            age: 0,
            attribute,
            value,
        }
    }

    /// Creates an entry with an explicit age (used when forwarding views).
    pub fn with_age(id: NodeId, age: u32, attribute: Attribute, value: f64) -> Self {
        ViewEntry {
            id,
            age,
            attribute,
            value,
        }
    }
}

impl Entry for ViewEntry {
    fn id(&self) -> NodeId {
        self.id
    }

    fn age(&self) -> u32 {
        self.age
    }

    fn set_age(&mut self, age: u32) {
        self.age = age;
    }
}

/// The simulator's view row: a neighbor's id and the entry's age, in 8
/// bytes where a [`ViewEntry`] takes 24. The attribute and the value are
/// joined in from the simulator's per-cycle snapshot when a protocol reads
/// the view (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AgedId {
    /// The identifier of the neighbor (`j`).
    pub id: NodeId,
    /// The age of the entry (`t_j`), as in [`ViewEntry::age`].
    pub age: u32,
}

impl AgedId {
    /// Creates a fresh entry (age 0): a node's self-descriptor.
    pub fn new(id: NodeId) -> Self {
        AgedId { id, age: 0 }
    }
}

impl Entry for AgedId {
    fn id(&self) -> NodeId {
        self.id
    }

    fn age(&self) -> u32 {
        self.age
    }

    fn set_age(&mut self, age: u32) {
        self.age = age;
    }
}

/// The eviction order: the oldest entry first, ties broken by id for
/// determinism.
fn older<E: Entry>(a: &E, b: &E) -> Ordering {
    a.age().cmp(&b.age()).then_with(|| a.id().cmp(&b.id()))
}

/// A bounded set of [`Entry`]s — [`ViewEntry`]s unless stated otherwise —
/// with at most one entry per neighbor.
///
/// Invariants (checked in debug builds and by property tests):
/// * at most `capacity` entries;
/// * entry ids are unique;
/// * a view owned by node `i` never contains an entry for `i` itself
///   (enforced by [`merge`](View::merge), which takes the owner's id).
#[derive(Clone, Debug, PartialEq)]
pub struct View<E = ViewEntry> {
    capacity: usize,
    entries: Vec<E>,
}

impl View {
    /// Creates an empty view of [`ViewEntry`]s with the given capacity
    /// `c ≥ 1`; [`View::empty`] for any entry type.
    pub fn new(capacity: usize) -> Result<Self> {
        Self::empty(capacity)
    }

    /// Updates the value snapshot for `id` (if present), returning whether an
    /// entry was updated.
    pub fn refresh_value(&mut self, id: NodeId, value: f64) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.value = value;
            true
        } else {
            false
        }
    }

    /// Refreshes every entry's value snapshot in one pass: `lookup` returns
    /// the current value published by a live neighbor, or `None` for a
    /// departed one, whose entry is dropped. Entry order is preserved.
    ///
    /// This is the bulk form of [`refresh_value`](View::refresh_value):
    /// O(len) with no per-entry search and no id collection on the side.
    pub fn refresh_values<F: FnMut(NodeId) -> Option<f64>>(&mut self, mut lookup: F) {
        self.entries.retain_mut(|e| match lookup(e.id) {
            Some(value) => {
                e.value = value;
                true
            }
            None => false,
        });
    }
}

impl<E: Entry> View<E> {
    /// Creates an empty view with the given capacity `c ≥ 1`.
    pub fn empty(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::ZeroViewCapacity);
        }
        Ok(View {
            capacity,
            entries: Vec::with_capacity(capacity),
        })
    }

    /// The view size bound `c`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the view is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries.iter()
    }

    /// Looks up the entry for `id`.
    pub fn get(&self, id: NodeId) -> Option<&E> {
        self.entries.iter().find(|e| e.id() == id)
    }

    /// Whether the view contains an entry for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// The neighbor ids currently in the view.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.id())
    }

    /// Increments every entry's age by one (line 1 of Fig. 3).
    pub fn increment_ages(&mut self) {
        for e in &mut self.entries {
            e.set_age(e.age().saturating_add(1));
        }
    }

    /// The entry with the maximal age (line 2 of Fig. 3); ties broken by id
    /// for determinism. `None` on an empty view.
    pub fn oldest(&self) -> Option<&E> {
        self.entries.iter().max_by(|a, b| older(*a, *b))
    }

    /// A uniformly random entry (used to pick `j2` in Fig. 5).
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&E> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[rng.gen_range(0..self.entries.len())])
        }
    }

    /// Inserts or replaces the entry for `entry.id()`.
    ///
    /// If the id is already present the entry is replaced. If the view is
    /// full, the oldest entry is evicted to make room (freshness-preferring
    /// truncation, the standard Cyclon policy).
    pub fn insert(&mut self, entry: E) {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.id() == entry.id()) {
            *existing = entry;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_oldest();
        }
        self.entries.push(entry);
    }

    /// Removes the entry for `id`, returning it if present.
    pub fn remove(&mut self, id: NodeId) -> Option<E> {
        let idx = self.entries.iter().position(|e| e.id() == id)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Retains only entries whose id satisfies the predicate (used by churn
    /// handling to drop departed neighbors).
    pub fn retain<F: FnMut(NodeId) -> bool>(&mut self, mut keep: F) {
        self.entries.retain(|e| keep(e.id()));
    }

    /// Writes this view's entries, in order and through `join`, over the
    /// contents of `out`, which takes this view's capacity; an entry for
    /// which `join` returns `None` describes a departed neighbor and is
    /// dropped from both views. `out` therefore keeps this view's
    /// invariants when `join` keeps each entry's id.
    ///
    /// The simulator builds the [`ViewEntry`] view a protocol reads from
    /// its stored [`AgedId`]s this way, joining in each neighbor's attribute
    /// and current value.
    pub fn join_into<F: Entry>(&mut self, out: &mut View<F>, mut join: impl FnMut(E) -> Option<F>) {
        out.capacity = self.capacity;
        out.entries.clear();
        self.entries.retain(|&e| match join(e) {
            Some(joined) => {
                out.entries.push(joined);
                true
            }
            None => false,
        });
    }

    /// Merges an incoming view per lines 5–6 / 9–10 of Fig. 3:
    ///
    /// * entries whose id is already present are *duplicates* and discarded
    ///   (the resident entry is kept unless the incoming one is strictly
    ///   younger, in which case it refreshes the snapshot);
    /// * an entry describing the owner itself (`e_i`) is discarded;
    /// * the union is truncated back to `capacity` by evicting the oldest
    ///   entries.
    pub fn merge(&mut self, owner: NodeId, incoming: &[E]) {
        for entry in incoming {
            if entry.id() == owner {
                continue;
            }
            match self.entries.iter_mut().find(|e| e.id() == entry.id()) {
                Some(existing) => {
                    if entry.age() < existing.age() {
                        *existing = *entry;
                    }
                }
                None => self.entries.push(*entry),
            }
        }
        while self.entries.len() > self.capacity {
            self.evict_oldest();
        }
    }

    /// Replaces the view with `incoming` — the *swap* of the paper's Cyclon
    /// variant (Fig. 3 lines 5–6 / 9–10): the received entries become the
    /// view, in arrival order, minus any entry describing `owner` and minus
    /// repeated ids (the first occurrence wins), cut at `capacity`. A payload
    /// shorter than the capacity is topped up with the freshest previous
    /// entries (youngest first, ties by id) the payload did not mention.
    ///
    /// Works inside the view's own storage: no allocation, and the entry
    /// vector never grows past `capacity`.
    pub fn replace_with(&mut self, owner: NodeId, incoming: &[E]) {
        let accepted = |idx: usize| {
            let id = incoming[idx].id();
            id != owner && incoming[..idx].iter().all(|earlier| earlier.id() != id)
        };
        // One pass over the payload: how many entries it contributes, and
        // how far in the last of them sits.
        let (mut fresh, mut span) = (0, 0);
        for idx in 0..incoming.len() {
            if fresh == self.capacity {
                break;
            }
            if accepted(idx) {
                fresh += 1;
                span = idx + 1;
            }
        }
        // Keep the previous entries that will top the payload up (none when
        // the payload fills the view), then put the payload in front of them.
        if fresh < self.capacity {
            self.entries
                .retain(|e| e.id() != owner && incoming.iter().all(|i| i.id() != e.id()));
            self.entries.sort_unstable_by(older);
            self.entries.truncate(self.capacity - fresh);
        } else {
            self.entries.clear();
        }
        let kept = self.entries.len();
        if fresh == span {
            // Nothing was refused (every honest Cyclon payload): the taken
            // entries are a prefix, no second look at them needed.
            self.entries.extend_from_slice(&incoming[..span]);
        } else {
            self.entries.extend(
                (0..span)
                    .filter(|&idx| accepted(idx))
                    .map(|idx| incoming[idx]),
            );
        }
        self.entries.rotate_left(kept);
    }

    /// The Cyclon full-view swap between two views in one process, written
    /// where the views live. `self` belongs to `own.id` and `other` to
    /// `other_own.id`; the `own`s are the two fresh self-descriptors. On
    /// success `self` holds the first `c` of (`other` without `own.id`, then
    /// `other_own`), and `other` holds the first `c` of (`self` without
    /// `other_own.id`, then `own`). Entries keep their ages.
    ///
    /// That is what the message exchange — request and reply payloads
    /// built from the pre-exchange views, each adopted by
    /// [`replace_with`](View::replace_with) — leaves behind whenever neither
    /// side needs a top-up, given the structural invariants on entry (no
    /// duplicate, no self-entry). So this returns `false` and touches
    /// nothing unless both views have capacity `c` and
    /// `|self| − [other_own.id ∈ self] + 1 ≥ c` and
    /// `|other| − [own.id ∈ other] + 1 ≥ c` (and the ids differ).
    ///
    /// The entries are swapped element by element inside the two existing
    /// buffers, never by swapping the buffers: each view's storage stays
    /// with its node, so a runtime that lays node state out in slot order
    /// keeps walking it in slot order.
    pub fn swap_in_place(&mut self, own: E, other: &mut View<E>, other_own: E) -> bool {
        let c = self.capacity;
        let mine = self.entries.iter().position(|e| e.id() == other_own.id());
        let theirs = other.entries.iter().position(|e| e.id() == own.id());
        if own.id() == other_own.id()
            || other.capacity != c
            || self.entries.len() - usize::from(mine.is_some()) + 1 < c
            || other.entries.len() - usize::from(theirs.is_some()) + 1 < c
        {
            return false;
        }
        if let Some(idx) = mine {
            self.entries.remove(idx);
        }
        if let Some(idx) = theirs {
            other.entries.remove(idx);
        }
        // Each side now holds c − 1 or c entries: swap the common prefix,
        // then hand the longer side's last entry over.
        let common = self.entries.len().min(other.entries.len());
        self.entries[..common].swap_with_slice(&mut other.entries[..common]);
        match self.entries.len().cmp(&other.entries.len()) {
            Ordering::Greater => other.entries.extend(self.entries.pop()),
            Ordering::Less => self.entries.extend(other.entries.pop()),
            Ordering::Equal => {}
        }
        // A self-descriptor fits only where the swapped-in entries left room.
        if self.entries.len() < c {
            self.entries.push(other_own);
        }
        if other.entries.len() < c {
            other.entries.push(own);
        }
        true
    }

    fn evict_oldest(&mut self) {
        if let Some((idx, _)) = self
            .entries
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| older(*a, *b))
        {
            self.entries.swap_remove(idx);
        }
    }

    /// Checks the structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self, owner: Option<NodeId>) -> Result<()> {
        if self.entries.len() > self.capacity {
            return Err(Error::InvalidBoundaries(format!(
                "view overflow: {} > {}",
                self.entries.len(),
                self.capacity
            )));
        }
        for (i, a) in self.entries.iter().enumerate() {
            if Some(a.id()) == owner {
                return Err(Error::UnknownNode(a.id()));
            }
            for b in &self.entries[i + 1..] {
                if a.id() == b.id() {
                    return Err(Error::UnknownNode(a.id()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn entry(id: u64, age: u32, value: f64) -> ViewEntry {
        ViewEntry::with_age(NodeId::new(id), age, attr(id as f64), value)
    }

    #[test]
    fn capacity_zero_rejected() {
        assert!(matches!(View::new(0), Err(Error::ZeroViewCapacity)));
    }

    #[test]
    fn refresh_values_updates_live_and_drops_dead_in_order() {
        let mut v = View::new(4).unwrap();
        v.insert(entry(1, 0, 0.1));
        v.insert(entry(2, 0, 0.2));
        v.insert(entry(3, 0, 0.3));
        v.refresh_values(|id| match id.as_u64() {
            1 => Some(0.9),
            3 => Some(0.7),
            _ => None,
        });
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(NodeId::new(1)).unwrap().value, 0.9);
        assert!(!v.contains(NodeId::new(2)));
        assert_eq!(v.get(NodeId::new(3)).unwrap().value, 0.7);
        // Surviving entries keep their relative order.
        let ids: Vec<u64> = v.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn join_into_drops_the_departed_from_both_views_in_order() {
        let mut stored = View::empty(4).unwrap();
        for (id, age) in [(1, 3), (2, 0), (3, 5)] {
            stored.insert(AgedId {
                id: NodeId::new(id),
                age,
            });
        }
        let mut joined = View::new(1).unwrap();
        joined.insert(entry(9, 0, 0.9));
        stored.join_into(&mut joined, |e| {
            (e.id.as_u64() != 2).then(|| entry(e.id.as_u64(), e.age, e.id.as_u64() as f64 / 10.0))
        });
        assert_eq!(stored.ids().map(|i| i.as_u64()).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(joined.entries(), &[entry(1, 3, 0.1), entry(3, 5, 0.3)]);
        assert_eq!(joined.capacity(), 4, "the joined view takes the capacity");
    }

    #[test]
    fn insert_and_lookup() {
        let mut v = View::new(3).unwrap();
        v.insert(entry(1, 0, 0.5));
        v.insert(entry(2, 1, 0.6));
        assert_eq!(v.len(), 2);
        assert!(v.contains(NodeId::new(1)));
        assert_eq!(v.get(NodeId::new(2)).unwrap().age, 1);
        assert!(!v.contains(NodeId::new(3)));
    }

    #[test]
    fn insert_replaces_same_id() {
        let mut v = View::new(3).unwrap();
        v.insert(entry(1, 5, 0.5));
        v.insert(entry(1, 0, 0.9));
        assert_eq!(v.len(), 1);
        let e = v.get(NodeId::new(1)).unwrap();
        assert_eq!(e.age, 0);
        assert_eq!(e.value, 0.9);
    }

    #[test]
    fn insert_evicts_oldest_when_full() {
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 9, 0.1));
        v.insert(entry(2, 1, 0.2));
        v.insert(entry(3, 0, 0.3));
        assert_eq!(v.len(), 2);
        assert!(!v.contains(NodeId::new(1)), "oldest entry evicted");
        assert!(v.contains(NodeId::new(2)));
        assert!(v.contains(NodeId::new(3)));
    }

    #[test]
    fn oldest_breaks_ties_by_id() {
        let mut v = View::new(4).unwrap();
        v.insert(entry(5, 3, 0.1));
        v.insert(entry(2, 3, 0.2));
        v.insert(entry(9, 1, 0.3));
        assert_eq!(v.oldest().unwrap().id, NodeId::new(5));
    }

    #[test]
    fn increment_ages_saturates() {
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, u32::MAX, 0.1));
        v.insert(entry(2, 0, 0.2));
        v.increment_ages();
        assert_eq!(v.get(NodeId::new(1)).unwrap().age, u32::MAX);
        assert_eq!(v.get(NodeId::new(2)).unwrap().age, 1);
    }

    #[test]
    fn remove_returns_entry() {
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 0, 0.1));
        let removed = v.remove(NodeId::new(1)).unwrap();
        assert_eq!(removed.id, NodeId::new(1));
        assert!(v.is_empty());
        assert!(v.remove(NodeId::new(1)).is_none());
    }

    #[test]
    fn retain_drops_departed() {
        let mut v = View::new(4).unwrap();
        for i in 1..=4 {
            v.insert(entry(i, 0, 0.1 * i as f64));
        }
        v.retain(|id| id.as_u64() % 2 == 0);
        assert_eq!(v.len(), 2);
        assert!(v.contains(NodeId::new(2)) && v.contains(NodeId::new(4)));
    }

    #[test]
    fn refresh_value_updates_snapshot() {
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 3, 0.1));
        assert!(v.refresh_value(NodeId::new(1), 0.8));
        assert_eq!(v.get(NodeId::new(1)).unwrap().value, 0.8);
        assert_eq!(v.get(NodeId::new(1)).unwrap().age, 3, "age untouched");
        assert!(!v.refresh_value(NodeId::new(9), 0.5));
    }

    #[test]
    fn merge_discards_self_and_duplicates() {
        let owner = NodeId::new(42);
        let mut v = View::new(4).unwrap();
        v.insert(entry(1, 2, 0.1));
        let incoming = vec![
            entry(42, 0, 0.9), // self pointer → discarded
            entry(1, 5, 0.7),  // duplicate, older → resident kept
            entry(2, 0, 0.2),  // new
        ];
        v.merge(owner, &incoming);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(NodeId::new(1)).unwrap().value, 0.1);
        assert!(v.contains(NodeId::new(2)));
        assert!(!v.contains(owner));
        v.check_invariants(Some(owner)).unwrap();
    }

    #[test]
    fn merge_prefers_younger_duplicate() {
        let owner = NodeId::new(42);
        let mut v = View::new(4).unwrap();
        v.insert(entry(1, 6, 0.1));
        v.merge(owner, &[entry(1, 0, 0.9)]);
        let e = v.get(NodeId::new(1)).unwrap();
        assert_eq!(e.age, 0);
        assert_eq!(e.value, 0.9);
    }

    #[test]
    fn merge_truncates_to_capacity_dropping_oldest() {
        let owner = NodeId::new(42);
        let mut v = View::new(3).unwrap();
        v.insert(entry(1, 9, 0.1));
        v.insert(entry(2, 1, 0.2));
        v.merge(owner, &[entry(3, 0, 0.3), entry(4, 5, 0.4)]);
        assert_eq!(v.len(), 3);
        assert!(!v.contains(NodeId::new(1)), "age-9 entry evicted first");
        v.check_invariants(Some(owner)).unwrap();
    }

    #[test]
    fn replace_with_swaps_in_the_payload() {
        let owner = NodeId::new(0);
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 3, 0.1));
        v.replace_with(
            owner,
            &[
                entry(0, 0, 0.9), // self pointer → dropped
                entry(5, 1, 0.5),
                entry(5, 0, 0.6), // repeated id → first occurrence wins
                entry(6, 2, 0.7),
                entry(7, 0, 0.8), // beyond capacity → dropped
            ],
        );
        assert_eq!(v.entries(), &[entry(5, 1, 0.5), entry(6, 2, 0.7)]);
        v.check_invariants(Some(owner)).unwrap();
    }

    #[test]
    fn replace_with_tops_a_short_payload_up_with_the_freshest_residents() {
        let owner = NodeId::new(0);
        let mut v = View::new(4).unwrap();
        v.insert(entry(1, 7, 0.1));
        v.insert(entry(2, 1, 0.2));
        v.insert(entry(3, 4, 0.3));
        v.insert(entry(4, 1, 0.4));
        // Payload of two; resident 3 is mentioned by it, so 2 and 4 (age 1,
        // id order) fill the remaining two places, after the payload.
        v.replace_with(owner, &[entry(9, 0, 0.9), entry(3, 0, 0.35)]);
        let ids: Vec<u64> = v.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids, vec![9, 3, 2, 4]);
        assert_eq!(
            v.get(NodeId::new(3)).unwrap().value,
            0.35,
            "payload copy wins"
        );
        assert!(v.entries.capacity() <= 4, "storage grew past the capacity");
    }

    /// The Cyclon swap as it was written before it worked in place (a fresh
    /// view filled by `contains` + `insert`, topped up from a sorted copy):
    /// the reference the property test below holds `replace_with` to.
    fn replace_by_rebuilding(view: &View, owner: NodeId, incoming: &[ViewEntry]) -> View {
        let capacity = view.capacity();
        let mut fresh = View::new(capacity).unwrap();
        for e in incoming {
            if e.id != owner && !fresh.contains(e.id) && fresh.len() < capacity {
                fresh.insert(*e);
            }
        }
        if fresh.len() < capacity {
            let mut old: Vec<ViewEntry> = view.entries().to_vec();
            old.sort_by(|a, b| a.age.cmp(&b.age).then_with(|| a.id.cmp(&b.id)));
            for e in old {
                if fresh.len() >= capacity {
                    break;
                }
                if e.id != owner && !fresh.contains(e.id) {
                    fresh.insert(e);
                }
            }
        }
        fresh
    }

    #[test]
    fn random_selection_is_uniformish() {
        let mut v = View::new(4).unwrap();
        for i in 1..=4 {
            v.insert(entry(i, 0, 0.1));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        for _ in 0..4000 {
            counts[v.random(&mut rng).unwrap().id.as_u64() as usize] += 1;
        }
        for &c in &counts[1..] {
            assert!((800..1200).contains(&c), "count {c} not near 1000");
        }
    }

    #[test]
    fn random_on_empty_view_is_none() {
        let v = View::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(v.random(&mut rng).is_none());
        assert!(v.oldest().is_none());
    }

    #[test]
    fn invariant_detects_overflow_and_duplicates() {
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 0, 0.1));
        v.insert(entry(2, 0, 0.2));
        assert!(v.check_invariants(None).is_ok());
        assert!(v.check_invariants(Some(NodeId::new(1))).is_err());
    }

    proptest! {
        #[test]
        fn merge_never_exceeds_capacity_or_contains_owner(
            cap in 1usize..16,
            resident in proptest::collection::vec((0u64..30, 0u32..10, 0.01f64..1.0), 0..16),
            incoming in proptest::collection::vec((0u64..30, 0u32..10, 0.01f64..1.0), 0..16),
            owner in 0u64..30,
        ) {
            let owner = NodeId::new(owner);
            let mut v = View::new(cap).unwrap();
            for (id, age, val) in resident {
                let id = NodeId::new(id);
                if id != owner {
                    v.insert(ViewEntry::with_age(id, age, attr(1.0), val));
                }
            }
            let incoming: Vec<_> = incoming
                .into_iter()
                .map(|(id, age, val)| ViewEntry::with_age(NodeId::new(id), age, attr(1.0), val))
                .collect();
            v.merge(owner, &incoming);
            prop_assert!(v.check_invariants(Some(owner)).is_ok());
            prop_assert!(v.len() <= cap);
        }

        #[test]
        fn replace_with_matches_the_rebuilding_reference(
            cap in 1usize..12,
            resident in proptest::collection::vec((0u64..24, 0u32..6, 0.01f64..1.0), 0..12),
            incoming in proptest::collection::vec((0u64..24, 0u32..6, 0.01f64..1.0), 0..16),
            owner in 0u64..24,
        ) {
            let owner = NodeId::new(owner);
            let mut v = View::new(cap).unwrap();
            for (id, age, val) in resident {
                if NodeId::new(id) != owner {
                    v.insert(ViewEntry::with_age(NodeId::new(id), age, attr(1.0), val));
                }
            }
            let incoming: Vec<_> = incoming
                .into_iter()
                .map(|(id, age, val)| ViewEntry::with_age(NodeId::new(id), age, attr(1.0), val))
                .collect();
            let expected = replace_by_rebuilding(&v, owner, &incoming);
            v.replace_with(owner, &incoming);
            // Same entries in the same order: order decides `random` picks.
            prop_assert_eq!(v.entries(), expected.entries());
            prop_assert!(v.check_invariants(Some(owner)).is_ok());
            prop_assert!(v.entries.capacity() <= cap.max(4));
        }

        #[test]
        fn insert_keeps_ids_unique(
            cap in 1usize..10,
            ops in proptest::collection::vec((0u64..20, 0u32..5, 0.01f64..1.0), 0..40),
        ) {
            let mut v = View::new(cap).unwrap();
            for (id, age, val) in ops {
                v.insert(ViewEntry::with_age(NodeId::new(id), age, attr(0.0), val));
                prop_assert!(v.check_invariants(None).is_ok());
            }
        }
    }
}
