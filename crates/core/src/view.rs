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
//!
//! ## Storage
//!
//! A view is its capacity `c` and a buffer of at most `c` entries, and every
//! operation is written once over that buffer, whatever owns it: the
//! [`Entries`] / [`EntriesMut`] storage parameter of [`View`]. A view that
//! owns its entries keeps them in a `Vec` (the default, and what the network
//! runtime, the wire and the protocols use). A [`ViewArena`] keeps the views
//! of a whole population as the rows of one buffer, `c` entries per slot
//! beside a one-byte length per slot, and lends each row out as a `View`
//! over a [`RowMut`] — so a population of views is two allocations, not one
//! per node. No operation ever holds more than `c` entries, so a row never
//! needs room beyond its `c` places.

use crate::{Attribute, Error, NodeId, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::size_of;

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

/// The filler of a [`ViewArena`]'s unused places: never read as an entry.
impl Default for AgedId {
    fn default() -> Self {
        AgedId::new(NodeId::new(0))
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

/// The read side of a view's storage (see the module docs): the entries, in
/// order.
pub trait Entries<E> {
    /// The stored entries, in order.
    fn entries(&self) -> &[E];
}

/// The write side of a view's storage. The [`View`] operations keep the
/// length within the view's capacity; the storage does not check it.
pub trait EntriesMut<E>: Entries<E> {
    /// The stored entries, in order, for writing in place.
    fn entries_mut(&mut self) -> &mut [E];
    /// Appends `entry` (the view has room for it).
    fn push(&mut self, entry: E);
    /// Keeps the first `len` entries (all of them when there are fewer).
    fn truncate(&mut self, len: usize);
}

impl<E> Entries<E> for Vec<E> {
    fn entries(&self) -> &[E] {
        self
    }
}

impl<E> EntriesMut<E> for Vec<E> {
    fn entries_mut(&mut self) -> &mut [E] {
        self
    }

    fn push(&mut self, entry: E) {
        Vec::push(self, entry);
    }

    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

/// A read-only row of a [`ViewArena`]: its entries.
impl<E> Entries<E> for &[E] {
    fn entries(&self) -> &[E] {
        self
    }
}

/// A writable row of a [`ViewArena`]: the row's `c` places and its entry in
/// the arena's length column.
pub struct RowMut<'a, E> {
    places: &'a mut [E],
    len: &'a mut u8,
}

impl<E: fmt::Debug> fmt::Debug for RowMut<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries()).finish()
    }
}

impl<E> Entries<E> for RowMut<'_, E> {
    fn entries(&self) -> &[E] {
        &self.places[..usize::from(*self.len)]
    }
}

impl<E> EntriesMut<E> for RowMut<'_, E> {
    fn entries_mut(&mut self) -> &mut [E] {
        &mut self.places[..usize::from(*self.len)]
    }

    fn push(&mut self, entry: E) {
        self.places[usize::from(*self.len)] = entry;
        *self.len += 1;
    }

    fn truncate(&mut self, len: usize) {
        if len < usize::from(*self.len) {
            // Below the current length, which is a `u8`.
            *self.len = len as u8;
        }
    }
}

/// A bounded set of [`Entry`]s — [`ViewEntry`]s unless stated otherwise —
/// with at most one entry per neighbor, stored in `S`: its own `Vec` unless
/// stated otherwise, or a row of a [`ViewArena`] (see the module docs).
///
/// Invariants (checked in debug builds and by property tests):
/// * at most `capacity` entries;
/// * entry ids are unique;
/// * a view owned by node `i` never contains an entry for `i` itself
///   (enforced by [`merge`](View::merge), which takes the owner's id).
#[derive(Clone, Debug, PartialEq)]
pub struct View<E = ViewEntry, S = Vec<E>> {
    capacity: usize,
    entries: S,
    entry: PhantomData<E>,
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
            entry: PhantomData,
        })
    }

    /// Heap bytes held: the entry buffer's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<E>()
    }
}

impl<E: Entry, S: Entries<E>> View<E, S> {
    /// The view size bound `c`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Whether the view is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[E] {
        self.entries.entries()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries().iter()
    }

    /// Looks up the entry for `id`.
    pub fn get(&self, id: NodeId) -> Option<&E> {
        self.iter().find(|e| e.id() == id)
    }

    /// Whether the view contains an entry for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// The neighbor ids currently in the view.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|e| e.id())
    }

    /// The entry with the maximal age (line 2 of Fig. 3); ties broken by id
    /// for determinism. `None` on an empty view.
    pub fn oldest(&self) -> Option<&E> {
        self.iter().max_by(|a, b| older(*a, *b))
    }

    /// A uniformly random entry (used to pick `j2` in Fig. 5).
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&E> {
        let entries = self.entries();
        if entries.is_empty() {
            None
        } else {
            Some(&entries[rng.gen_range(0..entries.len())])
        }
    }

    /// Checks the structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self, owner: Option<NodeId>) -> Result<()> {
        let entries = self.entries();
        if entries.len() > self.capacity {
            return Err(Error::InvalidBoundaries(format!(
                "view overflow: {} > {}",
                entries.len(),
                self.capacity
            )));
        }
        for (i, a) in entries.iter().enumerate() {
            if Some(a.id()) == owner {
                return Err(Error::UnknownNode(a.id()));
            }
            for b in &entries[i + 1..] {
                if a.id() == b.id() {
                    return Err(Error::UnknownNode(a.id()));
                }
            }
        }
        Ok(())
    }
}

impl<E: Entry, S: EntriesMut<E>> View<E, S> {
    /// Increments every entry's age by one (line 1 of Fig. 3).
    pub fn increment_ages(&mut self) {
        for e in self.entries.entries_mut() {
            e.set_age(e.age().saturating_add(1));
        }
    }

    /// Inserts or replaces the entry for `entry.id()`.
    ///
    /// If the id is already present the entry is replaced. If the view is
    /// full, the oldest entry is evicted to make room (freshness-preferring
    /// truncation, the standard Cyclon policy).
    pub fn insert(&mut self, entry: E) {
        let entries = self.entries.entries_mut();
        if let Some(existing) = entries.iter_mut().find(|e| e.id() == entry.id()) {
            *existing = entry;
            return;
        }
        if entries.len() >= self.capacity {
            self.evict_oldest();
        }
        self.entries.push(entry);
    }

    /// Removes the entry for `id`, returning it if present; the last entry
    /// takes its place.
    pub fn remove(&mut self, id: NodeId) -> Option<E> {
        let entries = self.entries.entries_mut();
        let idx = entries.iter().position(|e| e.id() == id)?;
        let last = entries.len() - 1;
        entries.swap(idx, last);
        let removed = entries[last];
        self.entries.truncate(last);
        Some(removed)
    }

    /// Retains only entries whose id satisfies the predicate (used by churn
    /// handling to drop departed neighbors).
    pub fn retain<F: FnMut(NodeId) -> bool>(&mut self, mut keep: F) {
        self.retain_entries(|e| keep(e.id()));
    }

    /// Empties the view.
    pub fn clear(&mut self) {
        self.entries.truncate(0);
    }

    /// Orders the entries youngest first, ties broken by id — the order of
    /// a view rebuilt from its `c` freshest candidates.
    pub fn sort_youngest_first(&mut self) {
        self.entries.entries_mut().sort_unstable_by(older);
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
        self.retain_entries(|&e| match join(e) {
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
    /// * the union is cut back to `capacity` by evicting the oldest entries.
    ///
    /// The cut happens as the entries arrive, so the view never holds more
    /// than `capacity` entries: on a full view, a new entry takes the place
    /// of the oldest one if it is younger, and is dropped otherwise. That
    /// keeps the same entries as evicting from the whole union at the end —
    /// an entry evicted on the way is older than `capacity` others, whose
    /// ages can only fall, so no later copy of it could win a place back.
    pub fn merge(&mut self, owner: NodeId, incoming: &[E]) {
        for entry in incoming {
            if entry.id() == owner {
                continue;
            }
            let entries = self.entries.entries_mut();
            if let Some(existing) = entries.iter_mut().find(|e| e.id() == entry.id()) {
                if entry.age() < existing.age() {
                    *existing = *entry;
                }
            } else if entries.len() < self.capacity {
                self.entries.push(*entry);
            } else if let Some(oldest) = entries.iter_mut().max_by(|a, b| older(*a, *b)) {
                if older(entry, oldest) == Ordering::Less {
                    *oldest = *entry;
                }
            }
        }
    }

    /// Replaces the view with `incoming` — the *swap* of the paper's Cyclon
    /// variant (Fig. 3 lines 5–6 / 9–10): the received entries become the
    /// view, in arrival order, minus any entry describing `owner` and minus
    /// repeated ids (the first occurrence wins), cut at `capacity`. A payload
    /// shorter than the capacity is topped up with the freshest previous
    /// entries (youngest first, ties by id) the payload did not mention.
    ///
    /// Works inside the view's own storage: no allocation, and the view
    /// never holds more than `capacity` entries.
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
            self.retain_entries(|e| e.id() != owner && incoming.iter().all(|i| i.id() != e.id()));
            self.sort_youngest_first();
            self.entries.truncate(self.capacity - fresh);
        } else {
            self.clear();
        }
        let kept = self.len();
        for (idx, &entry) in incoming[..span].iter().enumerate() {
            // When nothing was refused (every honest Cyclon payload), the
            // taken entries are a prefix: no second look at them needed.
            if fresh == span || accepted(idx) {
                self.entries.push(entry);
            }
        }
        self.entries.entries_mut().rotate_left(kept);
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
    pub fn swap_in_place<T: EntriesMut<E>>(
        &mut self,
        own: E,
        other: &mut View<E, T>,
        other_own: E,
    ) -> bool {
        let c = self.capacity;
        let mine = self.iter().position(|e| e.id() == other_own.id());
        let theirs = other.iter().position(|e| e.id() == own.id());
        if own.id() == other_own.id()
            || other.capacity != c
            || self.len() - usize::from(mine.is_some()) + 1 < c
            || other.len() - usize::from(theirs.is_some()) + 1 < c
        {
            return false;
        }
        if let Some(idx) = mine {
            self.remove_in_order(idx);
        }
        if let Some(idx) = theirs {
            other.remove_in_order(idx);
        }
        // Each side now holds c − 1 or c entries: swap the common prefix,
        // then hand the longer side's last entry over.
        let (ours, others) = (self.entries.entries_mut(), other.entries.entries_mut());
        let common = ours.len().min(others.len());
        ours[..common].swap_with_slice(&mut others[..common]);
        match ours.len().cmp(&others.len()) {
            Ordering::Greater => other.entries.push(self.pop()),
            Ordering::Less => self.entries.push(other.pop()),
            Ordering::Equal => {}
        }
        // A self-descriptor fits only where the swapped-in entries left room.
        if self.len() < c {
            self.entries.push(other_own);
        }
        if other.len() < c {
            other.entries.push(own);
        }
        true
    }

    /// Keeps the entries for which `keep` holds, in order; `keep` sees
    /// every entry once, first to last.
    fn retain_entries(&mut self, mut keep: impl FnMut(&E) -> bool) {
        let entries = self.entries.entries_mut();
        let mut kept = 0;
        for idx in 0..entries.len() {
            if keep(&entries[idx]) {
                entries[kept] = entries[idx];
                kept += 1;
            }
        }
        self.entries.truncate(kept);
    }

    /// Removes the entry at `idx`, the later ones moving up one place.
    fn remove_in_order(&mut self, idx: usize) {
        let entries = self.entries.entries_mut();
        let len = entries.len();
        entries.copy_within(idx + 1.., idx);
        self.entries.truncate(len - 1);
    }

    /// Removes and returns the last entry of a non-empty view.
    fn pop(&mut self) -> E {
        let len = self.len();
        let last = self.entries()[len - 1];
        self.entries.truncate(len - 1);
        last
    }

    fn evict_oldest(&mut self) {
        let entries = self.entries.entries_mut();
        if let Some((idx, _)) = entries
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| older(*a, *b))
        {
            let last = entries.len() - 1;
            entries.swap(idx, last);
            self.entries.truncate(last);
        }
    }
}

/// The views of a whole population, one row per slot of a runtime's node
/// storage (see the module docs): `slot_count × c` entries in one buffer,
/// the row of slot `s` at `s × c`, and one length byte per slot. A row's
/// address is computed from its slot, so reaching a view is one load, not a
/// handle's load and then a dependent load of the buffer it points to.
///
/// A slot's row is emptied, never freed, when its node leaves, and a node
/// that takes the slot over reuses it: a joiner allocates no view. The view
/// capacity `c` lies in `1..=255`, so a length fits its byte.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewArena<E> {
    capacity: usize,
    places: Vec<E>,
    lens: Vec<u8>,
}

impl<E: Entry + Default> ViewArena<E> {
    /// The largest view capacity a length byte can count.
    pub const MAX_CAPACITY: usize = u8::MAX as usize;

    /// An arena of no rows for views of capacity `capacity`, with room for
    /// `slots` rows before it grows.
    pub fn with_capacity(capacity: usize, slots: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(Error::ZeroViewCapacity);
        }
        if capacity > Self::MAX_CAPACITY {
            return Err(Error::ViewCapacityTooLarge(capacity));
        }
        Ok(ViewArena {
            capacity,
            places: Vec::with_capacity(slots * capacity),
            lens: Vec::with_capacity(slots),
        })
    }

    /// Number of rows: one per slot ever cleared.
    pub fn slot_count(&self) -> usize {
        self.lens.len()
    }

    /// Empties the row of `slot`, first adding it when `slot` is the next
    /// slot past the last row. Panics for a slot further out: rows are
    /// added in slot order, as a slab hands slots out.
    pub fn clear(&mut self, slot: usize) {
        if slot == self.lens.len() {
            let end = self.places.len() + self.capacity;
            self.places.resize(end, E::default());
            self.lens.push(0);
        } else {
            self.lens[slot] = 0;
        }
    }

    /// The entries of `slot`'s row, in order.
    pub fn entries(&self, slot: usize) -> &[E] {
        let start = slot * self.capacity;
        &self.places[start..start + usize::from(self.lens[slot])]
    }

    /// The view stored in `slot`'s row, for reading.
    pub fn row(&self, slot: usize) -> View<E, &[E]> {
        View {
            capacity: self.capacity,
            entries: self.entries(slot),
            entry: PhantomData,
        }
    }

    /// The view stored in `slot`'s row, for reading and writing in place.
    pub fn row_mut(&mut self, slot: usize) -> RowView<'_, E> {
        let (c, start) = (self.capacity, slot * self.capacity);
        row_view(c, &mut self.places[start..start + c], &mut self.lens[slot])
    }

    /// The views of two distinct slots, both writable at once — the two
    /// endpoints of an exchange. `None` when the slots alias or either lies
    /// past the last row.
    pub fn row_pair_mut(&mut self, a: usize, b: usize) -> Option<(RowView<'_, E>, RowView<'_, E>)> {
        let c = self.capacity;
        let [a_places, b_places] = self
            .places
            .get_disjoint_mut([a * c..a * c + c, b * c..b * c + c])
            .ok()?;
        let [a_len, b_len] = self.lens.get_disjoint_mut([a, b]).ok()?;
        Some((row_view(c, a_places, a_len), row_view(c, b_places, b_len)))
    }

    /// Every row in slot order, writable — empty for the slots of departed
    /// nodes.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = RowView<'_, E>> {
        let c = self.capacity;
        let rows = self.places.chunks_exact_mut(c).zip(&mut self.lens);
        rows.map(move |(places, len)| row_view(c, places, len))
    }

    /// Heap bytes held, as `(rows, length column)`: the buffers' capacities,
    /// whether or not a row is in use.
    pub fn heap_bytes(&self) -> (usize, usize) {
        (
            self.places.capacity() * size_of::<E>(),
            self.lens.capacity(),
        )
    }
}

/// A writable row of a [`ViewArena`], as a [`View`].
pub type RowView<'a, E> = View<E, RowMut<'a, E>>;

/// The view of capacity `capacity` over a row's places and length byte.
fn row_view<'a, E>(capacity: usize, places: &'a mut [E], len: &'a mut u8) -> RowView<'a, E> {
    View {
        capacity,
        entries: RowMut { places, len },
        entry: PhantomData,
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

    /// `merge` as it was written before it worked within the capacity:
    /// every new entry appended, then the oldest evicted (swap-remove) until
    /// the view fits — the reference `merge` keeps the same entries as.
    fn merge_by_overflowing(view: &View, owner: NodeId, incoming: &[ViewEntry]) -> Vec<ViewEntry> {
        let mut entries = view.entries().to_vec();
        for entry in incoming.iter().filter(|e| e.id != owner) {
            match entries.iter_mut().find(|e| e.id == entry.id) {
                Some(existing) if entry.age < existing.age => *existing = *entry,
                Some(_) => {}
                None => entries.push(*entry),
            }
        }
        while entries.len() > view.capacity() {
            let (idx, _) = entries
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| older(*a, *b))
                .unwrap();
            entries.swap_remove(idx);
        }
        entries
    }

    #[test]
    fn merge_keeps_within_capacity_and_takes_the_oldest_place() {
        let owner = NodeId::new(42);
        let mut v = View::new(2).unwrap();
        v.insert(entry(1, 5, 0.1));
        v.insert(entry(2, 1, 0.2));
        v.merge(owner, &[entry(3, 0, 0.3), entry(4, 9, 0.4)]);
        // 3 is younger than the oldest resident (1) and takes its place; 4
        // is older than every resident and is dropped.
        assert_eq!(v.entries(), &[entry(3, 0, 0.3), entry(2, 1, 0.2)]);
        assert!(v.entries.capacity() <= 2, "storage grew past the capacity");
    }

    /// One arena row and one owned view of the same capacity, driven by the
    /// same operations from the same start, in one of two arena slots.
    fn arena_and_owned(capacity: usize, slot: usize) -> (ViewArena<AgedId>, View<AgedId>) {
        let mut arena = ViewArena::with_capacity(capacity, 2).unwrap();
        arena.clear(0);
        arena.clear(1);
        assert_eq!(arena.slot_count(), 2);
        assert!(arena.row(slot).is_empty());
        (arena, View::empty(capacity).unwrap())
    }

    fn aged(id: u64, age: u32) -> AgedId {
        AgedId {
            id: NodeId::new(id),
            age,
        }
    }

    #[test]
    fn arena_capacity_fits_a_length_byte() {
        let too_large = ViewArena::<AgedId>::with_capacity(256, 1);
        assert!(matches!(too_large, Err(Error::ViewCapacityTooLarge(256))));
        let zero = ViewArena::<AgedId>::with_capacity(0, 1);
        assert!(matches!(zero, Err(Error::ZeroViewCapacity)));
        let mut widest = ViewArena::<AgedId>::with_capacity(255, 1).unwrap();
        widest.clear(0);
        for id in 0..300 {
            widest.row_mut(0).insert(aged(id, 0));
        }
        assert_eq!(widest.row(0).len(), 255);
    }

    #[test]
    fn a_cleared_row_is_reused_and_rows_stay_apart() {
        let (mut arena, _) = arena_and_owned(3, 0);
        arena
            .row_mut(0)
            .merge(NodeId::new(0), &[aged(5, 1), aged(6, 2), aged(7, 0)]);
        arena.row_mut(1).insert(aged(9, 4));
        assert_eq!(arena.entries(0), &[aged(5, 1), aged(6, 2), aged(7, 0)]);
        assert_eq!(arena.entries(1), &[aged(9, 4)]);
        let bytes = arena.heap_bytes();
        arena.clear(0);
        assert!(arena.row(0).is_empty());
        assert_eq!(
            arena.entries(1),
            &[aged(9, 4)],
            "clearing a row keeps its neighbour"
        );
        arena.row_mut(0).insert(aged(8, 0));
        assert_eq!(arena.entries(0), &[aged(8, 0)]);
        assert_eq!(arena.heap_bytes(), bytes, "a reused row allocates nothing");
        assert!(arena.row_pair_mut(1, 1).is_none(), "aliasing rows");
        assert!(arena.row_pair_mut(0, 2).is_none(), "a row past the end");
        let (mut a, mut b) = arena.row_pair_mut(1, 0).unwrap();
        assert!(a.swap_in_place(aged(1, 0), &mut b, aged(0, 0)) || a.len() == 1);
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

        /// `merge` keeps exactly the entries, ages and values the
        /// overflow-then-evict reference keeps, in either order, and never
        /// holds more than the capacity.
        #[test]
        fn merge_keeps_what_evicting_from_the_whole_union_keeps(
            cap in 1usize..12,
            resident in proptest::collection::vec((0u64..24, 0u32..6, 0.01f64..1.0), 0..12),
            incoming in proptest::collection::vec((0u64..24, 0u32..6, 0.01f64..1.0), 0..24),
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
            let mut expected = merge_by_overflowing(&v, owner, &incoming);
            v.merge(owner, &incoming);
            let mut kept = v.entries().to_vec();
            let by_id = |a: &ViewEntry, b: &ViewEntry| a.id.cmp(&b.id);
            kept.sort_by(by_id);
            expected.sort_by(by_id);
            prop_assert_eq!(kept, expected);
            prop_assert!(v.check_invariants(Some(owner)).is_ok());
            prop_assert!(v.entries.capacity() <= cap.max(4));
        }

        /// Every operation leaves an arena row exactly as it leaves an owned
        /// view: the same entries in the same order, the same answers, the
        /// same draws — and the other row untouched.
        #[test]
        fn an_arena_row_runs_every_operation_as_an_owned_view(
            cap in 1usize..12,
            slot in 0usize..2,
            ops in proptest::collection::vec(
                (0u8..9, proptest::collection::vec((0u64..20, 0u32..6), 0..14), 0u64..20),
                1..30,
            ),
            seed in any::<u64>(),
        ) {
            let (mut arena, mut owned) = arena_and_owned(cap, slot);
            let other = 1 - slot;
            arena.row_mut(other).insert(aged(99, 7));
            let owner = NodeId::new(0);
            let (mut rng_row, mut rng_owned) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for (op, batch, pick) in ops {
                let batch: Vec<AgedId> = batch.into_iter().map(|(id, age)| aged(id, age)).collect();
                let pick = NodeId::new(pick);
                let mut row = arena.row_mut(slot);
                match op {
                    0 => {
                        row.merge(owner, &batch);
                        owned.merge(owner, &batch);
                    }
                    1 => {
                        row.replace_with(owner, &batch);
                        owned.replace_with(owner, &batch);
                    }
                    2 => {
                        for &e in batch.iter().filter(|e| e.id != owner) {
                            row.insert(e);
                            owned.insert(e);
                        }
                    }
                    3 => prop_assert_eq!(row.remove(pick), owned.remove(pick)),
                    4 => {
                        row.retain(|id| id != pick);
                        owned.retain(|id| id != pick);
                    }
                    5 => {
                        row.increment_ages();
                        owned.increment_ages();
                    }
                    6 => {
                        prop_assert_eq!(row.oldest(), owned.oldest());
                        prop_assert_eq!(row.random(&mut rng_row), owned.random(&mut rng_owned));
                    }
                    7 => {
                        let (mut a, mut b) = (View::new(1).unwrap(), View::new(1).unwrap());
                        let join = |e: AgedId| {
                            (e.id != pick).then(|| entry(e.id.as_u64(), e.age, 0.5))
                        };
                        row.join_into(&mut a, join);
                        owned.join_into(&mut b, join);
                        prop_assert_eq!(a, b);
                    }
                    _ => {
                        row.clear();
                        owned.clear();
                    }
                }
                prop_assert_eq!(arena.entries(slot), owned.entries());
                prop_assert_eq!(arena.row(slot).check_invariants(Some(owner)).is_ok(),
                    owned.check_invariants(Some(owner)).is_ok());
                prop_assert_eq!(arena.entries(other), &[aged(99, 7)]);
            }
        }

        /// The in-place Cyclon swap between two arena rows leaves them as it
        /// leaves two owned views.
        #[test]
        fn arena_rows_swap_in_place_as_owned_views(
            cap in 1usize..12,
            a_ids in proptest::collection::vec(2u64..40, 0..12),
            b_ids in proptest::collection::vec(2u64..40, 0..12),
            knows in (any::<bool>(), any::<bool>()),
        ) {
            let (mut arena, _) = arena_and_owned(cap, 0);
            let (mut own_a, mut own_b) = (View::empty(cap).unwrap(), View::empty(cap).unwrap());
            let fill = |ids: &[u64], knows: Option<u64>| {
                knows.into_iter().chain(ids.iter().copied()).map(|id| aged(id, (id % 5) as u32)).collect::<Vec<_>>()
            };
            let a = fill(&a_ids, knows.0.then_some(1));
            let b = fill(&b_ids, knows.1.then_some(0));
            for (row, view, entries) in [(0, &mut own_a, &a), (1, &mut own_b, &b)] {
                for &e in entries.iter() {
                    if !view.is_full() && !view.contains(e.id) {
                        view.insert(e);
                        arena.row_mut(row).insert(e);
                    }
                }
            }
            let (mut row_a, mut row_b) = arena.row_pair_mut(0, 1).unwrap();
            let swapped = row_a.swap_in_place(aged(0, 0), &mut row_b, aged(1, 0));
            prop_assert_eq!(swapped, own_a.swap_in_place(aged(0, 0), &mut own_b, aged(1, 0)));
            prop_assert_eq!(arena.entries(0), own_a.entries());
            prop_assert_eq!(arena.entries(1), own_b.entries());
        }
    }
}
