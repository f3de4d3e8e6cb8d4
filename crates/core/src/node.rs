//! Node identities.
//!
//! The paper's system model (§3.1) considers "a set of `n` uniquely
//! identified nodes"; the identifier doubles as the tie-breaker of the total
//! order over attribute values: node `i` precedes node `j` iff
//! `a_i < a_j`, or `a_i == a_j` and `i < j`.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A unique node identifier.
///
/// Identifiers are plain `u64`s. The simulator allocates them monotonically
/// so that nodes joining under churn never reuse an identifier; the network
/// runtime derives them from the listen address. Ordering on `NodeId` is the
/// tie-breaking order of the paper's `A.sequence`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This id as a row of an id-indexed column (`NodeSlab`'s index,
    /// `RankCache`'s ranks, `SliceTracker`'s stamps), for storing into it.
    ///
    /// Panics, naming the id, at or above `u32::MAX`: those columns hold
    /// identities the program issued itself, sequentially from 0, and a row
    /// per id up to an arbitrary `u64` would exhaust memory.
    pub(crate) fn dense_row(self) -> usize {
        assert!(
            self.0 < u64::from(u32::MAX),
            "node {self} is beyond the id-indexed tables' range (ids must be below 2^32 - 1)"
        );
        self.0 as usize
    }

    /// This id as a row of an id-indexed column, for looking it up: `None`
    /// where no row can exist, so an unknown id is simply absent.
    pub(crate) fn row(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// A multiplicative (Fibonacci) hasher for maps keyed by [`NodeId`]s that the
/// program issued itself.
///
/// Simulated identities come from [`NodeIdAllocator`] — sequential `u64`s —
/// so one multiplication by an odd constant spreads them over the table
/// perfectly, at a fraction of SipHash's cost. It offers **no protection
/// against keys crafted to collide**: never key a map of peer-supplied ids
/// (anything read off a socket, as in `dslice-net`) with it — those keep the
/// standard library's default hasher.
///
/// The per-cycle lookups of the simulator do not hash at all: the slab's
/// index, `RankCache`'s ranks and `SliceTracker`'s stamps are columns
/// indexed by the id itself. The one set still hashed with this hasher is
/// off the hot path: the engine's liar set, consulted on churn and by the
/// honest-accuracy probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached by keys that do not hash through `write_u64`.
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        // 2⁶⁴ / φ, odd: a bijection on every low-bit prefix (sequential ids
        // fill the buckets evenly) whose high bits — the table's control
        // bytes — mix the whole key.
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashSet` of program-issued [`NodeId`]s (see [`NodeIdHasher`]).
pub type NodeIdSet = HashSet<NodeId, BuildHasherDefault<NodeIdHasher>>;

/// A monotonically increasing allocator of [`NodeId`]s.
///
/// Churn models use this to hand out fresh identities to joining nodes;
/// identifiers are never reused within one run, matching the paper's
/// assumption that departing and arriving nodes are distinct entities.
#[derive(Debug, Clone)]
pub struct NodeIdAllocator {
    next: u64,
}

impl NodeIdAllocator {
    /// Creates an allocator whose first issued id is `first`.
    pub const fn starting_at(first: u64) -> Self {
        NodeIdAllocator { next: first }
    }

    /// Issues the next fresh identifier.
    pub fn allocate(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Issues `count` fresh identifiers.
    pub fn allocate_many(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.allocate()).collect()
    }

    /// The id that the next call to [`allocate`](Self::allocate) will return.
    pub const fn peek(&self) -> NodeId {
        NodeId(self.next)
    }
}

impl Default for NodeIdAllocator {
    fn default() -> Self {
        NodeIdAllocator::starting_at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_u64() {
        let id = NodeId::new(42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(NodeId::from(42u64), id);
        assert_eq!(id.as_u64(), 42);
    }

    #[test]
    fn node_id_ordering_is_numeric() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeId::new(100) > NodeId::new(99));
        assert_eq!(NodeId::new(7), NodeId::new(7));
    }

    #[test]
    fn allocator_is_monotonic_and_never_reuses() {
        let mut alloc = NodeIdAllocator::default();
        let a = alloc.allocate();
        let b = alloc.allocate();
        let batch = alloc.allocate_many(3);
        assert_eq!(a, NodeId::new(0));
        assert_eq!(b, NodeId::new(1));
        assert_eq!(batch, vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)]);
        assert_eq!(alloc.peek(), NodeId::new(5));
    }

    #[test]
    fn allocator_can_start_anywhere() {
        let mut alloc = NodeIdAllocator::starting_at(1000);
        assert_eq!(alloc.allocate(), NodeId::new(1000));
    }

    #[test]
    fn id_map_spreads_sequential_ids_over_every_bucket() {
        // Sequential ids must not collapse onto few buckets: over any
        // power-of-two table the low bits of the hash are a permutation.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<NodeIdHasher>::default();
        for bits in [4u32, 10, 16] {
            let buckets = 1u64 << bits;
            let mut seen = vec![false; buckets as usize];
            for raw in 0..buckets {
                seen[(build.hash_one(NodeId::new(raw)) & (buckets - 1)) as usize] = true;
            }
            assert!(seen.iter().all(|&hit| hit), "{bits}-bit table has holes");
        }
        let set: NodeIdSet = (0..10).map(NodeId::new).collect();
        assert!(set.contains(&NodeId::new(9)) && !set.contains(&NodeId::new(10)));
    }

    #[test]
    fn debug_and_display_formats() {
        let id = NodeId::new(9);
        assert_eq!(format!("{id:?}"), "n9");
        assert_eq!(format!("{id}"), "9");
    }
}
