//! Node identities.
//!
//! The paper's system model (§3.1) considers "a set of `n` uniquely
//! identified nodes"; the identifier doubles as the tie-breaker of the total
//! order over attribute values: node `i` precedes node `j` iff
//! `a_i < a_j`, or `a_i == a_j` and `i < j`.

use crate::Error;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A unique node identifier.
///
/// Identifiers are issued by the program, sequentially from 0: the
/// simulator's [`NodeIdAllocator`] never reuses one under churn, and the
/// network runtime's `LocalCluster` numbers its nodes the same way. An id
/// is stored in 4 bytes and lies below `u32::MAX`, checked once when it is
/// made ([`new`](Self::new) panics, `try_from` and deserialization return
/// an error), so every id is a row of the id-indexed columns, which keep
/// `u32::MAX` as their "absent" mark. Ordering on `NodeId` is the
/// tie-breaking order of the paper's `A.sequence`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw integer.
    ///
    /// Panics, naming the id, at or above `u32::MAX`; use
    /// [`NodeId::try_from`] for ids that did not come from the program.
    pub fn new(raw: u64) -> Self {
        NodeId::try_from(raw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the raw integer value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }

    /// This id as a row of an id-indexed column.
    pub const fn row(self) -> usize {
        self.0 as usize
    }
}

impl TryFrom<u64> for NodeId {
    type Error = Error;

    /// Refuses ids at or above `u32::MAX` with [`Error::IdOutOfRange`].
    fn try_from(raw: u64) -> Result<Self, Error> {
        match u32::try_from(raw) {
            Ok(id) if id != u32::MAX => Ok(NodeId(id)),
            _ => Err(Error::IdOutOfRange(raw)),
        }
    }
}

/// Hashes as the `u64` it widens to, so every hasher — [`NodeIdHasher`]'s
/// `write_u64` in particular — sees the same input as for a `u64` id.
impl Hash for NodeId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.as_u64());
    }
}

/// Refuses an out-of-range id with an error: a peer's id must not panic the reader.
impl Deserialize for NodeId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        NodeId::try_from(u64::from_value(v)?).map_err(serde::Error::custom)
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

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.as_u64()
    }
}

/// A multiplicative (Fibonacci) hasher for maps keyed by [`NodeId`]s that the
/// program issued itself.
///
/// Simulated identities come from [`NodeIdAllocator`] — sequential ids —
/// so one multiplication by an odd constant spreads them over the table
/// perfectly, at a fraction of SipHash's cost. It offers **no protection
/// against keys crafted to collide**: never key a map of peer-supplied ids
/// (anything read off a socket, as in `dslice-net`) with it — those keep the
/// standard library's default hasher.
///
/// The per-cycle lookups of the simulator do not hash at all: the slab's
/// index and `RankCache`'s ranks are columns indexed by the id itself, and
/// `SliceTracker`'s stamps are indexed by slot. The one set still hashed with this hasher is
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
        let id = NodeId::new(self.next);
        self.next += 1;
        id
    }

    /// One past the raw value of the last id issued (the first id, if none
    /// was): id rows `0..issued()` cover every id issued so far, which is
    /// what an id-indexed column must hold. It never panics — after the
    /// last valid id, 2³²−2, it reads 2³²−1.
    pub fn issued(&self) -> u64 {
        self.next
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
        assert_eq!(NodeId::try_from(42u64), Ok(id));
        assert_eq!(id.as_u64(), 42);
    }

    #[test]
    fn ids_are_four_bytes() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<crate::ViewEntry>(), 24);
    }

    #[test]
    fn try_from_and_deserialize_refuse_ids_beyond_the_range() {
        use serde::Value;
        let top = u64::from(u32::MAX);
        assert_eq!(NodeId::try_from(top - 1).map(NodeId::as_u64), Ok(top - 1));
        let last = Value::Int(top as i64 - 1);
        assert_eq!(NodeId::from_value(&last).unwrap().as_u64(), top - 1);
        for raw in [top, top + 1, u64::MAX] {
            assert_eq!(NodeId::try_from(raw), Err(Error::IdOutOfRange(raw)));
        }
        for v in [
            Value::Int(top as i64),
            Value::Int(-1),
            Value::UInt(u64::MAX),
            Value::Float(0.5),
            Value::Str("7".into()),
        ] {
            assert!(NodeId::from_value(&v).is_err(), "{v:?} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "node id 4294967295 is out of range")]
    fn new_panics_naming_an_id_beyond_the_range() {
        NodeId::new(u64::from(u32::MAX));
    }

    #[test]
    fn hasher_input_is_the_widened_id() {
        // Captured with the `u64`-backed id: `NodeIdSet`'s buckets and any
        // hash-keyed order stay the same.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<NodeIdHasher>::default();
        for (raw, hash) in [
            (0u64, 0x0000_0000_0000_0000u64),
            (1, 0x9e37_79b9_7f4a_7c15),
            (2, 0x3c6e_f372_fe94_f82a),
            (7, 0x5384_5412_7b09_6493),
            (42, 0xf519_f86e_e238_5b72),
            (1_000_000, 0xfd1e_b68e_4bd7_6f40),
            (u64::from(u32::MAX) - 1, 0x42db_88a2_016b_07d6),
        ] {
            assert_eq!(build.hash_one(NodeId::new(raw)), hash, "id {raw}");
        }
        let mut pair = NodeIdHasher::default();
        (NodeId::new(3), NodeId::new(5)).hash(&mut pair);
        assert_eq!(pair.finish(), 0x4411_30ca_45dc_2fd6);
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
        let batch: Vec<NodeId> = (0..3).map(|_| alloc.allocate()).collect();
        assert_eq!(a, NodeId::new(0));
        assert_eq!(b, NodeId::new(1));
        assert_eq!(batch, vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)]);
        assert_eq!(alloc.issued(), 5);
    }

    #[test]
    fn issued_counts_past_the_last_valid_id() {
        let mut alloc = NodeIdAllocator::starting_at(u64::from(u32::MAX) - 1);
        assert_eq!(alloc.issued(), u64::from(u32::MAX) - 1);
        assert_eq!(alloc.allocate(), NodeId::new(u64::from(u32::MAX) - 1));
        assert_eq!(alloc.issued(), u64::from(u32::MAX));
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
