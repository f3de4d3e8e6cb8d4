//! Per-node deterministic RNG streams.
//!
//! The engine's scale architecture gives every node its **own** random
//! stream for the active phase of every cycle, derived purely from
//! `(run seed, node id, cycle, salt)`. Two consequences:
//!
//! * a node's active step draws the same values whatever the other nodes
//!   drew before it, so the order of the active sweep is not part of the
//!   stream;
//! * the draws a node makes are independent of how many draws other nodes
//!   make, so adding a protocol that samples more (or less) does not
//!   perturb the streams of unrelated nodes.
//!
//! The generator is SplitMix64 — a counter-based stream with a 64-bit state
//! that passes BigCrush, is trivially seedable from a hash of the key
//! tuple, and costs a handful of ALU ops per draw. It implements the
//! vendored [`rand::RngCore`], so protocol code is oblivious to which
//! generator drives it.

use rand::RngCore;

/// One SplitMix64 step: advance the Weyl sequence, then mix.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based SplitMix64 stream keyed by `(seed, node, cycle, salt)`.
///
/// Distinct key tuples yield statistically independent streams; equal key
/// tuples yield identical streams, on every platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRng {
    state: u64,
}

impl NodeRng {
    /// Derives the stream for `node` at `cycle` under the run `seed`.
    ///
    /// `salt` separates independent stream *domains* within one
    /// `(node, cycle)` pair — e.g. the engine uses salt 0 for the active
    /// step and salt 1 for the atomic-exchange replay (see the engine
    /// docs). The key tuple is mixed through SplitMix64 itself, so
    /// neighboring ids/cycles land in unrelated states.
    pub fn for_node(seed: u64, node: u64, cycle: u64, salt: u64) -> Self {
        let mut s = seed;
        let mut state = splitmix64(&mut s);
        s ^= node.wrapping_mul(0xA076_1D64_78BD_642F);
        state ^= splitmix64(&mut s);
        s ^= cycle.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        state ^= splitmix64(&mut s);
        s ^= salt.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
        state ^= splitmix64(&mut s);
        NodeRng { state }
    }
}

impl RngCore for NodeRng {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_stream() {
        let mut a = NodeRng::for_node(42, 7, 3, 0);
        let mut b = NodeRng::for_node(42, 7, 3, 0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_key_component_separates_streams() {
        let base = NodeRng::for_node(1, 2, 3, 0);
        for variant in [
            NodeRng::for_node(9, 2, 3, 0),
            NodeRng::for_node(1, 9, 3, 0),
            NodeRng::for_node(1, 2, 9, 0),
            NodeRng::for_node(1, 2, 3, 9),
        ] {
            let (mut x, mut y) = (base.clone(), variant);
            let same = (0..8).all(|_| x.next_u64() == y.next_u64());
            assert!(!same, "streams must diverge when any key part differs");
        }
    }

    #[test]
    fn unit_draws_look_uniform() {
        // Cheap sanity: across many nodes, first draws cover the unit
        // interval roughly evenly (catching e.g. a constant-state bug).
        let mut buckets = [0usize; 10];
        let n = 10_000u64;
        for node in 0..n {
            let mut rng = NodeRng::for_node(0xD51CE, node, 1, 0);
            let v: f64 = rng.gen();
            buckets[(v * 10.0) as usize % 10] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                (800..1200).contains(&count),
                "bucket {i} holds {count} of {n}"
            );
        }
    }

    #[test]
    fn adjacent_cycles_are_uncorrelated() {
        // The same node's streams across consecutive cycles must not be
        // shifted copies of each other.
        let a: Vec<u64> = {
            let mut r = NodeRng::for_node(5, 10, 1, 0);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = NodeRng::for_node(5, 10, 2, 0);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert!(a.iter().all(|v| !b.contains(v)), "overlapping outputs");
    }
}
