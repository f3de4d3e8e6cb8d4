//! The idealized uniform sampler.
//!
//! Figure 6(b) of the paper compares the ranking algorithm running on top of
//! "an artificial protocol, drawing neighbors randomly at uniform in each
//! cycle of the algorithm execution" against the Cyclon variant. This module
//! is that artificial protocol: it never gossips; instead the runtime calls
//! [`UniformOracle::refill`] each cycle with `c` uniformly drawn live nodes.
//!
//! It doubles as a test utility — protocols can be unit-tested against a
//! perfectly uniform sample stream without simulating the membership layer.

use crate::sampler::{ExchangeRequest, PeerSampler, SamplerKind};
use dslice_core::{NodeId, Result, View, ViewEntry};
use rand::RngCore;

/// An oracle-backed sampler: the runtime refills the view each cycle.
#[derive(Debug, Clone)]
pub struct UniformOracle {
    owner: NodeId,
    view: View,
}

impl UniformOracle {
    /// Creates an oracle sampler for `owner` with view capacity `c`.
    pub fn new(owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(UniformOracle {
            owner,
            view: View::new(capacity)?,
        })
    }

    /// Replaces the entire view with the given entries (self-pointers are
    /// dropped; at most `c` entries are kept, in the given order).
    pub fn refill(&mut self, entries: &[ViewEntry]) {
        let capacity = self.view.capacity();
        let mut fresh = View::new(capacity).expect("capacity >= 1");
        for e in entries {
            if e.id != self.owner && fresh.len() < capacity {
                fresh.insert(*e);
            }
        }
        self.view = fresh;
    }
}

impl PeerSampler for UniformOracle {
    fn owner(&self) -> NodeId {
        self.owner
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::UniformOracle
    }

    fn view(&self) -> &View {
        &self.view
    }

    fn view_mut(&mut self) -> &mut View {
        &mut self.view
    }

    /// The oracle never initiates gossip; freshness comes from `refill`.
    fn initiate(
        &mut self,
        _self_entry: ViewEntry,
        _rng: &mut dyn RngCore,
    ) -> Option<ExchangeRequest> {
        None
    }

    fn handle_request_into(
        &mut self,
        _self_entry: ViewEntry,
        _from: NodeId,
        _entries: &[ViewEntry],
        reply: &mut Vec<ViewEntry>,
    ) {
        reply.clear();
    }

    fn handle_reply(&mut self, _from: NodeId, _entries: &[ViewEntry]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(id: u64) -> ViewEntry {
        ViewEntry::new(NodeId::new(id), Attribute::new(id as f64).unwrap(), 0.5)
    }

    #[test]
    fn refill_replaces_view_and_filters_self() {
        let mut s = UniformOracle::new(NodeId::new(0), 3).unwrap();
        s.refill(&[entry(1), entry(2)]);
        assert_eq!(s.view().len(), 2);
        s.refill(&[entry(0), entry(3), entry(4), entry(5), entry(6)]);
        assert_eq!(s.view().len(), 3, "capacity respected");
        assert!(!s.view().contains(NodeId::new(0)), "self filtered");
        assert!(!s.view().contains(NodeId::new(1)), "old entries replaced");
        s.view().check_invariants(Some(NodeId::new(0))).unwrap();
    }

    #[test]
    fn oracle_never_gossips() {
        let mut s = UniformOracle::new(NodeId::new(0), 3).unwrap();
        s.refill(&[entry(1)]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.initiate(entry(0), &mut rng).is_none());
        assert!(s
            .handle_request(entry(0), NodeId::new(1), &[entry(2)])
            .is_empty());
        s.handle_reply(NodeId::new(1), &[entry(3)]);
        assert!(!s.view().contains(NodeId::new(3)));
    }
}
