//! The idealized uniform sampler.
//!
//! Figure 6(b) of the paper compares the ranking algorithm running on top of
//! "an artificial protocol, drawing neighbors randomly at uniform in each
//! cycle of the algorithm execution" against the Cyclon variant. This module
//! is that artificial protocol: it never gossips; instead the cycle
//! simulator replaces its view each cycle through
//! [`PeerSampler::refill`] with `c` uniformly drawn live nodes.
//!
//! It doubles as a test utility — protocols can be unit-tested against a
//! perfectly uniform sample stream without simulating the membership layer.

use crate::sampler::{PeerSampler, SamplerKind};
use dslice_core::{NodeId, Result, View, ViewEntry};

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
