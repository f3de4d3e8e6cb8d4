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
use dslice_core::{EntriesMut, Entry, NodeId, Result, View, ViewEntry};

/// An oracle-backed sampler: the runtime refills the view each cycle.
#[derive(Debug, Clone)]
pub struct UniformOracle<E = ViewEntry, S = Vec<E>> {
    owner: NodeId,
    view: View<E, S>,
}

impl UniformOracle {
    /// Creates an oracle sampler for `owner` with a view of [`ViewEntry`]s
    /// of capacity `c`; [`UniformOracle::empty`] for any entry type.
    pub fn new(owner: NodeId, capacity: usize) -> Result<Self> {
        Self::empty(owner, capacity)
    }
}

impl<E: Entry> UniformOracle<E> {
    /// Creates an oracle sampler for `owner` with an empty view of
    /// capacity `c`.
    pub fn empty(owner: NodeId, capacity: usize) -> Result<Self> {
        Ok(UniformOracle {
            owner,
            view: View::empty(capacity)?,
        })
    }
}

impl<E, S> UniformOracle<E, S> {
    /// The oracle sampler of `owner` over `view`, wherever the view is
    /// stored.
    pub fn over(owner: NodeId, view: View<E, S>) -> Self {
        UniformOracle { owner, view }
    }
}

impl<E: Entry, S: EntriesMut<E> + Send> PeerSampler<E, S> for UniformOracle<E, S> {
    fn owner(&self) -> NodeId {
        self.owner
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::UniformOracle
    }

    fn view(&self) -> &View<E, S> {
        &self.view
    }

    fn view_mut(&mut self) -> &mut View<E, S> {
        &mut self.view
    }

    fn handle_request_into(
        &mut self,
        _self_entry: E,
        _from: NodeId,
        _entries: &[E],
        reply: &mut Vec<E>,
    ) {
        reply.clear();
    }

    fn handle_reply(&mut self, _from: NodeId, _entries: &[E]) {}
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
