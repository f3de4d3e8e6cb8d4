//! Phase 1, churn: the churn model removes leavers and injects joiners;
//! every view is pruned of departed neighbors; the incremental rank cache
//! folds the batch in (no global re-sort).
//!
//! The dead-neighbor sweep resolves each view entry against the slab's own
//! index, lent out read-only beside the mutable slot walk — no side table
//! of the population is built. Joiners bootstrap their views from random
//! live nodes, through the same sampling core as the initial population.

use super::{sample_from_pool, Cycle, SimNode};
use crate::churn::ChurnModel;
use dslice_core::metrics::RankCache;
use dslice_core::node::NodeIdAllocator;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, NodeId, NodeIdSet, NodeSlab, ViewEntry};
use dslice_gossip::PeerSampler;
use rand::rngs::StdRng;

/// Applies the churn plan for this cycle; returns `(left, joined)`.
pub(super) fn run(
    cx: &Cycle,
    model: &mut dyn ChurnModel,
    nodes: &mut NodeSlab<SimNode>,
    alloc: &mut NodeIdAllocator,
    liars: &mut NodeIdSet,
    ranks: &mut RankCache,
    rng: &mut StdRng,
) -> (usize, usize) {
    let population: Vec<(NodeId, Attribute)> = if model.needs_population() {
        let live = nodes.iter();
        live.map(|(_, id, n)| (id, n.proto.attribute())).collect()
    } else {
        Vec::new()
    };
    let plan = model.plan(cx.cycle, &population, rng);
    if plan.is_quiet() {
        return (0, 0);
    }

    let mut removed: Vec<NodeId> = Vec::with_capacity(plan.leavers.len());
    removed.extend(
        plan.leavers
            .iter()
            .filter(|&&id| nodes.remove(id).is_some()),
    );
    for id in &removed {
        liars.remove(id);
    }

    // Prune departed neighbors from every view before anyone gossips —
    // only when someone actually departed (a join-only cycle at 10⁵ nodes
    // must not pay an O(n·c) scan for leavers that cannot exist). The
    // slab's own index is the live set: the leavers just left it.
    if !removed.is_empty() {
        let (live, lookup) = nodes.iter_mut_with_lookup();
        let is_alive = |id: NodeId| lookup.contains(id);
        for (_, _, node) in live {
            node.sampler.remove_dead(&is_alive);
        }
        debug_assert!(
            nodes
                .iter()
                .all(|(_, _, n)| n.sampler.view().ids().all(|id| nodes.contains(id))),
            "a view still holds a departed neighbor after the prune"
        );
    }

    // Joiners: fresh identity, fresh protocol state, bootstrapped view.
    let joined = plan.joiners.len();
    let mut new_nodes = Vec::with_capacity(joined);
    if joined > 0 {
        let pool: Vec<NodeId> = nodes.ids().collect();
        for attribute in plan.joiners {
            let id = alloc.allocate();
            let node = SimNode::new(cx.cfg, cx.kind, id, attribute, rng);
            nodes.insert(id, node.expect("validated capacity"));
            new_nodes.push((id, attribute));
        }
        let ids = new_nodes.iter().map(|&(id, _)| id);
        bootstrap(nodes, rng, cx.cfg.view_size, ids, &pool);
    }
    // Fold the batch into the rank cache: a linear merge, no re-sort.
    ranks.apply_churn(&removed, &new_nodes);
    (removed.len(), joined)
}

/// Seeds the view of each node in `ids`, in order, with up to `count`
/// random entries describing live nodes of `pool` — the bootstrap of the
/// initial population and of churn joiners alike.
pub(super) fn bootstrap(
    nodes: &mut NodeSlab<SimNode>,
    rng: &mut StdRng,
    count: usize,
    ids: impl IntoIterator<Item = NodeId>,
    pool: &[NodeId],
) {
    for id in ids {
        let entries = random_entries(nodes, rng, id, count, pool);
        if let Some(node) = nodes.get_mut(id) {
            node.sampler.bootstrap(&entries);
        }
    }
}

/// Draws up to `count` distinct entries describing live nodes of `pool`
/// other than `owner` (the sampling itself is the shared
/// [`sample_from_pool`] core).
pub(super) fn random_entries(
    nodes: &NodeSlab<SimNode>,
    rng: &mut StdRng,
    owner: NodeId,
    count: usize,
    pool: &[NodeId],
) -> Vec<ViewEntry> {
    let mut chosen: Vec<NodeId> = Vec::new();
    sample_from_pool(rng, pool, |&id| id, owner, count, &mut chosen);
    chosen
        .into_iter()
        .filter_map(|id| nodes.get(id).map(SimNode::self_entry))
        .collect()
}
