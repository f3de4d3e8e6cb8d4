//! Phase 1, churn: the churn model removes leavers and injects joiners;
//! every view is pruned of departed neighbors; the incremental rank cache
//! folds the batch in (no global re-sort).
//!
//! A churned cycle walks the population a fixed number of times and
//! allocates nothing in proportion to it: the population the model plans
//! from is copied into a buffer the engine keeps; the prune filters each
//! view through [`prune_dead`] with the slab's own index — lent out
//! read-only beside the mutable slot walk — as a closure the filter
//! inlines; and the rank cache merges the joiners in place. Joiners
//! bootstrap their views from random live nodes, through the same sampling
//! core and the same [`bootstrap`] as the initial population, but from
//! that same buffer with the leavers dropped, looking up only each
//! joiner's own picks.

use super::{sample_from_pool, Cycle, SimNode};
use crate::churn::ChurnModel;
use dslice_core::metrics::RankCache;
use dslice_core::node::NodeIdAllocator;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, NodeId, NodeIdSet, NodeSlab, ViewEntry};
use dslice_gossip::{prune_dead, PeerSampler};
use rand::rngs::StdRng;

/// The churn model and the buffer it plans from, kept across cycles.
pub(super) struct Churn {
    pub(super) model: Box<dyn ChurnModel>,
    /// The live population as `(id, attribute)` in slot order: what the
    /// model plans from, then — the leavers dropped — the pool the joiners
    /// bootstrap from.
    population: Vec<(NodeId, Attribute)>,
}

impl Churn {
    pub(super) fn new(model: Box<dyn ChurnModel>) -> Self {
        Churn {
            model,
            population: Vec::new(),
        }
    }
}

/// Applies the churn plan for this cycle; returns `(left, joined)`.
pub(super) fn run(
    cx: &Cycle,
    churn: &mut Churn,
    nodes: &mut NodeSlab<SimNode>,
    alloc: &mut NodeIdAllocator,
    liars: &mut NodeIdSet,
    ranks: &mut RankCache,
    rng: &mut StdRng,
) -> (usize, usize) {
    let Churn { model, population } = churn;
    let planned_from_population = model.needs_population();
    if planned_from_population {
        copy_population(nodes, population);
    } else {
        population.clear();
    }
    let plan = model.plan(cx.cycle, population, rng);
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
        for (_, _, node) in live {
            prune_dead(node.sampler.view_mut(), |id| lookup.contains(id));
        }
        debug_assert!(
            nodes
                .iter()
                .all(|(_, _, n)| n.sampler.view().ids().all(|id| nodes.contains(id))),
            "a view still holds a departed neighbor after the prune"
        );
    }

    // Joiners: fresh identity, fresh protocol state, and a view sampled
    // from the nodes that were live before any of them joined — in slot
    // order, which is the planned population without its leavers (removing
    // a node moves no other).
    let joined = plan.joiners.len();
    let mut new_nodes = Vec::with_capacity(joined);
    if joined > 0 {
        if !planned_from_population {
            copy_population(nodes, population);
        } else if !removed.is_empty() {
            population.retain(|&(id, _)| nodes.contains(id));
        }
        for attribute in plan.joiners {
            let id = alloc.allocate();
            let node = SimNode::new(cx.cfg, cx.kind, id, attribute, rng);
            nodes.insert(id, node.expect("validated capacity"));
            new_nodes.push((id, attribute));
        }
        let ids = new_nodes.iter().map(|&(id, _)| id);
        let (pool, view_size) = (&population[..], cx.cfg.view_size);
        let mut picks = Vec::new();
        bootstrap(nodes, ids, |nodes, owner, entries| {
            sample_from_pool(rng, pool, |&(id, _)| id, owner, view_size, &mut picks);
            let live = picks.iter().filter_map(|&(id, _)| nodes.get(id));
            entries.extend(live.map(SimNode::self_entry));
        });
    }
    // Fold the batch into the rank cache: a linear merge, no re-sort.
    ranks.apply_churn(&removed, &new_nodes);
    (removed.len(), joined)
}

/// Overwrites `population` with the live nodes' `(id, attribute)` in slot
/// order, sized once to the population rather than grown to it.
fn copy_population(nodes: &NodeSlab<SimNode>, population: &mut Vec<(NodeId, Attribute)>) {
    population.clear();
    population.reserve(nodes.len());
    population.extend(nodes.iter().map(|(_, id, n)| (id, n.proto.attribute())));
}

/// Seeds the view of each node in `ids`, in order, with the entries
/// `sample` draws for it into one reused buffer (cleared before each node)
/// — the one bootstrap of the initial population and of churn joiners.
pub(super) fn bootstrap(
    nodes: &mut NodeSlab<SimNode>,
    ids: impl IntoIterator<Item = NodeId>,
    mut sample: impl FnMut(&NodeSlab<SimNode>, NodeId, &mut Vec<ViewEntry>),
) {
    let mut entries = Vec::new();
    for id in ids {
        entries.clear();
        sample(nodes, id, &mut entries);
        if let Some(node) = nodes.get_mut(id) {
            node.sampler.bootstrap(&entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cfg;
    use super::super::{sample_from_pool, Engine, SimNode};
    use crate::churn::{ChurnSchedule, UncorrelatedChurn};
    use crate::config::ProtocolKind;
    use crate::distributions::AttributeDistribution;
    use dslice_core::{NodeId, NodeSlab, ViewEntry};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The bootstrap path the entry snapshot replaced, kept as a reference:
    /// draw ids from a slot-order id pool, then look every pick up in the
    /// slab.
    fn reference_entries(
        nodes: &NodeSlab<SimNode>,
        rng: &mut StdRng,
        owner: NodeId,
        count: usize,
    ) -> Vec<ViewEntry> {
        let pool: Vec<NodeId> = nodes.ids().collect();
        let mut chosen: Vec<NodeId> = Vec::new();
        if !pool.is_empty() {
            let want = count.min(pool.len());
            let take = (want + 1).min(pool.len());
            let picks = rand::seq::index::sample(rng, pool.len(), take).into_iter();
            chosen.extend(picks.map(|i| pool[i]).filter(|&id| id != owner).take(want));
            chosen.sort_unstable();
        }
        chosen
            .into_iter()
            .filter_map(|id| nodes.get(id).map(SimNode::self_entry))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sampling a slot-order entry snapshot, as construction and the
        /// oracle refill do, picks exactly the entries the id-pool reference
        /// resolves, and consumes exactly its draws, for every id ever
        /// issued as the owner (live or departed). With `churned`, a churn
        /// cycle first recycles slots, so slot order is not id order.
        #[test]
        fn snapshot_sampling_matches_the_id_pool_reference(
            n in 1usize..300,
            count in 0usize..30,
            seed in any::<u64>(),
            churned in any::<bool>(),
        ) {
            let mut engine = Engine::new(small_cfg(n, 4, seed), ProtocolKind::Ranking).unwrap();
            if churned {
                let schedule = ChurnSchedule { rate: 0.1, period: 1, stop_after: None };
                let churn = UncorrelatedChurn::new(schedule, AttributeDistribution::default());
                engine = engine.with_churn(Box::new(churn));
                engine.step();
            }
            let pool: Vec<ViewEntry> = engine.nodes.iter().map(|(_, _, n)| n.self_entry()).collect();
            let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
            let mut entries = Vec::new();
            for owner in (0..engine.alloc.issued()).map(NodeId::new) {
                let mut reference_rng = rng.clone();
                let expected = reference_entries(&engine.nodes, &mut reference_rng, owner, count);
                sample_from_pool(&mut rng, &pool, |e| e.id, owner, count, &mut entries);
                prop_assert_eq!(&entries, &expected);
                prop_assert_eq!(&rng, &reference_rng);
            }
        }
    }
}
