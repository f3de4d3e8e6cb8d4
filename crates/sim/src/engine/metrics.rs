//! Phase 7, metrics: SDM, GDM and the §3.2 slice changes over the live
//! population, every [`metrics_every`](crate::SimConfig::metrics_every)-th
//! cycle (skipped cycles repeat the last computed disorder values).
//!
//! After a counting pass over the values, one walk over the slab in slot
//! order feeds all three: each node's true slice comes from the
//! churn-maintained [`RankCache`] in O(1), its SDM term from the
//! partition's per-slice constants, its believed slice goes to the
//! slot-keyed [`SliceTracker`], and its value straight into its bucket of
//! the GDM's [`ValueOrder`]. Every buffer lives in [`Scratch`] or the
//! tracker across cycles: a measured cycle allocates nothing.

use super::{Cycle, SimNode};
use dslice_core::metrics::{RankCache, SdmTerms, SliceTracker, ValueOrder};
use dslice_core::protocol::SliceProtocol;
use dslice_core::{NodeIdSet, NodeSlab};

/// The metrics phase's buffers, kept across cycles.
#[derive(Default)]
pub(super) struct Scratch {
    /// The partition's per-slice SDM constants, recomputed per measurement.
    terms: SdmTerms,
    /// The GDM's value order.
    order: ValueOrder,
}

/// Runs the metrics phase; returns `(sdm, gdm, slice_changes)`. `last`
/// holds the last computed `(sdm, gdm)`, repeated on skipped cycles.
pub(super) fn run(
    cx: &Cycle,
    nodes: &NodeSlab<SimNode>,
    liars: &NodeIdSet,
    ranks: &RankCache,
    tracker: &mut SliceTracker,
    s: &mut Scratch,
    last: &mut (f64, f64),
) -> (f64, f64, usize) {
    // An ordering-family random value lies in (0, 1]; a ranking estimate
    // ℓ/g (Fig. 5) is 0 while no sample was at or below the node's own
    // attribute, so that family's range is [0, 1].
    let floor_ok = |r: f64| r > 0.0 || !cx.kind.is_ordering();
    debug_assert!(
        nodes.iter().all(|(_, id, n)| {
            let r = n.proto.estimate();
            liars.contains(&id) || ((0.0..=1.0).contains(&r) && floor_ok(r))
        }),
        "an honest estimate left its family's range"
    );
    if !cx.cycle.is_multiple_of(cx.cfg.metrics_every) {
        return (last.0, last.1, 0);
    }
    let partition = &cx.cfg.partition;
    let Scratch { terms, order } = s;
    terms.reset(partition);
    order.count(
        nodes.len(),
        nodes.iter().map(|(_, _, n)| n.proto.estimate()),
    );
    tracker.next_observation(nodes.slot_count());
    let mut slice_changes = 0;
    // Summed as `RankCache::sdm` sums: in slot order, by `Iterator::sum`.
    let sdm = nodes
        .iter()
        .map(|(slot, id, node)| {
            let estimate = node.proto.estimate();
            let believed = partition.slice_of(estimate);
            slice_changes += usize::from(tracker.observe(slot, id, believed));
            order.place(id, estimate);
            terms.term(ranks.tracked_slice(partition, id), believed)
        })
        .sum();
    *last = (sdm, ranks.gdm_of(order));
    (last.0, last.1, slice_changes)
}

/// The GDM of the live population through `s`'s value order, outside the
/// phase: the disorder an engine starts from, or restarts from after a
/// repartition, without a buffer of its own.
pub(super) fn gdm(nodes: &NodeSlab<SimNode>, ranks: &RankCache, s: &mut Scratch) -> f64 {
    let order = &mut s.order;
    order.count(
        nodes.len(),
        nodes.iter().map(|(_, _, n)| n.proto.estimate()),
    );
    for (_, id, node) in nodes.iter() {
        order.place(id, node.proto.estimate());
    }
    ranks.gdm_of(order)
}
