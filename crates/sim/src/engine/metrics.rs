//! Phase 7, metrics: SDM, GDM and the §3.2 slice changes over the live
//! population, every [`metrics_every`](crate::SimConfig::metrics_every)-th
//! cycle (skipped cycles repeat the last computed disorder values). SDM and
//! slice accuracy come from the churn-maintained [`RankCache`] in O(n), and
//! so does the GDM's attribute rank (only the random values are sorted).

use super::{Cycle, SimNode};
use dslice_core::metrics::{RankCache, SliceTracker};
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, NodeId, NodeIdSet, NodeSlab};

/// Runs the metrics phase; returns `(sdm, gdm, slice_changes)`. `last`
/// holds the last computed `(sdm, gdm)`, repeated on skipped cycles.
pub(super) fn run(
    cx: &Cycle,
    nodes: &NodeSlab<SimNode>,
    liars: &NodeIdSet,
    ranks: &RankCache,
    tracker: &mut SliceTracker,
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
    let snapshot = snapshot_slots(nodes);
    let estimates = snapshot.iter().map(|&(id, _, est)| (id, est));
    *last = (
        ranks.sdm(&cx.cfg.partition, estimates),
        ranks.gdm(&snapshot),
    );
    let slice_changes = tracker.observe(&cx.cfg.partition, &snapshot);
    (last.0, last.1, slice_changes)
}

/// The live population in slot order (the engine's canonical
/// deterministic order): `(id, attribute, estimate)`.
pub(super) fn snapshot_slots(nodes: &NodeSlab<SimNode>) -> Vec<(NodeId, Attribute, f64)> {
    let live = nodes.iter();
    live.map(|(_, id, n)| (id, n.proto.attribute(), n.proto.estimate()))
        .collect()
}
