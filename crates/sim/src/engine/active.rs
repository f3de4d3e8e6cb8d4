//! Phases 4 and 5, refresh and active.
//!
//! "The view is up-to-date when a message is sent" (§4.5.2): in every
//! concurrency mode, "each node updates its view before sending its random
//! value", so staleness enters *only* through overlapping in-flight
//! messages. (A node's snapshot of `j` can still go stale between its own
//! step and the end-of-cycle drain, which is exactly the "i has lastly
//! updated its view before j swapped" scenario the paper describes.)
//!
//! The **refresh** phase snapshots every live node's published value per id
//! row, once. The **active** phase is one sweep over the slot array. Each
//! live node first has its view refreshed against the snapshot (value
//! snapshots brought up to date, departed neighbors dropped), then runs its
//! protocol active thread against it, drawing randomness from its **own
//! counter-based stream** keyed by `(seed, node id, cycle)` (see
//! [`crate::stream`]). Refreshing view by view, just before each owner acts,
//! gives exactly what refreshing every view first would: the snapshot is
//! immutable, so no active step can change what a later refresh reads, and
//! an active step reads and writes nothing but its own node. The sweep
//! reads each view once where two sweeps would read it twice. What the
//! nodes send is appended to one flat outbox, in slot order, marking where
//! every sender's messages end.
//!
//! The refresh resolves no id to a slot: the snapshot is itself indexed by
//! id row — a value column beside one live bit per row — so a view entry
//! costs one value load that may miss, not an index load and then a
//! dependent per-slot load.

use super::{Cycle, EngineCtx, Envelope, SimNode, ACTIVE_SALT};
use crate::stats::EventCounters;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{NodeId, NodeSlab};
use dslice_gossip::PeerSampler;

/// The refresh snapshot and the outbox, kept across cycles.
#[derive(Default)]
pub(super) struct Scratch {
    /// Published value per id row, beside a live bit per row.
    pub(super) published: PublishedRows,
    /// What the last sweep sent, in slot order.
    pub(super) outbox: Outbox,
}

/// Everything the active sweep sent, flat and in slot order: `ends[k]` is
/// where the `k`-th sending node's messages end in `msgs` (silent nodes
/// leave no mark).
#[derive(Default)]
pub(super) struct Outbox {
    pub(super) msgs: Vec<Envelope>,
    pub(super) ends: Vec<usize>,
}

/// The refresh phase's snapshot: every live node's published value, by id
/// row. Liveness is one bit per row beside the values rather than a
/// sentinel value (a liar may publish any `f64`), and a lookup reads the
/// two columns independently: the bits (one per identity ever issued) stay
/// in cache, and the value is the one load that may miss. Keyed by slot,
/// the same read would need the id's slot first: two dependent loads.
#[derive(Default)]
pub(super) struct PublishedRows {
    /// Published value per id row; meaningful only where `live` is set.
    values: Vec<f64>,
    /// Bit `row % 64` of word `row / 64`: whether the id is live.
    pub(super) live: Vec<u64>,
}

impl PublishedRows {
    /// `id`'s published value as of the snapshot, or `None` for an id that
    /// is not live (departed, or beyond the column).
    pub(super) fn get(&self, id: NodeId) -> Option<f64> {
        let row = id.row();
        let word = self.live.get(row / 64)?;
        (word >> (row % 64) & 1 == 1).then(|| self.values[row])
    }
}

/// Refresh phase: rebuilds the snapshot over id rows `0..rows` from the
/// live population. Rows of departed ids keep stale values; their bits are
/// cleared.
pub(super) fn refresh(nodes: &NodeSlab<SimNode>, rows: usize, s: &mut Scratch) {
    let PublishedRows { values, live } = &mut s.published;
    values.resize(rows, 0.0);
    live.clear();
    live.resize(rows.div_ceil(64), 0);
    for (_, id, node) in nodes.iter() {
        let row = id.row();
        values[row] = node.proto.published_value();
        live[row / 64] |= 1 << (row % 64);
    }
}

/// Active phase: one sweep in slot order, each node's view refreshed
/// against the snapshot just before its owner acts, filling the outbox.
pub(super) fn run(
    cx: &Cycle,
    nodes: &mut NodeSlab<SimNode>,
    s: &mut Scratch,
    counters: &mut EventCounters,
) {
    let Scratch { published, outbox } = s;
    outbox.msgs.clear();
    outbox.ends.clear();
    for (_, id, node) in nodes.iter_mut() {
        let view = node.sampler.view_mut();
        view.refresh_values(|nid| published.get(nid));
        let mut rng = cx.rng(id, ACTIVE_SALT);
        let sent_before = outbox.msgs.len();
        let mut ctx = EngineCtx {
            rng: &mut rng,
            out: &mut outbox.msgs,
            counters,
        };
        node.proto.on_active(node.sampler.view(), &mut ctx);
        if outbox.msgs.len() > sent_before {
            outbox.ends.push(outbox.msgs.len());
        }
    }
}
