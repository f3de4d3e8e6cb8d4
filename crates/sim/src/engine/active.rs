//! Phases 4 and 5, refresh and active.
//!
//! "The view is up-to-date when a message is sent" (§4.5.2): in every
//! concurrency mode, "each node updates its view before sending its random
//! value", so staleness enters *only* through overlapping in-flight
//! messages. (A node's snapshot of `j` can still go stale between its own
//! step and the end-of-cycle drain, which is exactly the "i has lastly
//! updated its view before j swapped" scenario the paper describes.)
//!
//! The **refresh** phase snapshots every live node's published value and
//! attribute per id row, once, from the protocol column. The **active**
//! phase is one sweep in slot order over the protocol column and the view
//! arena's rows beside it. A stored view holds only `(id, age)` entries
//! ([`AgedId`](dslice_core::AgedId)), so each live node first has its row
//! joined against the snapshot — departed neighbors dropped from the stored
//! view, and the full [`ViewEntry`] of every other neighbor (its age, and
//! its attribute and value as of the snapshot) written into one reused
//! scratch view — then runs its protocol active thread against that
//! scratch view, drawing randomness from its **own counter-based stream**
//! keyed by `(seed, node id, cycle)` (see [`crate::stream`]). Joining view
//! by view, just before each owner acts, gives exactly what refreshing
//! every view first would: the snapshot is immutable, so no active step can
//! change what a later join reads, and an active step reads and writes
//! nothing but its own node. What the nodes send is appended to one flat
//! outbox, in slot order, marking where every sender's messages end.
//!
//! The join resolves no id to a slot: the snapshot is itself indexed by id
//! row — a 16-byte `(value, attribute)` row beside one live bit per row —
//! so a view entry costs one row load that may miss, not an index load and
//! then a dependent per-slot load.

use super::{Cycle, EngineCtx, Envelope, Nodes, ACTIVE_SALT};
use crate::stats::EventCounters;
use dslice_algorithms::AnyProtocol;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, NodeId, NodeSlab, Result, View, ViewEntry};
use std::mem::size_of;

/// The refresh snapshot, the outbox and the joined view, kept across
/// cycles.
pub(super) struct Scratch {
    /// Published value and attribute per id row, beside a live bit per row.
    pub(super) published: PublishedRows,
    /// What the last sweep sent, in slot order.
    pub(super) outbox: Outbox,
    /// The view the acting node's protocol reads: its stored view joined
    /// against the snapshot.
    view: View,
}

impl Scratch {
    /// Empty buffers for views of capacity `view_size`.
    pub(super) fn new(view_size: usize) -> Result<Self> {
        Ok(Scratch {
            published: PublishedRows::default(),
            outbox: Outbox::default(),
            view: View::new(view_size)?,
        })
    }
}

impl Scratch {
    /// Heap bytes held, as `(refresh snapshot, outbox and joined view)`:
    /// the buffers' capacities.
    pub(super) fn heap_bytes(&self) -> (usize, usize) {
        let PublishedRows { rows, live } = &self.published;
        let published =
            rows.capacity() * size_of::<Published>() + live.capacity() * size_of::<u64>();
        let outbox = self.outbox.msgs.capacity() * size_of::<Envelope>()
            + self.outbox.ends.capacity() * size_of::<usize>();
        (published, outbox + self.view.heap_bytes())
    }
}

/// Everything the active sweep sent, flat and in slot order: `ends[k]` is
/// where the `k`-th sending node's messages end in `msgs` (silent nodes
/// leave no mark).
#[derive(Default)]
pub(super) struct Outbox {
    pub(super) msgs: Vec<Envelope>,
    pub(super) ends: Vec<usize>,
}

/// The refresh phase's snapshot: every live node's published value and
/// attribute, in one 16-byte row per id. Liveness is one bit per row beside
/// the rows rather than a sentinel value (a liar may publish any `f64`),
/// and a lookup reads the two columns independently: the bits (one per
/// identity ever issued) stay in cache, and the row is the one load that
/// may miss. Keyed by slot, the same read would need the id's slot first:
/// two dependent loads.
#[derive(Default)]
pub(super) struct PublishedRows {
    /// One row per id; meaningful only where `live` is set.
    rows: Vec<Published>,
    /// Bit `row % 64` of word `row / 64`: whether the id is live.
    pub(super) live: Vec<u64>,
}

/// What a view entry about a node carries beyond its id and age, as of the
/// refresh snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct Published {
    /// The node's published value.
    value: f64,
    /// The node's attribute.
    attribute: Attribute,
}

impl Published {
    /// The full view entry about `id`, of age `age`.
    pub(super) fn entry(self, id: NodeId, age: u32) -> ViewEntry {
        ViewEntry::with_age(id, age, self.attribute, self.value)
    }
}

impl PublishedRows {
    /// `id`'s row as of the snapshot, or `None` for an id that is not live
    /// (departed, or beyond the column).
    pub(super) fn get(&self, id: NodeId) -> Option<Published> {
        let row = id.row();
        let word = self.live.get(row / 64)?;
        (word >> (row % 64) & 1 == 1).then(|| self.rows[row])
    }
}

/// Refresh phase: rebuilds the snapshot over id rows `0..rows` from the
/// live population. Rows of departed ids keep stale contents; their bits
/// are cleared.
pub(super) fn refresh(protos: &NodeSlab<AnyProtocol>, rows: usize, s: &mut Scratch) {
    let PublishedRows { rows: column, live } = &mut s.published;
    // New rows are written below (live) or never read (departed).
    let unset = Published {
        value: 0.0,
        attribute: Attribute::new(0.0).expect("finite"),
    };
    column.resize(rows, unset);
    live.clear();
    live.resize(rows.div_ceil(64), 0);
    for (_, id, proto) in protos.iter() {
        let row = id.row();
        column[row] = Published {
            value: proto.published_value(),
            attribute: proto.attribute(),
        };
        live[row / 64] |= 1 << (row % 64);
    }
}

/// Active phase: one sweep in slot order, each node's view joined against
/// the snapshot just before its owner acts, filling the outbox.
pub(super) fn run(cx: &Cycle, nodes: &mut Nodes, s: &mut Scratch, counters: &mut EventCounters) {
    let Scratch {
        published,
        outbox,
        view,
    } = s;
    outbox.msgs.clear();
    outbox.ends.clear();
    let Nodes { protos, views, .. } = nodes;
    for (slot, id, proto) in protos.iter_mut() {
        let mut stored = views.row_mut(slot);
        stored.join_into(view, |e| Some(published.get(e.id)?.entry(e.id, e.age)));
        let mut rng = cx.rng(id, ACTIVE_SALT);
        let sent_before = outbox.msgs.len();
        let mut ctx = EngineCtx {
            rng: &mut rng,
            out: &mut outbox.msgs,
            counters,
        };
        proto.on_active(view, &mut ctx);
        if outbox.msgs.len() > sent_before {
            outbox.ends.push(outbox.msgs.len());
        }
    }
}
