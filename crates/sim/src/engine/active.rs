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
//! The outbox holds a whole cycle's messages (two per node in a ranking
//! run) until delivery routes them, so it keeps only what delivery cannot
//! find elsewhere, in 13 bytes a message where an [`Envelope`] takes 32:
//! a 12-byte record of the recipient and one `f64` — the value of a swap
//! request or acknowledgement, the attribute of an update — stored as two
//! `u32` halves so that the record is 4-aligned, beside a one-byte kind.
//! The sender is kept once per sending node, beside where its messages
//! end, and a swap request's attribute, its second `f64`, goes in a side
//! column that delivery reads in order. Delivery rebuilds each envelope,
//! bit for bit, as it routes it. The columns are sized at construction for
//! one message per node, so a ranking run's outbox doubles once, to its
//! two messages a node, and leaves no trail of outgrown blocks behind in
//! the allocator.
//!
//! The join resolves no id to a slot: the snapshot is itself indexed by id
//! row — a 16-byte `(value, attribute)` row beside one live bit per row —
//! so a view entry costs one row load that may miss, not an index load and
//! then a dependent per-slot load.

use super::{Cycle, EngineCtx, Envelope, Nodes, Outgoing, Payload, ACTIVE_SALT};
use crate::stats::EventCounters;
use dslice_algorithms::AnyProtocol;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, NodeId, NodeSlab, ProtocolMsg, Result, View, ViewEntry};
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
    /// Empty buffers for views of capacity `view_size`, the outbox sized
    /// for a message from each of `n` nodes.
    pub(super) fn new(view_size: usize, n: usize) -> Result<Self> {
        Ok(Scratch {
            published: PublishedRows::default(),
            outbox: Outbox::with_capacity(n),
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
        (published, self.outbox.heap_bytes() + self.view.heap_bytes())
    }
}

/// Everything the active sweep sent, flat and in slot order (see the module
/// docs): `senders[k]` is the `k`-th sending node and where its messages
/// end in `records` (silent nodes leave no pair).
pub(super) struct Outbox {
    senders: Vec<(NodeId, u32)>,
    records: Vec<Record>,
    /// What each record's `f64` is, one byte per record.
    kinds: Vec<Kind>,
    /// Each swap request's attribute, in send order.
    attributes: Vec<Attribute>,
}

/// One sent message as the outbox keeps it: the recipient, and the bits of
/// the one `f64` its kind carries, low half first.
#[derive(Clone, Copy)]
struct Record {
    to: NodeId,
    bits: [u32; 2],
}

/// Which [`Payload`] variant a [`Record`] holds, and so what its `f64` is.
#[derive(Clone, Copy)]
enum Kind {
    /// The proposer's value; the attribute is in the side column.
    SwapReq,
    /// The responder's pre-swap value.
    SwapAck,
    /// The sender's attribute.
    Update,
}

impl Outbox {
    /// An empty outbox with room for a message from each of `n` senders,
    /// sized once as the node columns are: a sender leaves at most one pair,
    /// and a protocol that sends more than one message a node grows the
    /// records by doubling once or twice. Swap requests' attributes start
    /// empty, since a ranking run sends none.
    pub(super) fn with_capacity(n: usize) -> Self {
        Outbox {
            senders: Vec::with_capacity(n),
            records: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            attributes: Vec::new(),
        }
    }

    /// Heap bytes held: the columns' capacities.
    fn heap_bytes(&self) -> usize {
        self.senders.capacity() * size_of::<(NodeId, u32)>()
            + self.records.capacity() * size_of::<Record>()
            + self.kinds.capacity() * size_of::<Kind>()
            + self.attributes.capacity() * size_of::<Attribute>()
    }

    fn clear(&mut self) {
        self.senders.clear();
        self.records.clear();
        self.kinds.clear();
        self.attributes.clear();
    }

    /// Keeps one message, addressed to `to`.
    fn push(&mut self, to: NodeId, payload: Payload) {
        let (kind, x) = match payload {
            Payload::SwapReq { r, a } => {
                self.attributes.push(a);
                (Kind::SwapReq, r)
            }
            Payload::SwapAck { r } => (Kind::SwapAck, r),
            Payload::Update { a } => (Kind::Update, a.value()),
        };
        let bits = x.to_bits();
        let bits = [bits as u32, (bits >> 32) as u32];
        self.records.push(Record { to, bits });
        self.kinds.push(kind);
    }

    /// Ends `from`'s turn: marks where its messages end, if it sent any.
    fn close(&mut self, from: NodeId) {
        let end = self.records.len();
        let last = self.senders.last().map_or(0, |&(_, end)| end as usize);
        if end > last {
            let end = u32::try_from(end).expect("a cycle sends fewer than 2^32 messages");
            self.senders.push((from, end));
        }
    }

    /// The sending nodes in slot order, each beside where its messages end.
    pub(super) fn senders(&self) -> &[(NodeId, u32)] {
        &self.senders
    }

    /// The recipients of up to `count` messages from the `start`-th on.
    pub(super) fn recipients(
        &self,
        start: usize,
        count: usize,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.records.iter().skip(start).take(count).map(|r| r.to)
    }

    /// The `pos`-th message, sent by `from`, as the envelope it was sent
    /// as. `attributes` yields the swap requests' attributes: the side
    /// column, read in order along with the records.
    pub(super) fn envelope(
        &self,
        pos: usize,
        from: NodeId,
        attributes: &mut impl Iterator<Item = Attribute>,
    ) -> Envelope {
        let Record { to, bits: [lo, hi] } = self.records[pos];
        let x = f64::from_bits(u64::from(hi) << 32 | u64::from(lo));
        let payload = match self.kinds[pos] {
            Kind::SwapReq => Payload::SwapReq {
                r: x,
                a: attributes.next().expect("one attribute per swap request"),
            },
            Kind::SwapAck => Payload::SwapAck { r: x },
            Kind::Update => Payload::Update {
                a: Attribute::new(x).expect("attributes are finite"),
            },
        };
        Envelope { to, from, payload }
    }

    /// The swap requests' attributes, in send order.
    pub(super) fn attributes(&self) -> impl Iterator<Item = Attribute> + '_ {
        self.attributes.iter().copied()
    }
}

/// The outbox as the acting node's protocol writes to it.
struct Sender<'a> {
    outbox: &'a mut Outbox,
    id: NodeId,
}

impl Outgoing for Sender<'_> {
    fn send(&mut self, to: NodeId, msg: ProtocolMsg) {
        let Envelope { to, from, payload } = Envelope::pack(to, msg);
        // The outbox keeps the sender once per node, so a node may only
        // send as itself.
        debug_assert_eq!(from, self.id, "node {} sent a message as {from}", self.id);
        self.outbox.push(to, payload);
    }
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
    outbox.clear();
    let Nodes { protos, views, .. } = nodes;
    for (slot, id, proto) in protos.iter_mut() {
        let mut stored = views.row_mut(slot);
        stored.join_into(view, |e| Some(published.get(e.id)?.entry(e.id, e.age)));
        let mut rng = cx.rng(id, ACTIVE_SALT);
        let mut ctx = EngineCtx {
            rng: &mut rng,
            out: &mut Sender { outbox, id },
            counters,
        };
        proto.on_active(view, &mut ctx);
        outbox.close(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::align_of;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every bit of an envelope: the endpoints, the variant and the bits of
    /// its `f64`s.
    fn bits(e: &Envelope) -> (NodeId, NodeId, u8, u64, u64) {
        let (to, from) = (e.to, e.from);
        match e.payload {
            Payload::SwapReq { r, a } => (to, from, 0, r.to_bits(), a.value().to_bits()),
            Payload::SwapAck { r } => (to, from, 1, r.to_bits(), 0),
            Payload::Update { a } => (to, from, 2, 0, a.value().to_bits()),
        }
    }

    #[test]
    fn a_message_takes_13_bytes() {
        assert_eq!((size_of::<Record>(), align_of::<Record>()), (12, 4));
        assert_eq!(size_of::<Kind>(), 1);
    }

    #[test]
    fn every_payload_comes_back_bit_identical() {
        // A liar may publish any `f64`, a NaN with a payload included; an
        // attribute is any finite `f64`.
        let subnormal = f64::from_bits(0x000f_ffff_ffff_fffd);
        let nan = f64::from_bits(0xfff8_1234_5678_9abc);
        let values = [-0.0, subnormal, -f64::MAX, nan];
        let attributes =
            [-0.0, f64::from_bits(1), f64::MAX, 0.5].map(|a| Attribute::new(a).unwrap());
        let from = NodeId::new(u64::from(u32::MAX) - 1);
        let mut outbox = Outbox::with_capacity(0);
        let mut sent = Vec::new();
        let mut sender = Sender {
            outbox: &mut outbox,
            id: from,
        };
        for (i, r) in values.into_iter().enumerate() {
            for (j, a) in attributes.into_iter().enumerate() {
                let to = NodeId::new((4 * i + j) as u64);
                for msg in [
                    ProtocolMsg::SwapReq { from, r, a },
                    ProtocolMsg::SwapAck { from, r },
                    ProtocolMsg::Update { from, a },
                ] {
                    sent.push(Envelope::pack(to, msg.clone()));
                    sender.send(to, msg);
                }
            }
        }
        outbox.close(from);
        assert_eq!(outbox.senders(), [(from, sent.len() as u32)]);
        let mut attributes = outbox.attributes();
        for (pos, envelope) in sent.iter().enumerate() {
            let got = outbox.envelope(pos, from, &mut attributes);
            assert_eq!(bits(&got), bits(envelope), "message {pos}");
        }
        assert!(
            attributes.next().is_none(),
            "one attribute per swap request"
        );
    }

    #[test]
    fn senders_are_grouped_and_silent_nodes_leave_no_pair() {
        let a = Attribute::new(1.0).unwrap();
        let mut outbox = Outbox::with_capacity(0);
        for _ in 0..2 {
            outbox.clear();
            for (id, count) in [(3, 2), (5, 0), (1, 1), (9, 0), (4, 3)] {
                let id = NodeId::new(id);
                let mut sender = Sender {
                    outbox: &mut outbox,
                    id,
                };
                for to in 0..count {
                    sender.send(NodeId::new(to), ProtocolMsg::Update { from: id, a });
                }
                outbox.close(id);
            }
            let pairs = [(3, 2), (1, 3), (4, 6)].map(|(id, end)| (NodeId::new(id), end));
            assert_eq!(outbox.senders(), pairs);
            let recipients: Vec<u64> = outbox.recipients(0, 16).map(|to| to.as_u64()).collect();
            assert_eq!(recipients, [0, 1, 0, 0, 1, 2]);
            let ahead: Vec<u64> = outbox.recipients(4, 16).map(|to| to.as_u64()).collect();
            assert_eq!(ahead, [1, 2]);
        }
    }

    #[test]
    fn a_node_sends_only_as_itself() {
        let (id, other) = (NodeId::new(1), NodeId::new(2));
        let a = Attribute::new(1.0).unwrap();
        let mut outbox = Outbox::with_capacity(0);
        let sent = catch_unwind(AssertUnwindSafe(|| {
            let mut sender = Sender {
                outbox: &mut outbox,
                id,
            };
            sender.send(NodeId::new(3), ProtocolMsg::Update { from: other, a });
        }));
        assert_eq!(sent.is_err(), cfg!(debug_assertions));
    }
}
