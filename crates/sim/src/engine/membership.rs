//! Phase 3, membership: every live node runs its membership shuffle
//! (`recompute-view()`, executed atomically as in the paper's simulation),
//! as **schedule → batch → execute**:
//!
//! * *schedule*: every node's exchange partner is drawn up front from the
//!   node's own counter-based stream (keyed by `(seed, node id, cycle)`,
//!   like the active phase) against its start-of-phase view, and the
//!   partner's slot is resolved on the spot — the one id lookup an exchange
//!   costs;
//! * *batch*: the resulting `(initiator, partner)` pairs are greedily
//!   assigned, in slot order, to **conflict-free batches** in which no node
//!   appears twice (first-fit on per-slot 128-bit occupancy masks; a pair
//!   with no common free batch among the 128 goes to the overflow tail). A
//!   stable counting sort by batch number then gives one execution order:
//!   batch 0 in schedule order, then batch 1, …, then the overflow tail;
//! * *execute*: the exchanges run in that order, each borrowing both nodes
//!   mutably where they live ([`NodeSlab::slot_pair_mut`]) — nothing is
//!   moved out and back — and drawing only from the initiator's carried
//!   stream. The order matters: about 40 % of exchanges read a view that an
//!   exchange earlier in the order changed, so plain slot order would be a
//!   different run.
//!
//! An exchange between two Cyclon samplers uses no payload at all:
//! [`PeerSampler::exchange_local`] swaps the two views element by element
//! where they live; the other substrates (and the rare Cyclon exchange whose
//! views need a top-up) go through the payload buffers.
//!
//! **Look-ahead reads.** An exchange rewrites both endpoints' whole view
//! rows, so at the start of each group of `GATHER_AHEAD` exchanges the
//! phase reads in two stages: the slab cells of the group after next, and
//! the whole view rows of the next group, whose cells — holding the pointer
//! to the row — were read one group earlier. A row read takes one entry per
//! 64-byte cache line and the last entry, since a row of ten 24-byte
//! entries spans four or five lines.
//!
//! The uniform-oracle substrate takes the same shape: the population is
//! snapshotted once per cycle and every view refilled from it, each node
//! sampling from its own stream.

use super::{sample_from_pool, Cycle, SimNode, GATHER_AHEAD, MEMBERSHIP_SALT};
use crate::config::SamplerKind;
use crate::stream::NodeRng;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{NodeSlab, ViewEntry};
use dslice_gossip::{ExchangeBuffers, PeerSampler};
use std::hint::black_box;
use std::mem;

/// The batch number of the overflow tail: one past the 128 batches the
/// occupancy masks hold.
const OVERFLOW: usize = 128;

/// The membership phase's buffers, kept across cycles.
#[derive(Default)]
pub(super) struct Scratch {
    /// The schedule: one entry per initiating node, in slot order.
    scheduled: Vec<ScheduledExchange>,
    /// Batch-occupancy bitmask per slot (bit `b` = busy in batch `b`).
    masks: Vec<u128>,
    /// Batch number per scheduled exchange ([`OVERFLOW`] for the tail).
    batch: Vec<u8>,
    /// The execution order, as indices into `scheduled`.
    order: Vec<u32>,
    /// The request/reply payload buffers of non-local exchanges.
    bufs: ExchangeBuffers,
    /// Oracle refill: the cycle's population snapshot as view entries.
    pool: Vec<ViewEntry>,
}

/// One scheduled membership exchange, in 16 bytes: the slots of the
/// initiator and its chosen partner (resolved once — nothing downstream
/// looks an id up again, and the ids themselves are read back from the
/// slab where needed) and the initiator's membership stream, carried from
/// schedule to execute so the pair consumes exactly the draws a combined
/// `initiate` would. Slots fit `u32`: the slab holds fewer slots than ids
/// below `u32::MAX`.
pub(super) struct ScheduledExchange {
    slot: u32,
    partner_slot: u32,
    rng: NodeRng,
}

impl ScheduledExchange {
    /// The initiator's and the partner's slots.
    fn slots(&self) -> (usize, usize) {
        (self.slot as usize, self.partner_slot as usize)
    }
}

/// Runs the membership phase (see the module docs). The uniform-oracle
/// substrate refills instead, and is deliberately *not* constrained by
/// network partitions — it models an out-of-band sampling service.
/// Scheduled exchanges crossing an installed partition are severed and
/// counted in `dropped`. With `log`, the schedule is recorded as
/// `(initiator, partner, batch)` triples in execution order, overflow pairs
/// as singleton batches `128 + offset`.
pub(super) fn run(
    cx: &Cycle,
    nodes: &mut NodeSlab<SimNode>,
    s: &mut Scratch,
    log: Option<&mut Vec<(u64, u64, usize)>>,
    dropped: &mut u64,
) {
    if cx.cfg.sampler == SamplerKind::UniformOracle {
        if let Some(log) = log {
            log.clear(); // the oracle never schedules exchanges
        }
        return refill(cx, nodes, &mut s.pool);
    }

    // Schedule. A partner that is not alive (possible only for same-cycle
    // stale entries) costs the initiator that pointer and its exchange,
    // exactly as in the sequential model.
    s.scheduled.clear();
    let (live, lookup) = nodes.iter_mut_with_lookup();
    for (slot, id, node) in live {
        let mut rng = cx.rng(id, MEMBERSHIP_SALT);
        let Some(partner) = node.sampler.schedule_exchange(&mut rng) else {
            continue;
        };
        match lookup.slot_of(partner) {
            // Slots are below `u32::MAX` (see `ScheduledExchange`).
            Some(partner_slot) => s.scheduled.push(ScheduledExchange {
                slot: slot as u32,
                partner_slot: partner_slot as u32,
                rng,
            }),
            None => {
                node.sampler.view_mut().remove(partner);
            }
        }
    }

    // Partition gating: a cross-band exchange's REQ′ never crosses — the
    // pair is severed before batching (the initiator keeps its stale
    // pointer; failure detection is the view's business, not the
    // partition's). RNG-free: band membership is a pure attribute lookup
    // against the frozen cuts.
    if let Some(partition) = cx.fault.partition() {
        let band_of = |slot| {
            let node: Option<&SimNode> = nodes.slot(slot);
            node.map(|n| partition.band_of(n.proto.attribute().value()))
        };
        s.scheduled.retain(|x| {
            let (slot, partner_slot) = x.slots();
            let connected = match (band_of(slot), band_of(partner_slot)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            *dropped += u64::from(!connected);
            connected
        });
    }

    // Batch: greedy first-fit in schedule order, then a stable counting sort
    // by batch number into the execution order. `starts[b]` ends up where
    // batch `b + 1` starts, so `starts[OVERFLOW - 1]` is the tail's start.
    s.masks.clear();
    s.masks.resize(nodes.slot_count(), 0);
    s.batch.clear();
    let mut starts = [0u32; OVERFLOW + 1];
    for x in &s.scheduled {
        let (slot, partner_slot) = x.slots();
        // All 128 bits busy: `trailing_zeros` of zero is `OVERFLOW`.
        let batch = (!(s.masks[slot] | s.masks[partner_slot])).trailing_zeros() as usize;
        if batch < OVERFLOW {
            s.masks[slot] |= 1 << batch;
            s.masks[partner_slot] |= 1 << batch;
        }
        s.batch.push(batch as u8);
        starts[batch] += 1;
    }
    let mut start = 0;
    for count in &mut starts {
        (start, *count) = (start + *count, start);
    }
    s.order.clear();
    s.order.resize(s.scheduled.len(), 0);
    for (idx, &batch) in s.batch.iter().enumerate() {
        let pos = &mut starts[batch as usize];
        // One entry per live node: the index fits `u32` as slots do.
        s.order[*pos as usize] = idx as u32;
        *pos += 1;
    }

    if let Some(log) = log {
        log.clear();
        let tail = starts[OVERFLOW - 1] as usize;
        let id = |slot| {
            nodes
                .id_at(slot)
                .expect("scheduled slots are live")
                .as_u64()
        };
        for (pos, &idx) in s.order.iter().enumerate() {
            let (slot, partner_slot) = s.scheduled[idx as usize].slots();
            // Overflow pairs execute one at a time: singleton batches.
            let batch = s.batch[idx as usize] as usize + pos.saturating_sub(tail);
            log.push((id(slot), id(partner_slot), batch));
        }
    }

    // Execute, in order, with the look-ahead reads of the module docs.
    let ahead = |pos: usize, groups: usize| {
        let next = s.order.iter().skip(pos + groups * GATHER_AHEAD);
        next.take(GATHER_AHEAD)
            .map(|&idx| s.scheduled[idx as usize].slots())
    };
    for (pos, &idx) in s.order.iter().enumerate() {
        if pos % GATHER_AHEAD == 0 {
            for (slot, partner_slot) in ahead(pos, 2) {
                gather_cell(nodes.slot(slot));
                gather_cell(nodes.slot(partner_slot));
            }
            for (slot, partner_slot) in ahead(pos, 1) {
                gather_row(nodes.slot(slot));
                gather_row(nodes.slot(partner_slot));
            }
        }
        exchange_in_place(nodes, &s.scheduled[idx as usize], &mut s.bufs);
    }
}

/// Executes one scheduled exchange where the nodes live: both endpoints are
/// borrowed mutably in their slots, nothing is moved. It mutates only the
/// two nodes and the payload buffers (which two Cyclon samplers do not even
/// touch: they swap their views in place), and draws only from the
/// initiator's carried membership stream.
fn exchange_in_place(
    nodes: &mut NodeSlab<SimNode>,
    scheduled: &ScheduledExchange,
    bufs: &mut ExchangeBuffers,
) {
    let (slot, partner_slot) = scheduled.slots();
    if let Some((node, partner)) = nodes.slot_pair_mut(slot, partner_slot) {
        let (self_entry, partner_entry) = (node.self_entry(), partner.self_entry());
        let rng = &mut scheduled.rng.clone();
        node.sampler
            .exchange_local(self_entry, &mut partner.sampler, partner_entry, rng, bufs);
    }
}

/// View entries per 64-byte cache line: the stride of the look-ahead read
/// over a view buffer.
const ENTRIES_PER_LINE: usize = 64 / mem::size_of::<ViewEntry>();

/// Reads an exchange endpoint's slab cell — both halves of it: the
/// protocol's published value and the handle of the view buffer, the first
/// link of the chain [`gather_row`] follows — and discards what it read.
fn gather_cell(node: Option<&SimNode>) {
    if let Some(node) = node {
        black_box(node.proto.published_value());
        black_box(node.sampler.view().entries().len());
    }
}

/// Reads the node's whole view buffer, the one link beyond the slab cell,
/// which an exchange reads and rewrites end to end: one entry per cache
/// line, and the last entry, whose tail may start a line of its own.
fn gather_row(node: Option<&SimNode>) {
    if let Some(node) = node {
        let entries = node.sampler.view().entries();
        for entry in entries.iter().step_by(ENTRIES_PER_LINE) {
            black_box(entry.id);
        }
        black_box(entries.last().copied());
    }
}

/// Membership phase of the uniform-oracle substrate: snapshot the
/// population once (it is invariant within a cycle — churn only happens at
/// cycle start), then refill every view from it, each node sampling from
/// its own membership stream.
fn refill(cx: &Cycle, nodes: &mut NodeSlab<SimNode>, pool: &mut Vec<ViewEntry>) {
    let view_size = cx.cfg.view_size;
    pool.clear();
    pool.extend(nodes.iter().map(|(_, _, n)| n.self_entry()));
    let mut entries: Vec<ViewEntry> = Vec::with_capacity(view_size + 1);
    for (_, id, node) in nodes.iter_mut() {
        let mut rng = cx.rng(id, MEMBERSHIP_SALT);
        sample_from_pool(&mut rng, pool, |e| e.id, id, view_size, &mut entries);
        node.sampler.refill(&entries);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{run_hash, small_cfg};
    use super::super::Engine;
    use crate::config::ProtocolKind;
    use dslice_core::digest::fnv1a64;
    use dslice_core::NodeId;
    use dslice_gossip::PeerSampler;

    #[test]
    fn overflow_tail_is_pinned() {
        // Every view but the hub's holds the hub alone, so the hub's
        // in-degree (299) exceeds the 127 the 128-batch masks hold and the
        // excess pairs run in the sequential overflow tail.
        let mut engine = Engine::new(small_cfg(300, 4, 81), ProtocolKind::ModJk).unwrap();
        let hub = engine.nodes.get(NodeId::new(0)).unwrap().self_entry();
        for (_, id, node) in engine.nodes.iter_mut() {
            if id != hub.id {
                node.sampler.refill(&[hub]);
            }
        }
        engine.debug_record_schedule(true);
        let mut log = Vec::new();
        for _ in 0..3 {
            engine.step();
            log.extend_from_slice(engine.debug_last_schedule());
        }
        assert!(log.iter().any(|&(_, _, batch)| batch >= 128), "overflowed");
        let log_hash = fnv1a64(log.iter().flat_map(|&(id, partner, batch)| {
            [id, partner, batch as u64]
                .into_iter()
                .flat_map(u64::to_le_bytes)
        }));
        let record = engine.run(10);
        let hash = run_hash(&record, &[engine.accuracy()]);
        assert_eq!(
            (log_hash, hash),
            (0x9823_a29d_bf83_5f61, 0x339e_e8d6_54d2_2c66),
            "schedule or record bytes changed (got {log_hash:#018x}, {hash:#018x})"
        );
    }
}
