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
//!   appears twice (first-fit over 128 batches; a pair with no common free
//!   batch among them goes to the overflow tail). A stable counting sort by
//!   batch number then gives one execution order: batch 0 in schedule
//!   order, then batch 1, …, then the overflow tail;
//! * *execute*: the exchanges run in that order, each borrowing both
//!   nodes' views mutably where they live, as rows of the view arena
//!   ([`ViewArena::row_pair_mut`]) — nothing is moved out and back — and
//!   drawing only from the initiator's carried stream. The order matters: about 40 % of exchanges read a view that an
//!   exchange earlier in the order changed, so plain slot order would be a
//!   different run.
//!
//! An exchange between two Cyclon samplers uses no payload at all:
//! [`PeerSampler::exchange_local`] swaps the two views element by element
//! where they live; the other substrates (and the rare Cyclon exchange whose
//! views need a top-up) go through the payload buffers.
//!
//! The phase reads nothing of any node's protocol (the protocol column) but
//! its attribute under an installed network partition: a sampler is bound
//! from the sampler column — its owner — and the node's arena row, and the
//! self-descriptors it hands the samplers are `(owner, age 0)` [`AgedId`]s.
//! The schedule walks the rows in slot order and skips the empty ones: the
//! rows of free slots, and of nodes with no neighbor, which would schedule
//! nothing.
//!
//! **Batch occupancy.** Each slot keeps a 32-bit mask of the low batches
//! it is busy in (bit `b` = batch `b`), re-zeroed every cycle. Only a pair
//! whose two masks together fill all 32 low batches looks further: batches
//! 32–127 are kept in an exact side map from slot to a 96-bit mask, which
//! holds an entry only for a slot busy in one of them: the endpoints of a
//! pair that found its low batches full, which takes a node in dozens of
//! the cycle's exchanges (a hub, or a partner of one). First-fit reads the
//! same 128 bits it would read from one 128-bit mask per slot, so every
//! exchange gets the same batch, at a quarter of the bytes per slot.
//!
//! **Look-ahead reads.** An exchange rewrites both endpoints' whole view
//! rows, so at the start of each group of `GATHER_AHEAD` exchanges the
//! phase reads the next group's rows and owners ahead. A row's address is
//! computed from its slot, so this is one stage: nothing read ahead is
//! needed to find what else to read. A row read takes one entry per 64-byte
//! cache line and the last entry, since a row of ten 8-byte entries spans
//! two or three lines.
//!
//! The uniform-oracle substrate takes the same shape: the population is
//! snapshotted once per cycle and every view refilled from it, each node
//! sampling from its own stream.

use super::{sample_from_pool, Cycle, Nodes, GATHER_AHEAD, MEMBERSHIP_SALT};
use crate::config::SamplerKind;
use crate::stream::NodeRng;
use dslice_core::protocol::SliceProtocol;
use dslice_core::{AgedId, ViewArena};
use dslice_gossip::{ExchangeBuffers, PeerSampler, SamplerColumn};
use std::collections::HashMap;
use std::hint::black_box;
use std::mem;

/// The batch number of the overflow tail: one past the 128 batches the
/// occupancy masks hold.
const OVERFLOW: usize = 128;

/// The batches each slot's own mask holds: `0..LOW`. The side map holds
/// `LOW..OVERFLOW`.
const LOW: usize = 32;

/// The membership phase's buffers, kept across cycles.
#[derive(Default)]
pub(super) struct Scratch {
    /// The schedule: one entry per initiating node, in slot order.
    scheduled: Vec<ScheduledExchange>,
    /// Low batch-occupancy bitmask per slot (bit `b` = busy in batch `b`).
    masks: Vec<u32>,
    /// The slots busy in a batch of `LOW..OVERFLOW`: bit `b` = busy in
    /// batch `LOW + b`.
    high: HashMap<u32, u128>,
    /// Batch number per scheduled exchange ([`OVERFLOW`] for the tail).
    batch: Vec<u8>,
    /// The execution order, as indices into `scheduled`.
    order: Vec<u32>,
    /// The request/reply payload buffers of non-local exchanges.
    bufs: ExchangeBuffers<AgedId>,
    /// Oracle refill: the cycle's population snapshot as view entries.
    pool: Vec<AgedId>,
}

/// One scheduled membership exchange, in 16 bytes: the slots of the
/// initiator and its chosen partner (resolved once — nothing downstream
/// looks an id up again, and the owners are read back from the sampler
/// column where needed) and the initiator's membership stream, carried from
/// schedule to execute so the pair consumes exactly the draws a combined
/// `initiate` would. Slots fit `u32`: the slab holds fewer slots than ids
/// below `u32::MAX`.
pub(super) struct ScheduledExchange {
    slot: u32,
    partner_slot: u32,
    rng: NodeRng,
}

impl Scratch {
    /// Heap bytes held: the buffers' capacities.
    pub(super) fn heap_bytes(&self) -> usize {
        self.scheduled.capacity() * mem::size_of::<ScheduledExchange>()
            + self.masks.capacity() * mem::size_of::<u32>()
            + self.high.capacity() * mem::size_of::<(u32, u128)>()
            + self.batch.capacity()
            + self.order.capacity() * mem::size_of::<u32>()
            + (self.bufs.request.capacity() + self.bufs.reply.capacity() + self.pool.capacity())
                * mem::size_of::<AgedId>()
    }
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
    nodes: &mut Nodes,
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
    for slot in 0..nodes.views.slot_count() {
        if nodes.views.entries(slot).is_empty() {
            continue;
        }
        let mut rng = cx.rng(nodes.samplers.owner(slot), MEMBERSHIP_SALT);
        let Some(partner) = nodes.sampler(slot).schedule_exchange(&mut rng) else {
            continue;
        };
        match nodes.protos.slot_of(partner) {
            // Slots are below `u32::MAX` (see `ScheduledExchange`).
            Some(partner_slot) => s.scheduled.push(ScheduledExchange {
                slot: slot as u32,
                partner_slot: partner_slot as u32,
                rng,
            }),
            None => {
                nodes.views.row_mut(slot).remove(partner);
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
            let proto = nodes.protos.slot(slot);
            proto.map(|p| partition.band_of(p.attribute().value()))
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
    s.masks.resize(nodes.protos.slot_count(), 0);
    s.high.clear();
    s.batch.clear();
    let mut starts = [0u32; OVERFLOW + 1];
    for x in &s.scheduled {
        let (slot, partner_slot) = x.slots();
        let batch = first_free(&s.masks, &s.high, slot, partner_slot);
        if batch < LOW {
            s.masks[slot] |= 1 << batch;
            s.masks[partner_slot] |= 1 << batch;
        } else if batch < OVERFLOW {
            for slot in [slot, partner_slot] {
                *s.high.entry(slot as u32).or_default() |= 1 << (batch - LOW);
            }
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
            let id = nodes.protos.id_at(slot);
            id.expect("scheduled slots are live").as_u64()
        };
        for (pos, &idx) in s.order.iter().enumerate() {
            let (slot, partner_slot) = s.scheduled[idx as usize].slots();
            // Overflow pairs execute one at a time: singleton batches.
            let batch = s.batch[idx as usize] as usize + pos.saturating_sub(tail);
            log.push((id(slot), id(partner_slot), batch));
        }
    }

    // Execute, in order, with the look-ahead reads of the module docs.
    let ahead = |pos: usize| {
        let next = s.order.iter().skip(pos + GATHER_AHEAD);
        next.take(GATHER_AHEAD)
            .map(|&idx| s.scheduled[idx as usize].slots())
    };
    let Nodes {
        samplers, views, ..
    } = nodes;
    for (pos, &idx) in s.order.iter().enumerate() {
        if pos % GATHER_AHEAD == 0 {
            for (slot, partner_slot) in ahead(pos) {
                gather(samplers, views, slot);
                gather(samplers, views, partner_slot);
            }
        }
        exchange_in_place(samplers, views, &s.scheduled[idx as usize], &mut s.bufs);
    }
}

/// The first batch in which neither `slot` nor `partner_slot` is busy, or
/// [`OVERFLOW`] when they share no free batch. The side map is read only
/// when the two low masks together are full.
fn first_free(masks: &[u32], high: &HashMap<u32, u128>, slot: usize, partner_slot: usize) -> usize {
    let low = !(masks[slot] | masks[partner_slot]);
    if low != 0 {
        return low.trailing_zeros() as usize;
    }
    let high_of = |slot: usize| high.get(&(slot as u32)).copied().unwrap_or(0);
    // Bits `OVERFLOW - LOW..` are never set, so with all 96 high batches
    // busy the first zero of the complement is bit 96: batch `OVERFLOW`.
    LOW + (!(high_of(slot) | high_of(partner_slot))).trailing_zeros() as usize
}

/// Executes one scheduled exchange where the views live: both endpoints'
/// rows are borrowed mutably in the arena and bound to their samplers,
/// nothing is moved. It mutates only the two nodes' sampler state and the
/// payload buffers (which two Cyclon samplers do not even touch: they swap
/// their rows in place), and draws only from the initiator's carried
/// membership stream.
fn exchange_in_place(
    samplers: &mut SamplerColumn,
    views: &mut ViewArena<AgedId>,
    scheduled: &ScheduledExchange,
    bufs: &mut ExchangeBuffers<AgedId>,
) {
    let slots = scheduled.slots();
    let Some(rows) = views.row_pair_mut(slots.0, slots.1) else {
        return;
    };
    if let Some((mut node, mut partner)) = samplers.bind_pair(slots, rows) {
        let (self_entry, partner_entry) = (AgedId::new(node.owner()), AgedId::new(partner.owner()));
        let rng = &mut scheduled.rng.clone();
        node.exchange_local(self_entry, &mut partner, partner_entry, rng, bufs);
    }
}

/// View entries per 64-byte cache line: the stride of the look-ahead read
/// over a view row.
const ENTRIES_PER_LINE: usize = 64 / mem::size_of::<AgedId>();

/// Reads what an exchange endpoint's exchange reads, and discards it: the
/// owner, and the whole view row, which the exchange reads and rewrites end
/// to end — one entry per cache line, and the last entry, whose tail may
/// start a line of its own.
fn gather(samplers: &SamplerColumn, views: &ViewArena<AgedId>, slot: usize) {
    black_box(samplers.owner(slot));
    let entries = views.entries(slot);
    for entry in entries.iter().step_by(ENTRIES_PER_LINE) {
        black_box(entry.id);
    }
    black_box(entries.last().copied());
}

/// Membership phase of the uniform-oracle substrate: snapshot the
/// population once (it is invariant within a cycle — churn only happens at
/// cycle start), then refill every view from it, each node sampling from
/// its own membership stream.
fn refill(cx: &Cycle, nodes: &mut Nodes, pool: &mut Vec<AgedId>) {
    let view_size = cx.cfg.view_size;
    pool.clear();
    pool.extend(nodes.protos.ids().map(AgedId::new));
    let mut entries: Vec<AgedId> = Vec::with_capacity(view_size + 1);
    let Nodes {
        protos,
        samplers,
        views,
    } = nodes;
    for (slot, id, _) in protos.iter() {
        let mut rng = cx.rng(id, MEMBERSHIP_SALT);
        sample_from_pool(&mut rng, pool, |e| e.id, id, view_size, &mut entries);
        samplers.bind(slot, views.row_mut(slot)).refill(&entries);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{run_hash, small_cfg};
    use super::super::Engine;
    use crate::config::ProtocolKind;
    use dslice_core::digest::fnv1a64;
    use dslice_core::{AgedId, NodeId};
    use dslice_gossip::PeerSampler;

    #[test]
    fn overflow_tail_is_pinned() {
        // Every view but the hub's holds the hub alone, so the hub's
        // in-degree (299) exceeds the 127 the 128-batch masks hold and the
        // excess pairs run in the sequential overflow tail.
        let mut engine = Engine::new(small_cfg(300, 4, 81), ProtocolKind::ModJk).unwrap();
        let hub = AgedId::new(NodeId::new(0));
        for slot in 0..engine.slot_count() {
            if engine.nodes.samplers.owner(slot) != hub.id {
                engine.nodes.sampler(slot).refill(&[hub]);
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

    #[test]
    fn high_batches_are_pinned() {
        // Every view but the hub's holds the hub alone, so the hub's
        // in-degree (99) fills batches beyond the low 32 but stays within
        // the 128 batches, short of the overflow tail.
        let mut engine = Engine::new(small_cfg(100, 4, 83), ProtocolKind::ModJk).unwrap();
        let hub = AgedId::new(NodeId::new(0));
        for slot in 0..engine.slot_count() {
            if engine.nodes.samplers.owner(slot) != hub.id {
                engine.nodes.sampler(slot).refill(&[hub]);
            }
        }
        engine.debug_record_schedule(true);
        let mut log = Vec::new();
        for _ in 0..3 {
            engine.step();
            log.extend_from_slice(engine.debug_last_schedule());
        }
        let highest = log.iter().map(|&(_, _, batch)| batch).max();
        assert!(
            highest.is_some_and(|b| (32..128).contains(&b)),
            "{highest:?}"
        );
        let log_hash = fnv1a64(log.iter().flat_map(|&(id, partner, batch)| {
            [id, partner, batch as u64]
                .into_iter()
                .flat_map(u64::to_le_bytes)
        }));
        let record = engine.run(10);
        let hash = run_hash(&record, &[engine.accuracy()]);
        assert_eq!(
            (log_hash, hash),
            (0xcbda_dbec_7ae9_4a6c, 0x19fd_44ea_c1e2_b629),
            "schedule or record bytes changed (got {log_hash:#018x}, {hash:#018x})"
        );
    }
}
