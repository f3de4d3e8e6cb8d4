//! The cycle engine, architected for 10⁵-node populations.
//!
//! ## Cycle structure
//!
//! One [`Engine::step`] reproduces a PeerSim cycle (§4.5) as a sequence of
//! explicit phases:
//!
//! 1. **Churn** — the churn model removes leavers and injects joiners
//!    (joiners bootstrap their view from random live nodes); every view is
//!    pruned of departed neighbors; the incremental rank cache folds the
//!    batch in (no global re-sort).
//! 2. **Latency drain** — messages whose cross-cycle latency elapsed land
//!    now, in random order, before anyone's active step.
//! 3. **Membership phase** — every live node runs its membership shuffle
//!    (`recompute-view()`, executed atomically as in the paper's
//!    simulation), as **schedule → batch → execute**:
//!    * *schedule*: every node's exchange partner is drawn up front from
//!      the node's own counter-based stream (keyed by
//!      `(seed, node id, cycle)`, like the active phase) against its
//!      start-of-phase view;
//!    * *batch*: the resulting `(initiator, partner)` pairs are greedily
//!      partitioned, in slot order, into **conflict-free batches** in which
//!      no node appears twice (first-fit on per-slot occupancy bitmasks);
//!    * *execute*: batches run in order, pair by pair, then the overflow
//!      tail; each pair draws only from the initiator's carried stream.
//!      The batch order is the execution order, and it matters: about 40 %
//!      of exchanges read a view that an exchange earlier in batch order
//!      changed, so plain slot order would be a different run.
//!
//!    The uniform-oracle substrate takes the same shape: the population is
//!    snapshotted once per cycle and every view refilled from it, each node
//!    sampling from its own stream.
//! 4. **Refresh phase** — every node's published value is snapshotted per
//!    id row, once. That is all this phase does now: the views themselves
//!    ("each node updates its view before sending its random value",
//!    §4.5.2) are refreshed against the snapshot in the active sweep.
//! 5. **Active phase** — one sweep over the slot array. Each live node
//!    first has its view refreshed against the snapshot (value snapshots
//!    brought up to date, departed neighbors dropped), then runs its
//!    protocol active thread against it, drawing randomness from its **own
//!    counter-based stream** keyed by `(seed, node id, cycle)` (see
//!    [`crate::stream`]). Refreshing view by view, just before each owner
//!    acts, gives exactly what refreshing every view first gave: the
//!    snapshot is immutable, so no active step can change what a later
//!    refresh reads, and an active step reads and writes nothing but its
//!    own node. The sweep reads each view once where two sweeps read it
//!    twice. What the nodes send is appended to one flat outbox, in slot
//!    order, marking where every sender's messages end.
//! 6. **Delivery phase** — the outbox is routed sender by sender per
//!    the [`Concurrency`](crate::Concurrency) model: non-overlapping
//!    messages are delivered immediately as *atomic exchanges*, overlapping
//!    messages are deferred to an end-of-cycle drain in random order, where
//!    stale payloads surface as unsuccessful swaps.
//! 7. **Metrics** — SDM, GDM and event counters over the live population,
//!    every [`metrics_every`](crate::SimConfig::metrics_every)-th cycle
//!    (skipped cycles repeat the last computed disorder values); SDM and
//!    slice accuracy come from the churn-maintained
//!    [`RankCache`](metrics::RankCache) in O(n), and so does the GDM's
//!    attribute rank (only the random values are sorted).
//!
//! ## Atomic exchanges under phased execution
//!
//! The paper's baseline model executes each swap exchange atomically. In a
//! phased cycle, a proposal is *computed* in the active phase but
//! *resolved* in the delivery phase, so two same-cycle proposals can race
//! for one partner. For non-overlapping messages the engine restores
//! atomicity by **replaying** the loser: if a swap proposal no longer
//! satisfies the misplacement predicate when it is delivered (because an
//! earlier same-cycle exchange moved a value), the proposer's view is
//! refreshed and its active step re-runs against current state (on its
//! replay stream), exactly as if its atomic turn came after the conflicting
//! exchange — so `Concurrency::None` produces zero unsuccessful swaps, as
//! in the paper. Overlapping and latency-delayed proposals are *not*
//! replayed; their staleness is the measurement of §4.5.2 / Fig. 4(c).
//!
//! ## Storage
//!
//! Node state lives in a dense [`NodeSlab`]: contiguous slots walked in
//! slot order each phase, an id → slot index, and a free list so churn
//! reuses slots (slot storage is bounded by the peak population). Each slot
//! holds its node whole: the protocol as an [`AnyProtocol`] and the sampler
//! as an [`AnySampler`], closed enums over the concrete types stored inline
//! — 112 bytes, no heap object per node but the view's entry buffer (and a
//! box for the rare arms larger than a ranking node). The per-message and
//! per-exchange records are small for the same reason: a queued message is
//! a 32-byte `Copy` envelope of two 4-byte `NodeId`s and a three-variant
//! payload, and a scheduled exchange is two `u32` slots and a stream, 16
//! bytes.
//!
//! **Every per-cycle touch of a node is O(1): at most one array index to
//! find it, and no allocation.** A node's slot is stable while it lives, so
//! each phase resolves `NodeId → slot` once, where the id enters it, and
//! indexes the slot array from then on:
//!
//! * *membership* resolves the partner's slot when it schedules the
//!   exchange; batching and execution are slot-addressed, and an exchange
//!   borrows both nodes mutably where they live
//!   ([`NodeSlab::slot_pair_mut`]) — nothing is moved out and back;
//! * the *active sweep's view refresh* resolves nothing: the refresh
//!   snapshot is itself indexed by id row — a value column beside one live
//!   bit per row — so a view entry costs one value load that may miss,
//!   not an index load and then a dependent per-slot load;
//! * the churn phase's dead-neighbor sweep resolves each view entry
//!   against the slab's own index, lent out read-only beside the mutable
//!   slot walk — no side table of the population is built;
//! * *delivery* resolves each endpoint of a message once and borrows the
//!   recipient where it lives (node storage and the engine's RNG are
//!   separate fields, so both are lent at once — nothing is moved out).
//!
//! ## Look-ahead reads
//!
//! At 10⁵ nodes the node state is far beyond cache, and delivery and the
//! membership exchanges visit nodes in random order. Each visit walks a
//! chain — the slab cell, which holds the protocol and sampler inline,
//! then the view's buffer — and each link is a cache miss the next one
//! waits for, so one node at a time leaves the memory system mostly idle.
//! Both loops therefore work in groups of `GATHER_AHEAD` (16) messages or
//! exchanges, and at the start of each group read nodes ahead and discard
//! what they read, so those chains are in flight together while the
//! current group runs. Delivery reads the next group's recipients (slab
//! cell and published value). An exchange rewrites both endpoints' whole
//! view rows, so membership reads in two stages: the slab cells of the
//! group after next, and the whole view rows of the next group, whose
//! cells — holding the pointer to the row — were read one group earlier.
//! A row read takes one entry per 64-byte cache line and the last entry,
//! since a row of ten 24-byte entries spans four or five lines.
//! The reads cannot change a result: they go through shared borrows and
//! read-only accessors, draw no randomness, and leave the order of the
//! work untouched.
//!
//! Resolving an id hashes nothing: the slab's index, the refresh
//! snapshot, the rank cache's ranks and the slice tracker's stamps are
//! columns indexed by the raw id, which the engine's own allocator issues
//! sequentially from 0. They cost about 24 bytes per identity ever issued
//! — 0.24 MB per 10k joins — on top of the slots (see
//! [`Engine::slot_count`]).
//!
//! What a phase needs beyond node state lives in engine-owned buffers that
//! persist across cycles (`Scratch`): the membership schedule, batches and
//! request/reply payloads, the active-phase outbox, the delivery queues. An exchange between two
//! Cyclon samplers uses no payload at all: [`PeerSampler::exchange_local`]
//! swaps the two views element by element where they live; the other
//! substrates (and the rare Cyclon exchange whose views need a top-up) go
//! through the payload buffers. Nothing is kept per node: a spare vector
//! there is paid for `n` times. The slice partition is shared the same
//! way — every protocol instance holds a handle on one boundary array.
//!
//! Everything is driven by the run seed: identical `(config, protocol,
//! churn, seed)` yields identical runs, byte for byte.

use crate::churn::{ChurnModel, NoChurn};
use crate::config::{ProtocolKind, SimConfig};
use crate::fault::{BandPartition, NetworkFault};
use crate::latency::LatencyModel;
use crate::stats::{CycleStats, EventCounters, PhaseTimings, RunRecord};
use crate::stream::NodeRng;
use dslice_algorithms::{Adaptive, AnyProtocol, AttackerSpec, Liar};
use dslice_core::node::NodeIdAllocator;
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{
    metrics, Attribute, NodeId, NodeIdSet, NodeSlab, Partition, ProtocolMsg, Result, ViewEntry,
};
use dslice_gossip::{AnySampler, ExchangeBuffers, PeerSampler, SamplerKind};
use dslice_obs::{FlightRecorder, TraceConfig, TraceKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::mem;

/// Stream domain of the regular active step (see [`NodeRng::for_node`]).
const ACTIVE_SALT: u64 = 0;
/// Stream domain of the atomic-exchange replay.
const REPLAY_SALT: u64 = 1;
/// Stream domain of the membership phase: partner scheduling plus the
/// exchange payload draws (the same stream is carried from schedule to
/// execute), or the oracle's per-node refill sample.
const MEMBERSHIP_SALT: u64 = 2;

/// One simulated node: its protocol state plus its membership state, both
/// inline in the slab cell (see the module docs on storage).
struct SimNode {
    proto: AnyProtocol,
    sampler: AnySampler,
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNode")
            .field("id", &self.proto.id())
            .field("attribute", &self.proto.attribute())
            .field("estimate", &self.proto.estimate())
            .finish()
    }
}

impl SimNode {
    /// A fresh node running `kind` over the configured sampler — the one
    /// construction path of the initial population and of churn joiners.
    fn new(
        cfg: &SimConfig,
        kind: ProtocolKind,
        id: NodeId,
        attribute: Attribute,
        rng: &mut StdRng,
    ) -> Result<Self> {
        Ok(SimNode {
            proto: AnyProtocol::new(kind, id, attribute, &cfg.partition, rng),
            sampler: AnySampler::new(cfg.sampler, id, cfg.view_size)?,
        })
    }

    fn self_entry(&self) -> ViewEntry {
        ViewEntry::new(
            self.proto.id(),
            self.proto.attribute(),
            self.proto.published_value(),
        )
    }
}

/// The [`Context`] handed to protocol callbacks: collects outgoing messages
/// and statistics events. Generic over the RNG so the same context type
/// serves the engine's shared stream (delivery paths) and the per-node
/// streams (active phase).
struct EngineCtx<'a, R: RngCore> {
    rng: &'a mut R,
    out: &'a mut Vec<Envelope>,
    counters: &'a mut EventCounters,
}

impl<R: RngCore> Context for EngineCtx<'_, R> {
    fn send(&mut self, to: NodeId, msg: ProtocolMsg) {
        self.out.push(Envelope::pack(to, msg));
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    fn record(&mut self, event: Event) {
        self.counters.record(event);
    }

    fn record_n(&mut self, event: Event, n: usize) {
        self.counters.record_n(event, n as u64);
    }
}

/// An addressed protocol message on its way through the engine, in 32
/// bytes where `(NodeId, ProtocolMsg)` takes 40: both endpoints (4 bytes
/// each) and a payload without `ProtocolMsg`'s view variants, which no
/// protocol sends (membership exchanges views in place).
/// [`EngineCtx::send`] packs it; delivery unpacks it, so protocols only
/// ever see [`ProtocolMsg`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct Envelope {
    to: NodeId,
    from: NodeId,
    payload: Payload,
}

/// What an [`Envelope`] carries: the sender-independent fields of the three
/// [`ProtocolMsg`] variants a protocol sends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Payload {
    SwapReq { r: f64, a: Attribute },
    SwapAck { r: f64 },
    Update { a: Attribute },
}

impl Envelope {
    /// Packs a message a protocol sent to `to`.
    fn pack(to: NodeId, msg: ProtocolMsg) -> Self {
        let (from, payload) = match msg {
            ProtocolMsg::SwapReq { from, r, a } => (from, Payload::SwapReq { r, a }),
            ProtocolMsg::SwapAck { from, r } => (from, Payload::SwapAck { r }),
            ProtocolMsg::Update { from, a } => (from, Payload::Update { a }),
            ProtocolMsg::ViewReq { .. } | ProtocolMsg::ViewAck { .. } => {
                unreachable!("views are exchanged in place, never sent as protocol messages")
            }
        };
        Envelope { to, from, payload }
    }

    /// The message as the protocol sent it.
    fn message(&self) -> ProtocolMsg {
        let from = self.from;
        match self.payload {
            Payload::SwapReq { r, a } => ProtocolMsg::SwapReq { from, r, a },
            Payload::SwapAck { r } => ProtocolMsg::SwapAck { from, r },
            Payload::Update { a } => ProtocolMsg::Update { from, a },
        }
    }
}

/// Everything the active sweep sent, flat and in slot order: `ends[k]` is
/// where the `k`-th sending node's messages end in `msgs` (silent nodes
/// leave no mark). Reused every cycle.
#[derive(Default)]
struct Outbox {
    msgs: Vec<Envelope>,
    ends: Vec<usize>,
}

/// One scheduled membership exchange, in 16 bytes: the slots of the
/// initiator and its chosen partner (resolved once — nothing downstream
/// looks an id up again, and the ids themselves are read back from the
/// slab where needed) and the initiator's membership stream, carried from
/// schedule to execute so the pair consumes exactly the draws a combined
/// `initiate` would. Slots fit `u32`: the slab holds fewer slots than ids
/// below `u32::MAX`.
struct ScheduledExchange {
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

/// Group size of the look-ahead reads: while the delivery loop routes one
/// group of this many messages, or the membership phase executes one group
/// of this many exchanges, the next groups' node state is read.
const GATHER_AHEAD: usize = 16;

/// Reads what delivering a message to `node` touches — its slab cell,
/// which holds its protocol state inline — and discards it (see the module
/// docs on look-ahead reads). A read-only accessor through a shared borrow:
/// no write, no RNG draw, no change to the order of work.
fn gather_recipient(node: Option<&SimNode>) {
    if let Some(node) = node {
        black_box(node.proto.published_value());
    }
}

/// View entries per 64-byte cache line: the stride of the look-ahead read
/// over a view buffer.
const ENTRIES_PER_LINE: usize = 64 / mem::size_of::<ViewEntry>();

/// [`gather_recipient`] plus the handle of the node's view buffer: the
/// slab cell of an exchange endpoint, both halves of it, and the first
/// link of the chain [`gather_row`] follows.
fn gather_cell(node: Option<&SimNode>) {
    gather_recipient(node);
    if let Some(node) = node {
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

/// The refresh phase's snapshot: every live node's published value, by id
/// row. Liveness is one bit per row beside the values rather than a
/// sentinel value (a liar may publish any `f64`), and a lookup reads the
/// two columns independently: the bits (one per identity ever issued) stay
/// in cache, and the value is the one load that may miss. Keyed by slot,
/// the same read would need the id's slot first: two dependent loads.
#[derive(Default)]
struct PublishedRows {
    /// Published value per id row; meaningful only where `live` is set.
    values: Vec<f64>,
    /// Bit `row % 64` of word `row / 64`: whether the id is live.
    live: Vec<u64>,
}

impl PublishedRows {
    /// Rebuilds the snapshot over id rows `0..rows` from the live
    /// population's `(id, published value)` pairs.
    fn rebuild(&mut self, rows: usize, live: impl Iterator<Item = (NodeId, f64)>) {
        // Rows of departed ids keep stale values; their bits are cleared.
        self.values.resize(rows, 0.0);
        self.live.clear();
        self.live.resize(rows.div_ceil(64), 0);
        for (id, value) in live {
            let row = id.row();
            self.values[row] = value;
            self.live[row / 64] |= 1 << (row % 64);
        }
    }

    /// `id`'s published value as of the snapshot, or `None` for an id that
    /// is not live (departed, or beyond the column).
    fn get(&self, id: NodeId) -> Option<f64> {
        let row = id.row();
        let word = self.live.get(row / 64)?;
        (word >> (row % 64) & 1 == 1).then(|| self.values[row])
    }
}

/// Uniformly draws up to `count` distinct items of `pool` whose id differs
/// from `owner` into `out`, sorted by id — the sampling core shared by
/// [`Engine::random_entries`] (bootstrap, churn joins) and the oracle
/// refill, so the two paths cannot drift apart.
///
/// Oversamples by one slot so that filtering the owner out still leaves
/// `count` candidates whenever the pool allows it. Index sampling is
/// O(count) (sparse Fisher–Yates in the vendored `rand`), so sampling the
/// whole population per node — the oracle does this once per node per
/// cycle — stays linear in `n` overall instead of quadratic.
fn sample_from_pool<T: Copy, R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &[T],
    id_of: impl Fn(&T) -> NodeId,
    owner: NodeId,
    count: usize,
    out: &mut Vec<T>,
) {
    out.clear();
    if pool.is_empty() {
        return;
    }
    let want = count.min(pool.len());
    let take = (want + 1).min(pool.len());
    out.extend(
        rand::seq::index::sample(rng, pool.len(), take)
            .into_iter()
            .map(|i| pool[i])
            .filter(|item| id_of(item) != owner)
            .take(want),
    );
    out.sort_unstable_by_key(|item| id_of(item));
}

/// Reusable per-cycle buffers: after the first cycles warm these up, the
/// cycle hot path performs no allocation that scales with `n` (enforced by
/// `tests/alloc_steady_state.rs`). Every buffer belongs to the engine —
/// never to a node, where a spare vector would be paid for `n` times over.
/// A phase `mem::take`s what it needs and hands it back when done, which is
/// what lets it borrow the rest of the engine meanwhile.
#[derive(Default)]
struct Scratch {
    /// Latency-drain split: messages due this cycle.
    due: Vec<Envelope>,
    /// Latency-drain split: messages still in flight (swapped with
    /// `in_flight` each cycle).
    flying: Vec<(usize, Envelope)>,
    /// Work queue shared by the drain, delivery and deferred phases.
    queue: VecDeque<Envelope>,
    /// Overlap-deferred messages awaiting the end-of-cycle drain.
    deferred: Vec<Envelope>,
    /// Response staging inside the final drain.
    late: Vec<Envelope>,
    /// What the message being delivered provoked, before it is routed.
    responses: Vec<Envelope>,
    /// Atomic-exchange replay: what the replayed active step sent (and,
    /// after it, what each replayed delivery provoked)…
    replay_out: Vec<Envelope>,
    /// …and the replay's own delivery queue (the outer one is mid-drain).
    replay_queue: VecDeque<Envelope>,
    /// Active phase: what the sweep sent, in slot order.
    outbox: Outbox,
    /// Membership schedule: one entry per initiating node.
    scheduled: Vec<ScheduledExchange>,
    /// Batch-occupancy bitmask per slot (bit `b` = busy in batch `b`).
    masks: Vec<u128>,
    /// Conflict-free batches, as indices into `scheduled`.
    batches: Vec<Vec<u32>>,
    /// Pairs beyond the 128-batch bitmask (pathological in-degree),
    /// executed sequentially after the batches, as indices into
    /// `scheduled`.
    overflow: Vec<u32>,
    /// Membership execute: the request/reply payload buffers.
    exchange_bufs: ExchangeBuffers,
    /// Oracle refill: the cycle's population snapshot as view entries.
    pool_entries: Vec<ViewEntry>,
    /// Refresh phase: published value per id row, beside a live bit per
    /// row — the snapshot the active sweep refreshes views against, with
    /// no id → slot lookup in front of the value read.
    published: PublishedRows,
}

/// Measures per-phase wall-clock when enabled; a no-op (no clock reads)
/// when disabled.
struct PhaseTimer {
    last: Option<std::time::Instant>,
}

impl PhaseTimer {
    fn new(enabled: bool) -> Self {
        PhaseTimer {
            last: enabled.then(std::time::Instant::now),
        }
    }

    /// Records the time since the previous lap into `slot`, in nanoseconds.
    fn lap(&mut self, slot: &mut u64) {
        if let Some(last) = &mut self.last {
            let now = std::time::Instant::now();
            *slot = now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }
}

/// The deterministic cycle simulator.
pub struct Engine {
    cfg: SimConfig,
    kind: ProtocolKind,
    nodes: NodeSlab<SimNode>,
    alloc: NodeIdAllocator,
    rng: StdRng,
    cycle: usize,
    churn: Box<dyn ChurnModel>,
    /// §3.2 stability tracking: believed slices across cycles.
    tracker: metrics::SliceTracker,
    /// Incrementally maintained attribute ranks / true slices (churn-fed).
    ranks: metrics::RankCache,
    /// Messages delayed across cycles by the latency model:
    /// `(deliver_at_cycle, message)`.
    in_flight: Vec<(usize, Envelope)>,
    /// Last fully computed disorder values (repeated on cycles the metrics
    /// cadence skips).
    last_sdm: f64,
    last_gdm: f64,
    /// Reusable per-cycle buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Nodes converted to rank-inflating liars via
    /// [`corrupt_nodes`](Engine::corrupt_nodes); maintained across churn
    /// (a departed liar is forgotten, joiners are honest).
    liars: NodeIdSet,
    /// Network-condition fault injection (partitions, drop rate, region
    /// latency); quiet by default and guaranteed RNG-free while quiet.
    fault: NetworkFault,
    /// Test hook: when `Some`, each step records its membership schedule as
    /// `(initiator, partner, batch)` triples.
    schedule_log: Option<Vec<(u64, u64, usize)>>,
    /// Optional flight recorder (see [`set_tracer`](Engine::set_tracer)).
    /// Strictly observational: recording reads the wall clock and engine
    /// state but never the RNG, so traced runs stay byte-identical to
    /// untraced ones (enforced by test).
    recorder: Option<FlightRecorder>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("protocol", &self.kind.label())
            .field("cycle", &self.cycle)
            .field("population", &self.nodes.len())
            .finish()
    }
}

impl Engine {
    /// Builds an engine with the given configuration and protocol, no churn.
    pub fn new(cfg: SimConfig, kind: ProtocolKind) -> Result<Self> {
        cfg.validate()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut alloc = NodeIdAllocator::default();
        let mut nodes = NodeSlab::with_capacity(cfg.n);

        // Create the initial population.
        let ids = alloc.allocate_many(cfg.n);
        for &id in &ids {
            let attribute = cfg.distribution.sample(&mut rng);
            nodes.insert(id, SimNode::new(&cfg, kind, id, attribute, &mut rng)?);
        }

        let mut ranks = metrics::RankCache::new();
        ranks.rebuild(nodes.iter().map(|(_, id, n)| (id, n.proto.attribute())));

        let mut engine = Engine {
            cfg,
            kind,
            nodes,
            alloc,
            rng,
            cycle: 0,
            churn: Box::new(NoChurn),
            tracker: metrics::SliceTracker::new(),
            ranks,
            in_flight: Vec::new(),
            last_sdm: 0.0,
            last_gdm: 0.0,
            scratch: Scratch::default(),
            liars: NodeIdSet::default(),
            fault: NetworkFault::default(),
            schedule_log: None,
            recorder: None,
        };
        engine.bootstrap_views(&ids);
        engine.last_sdm = engine.sdm();
        engine.last_gdm = engine.gdm();
        Ok(engine)
    }

    /// Replaces the churn model (builder style).
    pub fn with_churn(mut self, churn: Box<dyn ChurnModel>) -> Self {
        self.churn = churn;
        self
    }

    /// Attaches a flight recorder; subsequent steps record phase spans and
    /// per-cycle churn/swap/defense events on sampled cycles. A disabled
    /// config detaches any existing recorder.
    pub fn set_tracer(&mut self, cfg: TraceConfig) {
        self.recorder = cfg.enabled.then(|| FlightRecorder::new(cfg));
    }

    /// The attached flight recorder, if tracing is on.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the flight recorder (to export its events).
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// Seeds every listed node's view with up to `c` random other nodes.
    fn bootstrap_views(&mut self, ids: &[NodeId]) {
        let all: Vec<NodeId> = self.nodes.ids().collect();
        for &id in ids {
            let entries = self.random_entries(id, self.cfg.view_size, &all);
            if let Some(node) = self.nodes.get_mut(id) {
                node.sampler.bootstrap(&entries);
            }
        }
    }

    /// Draws up to `count` distinct entries describing live nodes ≠ `owner`
    /// (the sampling itself is the shared [`sample_from_pool`] core).
    fn random_entries(&mut self, owner: NodeId, count: usize, pool: &[NodeId]) -> Vec<ViewEntry> {
        let mut chosen: Vec<NodeId> = Vec::new();
        sample_from_pool(&mut self.rng, pool, |&id| id, owner, count, &mut chosen);
        chosen
            .into_iter()
            .filter_map(|id| self.nodes.get(id).map(|n| n.self_entry()))
            .collect()
    }

    /// Test hook for the sampling invariants (no owner, no duplicates):
    /// draws `count` entries for `owner` from the current live population.
    #[doc(hidden)]
    pub fn debug_random_entries(&mut self, owner: NodeId, count: usize) -> Vec<ViewEntry> {
        let pool: Vec<NodeId> = self.nodes.ids().collect();
        self.random_entries(owner, count, &pool)
    }

    /// The current cycle count (number of completed steps).
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The current population size.
    pub fn population(&self) -> usize {
        self.nodes.len()
    }

    /// Number of storage slots the node slab has ever allocated (live +
    /// free). Node state is bounded by this — the *peak* population — not
    /// by the number of identities created over the run (churn reuses slots
    /// through the slab's free list). The id-indexed columns beside it (slab
    /// index, refresh snapshot, rank cache, slice tracker) add about 24
    /// bytes per identity ever issued, live or not.
    pub fn slot_count(&self) -> usize {
        self.nodes.slot_count()
    }

    /// The partition nodes slice against.
    pub fn partition(&self) -> &Partition {
        &self.cfg.partition
    }

    /// Installs a new slice partitioning on every live node (§3.2's global
    /// knowledge, re-broadcast) — the platform re-allocating resources.
    ///
    /// Estimates are partition-independent, so assignments under the new
    /// partitioning are immediately as accurate as the estimates were:
    /// re-slicing costs zero protocol work. `tests/repartitioning.rs`
    /// verifies exactly that.
    pub fn set_partition(&mut self, partition: Partition) {
        self.cfg.partition = partition;
        for (_, _, node) in self.nodes.iter_mut() {
            node.proto.set_partition(&self.cfg.partition);
        }
        // Believed slices under the old partitioning are not comparable to
        // the new one; restart stability tracking rather than report a
        // spurious all-nodes-changed spike.
        self.tracker = metrics::SliceTracker::new();
        // The cached disorder values refer to the old partitioning too.
        self.last_sdm = self.sdm();
        self.last_gdm = self.gdm();
    }

    /// Internal population walk in slot order (the engine's canonical
    /// deterministic order): `(id, attribute, estimate)`.
    fn snapshot_slots(&self) -> Vec<(NodeId, Attribute, f64)> {
        self.nodes
            .iter()
            .map(|(_, id, n)| (id, n.proto.attribute(), n.proto.estimate()))
            .collect()
    }

    /// Snapshot of the live population, sorted by node id:
    /// `(id, attribute, estimate)`.
    pub fn snapshot(&self) -> Vec<(NodeId, Attribute, f64)> {
        let mut snapshot = self.snapshot_slots();
        snapshot.sort_unstable_by_key(|&(id, _, _)| id);
        snapshot
    }

    /// The slice disorder measure of the current population — O(n) via the
    /// churn-maintained rank cache.
    pub fn sdm(&self) -> f64 {
        self.ranks.sdm(
            &self.cfg.partition,
            self.nodes.iter().map(|(_, id, n)| (id, n.proto.estimate())),
        )
    }

    /// The global disorder measure of the current population: `α` from the
    /// churn-maintained rank cache, one sort of the random values for `ρ`.
    pub fn gdm(&self) -> f64 {
        self.ranks.gdm(&self.snapshot_slots())
    }

    /// Fraction of nodes whose believed slice equals their true slice —
    /// O(n) via the churn-maintained rank cache.
    pub fn accuracy(&self) -> f64 {
        self.ranks.accuracy(
            &self.cfg.partition,
            self.nodes.iter().map(|(_, id, n)| (id, n.proto.estimate())),
        )
    }

    /// Converts a deterministic random sample of the live, still-honest
    /// population into rank-inflating liars
    /// ([`Liar`]): each chosen node keeps its
    /// protocol state but claims `estimate × inflation` (clamped to 1) on
    /// every external surface, poisons its outgoing swap/update traffic, and
    /// refuses incoming swaps. Returns how many nodes were corrupted
    /// (`round(still-honest × fraction)`).
    ///
    /// The selection draws from the engine's sequential RNG, so runs remain
    /// byte-identical. Attributes stay truthful: the evaluation oracle keeps
    /// measuring ground truth, and
    /// [`honest_accuracy`](Engine::honest_accuracy) measures the collateral
    /// damage on the honest majority.
    pub fn corrupt_nodes(&mut self, fraction: f64, inflation: f64) -> usize {
        let chosen = self.draw_honest(fraction);
        self.make_liars(&chosen, |proto| {
            Liar::new(Box::new(proto), inflation).into()
        });
        chosen.len()
    }

    /// Converts the honest nodes whose *true* ranks sit closest to slice
    /// boundaries into rank-inflating liars — the targeted variant of
    /// [`corrupt_nodes`](Engine::corrupt_nodes). A boundary node needs to
    /// move its estimate only marginally to defect to the adjacent slice,
    /// and its poisoned samples land exactly where the ranking family's
    /// `j1` boundary targeting concentrates traffic, so this adversary gets
    /// the most displacement per corrupted node. Returns how many nodes
    /// were corrupted (`round(still-honest × fraction)`).
    ///
    /// Selection is a pure function of the live population (true ranks from
    /// the attribute order, ties broken by id) — no RNG is consumed, so the
    /// engine's sequential RNG stream is left untouched for later events.
    pub fn corrupt_boundary_nodes(&mut self, fraction: f64, inflation: f64) -> usize {
        let fraction = fraction.clamp(0.0, 1.0);
        // True normalized ranks over the *full* live population: sort by
        // (attribute, id) exactly as the evaluation oracle does.
        let mut by_attr: Vec<(NodeId, f64)> = self
            .nodes
            .iter()
            .map(|(_, id, n)| (id, n.proto.attribute().value()))
            .collect();
        by_attr.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let n = by_attr.len();
        let mut honest: Vec<(f64, NodeId)> = by_attr
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| !self.liars.contains(id))
            .map(|(pos, (id, _))| {
                let rank = (pos + 1) as f64 / n as f64;
                (self.cfg.partition.boundary_distance(rank), *id)
            })
            .collect();
        let count = ((honest.len() as f64) * fraction).round() as usize;
        let count = count.min(honest.len());
        if count == 0 {
            return 0;
        }
        honest.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut chosen: Vec<NodeId> = honest[..count].iter().map(|&(_, id)| id).collect();
        chosen.sort_unstable();
        self.make_liars(&chosen, |proto| {
            Liar::new(Box::new(proto), inflation).into()
        });
        count
    }

    /// Converts a deterministic random sample of the live, still-honest
    /// population into *adaptive* adversaries — the reactive counterpart of
    /// [`corrupt_nodes`](Engine::corrupt_nodes). Each chosen node keeps its
    /// protocol state but is wrapped in
    /// [`Adaptive`] running the given
    /// [`AttackerSpec`] (`spec.validate()`
    /// must have passed — invalid specs panic here, mirroring
    /// [`ProtocolKind::build`]). Returns how many nodes were corrupted
    /// (`round(still-honest × fraction)`).
    ///
    /// Selection draws from the engine's sequential RNG exactly like
    /// [`corrupt_nodes`](Engine::corrupt_nodes) — same pool ordering, same
    /// draw count — so swapping a static attack for an adaptive one in a
    /// scenario perturbs nothing upstream of the attackers' behavior.
    /// The attackers themselves consume no randomness at all.
    pub fn corrupt_adaptive(&mut self, fraction: f64, spec: AttackerSpec) -> usize {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid attacker spec: {e}"));
        let chosen = self.draw_honest(fraction);
        self.make_liars(&chosen, |proto| Adaptive::new(Box::new(proto), spec).into());
        chosen.len()
    }

    /// Draws `round(still-honest × fraction)` distinct live, still-honest
    /// nodes from the sequential RNG, returned in id order.
    fn draw_honest(&mut self, fraction: f64) -> Vec<NodeId> {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut honest: Vec<NodeId> = self
            .nodes
            .ids()
            .filter(|id| !self.liars.contains(id))
            .collect();
        // Slot order varies with churn history; id order is canonical.
        honest.sort_unstable();
        let count = ((honest.len() as f64) * fraction).round() as usize;
        let count = count.min(honest.len());
        if count == 0 {
            return Vec::new();
        }
        let mut chosen: Vec<NodeId> = rand::seq::index::sample(&mut self.rng, honest.len(), count)
            .into_iter()
            .map(|i| honest[i])
            .collect();
        chosen.sort_unstable();
        chosen
    }

    /// Wraps each listed live node's protocol with `wrap` and registers the
    /// node in the liar set.
    fn make_liars(&mut self, chosen: &[NodeId], wrap: impl Fn(AnyProtocol) -> AnyProtocol) {
        for &id in chosen {
            let Some((slot, node)) = self.nodes.take(id) else {
                continue;
            };
            let SimNode { proto, sampler } = node;
            self.nodes.put_back(
                slot,
                id,
                SimNode {
                    proto: wrap(proto),
                    sampler,
                },
            );
            self.liars.insert(id);
        }
    }

    /// Partitions the network into `bands ≥ 2` equal-population contiguous
    /// attribute bands (see [`BandPartition`]), optionally healing itself
    /// at cycle `heal_at`. While the partition holds, protocol messages and
    /// membership exchanges crossing bands are severed and counted as
    /// dropped; the uniform-oracle substrate and joiner bootstrap are *not*
    /// constrained (they model out-of-band services). Replaces any
    /// previously installed partition and clears its region overrides.
    ///
    /// Band boundaries are frozen from the current live population and
    /// consume no RNG, so installing (and healing) a partition never shifts
    /// the engine's random stream.
    pub fn set_network_partition(&mut self, bands: usize, heal_at: Option<usize>) -> Result<()> {
        let attributes: Vec<f64> = self
            .nodes
            .iter()
            .map(|(_, _, n)| n.proto.attribute().value())
            .collect();
        let partition = BandPartition::from_attributes(bands, &attributes, heal_at)?;
        self.fault.install_partition(partition);
        Ok(())
    }

    /// Tears down the installed network partition (and its region latency
    /// overrides). Idempotent; consumes no RNG.
    pub fn heal_network_partition(&mut self) {
        self.fault.heal();
    }

    /// Sets the probability in `[0, 1)` that any routed message is lost
    /// (on top of [`SimConfig::loss_rate`]; the coin is flipped per message
    /// only while the rate is non-zero).
    pub fn set_drop_rate(&mut self, rate: f64) -> Result<()> {
        self.fault.set_drop_rate(rate)
    }

    /// Overrides the latency of messages delivered *into* band `region` of
    /// the installed network partition (asymmetric long-haul links). Fails
    /// without an installed partition.
    pub fn set_region_latency(&mut self, region: usize, model: LatencyModel) -> Result<()> {
        self.fault.set_region_latency(region, model)
    }

    /// Read access to the network-fault state.
    pub fn network_fault(&self) -> &NetworkFault {
        &self.fault
    }

    /// Number of live lying nodes.
    pub fn liar_count(&self) -> usize {
        self.liars.len()
    }

    /// Whether `id` is a live lying node.
    pub fn is_liar(&self, id: NodeId) -> bool {
        self.liars.contains(&id)
    }

    /// [`accuracy`](Engine::accuracy) restricted to the honest population:
    /// the fraction of *non-lying* nodes whose believed slice equals their
    /// true slice (true slices are still computed over the full population —
    /// liars occupy real attribute ranks). With no liars this equals
    /// [`accuracy`](Engine::accuracy); under attack it isolates the
    /// collateral damage on honest nodes from the liars' deliberate
    /// self-misplacement.
    pub fn honest_accuracy(&self) -> f64 {
        self.ranks.accuracy(
            &self.cfg.partition,
            self.nodes
                .iter()
                .filter(|(_, id, _)| !self.liars.contains(id))
                .map(|(_, id, n)| (id, n.proto.estimate())),
        )
    }

    /// Population of each slice according to the nodes' *current beliefs*
    /// (index = slice index). Sums to the population size.
    pub fn slice_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cfg.partition.len()];
        for (_, _, node) in self.nodes.iter() {
            counts[self
                .cfg
                .partition
                .slice_of(node.proto.estimate())
                .as_usize()] += 1;
        }
        counts
    }

    /// Runs `cycles` steps and records per-cycle statistics.
    pub fn run(&mut self, cycles: usize) -> RunRecord {
        let mut record = RunRecord {
            label: self.kind.label().to_string(),
            seed: self.cfg.seed,
            initial_n: self.cfg.n,
            slices: self.cfg.partition.len(),
            view_size: self.cfg.view_size,
            cycles: Vec::with_capacity(cycles),
            phase_ns: None,
        };
        for _ in 0..cycles {
            record.cycles.push(self.step());
        }
        if self.cfg.time_phases {
            let mut totals = PhaseTimings::default();
            for stats in &record.cycles {
                if let Some(t) = &stats.timings {
                    totals.accumulate(t);
                }
            }
            record.phase_ns = Some(totals);
        }
        record
    }

    /// Executes one full cycle and returns its statistics.
    pub fn step(&mut self) -> CycleStats {
        self.cycle += 1;
        // Scheduled partition heal: the heal cycle itself runs connected.
        if self.fault.due_heal(self.cycle) {
            self.heal_network_partition();
        }
        let mut timings = PhaseTimings::default();
        // Tracing needs the laps too, but never changes what lands in
        // `CycleStats` (which stays gated on `time_phases` alone).
        let trace_cycle = self
            .recorder
            .as_ref()
            .is_some_and(|r| r.wants_cycle(self.cycle as u64));
        let cycle_start_ns = if trace_cycle {
            self.recorder.as_ref().map(|r| r.now_ns()).unwrap_or(0)
        } else {
            0
        };
        let mut timer = PhaseTimer::new(self.cfg.time_phases || trace_cycle);

        let (left, joined) = self.apply_churn();
        timer.lap(&mut timings.churn_ns);

        let mut counters = EventCounters::default();
        let mut dropped = 0u64;

        // Latency drain: messages whose latency elapsed land now, in random
        // order, before anyone's active step — the paper's staleness
        // scenario stretched across cycles. Their responses re-enter the
        // normal routing (and may themselves be delayed again).
        let mut due = mem::take(&mut self.scratch.due);
        due.clear();
        let mut flying = mem::take(&mut self.scratch.flying);
        flying.clear();
        for (at, envelope) in self.in_flight.drain(..) {
            if at <= self.cycle {
                due.push(envelope);
            } else {
                flying.push((at, envelope));
            }
        }
        // The drained vector keeps its capacity for next cycle's split.
        mem::swap(&mut self.in_flight, &mut flying);
        self.scratch.flying = flying;
        due.shuffle(&mut self.rng);
        let mut queue = mem::take(&mut self.scratch.queue);
        queue.clear();
        queue.extend(due.drain(..));
        self.scratch.due = due;
        let mut deferred = mem::take(&mut self.scratch.deferred);
        deferred.clear();
        while let Some(envelope) = queue.pop_front() {
            self.deliver_and_route(
                envelope,
                false,
                &mut queue,
                &mut deferred,
                &mut counters,
                &mut dropped,
            );
        }
        timer.lap(&mut timings.drain_ns);

        // Membership phase: schedule → conflict-free batches → execute in
        // batch order (see module docs). A network partition severs
        // cross-band exchanges here too (their REQ′ never crosses).
        self.membership_phase(&mut dropped);
        timer.lap(&mut timings.membership_ns);

        // Refresh phase: the per-id-row published-value snapshot that every
        // view is brought up to date against ("the view is up-to-date when a
        // message is sent", §4.5.2) — each in the active sweep, just before
        // its owner acts.
        let fresh_views = self.cfg.concurrency.fresh_views();
        if fresh_views {
            self.snapshot_published();
        }
        timer.lap(&mut timings.refresh_ns);

        // Active phase: view refresh, then node-local protocol steps on
        // per-node RNG streams, filling the outbox.
        let mut outbox = self.active_phase(fresh_views, &mut counters);
        timer.lap(&mut timings.active_ns);

        // Delivery phase: senders in slot order.
        // Non-overlapping messages complete as atomic exchanges (with
        // conflict replay, see module docs); overlapping ones join the
        // end-of-cycle drain. (`queue` is empty again after every sender.)
        // At the start of every group of messages the next group's
        // recipients are read ahead.
        let mut msgs = outbox.msgs.drain(..);
        let mut sent = 0;
        for &end in &outbox.ends {
            while sent < end {
                if sent % GATHER_AHEAD == 0 {
                    let next = msgs.as_slice().iter().skip(GATHER_AHEAD);
                    for envelope in next.take(GATHER_AHEAD) {
                        gather_recipient(self.nodes.get(envelope.to));
                    }
                }
                let envelope = msgs.next().expect("`ends` stay within the outbox");
                sent += 1;
                if let Some(now) = self.route(envelope, &mut deferred, &mut dropped) {
                    queue.push_back(now);
                }
            }
            while let Some(envelope) = queue.pop_front() {
                self.deliver_and_route(
                    envelope,
                    true,
                    &mut queue,
                    &mut deferred,
                    &mut counters,
                    &mut dropped,
                );
            }
        }
        drop(msgs);
        self.scratch.outbox = outbox;

        // End-of-cycle drain: overlapping messages land in random order;
        // their responses are also in flight within this cycle (unless the
        // latency model pushes them into a later one).
        deferred.shuffle(&mut self.rng);
        queue.extend(deferred.drain(..));
        self.scratch.deferred = deferred;
        let mut late = mem::take(&mut self.scratch.late);
        while let Some(envelope) = queue.pop_front() {
            self.deliver_and_route(
                envelope,
                false,
                &mut queue,
                &mut late,
                &mut counters,
                &mut dropped,
            );
            // Responses that drew an "overlapping" coin inside the final
            // drain have no later drain this cycle; they join the queue.
            queue.extend(late.drain(..));
        }
        self.scratch.late = late;
        self.scratch.queue = queue;
        timer.lap(&mut timings.delivery_ns);

        // Metrics, on the configured cadence.
        let n = self.nodes.len();
        let (sdm, gdm, slice_changes) = if self.cycle.is_multiple_of(self.cfg.metrics_every) {
            let snapshot = self.snapshot_slots();
            let sdm = self.ranks.sdm(
                &self.cfg.partition,
                snapshot.iter().map(|&(id, _, est)| (id, est)),
            );
            let gdm = self.ranks.gdm(&snapshot);
            let slice_changes = self.tracker.observe(&self.cfg.partition, &snapshot);
            self.last_sdm = sdm;
            self.last_gdm = gdm;
            (sdm, gdm, slice_changes)
        } else {
            (self.last_sdm, self.last_gdm, 0)
        };
        timer.lap(&mut timings.metrics_ns);

        if trace_cycle {
            if let Some(rec) = &mut self.recorder {
                const PHASES: [TraceKind; 7] = [
                    TraceKind::PhaseChurn,
                    TraceKind::PhaseDrain,
                    TraceKind::PhaseMembership,
                    TraceKind::PhaseRefresh,
                    TraceKind::PhaseActive,
                    TraceKind::PhaseDelivery,
                    TraceKind::PhaseMetrics,
                ];
                let cycle = self.cycle as u64;
                let mut ts = cycle_start_ns;
                for (kind, (_, dur)) in PHASES.into_iter().zip(timings.rows()) {
                    rec.span(kind, cycle, ts, dur);
                    ts += dur;
                }
                if left + joined > 0 {
                    rec.instant(
                        TraceKind::CycleChurn,
                        cycle,
                        None,
                        joined as u64,
                        left as u64,
                    );
                }
                if counters.swaps_applied + counters.swaps_useless > 0 {
                    rec.instant(
                        TraceKind::CycleSwaps,
                        cycle,
                        None,
                        counters.swaps_applied,
                        counters.swaps_useless,
                    );
                }
                if counters.samples_rejected + counters.swaps_abandoned > 0 {
                    rec.instant(
                        TraceKind::CycleDefense,
                        cycle,
                        None,
                        counters.samples_rejected,
                        counters.swaps_abandoned,
                    );
                }
            }
        }

        CycleStats {
            cycle: self.cycle,
            n,
            sdm,
            gdm,
            events: counters,
            dropped_messages: dropped,
            left,
            joined,
            slice_changes,
            timings: self.cfg.time_phases.then_some(timings),
        }
    }

    /// Executes the membership phase as schedule → batch → execute (see
    /// module docs). The uniform-oracle substrate goes through
    /// [`oracle_refill_phase`](Engine::oracle_refill_phase) instead (and is
    /// deliberately *not* constrained by network partitions — it models an
    /// out-of-band sampling service). Scheduled exchanges crossing an
    /// installed partition are severed and counted in `dropped`.
    fn membership_phase(&mut self, dropped: &mut u64) {
        if self.cfg.sampler == SamplerKind::UniformOracle {
            self.oracle_refill_phase();
            return;
        }
        let seed = self.cfg.seed;
        let cycle = self.cycle as u64;

        // Schedule: every live node's partner choice, drawn from its own
        // counter-based stream — independent of every other node's draws,
        // against its start-of-phase view — with the partner's slot
        // resolved on the spot, the one id lookup an exchange costs. A
        // partner that is not alive (possible only for same-cycle stale
        // entries) costs the initiator that pointer and its exchange,
        // exactly as in the sequential model.
        let mut scheduled = mem::take(&mut self.scratch.scheduled);
        scheduled.clear();
        let (nodes, lookup) = self.nodes.iter_mut_with_lookup();
        for (slot, id, node) in nodes {
            let mut rng = NodeRng::for_node(seed, id.as_u64(), cycle, MEMBERSHIP_SALT);
            let Some(partner) = node.sampler.schedule_exchange(&mut rng) else {
                continue;
            };
            match lookup.slot_of(partner) {
                // Slots are below `u32::MAX` (see `ScheduledExchange`).
                Some(partner_slot) => scheduled.push(ScheduledExchange {
                    slot: slot as u32,
                    partner_slot: partner_slot as u32,
                    rng,
                }),
                None => {
                    node.sampler.view_mut().remove(partner);
                }
            }
        }

        // Partition gating: a cross-band exchange's REQ′ never crosses —
        // the pair is severed before batching (the initiator keeps its
        // stale pointer; failure detection is the view's business, not the
        // partition's). RNG-free: band membership is a pure attribute
        // lookup against the frozen cuts.
        if let Some(partition) = self.fault.partition() {
            let nodes = &self.nodes;
            let band_of = |slot| {
                nodes
                    .slot(slot)
                    .map(|n: &SimNode| partition.band_of(n.proto.attribute().value()))
            };
            scheduled.retain(|s| {
                let (slot, partner_slot) = s.slots();
                let connected = match (band_of(slot), band_of(partner_slot)) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                };
                if !connected {
                    *dropped += 1;
                }
                connected
            });
        }

        // Batch: greedy first-fit, in slot order, into conflict-free
        // batches — no node appears twice within one batch. Occupancy is a
        // 128-bit mask per slot; a pair whose endpoints' first common free
        // batch exceeds 128 (in-degree > 127, pathological) overflows into
        // a sequential tail.
        let mut masks = mem::take(&mut self.scratch.masks);
        masks.clear();
        masks.resize(self.nodes.slot_count(), 0u128);
        let mut batches = mem::take(&mut self.scratch.batches);
        for batch in &mut batches {
            batch.clear();
        }
        let mut overflow = mem::take(&mut self.scratch.overflow);
        overflow.clear();
        let mut used_batches = 0usize;
        for (idx, s) in scheduled.iter().enumerate() {
            // One entry per live node: the index fits `u32` as slots do.
            let idx = idx as u32;
            let (slot, partner_slot) = s.slots();
            let busy = masks[slot] | masks[partner_slot];
            let batch = (!busy).trailing_zeros() as usize;
            if batch >= 128 {
                overflow.push(idx);
                continue;
            }
            masks[slot] |= 1 << batch;
            masks[partner_slot] |= 1 << batch;
            if batch >= batches.len() {
                batches.push(Vec::new());
            }
            batches[batch].push(idx);
            used_batches = used_batches.max(batch + 1);
        }

        if let Some(log) = &mut self.schedule_log {
            log.clear();
            let id_at = |slot| {
                let id = self.nodes.id_at(slot);
                id.expect("scheduled slots are live").as_u64()
            };
            let ids = |idx: u32| {
                let (slot, partner_slot) = scheduled[idx as usize].slots();
                (id_at(slot), id_at(partner_slot))
            };
            for (batch, members) in batches.iter().enumerate().take(used_batches) {
                for &idx in members {
                    let (id, partner) = ids(idx);
                    log.push((id, partner, batch));
                }
            }
            for (offset, &idx) in overflow.iter().enumerate() {
                let (id, partner) = ids(idx);
                // Overflow pairs execute one at a time: singleton batches.
                log.push((id, partner, 128 + offset));
            }
        }

        // Execute: batches in order, then the overflow tail, pair by pair in
        // place. At the start of each group of pairs, both endpoints' slab
        // cells are read two groups ahead and their view rows one group
        // ahead, by which time the cells that point at the rows are in.
        let bufs = &mut self.scratch.exchange_bufs;
        for batch in batches.iter().take(used_batches) {
            for (pos, &idx) in batch.iter().enumerate() {
                if pos % GATHER_AHEAD == 0 {
                    let group = |ahead: usize| {
                        let start = (pos + ahead * GATHER_AHEAD).min(batch.len());
                        let end = (start + GATHER_AHEAD).min(batch.len());
                        &batch[start..end]
                    };
                    for &next in group(2) {
                        let (slot, partner_slot) = scheduled[next as usize].slots();
                        gather_cell(self.nodes.slot(slot));
                        gather_cell(self.nodes.slot(partner_slot));
                    }
                    for &next in group(1) {
                        let (slot, partner_slot) = scheduled[next as usize].slots();
                        gather_row(self.nodes.slot(slot));
                        gather_row(self.nodes.slot(partner_slot));
                    }
                }
                exchange_in_place(&mut self.nodes, &scheduled[idx as usize], bufs);
            }
        }
        for &idx in overflow.iter() {
            exchange_in_place(&mut self.nodes, &scheduled[idx as usize], bufs);
        }

        self.scratch.scheduled = scheduled;
        self.scratch.masks = masks;
        self.scratch.batches = batches;
        self.scratch.overflow = overflow;
    }

    /// Membership phase of the uniform-oracle substrate: snapshot the
    /// population once (it is invariant within a cycle — churn only happens
    /// at cycle start), then refill every view from it, each node sampling
    /// from its own membership stream.
    fn oracle_refill_phase(&mut self) {
        let seed = self.cfg.seed;
        let cycle = self.cycle as u64;
        let view_size = self.cfg.view_size;

        let mut pool = mem::take(&mut self.scratch.pool_entries);
        pool.clear();
        pool.extend(self.nodes.iter().map(|(_, _, n)| n.self_entry()));

        if let Some(log) = &mut self.schedule_log {
            log.clear(); // the oracle never schedules exchanges
        }

        let mut entries: Vec<ViewEntry> = Vec::with_capacity(view_size + 1);
        for (_slot, id, node) in self.nodes.iter_mut() {
            let mut rng = NodeRng::for_node(seed, id.as_u64(), cycle, MEMBERSHIP_SALT);
            sample_from_pool(&mut rng, &pool, |e| e.id, id, view_size, &mut entries);
            node.sampler.refill(&entries);
        }
        self.scratch.pool_entries = pool;
    }

    /// Refresh phase: every node's published value, per id row — the
    /// immutable snapshot the active sweep refreshes each view against.
    /// Rows of departed ids, and of ids beyond the column, read `None`.
    fn snapshot_published(&mut self) {
        let live = self.nodes.iter();
        let live = live.map(|(_, id, node)| (id, node.proto.published_value()));
        self.scratch
            .published
            .rebuild(self.alloc.peek().row(), live);
    }

    /// Test hook: toggles recording of the membership exchange schedule;
    /// each subsequent step stores `(initiator, partner, batch)` triples
    /// retrievable via [`debug_last_schedule`](Engine::debug_last_schedule).
    #[doc(hidden)]
    pub fn debug_record_schedule(&mut self, enabled: bool) {
        self.schedule_log = enabled.then(Vec::new);
    }

    /// Test hook: the schedule recorded by the most recent step (empty for
    /// the oracle substrate, or when recording is off).
    #[doc(hidden)]
    pub fn debug_last_schedule(&self) -> &[(u64, u64, usize)] {
        self.schedule_log.as_deref().unwrap_or(&[])
    }

    /// Runs the active phase: one sweep in slot order, each node's view
    /// refreshed against the refresh phase's snapshot (with `fresh_views`)
    /// just before its owner acts. Returns the filled outbox, which the
    /// caller hands back to `scratch` once delivered.
    fn active_phase(&mut self, fresh_views: bool, counters: &mut EventCounters) -> Outbox {
        let seed = self.cfg.seed;
        let cycle = self.cycle as u64;

        let mut outbox = mem::take(&mut self.scratch.outbox);
        outbox.msgs.clear();
        outbox.ends.clear();
        let published = fresh_views.then_some(&self.scratch.published);
        for (_slot, id, node) in self.nodes.iter_mut() {
            if let Some(published) = published {
                node.sampler
                    .view_mut()
                    .refresh_values(|nid| published.get(nid));
            }
            let mut rng = NodeRng::for_node(seed, id.as_u64(), cycle, ACTIVE_SALT);
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
        outbox
    }

    /// Routes one outgoing message: drops it (loss), holds it across cycles
    /// (latency), defers it within the cycle (overlap), or returns it for
    /// immediate delivery.
    fn route(
        &mut self,
        envelope: Envelope,
        deferred: &mut Vec<Envelope>,
        dropped: &mut u64,
    ) -> Option<Envelope> {
        // Fault injection first: a quiet fault (the default) takes neither
        // branch and flips no coin, keeping fault-free runs byte-identical.
        if !self.fault.is_quiet() {
            if self.fault_severed(&envelope) {
                *dropped += 1;
                return None;
            }
            if self.fault_dropped(dropped) {
                return None;
            }
        }
        if self.lost(dropped) {
            return None;
        }
        let delay = self.delivery_latency(envelope.to).sample(&mut self.rng);
        if delay > 0 {
            self.in_flight.push((self.cycle + delay as usize, envelope));
            return None;
        }
        if self.cfg.concurrency.overlaps(&mut self.rng) {
            deferred.push(envelope);
            return None;
        }
        Some(envelope)
    }

    /// Whether `envelope`'s delivery crosses an installed network
    /// partition (both endpoints live in different attribute bands).
    /// Consumes no RNG; a departed endpoint is not this check's concern
    /// (delivery handles it).
    fn fault_severed(&self, envelope: &Envelope) -> bool {
        if self.fault.partition().is_none() {
            return false;
        }
        let (from, to) = (envelope.from, envelope.to);
        match (self.nodes.get(from), self.nodes.get(to)) {
            (Some(f), Some(t)) => self
                .fault
                .severed(f.proto.attribute().value(), t.proto.attribute().value()),
            _ => false,
        }
    }

    /// Draws the fault-injection drop coin for one message (counts a drop
    /// on loss). The coin is flipped only while a non-zero drop rate is
    /// configured, mirroring [`lost`](Engine::lost).
    fn fault_dropped(&mut self, dropped: &mut u64) -> bool {
        use rand::Rng;
        if self.fault.drop_rate() > 0.0 && self.rng.gen::<f64>() < self.fault.drop_rate() {
            *dropped += 1;
            true
        } else {
            false
        }
    }

    /// The latency model governing delivery to `to`: the recipient band's
    /// fault override while a partition holds, the configured model
    /// otherwise.
    fn delivery_latency(&self, to: NodeId) -> LatencyModel {
        if self.fault.partition().is_none() {
            return self.cfg.latency;
        }
        self.nodes
            .get(to)
            .and_then(|n| self.fault.latency_override(n.proto.attribute().value()))
            .unwrap_or(self.cfg.latency)
    }

    /// Draws the loss coin for one message (counts a drop on loss).
    fn lost(&mut self, dropped: &mut u64) -> bool {
        use rand::Rng;
        if self.cfg.loss_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.loss_rate {
            *dropped += 1;
            true
        } else {
            false
        }
    }

    /// Applies the churn plan for this cycle; returns `(left, joined)`.
    fn apply_churn(&mut self) -> (usize, usize) {
        let population: Vec<(NodeId, Attribute)> = if self.churn.needs_population() {
            self.nodes
                .iter()
                .map(|(_, id, n)| (id, n.proto.attribute()))
                .collect()
        } else {
            Vec::new()
        };
        let plan = self.churn.plan(self.cycle, &population, &mut self.rng);
        if plan.is_quiet() {
            return (0, 0);
        }

        let mut removed: Vec<NodeId> = Vec::with_capacity(plan.leavers.len());
        for id in &plan.leavers {
            if self.nodes.remove(*id).is_some() {
                removed.push(*id);
            }
        }
        let left = removed.len();
        if !self.liars.is_empty() {
            for id in &removed {
                self.liars.remove(id);
            }
        }

        // Prune departed neighbors from every view before anyone gossips —
        // only when someone actually departed (a join-only cycle at 10⁵
        // nodes must not pay an O(n·c) scan for leavers that cannot exist).
        // The slab's own index is the live set: the leavers just left it.
        if !removed.is_empty() {
            let (nodes, lookup) = self.nodes.iter_mut_with_lookup();
            let is_alive = |id: NodeId| lookup.contains(id);
            for (_, _, node) in nodes {
                node.sampler.remove_dead(&is_alive);
            }
        }

        // Joiners: fresh identity, fresh protocol state, bootstrapped view.
        let joined = plan.joiners.len();
        let mut new_nodes = Vec::with_capacity(joined);
        if joined > 0 {
            let pool: Vec<NodeId> = self.nodes.ids().collect();
            for attribute in plan.joiners {
                let id = self.alloc.allocate();
                let node = SimNode::new(&self.cfg, self.kind, id, attribute, &mut self.rng)
                    .expect("validated capacity");
                self.nodes.insert(id, node);
                new_nodes.push((id, attribute));
            }
            for &(id, _) in &new_nodes {
                let entries = self.random_entries(id, self.cfg.view_size, &pool);
                if let Some(node) = self.nodes.get_mut(id) {
                    node.sampler.bootstrap(&entries);
                }
            }
        }
        // Fold the batch into the rank cache: a linear merge, no re-sort.
        self.ranks.apply_churn(&removed, &new_nodes);
        (left, joined)
    }

    /// Replays a conflicted atomic exchange: the proposer's view is brought
    /// up to date — every value snapshot refreshed from the live nodes,
    /// departed neighbors dropped: the active sweep's view refresh, against
    /// current values instead of the cycle's snapshot — and its active step
    /// re-runs (on the replay stream), as if its atomic turn came after the
    /// exchange that invalidated its original proposal. The replayed
    /// messages resolve immediately — they are the second half of one
    /// atomic action, so they draw no new routing coins and cannot
    /// themselves be replayed.
    fn replay_exchange(
        &mut self,
        from_slot: usize,
        counters: &mut EventCounters,
        dropped: &mut u64,
    ) {
        // The aborted proposal never happened under atomic semantics;
        // un-count it (its replacement, if any, records itself).
        counters.swaps_proposed = counters.swaps_proposed.saturating_sub(1);
        // The proposer steps out of the slab while it reads its neighbors.
        let Some((from, mut node)) = self.nodes.take_slot(from_slot) else {
            return;
        };
        let nodes = &self.nodes;
        node.sampler
            .view_mut()
            .refresh_values(|nid| nodes.get(nid).map(|n| n.proto.published_value()));
        let mut out = mem::take(&mut self.scratch.replay_out);
        let mut rng =
            NodeRng::for_node(self.cfg.seed, from.as_u64(), self.cycle as u64, REPLAY_SALT);
        let mut ctx = EngineCtx {
            rng: &mut rng,
            out: &mut out,
            counters,
        };
        node.proto.on_active(node.sampler.view(), &mut ctx);
        self.nodes.put_back(from_slot, from, node);

        let mut queue = mem::take(&mut self.scratch.replay_queue);
        queue.extend(out.drain(..));
        while let Some(envelope) = queue.pop_front() {
            self.deliver(envelope, false, counters, dropped, &mut out);
            queue.extend(out.drain(..));
        }
        self.scratch.replay_out = out;
        self.scratch.replay_queue = queue;
    }

    /// Delivers one message and routes whatever it provoked: responses for
    /// immediate delivery join `queue`, overlapping ones `deferred`.
    fn deliver_and_route(
        &mut self,
        envelope: Envelope,
        atomic: bool,
        queue: &mut VecDeque<Envelope>,
        deferred: &mut Vec<Envelope>,
        counters: &mut EventCounters,
        dropped: &mut u64,
    ) {
        let mut responses = mem::take(&mut self.scratch.responses);
        self.deliver(envelope, atomic, counters, dropped, &mut responses);
        for response in responses.drain(..) {
            if let Some(now) = self.route(response, deferred, dropped) {
                queue.push_back(now);
            }
        }
        self.scratch.responses = responses;
    }

    /// Delivers one message, appending the responses it provoked to `out`.
    /// Each endpoint's slot is resolved once and the node addressed in
    /// place from then on.
    ///
    /// `SwapReq` messages are resolved *transactionally* (see
    /// [`SliceProtocol::try_atomic_swap`]): the paper's cycle-based
    /// evaluation semantics, under which a stale proposal means "the
    /// expected swap does not occur" — never a half-completed exchange.
    /// `atomic` is true on the immediate (non-overlapping, zero-latency)
    /// path, where a conflicted proposal is replayed instead of counted
    /// stale (see [`Engine::replay_exchange`] and the module docs). All
    /// other messages take the ordinary `on_message` path.
    fn deliver(
        &mut self,
        envelope: Envelope,
        atomic: bool,
        counters: &mut EventCounters,
        dropped: &mut u64,
        out: &mut Vec<Envelope>,
    ) {
        let to = envelope.to;
        if let Payload::SwapReq { a, .. } = envelope.payload {
            let (Some(to_slot), Some(from_slot)) =
                (self.nodes.slot_of(to), self.nodes.slot_of(envelope.from))
            else {
                // Either endpoint departed mid-flight: the exchange cannot
                // complete; the message is lost.
                *dropped += 1;
                return;
            };
            // The proposal is evaluated against the proposer's *current*
            // value; the snapshot in the message only matters on real wires.
            let proposer = self.nodes.slot(from_slot).expect("resolved slot is live");
            let current_r = proposer.proto.estimate();
            let callee = self.nodes.slot_mut(to_slot).expect("resolved slot is live");
            match callee.proto.try_atomic_swap(a, current_r) {
                Some(pre_swap) => {
                    let proposer = self
                        .nodes
                        .slot_mut(from_slot)
                        .expect("resolved slot is live");
                    proposer.proto.adopt_value(pre_swap);
                    counters.record(Event::SwapApplied);
                }
                None if atomic => self.replay_exchange(from_slot, counters, dropped),
                None => counters.record(Event::SwapUseless),
            }
            return;
        }

        // The recipient is borrowed where it lives; the shared stream is a
        // different field of the engine, so both can be lent out at once.
        match self.nodes.get_mut(to) {
            Some(node) => {
                let mut ctx = EngineCtx {
                    rng: &mut self.rng,
                    out,
                    counters,
                };
                node.proto
                    .on_message(node.sampler.view(), envelope.message(), &mut ctx);
            }
            None => *dropped += 1,
        }
    }
}

impl Engine {
    /// Per-node view snapshots, sorted by node id: which neighbors each
    /// live node currently sees. Used by layers built *on top* of slicing
    /// (e.g. the slice-connected overlays of `dslice-overlay`) that consume
    /// the gossip stream as their candidate source.
    pub fn view_snapshot(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut snapshot: Vec<(NodeId, Vec<NodeId>)> = self
            .nodes
            .iter()
            .map(|(_, id, n)| (id, n.sampler.view().ids().collect()))
            .collect();
        snapshot.sort_unstable_by_key(|&(id, _)| id);
        snapshot
    }

    /// Debug helper: per-node view id lists, sorted by owner id (used by
    /// diagnostics examples and cross-crate tests; deterministic order).
    #[doc(hidden)]
    pub fn debug_views(&self) -> Vec<(u64, Vec<u64>)> {
        let mut views: Vec<(u64, Vec<u64>)> = self
            .nodes
            .iter()
            .map(|(_, id, n)| {
                let mut ids: Vec<u64> = n.sampler.view().ids().map(|i| i.as_u64()).collect();
                ids.sort_unstable();
                (id.as_u64(), ids)
            })
            .collect();
        views.sort_unstable_by_key(|&(id, _)| id);
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnSchedule, CorrelatedChurn, UncorrelatedChurn};
    use crate::concurrency::Concurrency;
    use crate::distributions::AttributeDistribution;

    fn small_cfg(n: usize, slices: usize, seed: u64) -> SimConfig {
        SimConfig {
            n,
            view_size: 8,
            partition: Partition::equal(slices).unwrap(),
            seed,
            ..SimConfig::default()
        }
    }

    /// FNV-1a-64 of a run's record bytes followed by the bits of `extra`
    /// (final accuracies): the pin the tests below hold a run to.
    fn run_hash(record: &RunRecord, extra: &[f64]) -> u64 {
        let bytes = record.to_json().into_bytes().into_iter();
        let bytes = bytes.chain(extra.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn construction_populates_and_bootstraps() {
        let engine = Engine::new(small_cfg(64, 4, 1), ProtocolKind::ModJk).unwrap();
        assert_eq!(engine.population(), 64);
        assert_eq!(engine.cycle(), 0);
        // Every node has a non-empty, invariant-respecting view.
        for (_, id, node) in engine.nodes.iter() {
            assert!(
                !node.sampler.view().is_empty(),
                "node {id} has no neighbors"
            );
            node.sampler.view().check_invariants(Some(id)).unwrap();
        }
    }

    #[test]
    fn per_node_and_per_message_records_stay_small() {
        use std::mem::size_of;
        // Protocol (64) and sampler (48) inline; the slab cell adds the id.
        assert_eq!(size_of::<SimNode>(), 112);
        assert_eq!(size_of::<Envelope>(), 32);
        assert_eq!(size_of::<ScheduledExchange>(), 16);
    }

    #[test]
    fn envelopes_carry_protocol_messages_unchanged() {
        let a = Attribute::new(7.5).unwrap();
        let (to, from) = (NodeId::new(9), NodeId::new(u64::from(u32::MAX) - 1));
        for msg in [
            ProtocolMsg::SwapReq { from, r: 0.25, a },
            ProtocolMsg::SwapAck { from, r: 0.75 },
            ProtocolMsg::Update { from, a },
        ] {
            let envelope = Envelope::pack(to, msg.clone());
            assert_eq!(envelope.to, to);
            assert_eq!(envelope.from, from);
            assert_eq!(envelope.message(), msg);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = small_cfg(0, 4, 1);
        cfg.n = 0;
        assert!(Engine::new(cfg, ProtocolKind::Jk).is_err());
    }

    #[test]
    fn mod_jk_reduces_disorder() {
        let mut engine = Engine::new(small_cfg(256, 8, 2), ProtocolKind::ModJk).unwrap();
        let before = engine.sdm();
        let record = engine.run(30);
        let after = engine.sdm();
        assert!(after < before / 2.0, "SDM {before} -> {after}");
        assert_eq!(record.cycles.len(), 30);
        assert_eq!(record.cycles.last().unwrap().cycle, 30);
    }

    #[test]
    fn gdm_reaches_zero_but_sdm_usually_does_not() {
        // Fig. 4(a): the ordering algorithm totally orders the random values
        // (GDM → 0) yet slice assignments stay off (SDM lower-bounded).
        let mut engine = Engine::new(small_cfg(128, 16, 3), ProtocolKind::ModJk).unwrap();
        engine.run(120);
        assert_eq!(engine.gdm(), 0.0, "random values must end totally ordered");
        // With 128 random values over 16 slices a perfect assignment has
        // probability ≈ 0; assert the plateau rather than exact inequality
        // on one seed.
        assert!(engine.sdm() >= 0.0);
    }

    #[test]
    fn ranking_converges_and_keeps_improving() {
        let mut engine = Engine::new(small_cfg(256, 4, 4), ProtocolKind::Ranking).unwrap();
        let record = engine.run(160);
        let early: f64 = record.cycles[9].sdm;
        let late: f64 = record.cycles[159].sdm;
        assert!(
            late < early / 3.0,
            "ranking SDM should keep dropping: {early} -> {late}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = Engine::new(small_cfg(64, 4, seed), ProtocolKind::ModJk).unwrap();
            e.run(10)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same record");
        assert_ne!(a, c, "different seed, different record");
    }

    #[test]
    fn metrics_cadence_skips_cycles_but_not_determinism() {
        let mut cfg = small_cfg(64, 4, 5);
        cfg.metrics_every = 4;
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
        let record = engine.run(8);
        // Cycles 4 and 8 are measured; 1–3 repeat the construction values,
        // 5–7 repeat cycle 4's.
        assert_eq!(record.cycles[4].sdm, record.cycles[3].sdm);
        assert_eq!(record.cycles[5].sdm, record.cycles[3].sdm);
        assert_ne!(record.cycles[7].sdm, record.cycles[3].sdm);
        assert_eq!(record.cycles[0].slice_changes, 0);
        // The live sdm() accessor stays exact regardless of cadence.
        assert!(engine.sdm() >= 0.0);
    }

    #[test]
    fn concurrency_produces_useless_swaps() {
        let mut cfg = small_cfg(256, 8, 5);
        cfg.concurrency = Concurrency::Full;
        let mut engine = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
        let record = engine.run(15);
        let useless: u64 = record.cycles.iter().map(|c| c.events.swaps_useless).sum();
        assert!(
            useless > 0,
            "full concurrency must produce unsuccessful swaps"
        );
    }

    #[test]
    fn no_concurrency_means_no_useless_swaps() {
        let mut engine = Engine::new(small_cfg(256, 8, 6), ProtocolKind::ModJk).unwrap();
        let record = engine.run(15);
        let useless: u64 = record.cycles.iter().map(|c| c.events.swaps_useless).sum();
        assert_eq!(
            useless, 0,
            "atomic exchanges with fresh views never go stale"
        );
    }

    #[test]
    fn correlated_churn_changes_population() {
        let schedule = ChurnSchedule {
            rate: 0.05,
            period: 1,
            stop_after: Some(5),
        };
        let mut engine = Engine::new(small_cfg(100, 4, 7), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(CorrelatedChurn::new(schedule, 1.0)));
        let record = engine.run(8);
        let total_left: usize = record.cycles.iter().map(|c| c.left).sum();
        let total_joined: usize = record.cycles.iter().map(|c| c.joined).sum();
        assert_eq!(total_left, 25, "5 cycles x 5 nodes");
        assert_eq!(total_joined, 25);
        assert_eq!(engine.population(), 100, "same-rate churn keeps n stable");
        // All views reference live nodes only.
        for (_, id, node) in engine.nodes.iter() {
            for e in node.sampler.view().iter() {
                assert!(engine.nodes.contains(e.id) || id == e.id);
            }
        }
    }

    #[test]
    fn uncorrelated_churn_keeps_engine_running() {
        let schedule = ChurnSchedule {
            rate: 0.02,
            period: 2,
            stop_after: None,
        };
        let mut engine = Engine::new(small_cfg(100, 4, 8), ProtocolKind::ModJk)
            .unwrap()
            .with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            )));
        let record = engine.run(20);
        assert_eq!(record.cycles.len(), 20);
        assert!(engine.population() > 0);
    }

    #[test]
    fn refresh_snapshot_rows_follow_ids_not_slots() {
        let schedule = ChurnSchedule {
            rate: 0.05,
            period: 1,
            stop_after: None,
        };
        let mut engine = Engine::new(small_cfg(400, 4, 31), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            )));
        let before: Vec<(usize, NodeId)> = engine.nodes.iter().map(|(s, id, _)| (s, id)).collect();
        let stats = engine.step();
        assert!(stats.left > 0 && stats.joined > 0, "the cycle churned");
        // Departed ids whose slots a joiner (with a fresh id) took over.
        let reused: Vec<(NodeId, NodeId)> = before
            .iter()
            .filter(|&&(_, old)| !engine.nodes.contains(old))
            .filter_map(|&(slot, old)| Some((old, engine.nodes.id_at(slot)?)))
            .collect();
        assert!(!reused.is_empty(), "the free list recycled a slot");
        let published = &engine.scratch.published;
        for (old, new) in reused {
            assert_ne!(old, new);
            assert_eq!(published.get(old), None, "{old} departed");
            assert!(published.get(new).is_some(), "{new} is live");
        }
        let live: u32 = published.live.iter().map(|word| word.count_ones()).sum();
        assert_eq!(live as usize, engine.population(), "one bit per live node");
        for (_, id, _) in engine.nodes.iter() {
            assert!(published.get(id).is_some(), "{id} is live");
        }
        // Ids the column has no row for read as absent, not as a panic.
        assert_eq!(published.get(engine.alloc.peek()), None);
        let far = NodeId::new(u64::from(u32::MAX) - 1);
        assert_eq!(published.get(far), None);
    }

    #[test]
    fn uniform_oracle_refills_views_each_cycle() {
        let mut cfg = small_cfg(64, 4, 9);
        cfg.sampler = SamplerKind::UniformOracle;
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
        engine.step();
        for (_, id, node) in engine.nodes.iter() {
            let view = node.sampler.view();
            assert_eq!(view.len(), 8, "view refilled to capacity");
            view.check_invariants(Some(id)).unwrap();
        }
    }

    #[test]
    fn tiny_population_does_not_panic() {
        let mut engine = Engine::new(small_cfg(2, 2, 10), ProtocolKind::ModJk).unwrap();
        engine.run(5);
        let mut engine = Engine::new(small_cfg(1, 2, 11), ProtocolKind::Ranking).unwrap();
        engine.run(5);
        assert_eq!(engine.population(), 1);
    }

    #[test]
    fn run_record_metadata() {
        let mut engine = Engine::new(small_cfg(32, 4, 12), ProtocolKind::Jk).unwrap();
        let record = engine.run(3);
        assert_eq!(record.label, "jk");
        assert_eq!(record.seed, 12);
        assert_eq!(record.initial_n, 32);
        assert_eq!(record.slices, 4);
        assert_eq!(record.view_size, 8);
    }

    #[test]
    fn accuracy_and_histogram_reflect_convergence() {
        let mut engine = Engine::new(small_cfg(200, 4, 21), ProtocolKind::Ranking).unwrap();
        let before = engine.accuracy();
        engine.run(80);
        let after = engine.accuracy();
        assert!(after > before, "accuracy must improve: {before} -> {after}");
        assert!(after > 0.7, "converged accuracy {after} too low");
        let hist = engine.slice_histogram();
        assert_eq!(hist.len(), 4);
        assert_eq!(hist.iter().sum::<usize>(), 200);
        // Equal slices: believed populations near 50 each once converged.
        for (idx, &c) in hist.iter().enumerate() {
            assert!(
                (25..=75).contains(&c),
                "slice {idx} believed population {c} far from 50"
            );
        }
    }

    #[test]
    fn latency_delays_but_does_not_lose_messages() {
        use crate::latency::LatencyModel;
        let mut cfg = small_cfg(128, 4, 30);
        cfg.latency = LatencyModel::Fixed { cycles: 2 };
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
        let record = engine.run(40);
        // Messages sent in the last cycles are still in flight; everything
        // else was delivered — none were dropped (loss_rate = 0).
        let dropped: u64 = record.cycles.iter().map(|c| c.dropped_messages).sum();
        assert_eq!(dropped, 0);
        assert!(
            !engine.in_flight.is_empty(),
            "fixed 2-cycle delay keeps a backlog"
        );
        // Samples still flow: the protocol converges, just later.
        assert!(engine.sdm() < record.cycles[0].sdm / 2.0);
    }

    #[test]
    fn latency_slows_ordering_convergence() {
        use crate::latency::LatencyModel;
        let sdm_at = |latency: LatencyModel, cycle: usize| {
            let mut cfg = small_cfg(256, 8, 31);
            cfg.latency = latency;
            let record = Engine::new(cfg, ProtocolKind::ModJk).unwrap().run(cycle);
            record.cycles.last().unwrap().sdm
        };
        let fast = sdm_at(LatencyModel::Zero, 12);
        let slow = sdm_at(LatencyModel::Uniform { min: 1, max: 4 }, 12);
        assert!(
            slow > fast,
            "multi-cycle latency must slow the ordering family: {fast} vs {slow}"
        );
    }

    #[test]
    fn delayed_swap_proposals_surface_as_useless_swaps() {
        use crate::latency::LatencyModel;
        let mut cfg = small_cfg(256, 8, 32);
        cfg.latency = LatencyModel::Fixed { cycles: 3 };
        let mut engine = Engine::new(cfg, ProtocolKind::ModJk).unwrap();
        let record = engine.run(20);
        let useless: u64 = record.cycles.iter().map(|c| c.events.swaps_useless).sum();
        assert!(
            useless > 0,
            "3-cycle-old proposals must frequently arrive stale"
        );
    }

    #[test]
    fn latency_is_deterministic_given_seed() {
        use crate::latency::LatencyModel;
        let run = |seed| {
            let mut cfg = small_cfg(64, 4, seed);
            cfg.latency = LatencyModel::Geometric { p: 0.5 };
            Engine::new(cfg, ProtocolKind::Ranking).unwrap().run(15)
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    fn slice_changes_decay_as_the_run_converges() {
        // §3.2 stability: early cycles reshuffle believed slices heavily;
        // a converged static run settles to near-zero changes per cycle.
        let mut engine = Engine::new(small_cfg(256, 4, 40), ProtocolKind::Ranking).unwrap();
        let record = engine.run(120);
        let early: usize = record.cycles[1..6].iter().map(|c| c.slice_changes).sum();
        let late: usize = record.cycles[115..].iter().map(|c| c.slice_changes).sum();
        assert!(
            late * 5 < early,
            "slice flapping must decay: early {early} vs late {late}"
        );
        // The very first cycle has no previous belief to differ from.
        assert_eq!(record.cycles[0].slice_changes, 0);
    }

    #[test]
    fn repartition_does_not_fake_a_stability_spike() {
        let mut engine = Engine::new(small_cfg(128, 4, 41), ProtocolKind::Ranking).unwrap();
        engine.run(50);
        engine.set_partition(Partition::equal(2).unwrap());
        let stats = engine.step();
        assert_eq!(
            stats.slice_changes, 0,
            "first post-repartition cycle must not count wholesale changes"
        );
    }

    #[test]
    fn snapshot_estimates_are_probabilities() {
        let mut engine = Engine::new(small_cfg(64, 4, 13), ProtocolKind::Ranking).unwrap();
        engine.run(10);
        for (_, _, est) in engine.snapshot() {
            assert!((0.0..=1.0).contains(&est), "estimate {est} out of range");
        }
    }

    #[test]
    fn snapshot_and_views_are_id_sorted() {
        let schedule = ChurnSchedule {
            rate: 0.1,
            period: 1,
            stop_after: None,
        };
        let mut engine = Engine::new(small_cfg(64, 4, 50), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            )));
        engine.run(10); // slot recycling has shuffled the internal order
        let snapshot = engine.snapshot();
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
        let views = engine.debug_views();
        assert!(views.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(views.len(), engine.population());
    }

    #[test]
    fn corrupt_nodes_converts_the_requested_fraction() {
        let mut engine = Engine::new(small_cfg(200, 4, 60), ProtocolKind::Ranking).unwrap();
        let corrupted = engine.corrupt_nodes(0.1, 5.0);
        assert_eq!(corrupted, 20);
        assert_eq!(engine.liar_count(), 20);
        assert_eq!(engine.population(), 200, "corruption is not churn");
        // Corrupting again only draws from the still-honest pool.
        let more = engine.corrupt_nodes(0.5, 5.0);
        assert_eq!(more, 90, "half of the remaining 180");
        assert_eq!(engine.liar_count(), 110);
        // Zero fraction is a no-op.
        assert_eq!(engine.corrupt_nodes(0.0, 5.0), 0);
    }

    #[test]
    fn corrupt_boundary_nodes_targets_the_slice_edges() {
        let mut engine = Engine::new(small_cfg(200, 4, 61), ProtocolKind::Ranking).unwrap();
        let corrupted = engine.corrupt_boundary_nodes(0.1, 10.0);
        assert_eq!(corrupted, 20);
        assert_eq!(engine.liar_count(), 20);
        assert_eq!(engine.population(), 200, "corruption is not churn");
        // Every chosen node's true rank must be nearer a slice boundary than
        // every honest survivor's: compute true ranks the same way.
        let mut by_attr: Vec<(u64, f64)> = engine
            .snapshot()
            .iter()
            .map(|&(id, attr, _)| (id.as_u64(), attr.value()))
            .collect();
        by_attr.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let n = by_attr.len() as f64;
        let part = engine.partition().clone();
        let dist = |pos: usize| part.boundary_distance((pos + 1) as f64 / n);
        let worst_liar = by_attr
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| engine.is_liar(NodeId::new(*id)))
            .map(|(pos, _)| dist(pos))
            .fold(0.0f64, f64::max);
        let best_honest = by_attr
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| !engine.is_liar(NodeId::new(*id)))
            .map(|(pos, _)| dist(pos))
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst_liar <= best_honest,
            "boundary targeting must pick the edge-nearest ranks \
             (worst liar {worst_liar} vs best honest {best_honest})"
        );
        // Deterministic and RNG-free: a fresh engine picks the same set.
        let mut again = Engine::new(small_cfg(200, 4, 61), ProtocolKind::Ranking).unwrap();
        again.corrupt_boundary_nodes(0.1, 10.0);
        let liars_a: Vec<u64> = engine
            .snapshot()
            .iter()
            .map(|&(id, _, _)| id.as_u64())
            .filter(|&id| engine.is_liar(NodeId::new(id)))
            .collect();
        let liars_b: Vec<u64> = again
            .snapshot()
            .iter()
            .map(|&(id, _, _)| id.as_u64())
            .filter(|&id| again.is_liar(NodeId::new(id)))
            .collect();
        assert_eq!(liars_a, liars_b);
        // Zero fraction is a no-op.
        assert_eq!(engine.corrupt_boundary_nodes(0.0, 10.0), 0);
    }

    // The three runs below are pinned to hashes captured on the commit
    // before the engine became single-threaded, where each was also checked
    // byte-identical at 2 and 4 worker threads.

    #[test]
    fn corruption_run_is_pinned() {
        let mut e = Engine::new(small_cfg(128, 4, 61), ProtocolKind::ModJk).unwrap();
        e.run(5);
        e.corrupt_nodes(0.2, 10.0);
        let record = e.run(10);
        let hash = run_hash(&record, &[e.honest_accuracy(), e.accuracy()]);
        assert_eq!(
            hash, 0xab20_817b_a0e0_8c2e,
            "record bytes changed (got {hash:#018x})"
        );
    }

    #[test]
    fn network_partition_severs_cross_band_traffic_until_healed() {
        let mut engine = Engine::new(small_cfg(128, 4, 70), ProtocolKind::Ranking).unwrap();
        engine.run(5);
        engine.set_network_partition(2, None).unwrap();
        let partitioned = engine.run(10);
        let severed: u64 = partitioned.cycles.iter().map(|c| c.dropped_messages).sum();
        assert!(severed > 0, "cross-band updates must be dropped");
        engine.heal_network_partition();
        assert!(engine.network_fault().is_quiet());
        let healed = engine.run(10);
        let after: u64 = healed.cycles.iter().map(|c| c.dropped_messages).sum();
        assert_eq!(after, 0, "a healed network loses nothing");
    }

    #[test]
    fn scheduled_heal_fires_at_the_given_cycle() {
        let mut engine = Engine::new(small_cfg(64, 4, 71), ProtocolKind::Ranking).unwrap();
        // Heal at cycle 4: cycles 1–3 partitioned, 4 onward connected.
        engine.set_network_partition(2, Some(4)).unwrap();
        for _ in 0..3 {
            engine.step();
            assert!(engine.network_fault().partition().is_some());
        }
        let healed_cycle = engine.step();
        assert!(engine.network_fault().partition().is_none());
        assert_eq!(healed_cycle.dropped_messages, 0);
    }

    #[test]
    fn drop_rate_loses_a_matching_share_of_messages() {
        let run = |rate: f64| {
            let mut e = Engine::new(small_cfg(128, 4, 72), ProtocolKind::Ranking).unwrap();
            e.set_drop_rate(rate).unwrap();
            let record = e.run(10);
            record
                .cycles
                .iter()
                .map(|c| c.dropped_messages)
                .sum::<u64>()
        };
        assert_eq!(run(0.0), 0);
        let half = run(0.5);
        let tenth = run(0.1);
        assert!(half > tenth, "drop counts must scale: {tenth} vs {half}");
        assert!(tenth > 0);
    }

    #[test]
    fn region_latency_override_holds_messages_in_flight() {
        let mut engine = Engine::new(small_cfg(128, 4, 73), ProtocolKind::Ranking).unwrap();
        engine.set_network_partition(2, None).unwrap();
        engine
            .set_region_latency(1, LatencyModel::Fixed { cycles: 3 })
            .unwrap();
        engine.run(5);
        assert!(
            !engine.in_flight.is_empty(),
            "band-1 deliveries must be delayed under the override"
        );
        // Region overrides need an installed partition.
        engine.heal_network_partition();
        assert!(engine
            .set_region_latency(1, LatencyModel::Fixed { cycles: 3 })
            .is_err());
    }

    #[test]
    fn fault_injection_run_is_pinned() {
        let mut e = Engine::new(small_cfg(128, 4, 74), ProtocolKind::decay(0.98)).unwrap();
        e.run(5);
        e.set_network_partition(2, Some(12)).unwrap();
        e.set_drop_rate(0.05).unwrap();
        e.set_region_latency(1, LatencyModel::Uniform { min: 1, max: 2 })
            .unwrap();
        let record = e.run(15);
        let hash = run_hash(&record, &[e.accuracy()]);
        assert_eq!(
            hash, 0x5aab_2de4_a5a1_a186,
            "record bytes changed (got {hash:#018x})"
        );
    }

    #[test]
    fn partition_starves_cross_band_evidence_under_correlated_churn() {
        // The acceptance-(b) mechanism in miniature: during an attribute
        // partition, correlated churn reshapes the other band invisibly, so
        // estimates go stale; after the heal, the decay estimator re-adapts.
        let schedule = ChurnSchedule {
            rate: 0.05,
            period: 1,
            stop_after: Some(20),
        };
        let mut engine = Engine::new(small_cfg(256, 4, 75), ProtocolKind::decay(0.98))
            .unwrap()
            .with_churn(Box::new(CorrelatedChurn::new(schedule, 1.0)));
        engine.run(30);
        engine.set_network_partition(2, None).unwrap();
        engine.run(25);
        let partitioned = engine.accuracy();
        engine.heal_network_partition();
        engine.run(40);
        let healed = engine.accuracy();
        assert!(
            healed > partitioned,
            "post-heal accuracy must recover: {partitioned} -> {healed}"
        );
        assert!(healed >= 0.85, "decay must re-converge, got {healed}");
    }

    #[test]
    fn corrupt_adaptive_converts_the_requested_fraction() {
        let mut engine = Engine::new(small_cfg(200, 4, 64), ProtocolKind::Ranking).unwrap();
        let spec = AttackerSpec::Colluder { target: 0.95 };
        assert_eq!(engine.corrupt_adaptive(0.1, spec), 20);
        assert_eq!(engine.liar_count(), 20);
        assert_eq!(engine.population(), 200, "corruption is not churn");
        // A second wave only draws from the still-honest pool, and the
        // static and adaptive tiers share one liar set.
        assert_eq!(engine.corrupt_nodes(0.5, 5.0), 90);
        assert_eq!(engine.liar_count(), 110);
        assert_eq!(engine.corrupt_adaptive(0.0, spec), 0);
    }

    #[test]
    #[should_panic(expected = "invalid attacker spec")]
    fn corrupt_adaptive_rejects_invalid_specs() {
        let mut engine = Engine::new(small_cfg(16, 4, 65), ProtocolKind::Ranking).unwrap();
        engine.corrupt_adaptive(0.1, AttackerSpec::Colluder { target: 2.0 });
    }

    #[test]
    fn adaptive_corruption_run_is_pinned() {
        let kind = ProtocolKind::RobustRanking { window: 16 };
        let mut e = Engine::new(small_cfg(128, 4, 66), kind).unwrap();
        e.run(5);
        e.corrupt_adaptive(
            0.2,
            AttackerSpec::Drifter {
                inflation: 4.0,
                step: 0.25,
                epoch: 4,
            },
        );
        let record = e.run(10);
        let hash = run_hash(&record, &[e.honest_accuracy(), e.accuracy()]);
        assert_eq!(
            hash, 0xe7ef_d4cc_7cff_df04,
            "record bytes changed (got {hash:#018x})"
        );
    }

    #[test]
    fn trimming_blunts_colluders_that_static_fences_admit() {
        // The acceptance experiment in miniature: colluders aim their poison
        // just inside the Tukey fences, so the fence-only filter absorbs it
        // while the trimmed filter clips it as an order-statistic outlier.
        let honest = |kind: ProtocolKind, seed| {
            let mut e = Engine::new(small_cfg(256, 4, seed), kind).unwrap();
            e.run(60);
            e.corrupt_adaptive(0.2, AttackerSpec::Colluder { target: 0.95 });
            e.run(60);
            e.honest_accuracy()
        };
        let fenced = honest(ProtocolKind::RobustRanking { window: 32 }, 67);
        let trimmed = honest(ProtocolKind::trimmed(32, 0.1), 67);
        assert!(
            trimmed > fenced,
            "trimmed admission must out-defend the static fence \
             against fence-aware collusion: {trimmed} vs {fenced}"
        );
    }

    #[test]
    fn lying_nodes_hurt_overall_more_than_honest_accuracy() {
        // A converged honest run, then 20% of nodes start claiming 10× their
        // rank: overall accuracy must fall below honest-only accuracy (the
        // liars are deliberately misplaced), and with no liars the two
        // accessors agree exactly.
        let mut engine = Engine::new(small_cfg(256, 4, 62), ProtocolKind::Ranking).unwrap();
        engine.run(80);
        assert_eq!(engine.accuracy(), engine.honest_accuracy());
        engine.corrupt_nodes(0.2, 10.0);
        engine.run(20);
        assert!(
            engine.accuracy() < engine.honest_accuracy(),
            "liars must drag overall accuracy below honest-only accuracy"
        );
    }

    #[test]
    fn departed_liars_are_forgotten() {
        let schedule = ChurnSchedule {
            rate: 0.2,
            period: 1,
            stop_after: None,
        };
        let mut engine = Engine::new(small_cfg(100, 4, 63), ProtocolKind::Ranking)
            .unwrap()
            .with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                AttributeDistribution::default(),
            )));
        engine.corrupt_nodes(0.5, 4.0);
        assert_eq!(engine.liar_count(), 50);
        engine.run(30);
        // Heavy uncorrelated churn replaces liars with honest joiners; every
        // tracked liar must still be a live node.
        assert!(engine.liar_count() < 50);
        let live: Vec<NodeId> = engine.nodes.ids().collect();
        for id in &live {
            let _ = engine.is_liar(*id);
        }
        assert!(
            engine.liars.iter().all(|id| engine.nodes.contains(*id)),
            "liar set must only track live nodes"
        );
    }
}
