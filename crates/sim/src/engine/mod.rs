//! The cycle engine, architected for 10⁵-node populations.
//!
//! ## Cycle structure
//!
//! One [`Engine::step`] reproduces a PeerSim cycle (§4.5) as a sequence of
//! explicit phases, each a plain function in its own module over explicit
//! borrows — the node columns, the phase's own buffers, and the read-only
//! `Cycle` context — so no phase holds the whole engine:
//!
//! 1. **Churn** (`churn.rs`) — leavers go, joiners arrive and bootstrap their
//!    views, every view is pruned of departed neighbors, and the rank cache
//!    merges the batch in place.
//! 2. **Latency drain** (`delivery.rs`) — messages whose cross-cycle latency
//!    elapsed land now, in random order, before anyone's active step.
//! 3. **Membership** (`membership.rs`) — every live node runs its membership
//!    shuffle atomically, as schedule → batch → execute.
//! 4. **Refresh** (`active.rs`) — every node's published value and attribute
//!    are snapshotted per id row, once.
//! 5. **Active** (`active.rs`) — one sweep in slot order: each node's
//!    view row is joined against the snapshot, then its protocol acts on its
//!    own counter-based stream (see [`crate::stream`]), filling one outbox.
//! 6. **Delivery** (`delivery.rs`) — the outbox is routed sender by sender per
//!    the [`Concurrency`](crate::Concurrency) model: atomic exchanges now,
//!    overlapping messages in an end-of-cycle drain.
//! 7. **Metrics** (`metrics.rs`) — SDM, GDM and slice changes on the
//!    configured cadence, from one walk over the protocol column and the
//!    churn-maintained rank cache, in O(n).
//!
//! In debug builds every phase boundary checks what the next phase relies
//! on: views keep their invariants after churn and after membership, no view
//! holds a departed neighbor after the churn prune, delivery leaves its
//! queues empty, and at metrics time every honest estimate lies in its
//! family's range — `(0, 1]` for the ordering family's random values,
//! `[0, 1]` for a ranking estimate.
//!
//! ## Storage
//!
//! Node state lives in three columns indexed by the same slot, one `Vec`
//! each, walked in slot order every phase: the protocol column, a
//! [`NodeSlab`] of [`AnyProtocol`]s (a closed enum over the concrete
//! protocols, stored inline: 72 bytes a slot with the id), which also
//! keeps the id → slot index and the free list that lets churn reuse slots
//! (slot storage is bounded by the peak population); the sampler column, a
//! [`SamplerColumn`] holding what a sampler keeps besides its view — the
//! owner, 4 bytes, and in an Lpbcast run the eviction stream; and the view
//! arena, a [`ViewArena`] holding every view as one row of `c` 8-byte
//! `(id, age)` entries ([`AgedId`]) beside a one-byte length per slot. No
//! heap object is kept per node (but a box for the rare protocol arms
//! larger than a ranking node): the columns are sized once for the initial
//! population, a departed node's row is emptied, and a joiner takes the
//! emptied row of the slot it takes over. A phase reads only the columns it
//! needs: membership the sampler column and the rows, delivery the protocol
//! column, the active sweep both side by side. A row is reached from its
//! slot by arithmetic, never through a pointer stored per node. For each
//! membership operation a sampler is bound over the column and the row
//! ([`SamplerColumn::bind`]) and runs the same code as a sampler that owns
//! its view.
//!
//! A view stores only what peer sampling reads; each neighbor's attribute
//! and published value are joined in from the refresh snapshot when a
//! protocol reads the view (`active.rs`), and a protocol's passive step is
//! handed an empty view (`delivery.rs`). At view size 10 a node costs 72
//! bytes of protocol slot, 80 of row, 1 of length and 4 of sampler column;
//! with the id-indexed columns and the phase buffers below, a 10⁵-node run
//! peaks at about 370 bytes of resident memory per node, and
//! [`Engine::heap_bytes`] accounts for nearly all of it, column by column
//! (`examples/scale_run`, 2-vCPU Linux host). The per-message and
//! per-exchange records are small for the same reason: a queued message is
//! a 32-byte `Copy` envelope of two 4-byte `NodeId`s and a three-variant
//! payload, and a scheduled exchange is two `u32` slots and a stream, 16
//! bytes.
//!
//! **Every per-cycle touch of a node is O(1): at most one array index to
//! find it, and no allocation.** A node's slot is stable while it lives, so
//! each phase resolves `NodeId → slot` once, where the id enters it, and
//! indexes the slot array from then on (each phase module says where).
//! Resolving an id hashes nothing: the slab's index, the refresh snapshot
//! and the rank cache's ranks are columns indexed by the raw id, which the
//! engine's own allocator issues sequentially from 0. They cost about 24
//! bytes per identity ever issued — 0.24 MB per 10k joins — on top of the
//! slots (see [`Engine::slot_count`]), 16 of them the snapshot's
//! `(value, attribute)` row. The slice tracker's stamps are keyed
//! by slot instead, so they are bounded by the peak population.
//!
//! What a phase needs beyond node state lives in buffers its own module
//! defines and the engine keeps across cycles: the churn model's population
//! copy, the membership schedule and exchange order, the refresh snapshot
//! and the outbox, the delivery queues, and the metrics' value order. After
//! the first cycles warm them up, the cycle hot path performs no allocation
//! that scales with `n` — on churned cycles and measured cycles too, where
//! what a cycle allocates goes to its joiners (enforced, in calls and in
//! bytes, by `tests/alloc_steady_state.rs`). The id-indexed columns grow by
//! doubling as joiners take new ids: O(1) per joiner, amortized. Nothing is
//! kept per node: a spare vector there is paid for `n` times. The slice
//! partition is shared the same way — every protocol instance holds a
//! handle on one boundary array.
//!
//! At 10⁵ nodes the node state is far beyond cache, and delivery and the
//! membership exchanges visit nodes in random order, so both loops work in
//! groups of `GATHER_AHEAD` (16) messages or exchanges and read the node
//! state of the next group ahead — the recipients' protocol slots, the
//! endpoints' rows and owners — discarding what they read, so that the
//! cache misses of a group are in flight together. The reads cannot change
//! a result: they go through shared borrows and read-only accessors, draw no
//! randomness, and leave the order of the work untouched.
//!
//! Everything is driven by the run seed: identical `(config, protocol,
//! churn, seed)` yields identical runs, byte for byte.

mod active;
mod churn;
mod delivery;
mod membership;
mod metrics;

use crate::churn::{ChurnModel, NoChurn};
use crate::config::{ProtocolKind, SimConfig};
use crate::fault::{BandPartition, NetworkFault};
use crate::latency::LatencyModel;
use crate::stats::{CycleStats, EventCounters, PhaseTimings, RunRecord};
use crate::stream::NodeRng;
use delivery::Delivery;
use dslice_algorithms::{Adaptive, AnyProtocol, AttackerSpec, Liar};
use dslice_core::metrics::{RankCache, SliceTracker};
use dslice_core::node::NodeIdAllocator;
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{
    AgedId, Attribute, NodeId, NodeIdSet, NodeSlab, Partition, ProtocolMsg, Result, ViewArena,
};
use dslice_gossip::{RowSampler, SamplerColumn};
use dslice_obs::{FlightRecorder, TraceConfig, TraceKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Stream domain of the regular active step (see [`NodeRng::for_node`]).
const ACTIVE_SALT: u64 = 0;
/// Stream domain of the atomic-exchange replay.
const REPLAY_SALT: u64 = 1;
/// Stream domain of the membership phase: partner scheduling plus the
/// exchange payload draws (the same stream is carried from schedule to
/// execute), or the oracle's per-node refill sample.
const MEMBERSHIP_SALT: u64 = 2;

/// The trace span of each phase, in the order of [`PhaseTimings::rows`].
const PHASE_SPANS: [TraceKind; 7] = [
    TraceKind::PhaseChurn,
    TraceKind::PhaseDrain,
    TraceKind::PhaseMembership,
    TraceKind::PhaseRefresh,
    TraceKind::PhaseActive,
    TraceKind::PhaseDelivery,
    TraceKind::PhaseMetrics,
];

/// Group size of the look-ahead reads: while the delivery loop routes one
/// group of this many messages, or the membership phase executes one group
/// of this many exchanges, the next group's node state is read.
const GATHER_AHEAD: usize = 16;

/// The population, as three columns indexed by the slot [`NodeSlab::insert`]
/// hands a node (see the module docs on storage): the protocols in the slab,
/// which also keeps the id → slot index and the free list; what each
/// sampler keeps besides its view; and the views, one arena row per slot.
/// A node enters and leaves all three together, through
/// [`insert`](Nodes::insert) and [`remove`](Nodes::remove).
struct Nodes {
    protos: NodeSlab<AnyProtocol>,
    samplers: SamplerColumn,
    views: ViewArena<AgedId>,
}

impl Nodes {
    /// Empty columns with room for `slots` nodes of `cfg`'s sampler and
    /// view size, sized once so that building the population never grows
    /// them.
    fn with_capacity(cfg: &SimConfig, slots: usize) -> Result<Self> {
        Ok(Nodes {
            protos: NodeSlab::with_capacity(slots),
            samplers: SamplerColumn::with_capacity(cfg.sampler, slots),
            views: ViewArena::with_capacity(cfg.view_size, slots)?,
        })
    }

    /// Adds node `id` running `proto`, with a fresh sampler and an empty
    /// view in the slot it takes — a recycled slot's row is reused.
    fn insert(&mut self, id: NodeId, proto: AnyProtocol) {
        let slot = self.protos.insert(id, proto);
        self.samplers.set(slot, id);
        self.views.clear(slot);
    }

    /// Removes node `id`, emptying its row; whether it was live.
    fn remove(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.protos.slot_of(id) else {
            return false;
        };
        self.protos.remove(id);
        self.views.clear(slot);
        true
    }

    /// The sampler of the node in `slot`, bound to its row.
    fn sampler(&mut self, slot: usize) -> RowSampler<'_, AgedId> {
        self.samplers.bind(slot, self.views.row_mut(slot))
    }
}

/// The heap bytes an engine holds, column by column and buffer by buffer
/// ([`Engine::heap_bytes`]): what each buffer's capacity reserves, whether
/// or not the population fills it. Resident memory adds the allocator's
/// overhead and whatever it keeps after a buffer is freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapLedger {
    /// `(what, bytes)` per row, in a fixed order.
    pub rows: [(&'static str, usize); 12],
}

impl HeapLedger {
    /// The bytes of all rows.
    pub fn total(&self) -> usize {
        self.rows.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// The bytes of the row named `what`.
    pub fn bytes(&self, what: &str) -> Option<usize> {
        let row = self.rows.iter().find(|&&(name, _)| name == what);
        row.map(|&(_, bytes)| bytes)
    }
}

/// What every phase reads and none writes: the configuration, the protocol,
/// the network-fault state and the cycle number.
struct Cycle<'a> {
    cfg: &'a SimConfig,
    kind: ProtocolKind,
    fault: &'a NetworkFault,
    cycle: usize,
}

impl Cycle<'_> {
    /// `id`'s counter-based stream in the domain `salt` for this cycle.
    fn rng(&self, id: NodeId, salt: u64) -> NodeRng {
        NodeRng::for_node(self.cfg.seed, id.as_u64(), self.cycle as u64, salt)
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

/// Uniformly draws up to `count` distinct items of `pool` whose id differs
/// from `owner` into `out`, sorted by id — the sampling core of all three
/// callers, so they cannot drift apart: construction and the oracle refill
/// sample a slot-order snapshot of the live nodes' entries, churn joiners
/// the churn phase's `(id, attribute)` copy of the population (a joiner
/// looks up only its own picks, sparing the churn phase an entry walk over
/// the population every cycle).
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

/// Debug builds: after `phase`, every live view keeps its structural
/// invariants (no owner pointer, no duplicate, within capacity). Allocates
/// nothing unless it fails.
fn debug_assert_views(nodes: &Nodes, phase: &str) {
    if cfg!(debug_assertions) {
        for (slot, id, _) in nodes.protos.iter() {
            if let Err(e) = nodes.views.row(slot).check_invariants(Some(id)) {
                panic!("after {phase}, node {id}'s view broke an invariant: {e}");
            }
        }
    }
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
    nodes: Nodes,
    alloc: NodeIdAllocator,
    rng: StdRng,
    cycle: usize,
    /// The churn model and the population buffer it plans from.
    churn: churn::Churn,
    /// §3.2 stability tracking: believed slices across cycles, per slot.
    tracker: SliceTracker,
    /// Incrementally maintained attribute ranks / true slices (churn-fed).
    ranks: RankCache,
    /// Last fully computed `(SDM, GDM)` (repeated on cycles the metrics
    /// cadence skips).
    last_disorder: (f64, f64),
    /// The membership phase's schedule, exchange order and payload buffers.
    membership: membership::Scratch,
    /// The refresh snapshot and the active sweep's outbox.
    active: active::Scratch,
    /// The delivery queues, and the messages held across cycles.
    delivery: delivery::Queues,
    /// The SDM constants and the GDM's value order.
    metrics: metrics::Scratch,
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
            .field("population", &self.nodes.protos.len())
            .finish()
    }
}

impl Engine {
    /// Builds an engine with the given configuration and protocol, no churn.
    pub fn new(cfg: SimConfig, kind: ProtocolKind) -> Result<Self> {
        cfg.validate()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut alloc = NodeIdAllocator::default();
        let mut nodes = Nodes::with_capacity(&cfg, cfg.n)?;

        // Create the initial population, snapshotting each node's entry as
        // it is made (a fresh slab's slot order is id order), then seed
        // every view with up to `c` random other nodes from the snapshot.
        let mut pool = Vec::with_capacity(cfg.n);
        for _ in 0..cfg.n {
            let id = alloc.allocate();
            let attribute = cfg.distribution.sample(&mut rng);
            let proto = AnyProtocol::new(kind, id, attribute, &cfg.partition, &mut rng);
            pool.push(AgedId::new(id));
            nodes.insert(id, proto);
        }
        let ids = pool.iter().map(|e| e.id);
        churn::bootstrap(&mut nodes, ids, |owner, entries| {
            sample_from_pool(&mut rng, &pool, |e| e.id, owner, cfg.view_size, entries);
        });
        // `pool` lives until `new` returns, after the disorder metrics' own
        // snapshot: freed right here, it left the allocator holding memory
        // that later buffers did not reuse (+2 MiB peak RSS at 10⁵ nodes,
        // measured with 24-byte entries).

        let mut ranks = RankCache::new();
        ranks.rebuild(nodes.protos.iter().map(|(_, id, p)| (id, p.attribute())));
        let (active, delivery) = (
            active::Scratch::new(cfg.view_size)?,
            delivery::Queues::new(cfg.view_size)?,
        );

        let mut engine = Engine {
            cfg,
            kind,
            nodes,
            alloc,
            rng,
            cycle: 0,
            churn: churn::Churn::new(Box::new(NoChurn)),
            tracker: SliceTracker::new(),
            ranks,
            last_disorder: (0.0, 0.0),
            membership: Default::default(),
            active,
            delivery,
            metrics: Default::default(),
            liars: NodeIdSet::default(),
            fault: NetworkFault::default(),
            schedule_log: None,
            recorder: None,
        };
        let gdm = metrics::gdm(&engine.nodes.protos, &engine.ranks, &mut engine.metrics);
        engine.last_disorder = (engine.sdm(), gdm);
        Ok(engine)
    }

    /// Replaces the churn model (builder style).
    pub fn with_churn(mut self, churn: Box<dyn ChurnModel>) -> Self {
        self.churn.model = churn;
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

    /// Test hook for the sampling invariants (no owner, no duplicates):
    /// draws `count` entries for `owner` from the current live population.
    #[doc(hidden)]
    pub fn debug_random_entries(&mut self, owner: NodeId, count: usize) -> Vec<AgedId> {
        let pool: Vec<AgedId> = self.nodes.protos.ids().map(AgedId::new).collect();
        let mut entries = Vec::new();
        sample_from_pool(&mut self.rng, &pool, |e| e.id, owner, count, &mut entries);
        entries
    }

    /// The current cycle count (number of completed steps).
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The current population size.
    pub fn population(&self) -> usize {
        self.nodes.protos.len()
    }

    /// Number of storage slots the node columns have ever allocated, live
    /// and free. Node state — protocol slots, sampler column, view arena —
    /// is bounded by this, the *peak* population, not by the number of
    /// identities created over the run (churn reuses slots through the
    /// slab's free list), and so is the slice tracker, keyed by slot. The
    /// id-indexed columns beside it (slab index, refresh snapshot, rank
    /// cache) add about 24 bytes per identity ever issued, live or not.
    pub fn slot_count(&self) -> usize {
        self.nodes.protos.slot_count()
    }

    /// The heap bytes the engine holds, one row per column of node state
    /// and per phase buffer (see [`HeapLedger`]). It reads capacities: O(1)
    /// per row, and it allocates nothing.
    pub fn heap_bytes(&self) -> HeapLedger {
        let Nodes {
            protos,
            samplers,
            views,
        } = &self.nodes;
        let (slots, index) = protos.heap_bytes();
        let (arena, lengths) = views.heap_bytes();
        let (published, outbox) = self.active.heap_bytes();
        HeapLedger {
            rows: [
                ("protocol slots", slots),
                ("sampler column", samplers.heap_bytes()),
                ("view arena", arena),
                ("length column", lengths),
                ("id -> slot index", index),
                ("published rows", published),
                ("rank cache", self.ranks.heap_bytes()),
                ("slice tracker", self.tracker.heap_bytes()),
                ("membership scratch", self.membership.heap_bytes()),
                ("delivery queues", self.delivery.heap_bytes()),
                ("outbox and joined view", outbox),
                (
                    "churn and metrics buffers",
                    self.churn.heap_bytes() + self.metrics.heap_bytes(),
                ),
            ],
        }
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
        for (_, _, proto) in self.nodes.protos.iter_mut() {
            proto.set_partition(&self.cfg.partition);
        }
        // Believed slices under the old partitioning are not comparable to
        // the new one; restart stability tracking rather than report a
        // spurious all-nodes-changed spike.
        self.tracker = SliceTracker::new();
        // The cached disorder values refer to the old partitioning too.
        let gdm = metrics::gdm(&self.nodes.protos, &self.ranks, &mut self.metrics);
        self.last_disorder = (self.sdm(), gdm);
    }

    /// Snapshot of the live population, sorted by node id:
    /// `(id, attribute, estimate)`.
    pub fn snapshot(&self) -> Vec<(NodeId, Attribute, f64)> {
        // Sized once, not grown by doubling: at 10⁵ nodes this is the
        // largest block a caller's end-of-run check allocates.
        let mut snapshot = Vec::with_capacity(self.nodes.protos.len());
        let live = self.nodes.protos.iter();
        snapshot.extend(live.map(|(_, id, p)| (id, p.attribute(), p.estimate())));
        snapshot.sort_unstable_by_key(|&(id, _, _)| id);
        snapshot
    }

    /// The slice disorder measure of the current population — O(n) via the
    /// churn-maintained rank cache.
    pub fn sdm(&self) -> f64 {
        self.ranks.sdm(
            &self.cfg.partition,
            self.nodes
                .protos
                .iter()
                .map(|(_, id, p)| (id, p.estimate())),
        )
    }

    /// The global disorder measure of the current population: `α` from the
    /// churn-maintained rank cache, one ordering of the random values for
    /// `ρ`.
    pub fn gdm(&self) -> f64 {
        metrics::gdm(&self.nodes.protos, &self.ranks, &mut Default::default())
    }

    /// Fraction of nodes whose believed slice equals their true slice —
    /// O(n) via the churn-maintained rank cache.
    pub fn accuracy(&self) -> f64 {
        self.ranks.accuracy(
            &self.cfg.partition,
            self.nodes
                .protos
                .iter()
                .map(|(_, id, p)| (id, p.estimate())),
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
            .protos
            .iter()
            .map(|(_, id, p)| (id, p.attribute().value()))
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
            .protos
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
            let Some((slot, proto)) = self.nodes.protos.take(id) else {
                continue;
            };
            self.nodes.protos.put_back(slot, id, wrap(proto));
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
            .protos
            .iter()
            .map(|(_, _, p)| p.attribute().value())
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

    /// Number of live lying nodes.
    pub fn liar_count(&self) -> usize {
        self.liars.len()
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
                .protos
                .iter()
                .filter(|(_, id, _)| !self.liars.contains(id))
                .map(|(_, id, p)| (id, p.estimate())),
        )
    }

    /// Population of each slice according to the nodes' *current beliefs*
    /// (index = slice index). Sums to the population size.
    pub fn slice_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cfg.partition.len()];
        for (_, _, proto) in self.nodes.protos.iter() {
            counts[self.cfg.partition.slice_of(proto.estimate()).as_usize()] += 1;
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

    /// Executes one full cycle — the phases of the module docs, in order —
    /// and returns its statistics.
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
        let recorder = self.recorder.as_ref().filter(|_| trace_cycle);
        let cycle_start_ns = recorder.map_or(0, FlightRecorder::now_ns);
        let mut timer = PhaseTimer::new(self.cfg.time_phases || trace_cycle);
        let cx = Cycle {
            cfg: &self.cfg,
            kind: self.kind,
            fault: &self.fault,
            cycle: self.cycle,
        };

        let (left, joined) = churn::run(
            &cx,
            &mut self.churn,
            &mut self.nodes,
            &mut self.alloc,
            &mut self.liars,
            &mut self.ranks,
            &mut self.rng,
        );
        debug_assert_views(&self.nodes, "churn");
        timer.lap(&mut timings.churn_ns);

        let mut counters = EventCounters::default();
        let mut dropped = 0u64;
        // Delivery's borrows span the cycle's message path; the phases in
        // between borrow the node columns and the tallies through it.
        let mut wire = Delivery {
            cx: &cx,
            nodes: &mut self.nodes,
            rng: &mut self.rng,
            q: &mut self.delivery,
            counters: &mut counters,
            dropped: &mut dropped,
        };
        wire.drain_due();
        timer.lap(&mut timings.drain_ns);

        let log = self.schedule_log.as_mut();
        membership::run(&cx, wire.nodes, &mut self.membership, log, wire.dropped);
        debug_assert_views(wire.nodes, "membership");
        timer.lap(&mut timings.membership_ns);

        let rows = self.alloc.issued() as usize;
        active::refresh(&wire.nodes.protos, rows, &mut self.active);
        timer.lap(&mut timings.refresh_ns);

        active::run(&cx, wire.nodes, &mut self.active, wire.counters);
        timer.lap(&mut timings.active_ns);

        wire.run(&self.active.outbox);
        timer.lap(&mut timings.delivery_ns);

        let (sdm, gdm, slice_changes) = metrics::run(
            &cx,
            &self.nodes.protos,
            &self.liars,
            &self.ranks,
            &mut self.tracker,
            &mut self.metrics,
            &mut self.last_disorder,
        );
        timer.lap(&mut timings.metrics_ns);

        if let Some(rec) = self.recorder.as_mut().filter(|_| trace_cycle) {
            let cycle = self.cycle as u64;
            let mut ts = cycle_start_ns;
            for (kind, (_, dur)) in PHASE_SPANS.into_iter().zip(timings.rows()) {
                rec.span(kind, cycle, ts, dur);
                ts += dur;
            }
            let c = &counters;
            let instants = [
                (TraceKind::CycleChurn, joined as u64, left as u64),
                (TraceKind::CycleSwaps, c.swaps_applied, c.swaps_useless),
                (
                    TraceKind::CycleDefense,
                    c.samples_rejected,
                    c.swaps_abandoned,
                ),
            ];
            for (kind, a, b) in instants.into_iter().filter(|&(_, a, b)| a + b > 0) {
                rec.instant(kind, cycle, None, a, b);
            }
        }

        CycleStats {
            cycle: self.cycle,
            n: self.nodes.protos.len(),
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

    /// Per-node view snapshots, sorted by node id: which neighbors each
    /// live node currently sees. Tests read it to check that views hold no
    /// departed or aliased nodes.
    pub fn view_snapshot(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let Nodes { protos, views, .. } = &self.nodes;
        let mut snapshot: Vec<(NodeId, Vec<NodeId>)> = protos
            .iter()
            .map(|(slot, id, _)| (id, views.row(slot).ids().collect()))
            .collect();
        snapshot.sort_unstable_by_key(|&(id, _)| id);
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnSchedule, CorrelatedChurn, UncorrelatedChurn};
    use crate::concurrency::Concurrency;
    use crate::distributions::AttributeDistribution;
    use dslice_core::digest::fnv1a64;
    use dslice_gossip::SamplerKind;
    use std::mem::size_of;

    pub(super) fn small_cfg(n: usize, slices: usize, seed: u64) -> SimConfig {
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
    pub(super) fn run_hash(record: &RunRecord, extra: &[f64]) -> u64 {
        let bytes = record.to_json().into_bytes().into_iter();
        fnv1a64(bytes.chain(extra.iter().flat_map(|x| x.to_bits().to_le_bytes())))
    }

    #[test]
    fn construction_populates_and_bootstraps() {
        let engine = Engine::new(small_cfg(64, 4, 1), ProtocolKind::ModJk).unwrap();
        assert_eq!(engine.population(), 64);
        assert_eq!(engine.cycle(), 0);
        // Every node has a non-empty, invariant-respecting view.
        for (slot, id, _) in engine.nodes.protos.iter() {
            let view = engine.nodes.views.row(slot);
            assert!(!view.is_empty(), "node {id} has no neighbors");
            view.check_invariants(Some(id)).unwrap();
        }
    }

    /// FNV-1a-64 of every live view in slot order: the owner's id, then
    /// each entry's id, age, and the bits of the neighbor's attribute and
    /// current published value, read from the live node.
    fn views_hash(engine: &Engine) -> u64 {
        let Nodes { protos, views, .. } = &engine.nodes;
        fnv1a64(protos.iter().flat_map(|(slot, id, _)| {
            let row = views.entries(slot).iter();
            let entries = row.flat_map(|e| {
                let neighbor = protos.get(e.id).expect("views hold live ids");
                let words = [
                    e.id.as_u64(),
                    u64::from(e.age),
                    neighbor.attribute().value().to_bits(),
                    neighbor.published_value().to_bits(),
                ];
                words.into_iter().flat_map(u64::to_le_bytes)
            });
            id.as_u64().to_le_bytes().into_iter().chain(entries)
        }))
    }

    /// FNV-1a-64 of what membership alone decides: every live view in slot
    /// order, the owner's id, then each entry's id and age.
    fn membership_hash(engine: &Engine) -> u64 {
        let Nodes { protos, views, .. } = &engine.nodes;
        fnv1a64(protos.iter().flat_map(|(slot, id, _)| {
            let entries = views.entries(slot).iter().flat_map(|e| {
                let words = [e.id.as_u64(), u64::from(e.age)];
                words.into_iter().flat_map(u64::to_le_bytes)
            });
            id.as_u64().to_le_bytes().into_iter().chain(entries)
        }))
    }

    fn construction_cfg(sampler: SamplerKind) -> SimConfig {
        SimConfig {
            view_size: 20,
            sampler,
            ..small_cfg(5_000, 10, 38)
        }
    }

    #[test]
    fn constructed_views_are_pinned() {
        // Bootstrap merges the same draws into every substrate, and both
        // protocols publish their initial random value, so one pin holds
        // the whole grid.
        for sampler in [
            SamplerKind::Cyclon,
            SamplerKind::Newscast,
            SamplerKind::Lpbcast,
            SamplerKind::UniformOracle,
        ] {
            for kind in [ProtocolKind::Ranking, ProtocolKind::ModJk] {
                let engine = Engine::new(construction_cfg(sampler), kind).unwrap();
                let hash = views_hash(&engine);
                assert_eq!(
                    hash,
                    0x563c_5ae9_89f2_56b5,
                    "{sampler:?} × {}: constructed views changed (got {hash:#018x})",
                    kind.label()
                );
                let ids = membership_hash(&engine);
                assert_eq!(
                    ids,
                    0x612f_d47e_02a2_5fd9,
                    "{sampler:?} × {}: constructed ids or ages changed (got {ids:#018x})",
                    kind.label()
                );
            }
        }
    }

    /// Membership after a churned cycle, joiners' bootstrap included. The
    /// pin covers ids and ages alone: the attribute and value of an entry
    /// are joined in from the live nodes when a protocol reads a view.
    #[test]
    fn joiner_views_are_pinned() {
        let pins = [
            (
                SamplerKind::Cyclon,
                ProtocolKind::Ranking,
                0x92bc_efd2_32b9_23c6,
            ),
            (
                SamplerKind::UniformOracle,
                ProtocolKind::ModJk,
                0xbe09_7da3_b28d_57e9,
            ),
            (
                SamplerKind::Newscast,
                ProtocolKind::ModJk,
                0x70d8_7468_b6ef_c3f5,
            ),
            (
                SamplerKind::Lpbcast,
                ProtocolKind::Ranking,
                0x279f_20c2_4489_6bd0,
            ),
        ];
        for (sampler, kind, pin) in pins {
            let schedule = ChurnSchedule {
                rate: 0.02,
                period: 1,
                stop_after: None,
            };
            let churn = UncorrelatedChurn::new(schedule, AttributeDistribution::default());
            let mut engine = Engine::new(construction_cfg(sampler), kind)
                .unwrap()
                .with_churn(Box::new(churn));
            let stats = engine.step();
            assert!(stats.joined >= 50 && stats.left > 0, "the cycle churned");
            let ids = membership_hash(&engine);
            assert_eq!(
                ids,
                pin,
                "{sampler:?} × {}: ids or ages after the join changed (got {ids:#018x})",
                kind.label()
            );
        }
    }

    #[test]
    fn per_node_and_per_message_records_stay_small() {
        // A protocol slot: the protocol (64) inline beside its id.
        assert_eq!(size_of::<Option<(NodeId, AnyProtocol)>>(), 72);
        // A sampler-column cell: the owner (an Lpbcast run adds its state).
        assert_eq!(size_of::<NodeId>(), 4);
        // An arena entry is an id and an age.
        assert_eq!(size_of::<AgedId>(), 8);
        assert_eq!(size_of::<Envelope>(), 32);
        assert_eq!(size_of::<membership::ScheduledExchange>(), 16);
    }

    #[test]
    fn heap_ledgers_repeat_and_the_arena_is_one_row_per_slot() {
        let run = || {
            let schedule = ChurnSchedule {
                rate: 0.02,
                period: 1,
                stop_after: None,
            };
            let churn = UncorrelatedChurn::new(schedule, AttributeDistribution::default());
            let mut engine = Engine::new(small_cfg(2_000, 8, 17), ProtocolKind::ModJk)
                .unwrap()
                .with_churn(Box::new(churn));
            let built = engine.heap_bytes();
            engine.run(5);
            (built, engine.heap_bytes(), engine.slot_count())
        };
        let (built, ran, slots) = run();
        assert_eq!(
            run(),
            (built, ran, slots),
            "same config and seed, same ledgers"
        );
        // Sized once for the initial population; a churned population at
        // the same size takes recycled slots and their rows.
        let row = 8 * size_of::<AgedId>();
        assert_eq!(slots, 2_000);
        assert_eq!(built.bytes("view arena"), Some(2_000 * row));
        assert_eq!(ran.bytes("view arena"), Some(slots * row));
        assert_eq!(ran.bytes("length column"), Some(slots));
        assert_eq!(
            ran.bytes("sampler column"),
            Some(slots * size_of::<NodeId>())
        );
        assert_eq!(
            ran.total(),
            ran.rows.iter().map(|&(_, bytes)| bytes).sum::<usize>()
        );
        assert!(ran.bytes("no such column").is_none());
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
    fn views_too_wide_for_a_length_byte_are_rejected() {
        let mut cfg = small_cfg(16, 4, 1);
        cfg.view_size = 256;
        let err = Engine::new(cfg.clone(), ProtocolKind::Ranking).unwrap_err();
        assert!(matches!(err, dslice_core::Error::ViewCapacityTooLarge(256)));
        cfg.view_size = 255;
        assert!(Engine::new(cfg, ProtocolKind::Ranking).is_ok());
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
        for (slot, id, _) in engine.nodes.protos.iter() {
            for e in engine.nodes.views.row(slot).iter() {
                assert!(engine.nodes.protos.contains(e.id) || id == e.id);
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
        let before: Vec<(usize, NodeId)> = engine
            .nodes
            .protos
            .iter()
            .map(|(s, id, _)| (s, id))
            .collect();
        let stats = engine.step();
        assert!(stats.left > 0 && stats.joined > 0, "the cycle churned");
        // Departed ids whose slots a joiner (with a fresh id) took over.
        let reused: Vec<(NodeId, NodeId)> = before
            .iter()
            .filter(|&&(_, old)| !engine.nodes.protos.contains(old))
            .filter_map(|&(slot, old)| Some((old, engine.nodes.protos.id_at(slot)?)))
            .collect();
        assert!(!reused.is_empty(), "the free list recycled a slot");
        let published = &engine.active.published;
        for (old, new) in reused {
            assert_ne!(old, new);
            assert_eq!(published.get(old), None, "{old} departed");
            assert!(published.get(new).is_some(), "{new} is live");
        }
        let live: u32 = published.live.iter().map(|word| word.count_ones()).sum();
        assert_eq!(live as usize, engine.population(), "one bit per live node");
        for (_, id, _) in engine.nodes.protos.iter() {
            assert!(published.get(id).is_some(), "{id} is live");
        }
        // Ids the column has no row for read as absent, not as a panic.
        assert_eq!(published.get(NodeId::new(engine.alloc.issued())), None);
        let far = NodeId::new(u64::from(u32::MAX) - 1);
        assert_eq!(published.get(far), None);
    }

    #[test]
    fn uniform_oracle_refills_views_each_cycle() {
        let mut cfg = small_cfg(64, 4, 9);
        cfg.sampler = SamplerKind::UniformOracle;
        let mut engine = Engine::new(cfg, ProtocolKind::Ranking).unwrap();
        engine.step();
        for (slot, id, _) in engine.nodes.protos.iter() {
            let view = engine.nodes.views.row(slot);
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
            !engine.delivery.in_flight.is_empty(),
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
        let views = engine.view_snapshot();
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
            .filter(|(_, (id, _))| engine.liars.contains(&NodeId::new(*id)))
            .map(|(pos, _)| dist(pos))
            .fold(0.0f64, f64::max);
        let best_honest = by_attr
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| !engine.liars.contains(&NodeId::new(*id)))
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
            .filter(|&id| engine.liars.contains(&NodeId::new(id)))
            .collect();
        let liars_b: Vec<u64> = again
            .snapshot()
            .iter()
            .map(|&(id, _, _)| id.as_u64())
            .filter(|&id| again.liars.contains(&NodeId::new(id)))
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
        assert!(engine.fault.is_quiet());
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
            assert!(engine.fault.partition().is_some());
        }
        let healed_cycle = engine.step();
        assert!(engine.fault.partition().is_none());
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
            !engine.delivery.in_flight.is_empty(),
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
        assert!(
            engine
                .liars
                .iter()
                .all(|id| engine.nodes.protos.contains(*id)),
            "liar set must only track live nodes"
        );
    }
}
