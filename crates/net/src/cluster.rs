//! A supervised localhost cluster harness.
//!
//! [`LocalCluster`] spins up `n` [`NodeRuntime`] instances on loopback,
//! seeds every view with random bootstrap neighbors (the out-of-band
//! introduction every deployed gossip system needs), lets the protocols run
//! in real time, and harvests the slice assignments into a
//! [`ClusterReport`] whose SDM is directly comparable with the simulator's.
//!
//! Unlike a plain join-at-the-end harness, the cluster *supervises* its
//! nodes: [`run_for`](LocalCluster::run_for) replays the configured
//! [`ChaosPlan`] (crashes, restarts, refusal/stall windows), reaps every
//! task exit into a structured [`NodeExitRecord`] — a panicking node never
//! takes the harness down — and restarts crashed nodes under the
//! [`RestartPolicy`] with capped backoff. Exit records and per-node
//! retry/timeout/eviction counters are folded into the report so
//! degradation under faults is observable, not silent.

use crate::chaos::{ChaosAction, ChaosEvent, ChaosPlan};
use crate::codec::{write_frame, WireMsg};
use crate::node::{
    AcceptGate, Directory, NodeConfig, NodeExit, NodeHandle, NodeRuntime, NodeSnapshot,
};
use crate::retry::RetryPolicy;
use crate::supervisor::{NodeExitKind, NodeExitRecord, RestartPolicy};
use dslice_algorithms::ProtocolKind;
use dslice_core::{metrics, rank, Attribute, NodeId, Partition, ProtocolMsg, ViewEntry};
use dslice_gossip::SamplerKind;
use dslice_obs::{labeled, FlightRecorder, Registry, TraceConfig, TraceKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::TcpStream;
use tokio::sync::Mutex;

/// Configuration of a local cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Attribute values, one per node (`n` = length).
    pub attributes: Vec<Attribute>,
    /// The global slice partition.
    pub partition: Partition,
    /// Which protocol every node runs.
    pub protocol: ProtocolKind,
    /// Peer-sampling substrate.
    pub sampler: SamplerKind,
    /// Wire-level fault injection applied at every node.
    pub faults: crate::node::FaultPlan,
    /// View size `c`.
    pub view_size: usize,
    /// Gossip period.
    pub period: Duration,
    /// How many random bootstrap neighbors each node is introduced to.
    pub bootstrap_degree: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Outbound timeout/retry policy; `None` derives one from `period`
    /// via [`RetryPolicy::for_period`].
    pub retry: Option<RetryPolicy>,
    /// Process-level fault schedule replayed during
    /// [`run_for`](LocalCluster::run_for).
    pub chaos: ChaosPlan,
    /// When the supervisor restarts crashed nodes.
    pub restart: RestartPolicy,
    /// Fault-injection hook: the node at this index panics after completing
    /// this many ticks (initial spawn only; a supervised restart clears it).
    pub die_after_ticks: Option<(usize, u64)>,
}

impl ClusterConfig {
    /// A sensible small-cluster default around the given attributes.
    pub fn new(attributes: Vec<Attribute>, partition: Partition, protocol: ProtocolKind) -> Self {
        ClusterConfig {
            attributes,
            partition,
            protocol,
            sampler: SamplerKind::Cyclon,
            faults: crate::node::FaultPlan::none(),
            view_size: 8,
            period: Duration::from_millis(20),
            bootstrap_degree: 4,
            seed: 0xD51CE,
            retry: None,
            chaos: ChaosPlan::new(),
            restart: RestartPolicy::default(),
            die_after_ticks: None,
        }
    }

    /// The configuration of one node of this cluster.
    fn node_config(
        &self,
        id: NodeId,
        attribute: Attribute,
        seed: u64,
        retry: RetryPolicy,
    ) -> NodeConfig {
        NodeConfig {
            id,
            attribute,
            partition: self.partition.clone(),
            protocol: self.protocol,
            sampler: self.sampler,
            view_size: self.view_size,
            period: self.period,
            seed,
            faults: self.faults,
            retry,
            die_after_ticks: None,
        }
    }
}

/// Aggregate fault-handling counters for a run: network counters summed
/// over the nodes alive at shutdown, plus supervision counts from the exit
/// records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTotals {
    /// Delivery retries across surviving nodes.
    pub retries: u64,
    /// Connect/write timeouts across surviving nodes.
    pub timeouts: u64,
    /// Messages undelivered after all attempts.
    pub send_failures: u64,
    /// Dead-peer evictions performed.
    pub evictions: u64,
    /// Messages dropped by wire-level fault injection.
    pub dropped: u64,
    /// Messages shed because a link queue was full.
    pub queue_drops: u64,
    /// Node tasks that panicked.
    pub crashes: u64,
    /// Node tasks killed by the chaos plan.
    pub chaos_kills: u64,
    /// Restarts performed (by policy or by plan).
    pub restarts: u64,
    /// Deepest outbound link queue observed by any node (max-folded, not
    /// summed: it is a high-water mark, not a volume).
    pub peak_queue_depth: u64,
}

impl ClusterTotals {
    /// Sums the network counters of `snapshots` (max-folding their queue
    /// high-water marks) and counts the crashes, chaos kills and restarts
    /// recorded in `exits`.
    pub fn fold(snapshots: &[NodeSnapshot], exits: &[NodeExitRecord]) -> ClusterTotals {
        let mut totals = ClusterTotals::default();
        for s in snapshots {
            totals.retries += s.retries;
            totals.timeouts += s.timeouts;
            totals.send_failures += s.send_failures;
            totals.evictions += s.evictions;
            totals.dropped += s.dropped;
            totals.queue_drops += s.queue_drops;
            totals.peak_queue_depth = totals.peak_queue_depth.max(s.peak_queue_depth);
        }
        for record in exits {
            match record.kind {
                NodeExitKind::Crashed { .. } => totals.crashes += 1,
                NodeExitKind::KilledByChaos => totals.chaos_kills += 1,
                NodeExitKind::Clean => {}
            }
            totals.restarts += u64::from(record.restarted);
        }
        totals
    }
}

/// Reads one counter off a node snapshot.
type Reader = fn(&NodeSnapshot) -> u64;

/// The per-node counters: each one's `dslice_net_*_total` aggregate over
/// the live nodes, the aggregate's help, how to read it off a snapshot, and
/// the trace kind its per-node deltas are recorded under (if any).
const NODE_COUNTERS: [(&str, &str, Reader, Option<TraceKind>); 7] = [
    (
        "dslice_net_retries_total",
        "Delivery retries across live nodes.",
        |s| s.retries,
        Some(TraceKind::NetRetry),
    ),
    (
        "dslice_net_timeouts_total",
        "Connect/write timeouts across live nodes.",
        |s| s.timeouts,
        Some(TraceKind::NetTimeout),
    ),
    (
        "dslice_net_send_failures_total",
        "Messages undelivered after all attempts.",
        |s| s.send_failures,
        Some(TraceKind::NetSendFailure),
    ),
    (
        "dslice_net_evictions_total",
        "Dead-peer evictions performed.",
        |s| s.evictions,
        Some(TraceKind::NetEviction),
    ),
    (
        "dslice_net_queue_drops_total",
        "Messages shed because a link queue was full.",
        |s| s.queue_drops,
        Some(TraceKind::NetQueueDrop),
    ),
    (
        "dslice_net_fault_dropped_total",
        "Messages dropped by wire-level fault injection.",
        |s| s.dropped,
        None,
    ),
    (
        "dslice_net_ticks_total",
        "Gossip ticks across live nodes.",
        |s| s.ticks,
        None,
    ),
];

/// The harvested outcome of a cluster run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Final state of every node alive at shutdown.
    pub nodes: Vec<NodeSnapshot>,
    /// The partition the run used.
    pub partition: Partition,
    /// Every reaped exit, in reap order.
    pub exits: Vec<NodeExitRecord>,
    /// Aggregate fault-handling counters.
    pub totals: ClusterTotals,
}

impl ClusterReport {
    /// The slice disorder measure over the final estimates.
    pub fn sdm(&self) -> f64 {
        sdm_of(&self.partition, &self.nodes)
    }

    /// Fraction of nodes whose believed slice equals their true slice.
    pub fn accuracy(&self) -> f64 {
        if self.nodes.is_empty() {
            return 1.0;
        }
        let truth = rank::true_slices(
            self.nodes.iter().map(|s| (s.id, s.attribute)),
            &self.partition,
        );
        let correct = self
            .nodes
            .iter()
            .filter(|s| self.partition.slice_of(s.estimate) == truth[&s.id])
            .count();
        correct as f64 / self.nodes.len() as f64
    }

    /// Per-node assignment: `(id, attribute, estimate, believed slice)`.
    pub fn assignments(&self) -> Vec<(NodeId, Attribute, f64, usize)> {
        self.nodes
            .iter()
            .map(|s| {
                (
                    s.id,
                    s.attribute,
                    s.estimate,
                    self.partition.slice_of(s.estimate).as_usize(),
                )
            })
            .collect()
    }
}

/// The slice disorder measure of `nodes`' estimates.
fn sdm_of(partition: &Partition, nodes: &[NodeSnapshot]) -> f64 {
    let population: Vec<(NodeId, Attribute, f64)> = nodes
        .iter()
        .map(|s| (s.id, s.attribute, s.estimate))
        .collect();
    metrics::sdm(partition, &population)
}

/// Where a supervised node slot currently stands.
#[derive(Debug)]
enum SlotState {
    /// Alive, handle attached.
    Running(NodeHandle),
    /// Crashed; the supervisor restarts it at `due`.
    Backoff {
        /// When the restart fires.
        due: Instant,
    },
    /// Dead with no scheduled restart (chaos kill, exhausted restarts, or
    /// a mid-run clean exit). A scripted `Restart` event can revive it.
    Down,
    /// Permanently departed ([`LocalCluster::kill_node`]); never revived.
    Retired,
}

/// One supervised node: identity, lifecycle state, restart bookkeeping.
#[derive(Debug)]
struct Slot {
    id: NodeId,
    attribute: Attribute,
    state: SlotState,
    /// Restarts performed so far (policy and scripted).
    restarts: u32,
    /// Spawn generation, folded into the respawn seed so a restarted node
    /// does not replay its previous random choices.
    generation: u64,
    /// When a refusal/stall window ends and the gate reopens.
    gate_restore: Option<Instant>,
    /// Last snapshot observed when the node was reaped.
    last: NodeSnapshot,
}

/// A live metrics stream: the scraped registry is appended to `path` as one
/// JSON object per line, every `every`.
#[derive(Debug)]
struct MetricsStream {
    path: std::path::PathBuf,
    every: Duration,
    due: Instant,
}

/// A running, supervised local cluster.
#[derive(Debug)]
pub struct LocalCluster {
    cfg: ClusterConfig,
    retry: RetryPolicy,
    slots: Vec<Slot>,
    directory: Directory,
    /// Next identity for [`join_node`](Self::join_node); never reused.
    next_id: u64,
    exits: Vec<NodeExitRecord>,
    /// Chaos schedule (sorted) and how much of it has fired.
    schedule: Vec<ChaosEvent>,
    fired: usize,
    started: Instant,
    /// Flight recorder for supervision-level events (chaos, exits, fault
    /// counter deltas). Strictly observational.
    recorder: Option<FlightRecorder>,
    /// Last counters seen per node, in [`NODE_COUNTERS`] order, so the
    /// recorder logs deltas instead of repeating totals.
    trace_seen: HashMap<NodeId, [u64; NODE_COUNTERS.len()]>,
    /// Live metrics streaming, serviced by [`run_for`](Self::run_for).
    stream: Option<MetricsStream>,
}

impl LocalCluster {
    /// Spawns the cluster and performs the bootstrap introductions.
    ///
    /// An empty attribute list or a zero view size fails with
    /// [`io::ErrorKind::InvalidInput`], as does any invalid fault, chaos,
    /// restart or retry plan.
    pub async fn spawn(cfg: ClusterConfig) -> io::Result<LocalCluster> {
        let invalid = |what: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        if cfg.attributes.is_empty() {
            return invalid("cluster needs at least one node");
        }
        if cfg.view_size == 0 {
            return invalid("view size must be at least 1");
        }
        cfg.faults.validate()?;
        cfg.chaos.validate()?;
        cfg.restart.validate()?;
        let retry = cfg
            .retry
            .unwrap_or_else(|| RetryPolicy::for_period(cfg.period));
        retry.validate()?;

        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let mut slots = Vec::with_capacity(cfg.attributes.len());

        for (i, &attribute) in cfg.attributes.iter().enumerate() {
            let id = NodeId::new(i as u64);
            let node_cfg = NodeConfig {
                die_after_ticks: cfg
                    .die_after_ticks
                    .and_then(|(idx, ticks)| (idx == i).then_some(ticks)),
                ..cfg.node_config(id, attribute, cfg.seed.wrapping_add(i as u64), retry)
            };
            let handle = NodeRuntime::spawn(node_cfg, directory.clone()).await?;
            let last = handle.snapshot();
            slots.push(Slot {
                id: handle.id,
                attribute,
                state: SlotState::Running(handle),
                restarts: 0,
                generation: 0,
                gate_restore: None,
                last,
            });
        }

        let schedule = cfg.chaos.schedule();
        let cluster = LocalCluster {
            next_id: cfg.attributes.len() as u64,
            retry,
            slots,
            directory,
            exits: Vec::new(),
            schedule,
            fired: 0,
            started: Instant::now(),
            recorder: None,
            trace_seen: HashMap::new(),
            stream: None,
            cfg,
        };
        cluster.bootstrap().await;
        Ok(cluster)
    }

    /// Introduces every node to `bootstrap_degree` random peers by sending
    /// it a `ViewAck` carrying their descriptors (the discovery handshake).
    async fn bootstrap(&self) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xB007);
        let n = self.slots.len();
        let addresses: HashMap<NodeId, SocketAddr> = self.directory.lock().await.clone();

        for (i, slot) in self.slots.iter().enumerate() {
            let SlotState::Running(handle) = &slot.state else {
                continue;
            };
            let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            others.shuffle(&mut rng);
            let entries: Vec<ViewEntry> = others
                .into_iter()
                .take(self.cfg.bootstrap_degree)
                .map(|j| {
                    ViewEntry::new(
                        self.slots[j].id,
                        self.cfg.attributes[j],
                        rng.gen_range(0.0..1.0f64).max(f64::MIN_POSITIVE),
                    )
                })
                .collect();
            if entries.is_empty() {
                continue;
            }
            let intro = WireMsg {
                // The introduction comes "from" the first bootstrap peer so
                // the receiver can reply to a real node.
                reply_to: addresses[&entries[0].id].to_string(),
                msg: ProtocolMsg::ViewAck {
                    from: entries[0].id,
                    entries,
                },
            };
            if let Ok(mut stream) = TcpStream::connect(handle.addr).await {
                let _ = write_frame(&mut stream, &intro).await;
            }
        }
    }

    /// Number of currently live nodes.
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Running(_)))
            .count()
    }

    /// Whether no node is currently live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live snapshots of the currently running nodes.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.slots
            .iter()
            .filter_map(|s| match &s.state {
                SlotState::Running(h) => Some(h.snapshot()),
                _ => None,
            })
            .collect()
    }

    /// The SDM of the current live snapshots.
    pub fn live_sdm(&self) -> f64 {
        sdm_of(&self.cfg.partition, &self.snapshots())
    }

    /// Exit records reaped so far.
    pub fn exits(&self) -> &[NodeExitRecord] {
        &self.exits
    }

    /// Attaches a flight recorder: chaos actions, reaped exits and per-node
    /// fault-counter deltas are recorded as instants (the event `cycle` is
    /// the cluster's elapsed-ms clock). Strictly observational — attaching
    /// a recorder never changes what the cluster does.
    pub fn set_tracer(&mut self, cfg: TraceConfig) {
        self.recorder = cfg.enabled.then(|| FlightRecorder::new(cfg));
    }

    /// Detaches and returns the flight recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// Streams live metrics while [`run_for`](Self::run_for) runs: the
    /// scraped registry is appended to `path` as one compact JSON object
    /// per line, every `every`.
    pub fn stream_metrics(&mut self, path: impl Into<std::path::PathBuf>, every: Duration) {
        self.stream = Some(MetricsStream {
            path: path.into(),
            every,
            due: Instant::now(),
        });
    }

    /// Scrapes the live cluster into a metrics [`Registry`] under the
    /// `dslice_net_*` namespace: per-node labeled gauges plus aggregate
    /// counters folded over the live snapshots and exit records.
    pub fn scrape(&self) -> Registry {
        let mut reg = Registry::new();
        let snapshots = self.snapshots();
        let totals = ClusterTotals::fold(&snapshots, &self.exits);
        reg.gauge_set(
            "dslice_net_nodes_live",
            "Nodes currently running.",
            snapshots.len() as f64,
        );
        reg.gauge_set(
            "dslice_net_uptime_ms",
            "Cluster wall-clock uptime in milliseconds.",
            self.elapsed_ms() as f64,
        );
        reg.gauge_set(
            "dslice_net_sdm",
            "Slice disorder measure over the live estimates.",
            self.live_sdm(),
        );
        for s in &snapshots {
            let node = s.id.as_u64();
            reg.gauge_set(
                &labeled("dslice_net_node_estimate", "node", node),
                "Current rank estimate.",
                s.estimate,
            );
            reg.gauge_set(
                &labeled("dslice_net_node_ticks", "node", node),
                "Gossip ticks executed.",
                s.ticks as f64,
            );
            reg.gauge_set(
                &labeled("dslice_net_node_uptime_ms", "node", node),
                "Wall-clock ms since this node instance started.",
                s.uptime_ms as f64,
            );
            reg.gauge_set(
                &labeled("dslice_net_node_peak_queue_depth", "node", node),
                "Deepest outbound link queue this node has seen.",
                s.peak_queue_depth as f64,
            );
        }
        for (metric, help, read, _) in &NODE_COUNTERS {
            reg.counter_add(metric, help, snapshots.iter().map(read).sum());
        }
        reg.gauge_set(
            "dslice_net_peak_queue_depth",
            "Deepest outbound link queue across live nodes.",
            totals.peak_queue_depth as f64,
        );
        reg.counter_add(
            "dslice_net_crashes_total",
            "Node tasks that panicked.",
            totals.crashes,
        );
        reg.counter_add(
            "dslice_net_chaos_kills_total",
            "Node tasks killed by the chaos plan.",
            totals.chaos_kills,
        );
        reg.counter_add(
            "dslice_net_restarts_total",
            "Supervised restarts performed.",
            totals.restarts,
        );
        reg
    }

    /// Records the counter deltas of one live snapshot as instants.
    fn trace_counters(&mut self, snap: &NodeSnapshot) {
        let at_ms = self.elapsed_ms();
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let seen = self.trace_seen.entry(snap.id).or_default();
        for ((_, _, read, kind), prev) in NODE_COUNTERS.iter().zip(seen.iter_mut()) {
            let Some(kind) = kind else { continue };
            let cur = read(snap);
            if cur > *prev {
                rec.instant(*kind, at_ms, Some(snap.id.as_u64()), cur - *prev, 0);
            }
            *prev = cur;
        }
    }

    /// Records one reaped exit, and traces it as an instant (`a`: 0 clean,
    /// 1 crashed, 2 killed).
    fn record_exit(&mut self, id: NodeId, kind: NodeExitKind) {
        let at_ms = self.elapsed_ms();
        let code = match kind {
            NodeExitKind::Clean => 0,
            NodeExitKind::Crashed { .. } => 1,
            NodeExitKind::KilledByChaos => 2,
        };
        if let Some(rec) = self.recorder.as_mut() {
            rec.instant(TraceKind::NetExit, at_ms, Some(id.as_u64()), code, 0);
        }
        self.exits.push(NodeExitRecord {
            id,
            kind,
            at_ms,
            restarted: false,
        });
    }

    fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn exit_kind(exit: &NodeExit) -> NodeExitKind {
        match exit {
            NodeExit::Clean(_) => NodeExitKind::Clean,
            NodeExit::Crashed { reason, .. } => NodeExitKind::Crashed {
                reason: reason.clone(),
            },
            NodeExit::Killed { .. } => NodeExitKind::KilledByChaos,
        }
    }

    /// Marks the most recent exit record of `id` as leading to a restart.
    fn mark_restarted(&mut self, id: NodeId) {
        if let Some(record) = self.exits.iter_mut().rev().find(|r| r.id == id) {
            record.restarted = true;
        }
    }

    /// Respawns the node in `idx` with the same id and attribute, a fresh
    /// empty view, and a generation-decorrelated seed, then re-introduces
    /// it to live peers.
    async fn respawn_slot(&mut self, idx: usize) -> io::Result<()> {
        self.slots[idx].generation += 1;
        let slot = &self.slots[idx];
        let seed = self
            .cfg
            .seed
            .wrapping_add(slot.id.as_u64())
            .wrapping_add(slot.generation.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let node_cfg = self
            .cfg
            .node_config(slot.id, slot.attribute, seed, self.retry);
        let handle = NodeRuntime::spawn(node_cfg, self.directory.clone()).await?;
        self.introduce(&handle, seed).await;
        self.slots[idx].state = SlotState::Running(handle);
        self.slots[idx].gate_restore = None;
        Ok(())
    }

    /// Introduces `handle` to up to `bootstrap_degree` random live peers.
    async fn introduce(&self, handle: &NodeHandle, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB007);
        let mut peers: Vec<(NodeId, Attribute, SocketAddr)> = {
            let dir = self.directory.lock().await;
            self.slots
                .iter()
                .filter(|s| s.id != handle.id && matches!(s.state, SlotState::Running(_)))
                .filter_map(|s| dir.get(&s.id).map(|addr| (s.id, s.attribute, *addr)))
                .collect()
        };
        peers.shuffle(&mut rng);
        peers.truncate(self.cfg.bootstrap_degree);
        let Some(first) = peers.first() else { return };
        let entries: Vec<ViewEntry> = peers
            .iter()
            .map(|(pid, pattr, _)| ViewEntry::new(*pid, *pattr, 0.5))
            .collect();
        let intro = WireMsg {
            reply_to: first.2.to_string(),
            msg: ProtocolMsg::ViewAck {
                from: first.0,
                entries,
            },
        };
        if let Ok(mut stream) = TcpStream::connect(handle.addr).await {
            let _ = write_frame(&mut stream, &intro).await;
        }
    }

    /// Applies one due chaos event.
    async fn apply_chaos(&mut self, event: ChaosEvent, now: Instant) {
        let Some(idx) = self.slots.iter().position(|s| s.id == event.node) else {
            return;
        };
        let action_code = match event.action {
            ChaosAction::Crash => 0,
            ChaosAction::Restart => 1,
            ChaosAction::Refuse { .. } => 2,
            ChaosAction::Stall { .. } => 3,
        };
        let at_ms = self.elapsed_ms();
        if let Some(rec) = self.recorder.as_mut() {
            rec.instant(
                TraceKind::NetChaos,
                at_ms,
                Some(event.node.as_u64()),
                action_code,
                0,
            );
        }
        match event.action {
            ChaosAction::Crash => {
                if !matches!(self.slots[idx].state, SlotState::Running(_)) {
                    return;
                }
                let SlotState::Running(handle) =
                    std::mem::replace(&mut self.slots[idx].state, SlotState::Down)
                else {
                    unreachable!("checked Running above");
                };
                handle.crash();
                let exit = handle.reap().await;
                self.slots[idx].last = exit.last_snapshot();
                self.record_exit(event.node, NodeExitKind::KilledByChaos);
            }
            ChaosAction::Restart => {
                if matches!(
                    self.slots[idx].state,
                    SlotState::Down | SlotState::Backoff { .. }
                ) {
                    self.slots[idx].restarts += 1;
                    if self.respawn_slot(idx).await.is_ok() {
                        self.mark_restarted(event.node);
                    }
                }
            }
            ChaosAction::Refuse { window } => {
                if let SlotState::Running(handle) = &self.slots[idx].state {
                    handle.set_accept_gate(AcceptGate::Refuse);
                    self.slots[idx].gate_restore = Some(now + window);
                }
            }
            ChaosAction::Stall { window } => {
                if let SlotState::Running(handle) = &self.slots[idx].state {
                    handle.set_accept_gate(AcceptGate::Stall);
                    self.slots[idx].gate_restore = Some(now + window);
                }
            }
        }
    }

    /// One supervision pass: reopen elapsed gates, reap finished tasks,
    /// restart crashed nodes whose backoff has elapsed.
    async fn supervise(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            // Trace fault-counter deltas off the live snapshot (cheap: a
            // watch-channel read; skipped entirely when untraced).
            if self.recorder.is_some() {
                let snap = match &self.slots[idx].state {
                    SlotState::Running(h) => Some(h.snapshot()),
                    _ => None,
                };
                if let Some(snap) = snap {
                    self.trace_counters(&snap);
                }
            }

            // Reopen gates whose chaos window has elapsed.
            if self.slots[idx].gate_restore.is_some_and(|t| t <= now) {
                if let SlotState::Running(handle) = &self.slots[idx].state {
                    handle.set_accept_gate(AcceptGate::Open);
                }
                self.slots[idx].gate_restore = None;
            }

            // Reap tasks that exited on their own (panic or stray abort).
            let finished =
                matches!(&self.slots[idx].state, SlotState::Running(h) if h.is_finished());
            if finished {
                let SlotState::Running(handle) =
                    std::mem::replace(&mut self.slots[idx].state, SlotState::Down)
                else {
                    unreachable!("checked Running above");
                };
                let exit = handle.reap().await;
                self.slots[idx].last = exit.last_snapshot();
                self.record_exit(self.slots[idx].id, Self::exit_kind(&exit));
                if matches!(exit, NodeExit::Crashed { .. })
                    && self.cfg.restart.auto_restart
                    && self.slots[idx].restarts < self.cfg.restart.max_restarts
                {
                    let pause = self.cfg.restart.backoff(self.slots[idx].restarts);
                    self.slots[idx].state = SlotState::Backoff { due: now + pause };
                }
            }

            // Fire due restarts.
            if matches!(self.slots[idx].state, SlotState::Backoff { due } if due <= now) {
                self.slots[idx].restarts += 1;
                let id = self.slots[idx].id;
                if self.respawn_slot(idx).await.is_ok() {
                    self.mark_restarted(id);
                } else {
                    self.slots[idx].state = SlotState::Down;
                }
            }
        }
    }

    /// Lets the cluster run for the given wall-clock duration under
    /// supervision: due chaos events fire, finished tasks are reaped, and
    /// crashed nodes restart per policy. Steps at roughly half the gossip
    /// period.
    pub async fn run_for(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;
        let step = (self.cfg.period / 2).clamp(Duration::from_millis(2), Duration::from_millis(20));
        loop {
            let now = Instant::now();
            let elapsed = now - self.started;
            while self.fired < self.schedule.len() && self.schedule[self.fired].at <= elapsed {
                let event = self.schedule[self.fired].clone();
                self.fired += 1;
                self.apply_chaos(event, now).await;
            }
            self.supervise(now).await;
            let now = Instant::now();
            if self.stream.as_ref().is_some_and(|s| now >= s.due) {
                let line = self.scrape().to_json_line();
                let stream = self.stream.as_mut().expect("checked above");
                stream.due = now + stream.every;
                use std::io::Write;
                if let Ok(mut file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&stream.path)
                {
                    let _ = writeln!(file, "{line}");
                }
            }
            if now >= deadline {
                return;
            }
            tokio::time::sleep(step.min(deadline - now)).await;
        }
    }

    /// Dynamic membership: spawns one additional node mid-run and
    /// introduces it to `bootstrap_degree` random live peers. Returns its
    /// id.
    ///
    /// This is the network-runtime counterpart of the simulator's churn
    /// joiner path — fresh identity, fresh protocol state, bootstrapped
    /// view.
    pub async fn join_node(&mut self, attribute: Attribute) -> io::Result<NodeId> {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let seed = self.cfg.seed.wrapping_add(id.as_u64()).wrapping_mul(0x9E37);
        let node_cfg = self.cfg.node_config(id, attribute, seed, self.retry);
        let handle = NodeRuntime::spawn(node_cfg, self.directory.clone()).await?;
        self.introduce(&handle, seed).await;
        let last = handle.snapshot();
        self.slots.push(Slot {
            id,
            attribute,
            state: SlotState::Running(handle),
            restarts: 0,
            generation: 0,
            gate_restore: None,
            last,
        });
        Ok(id)
    }

    /// Dynamic membership: permanently removes the node with the given id
    /// (departure — peers discover it through failed connections, which
    /// the link layer turns into strikes and eviction). Returns its final
    /// snapshot, or `None` if the id is not currently live.
    pub async fn kill_node(&mut self, id: NodeId) -> Option<NodeSnapshot> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.id == id && matches!(s.state, SlotState::Running(_)))?;
        let SlotState::Running(handle) =
            std::mem::replace(&mut self.slots[idx].state, SlotState::Retired)
        else {
            unreachable!("checked Running above");
        };
        self.directory.lock().await.remove(&id);
        let exit = handle.stop().await;
        self.slots[idx].last = exit.last_snapshot();
        let at_ms = self.elapsed_ms();
        self.exits.push(NodeExitRecord {
            id,
            kind: Self::exit_kind(&exit),
            at_ms,
            restarted: false,
        });
        Some(exit.last_snapshot())
    }

    /// Ids of the currently live nodes.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Running(_)))
            .map(|s| s.id)
            .collect()
    }

    /// Shuts every live node down and harvests the final report. A node
    /// that panics at the very end is reported as an exit record, never a
    /// harness panic.
    pub async fn shutdown(self) -> ClusterReport {
        let mut nodes = Vec::new();
        let mut exits = self.exits;
        let started = self.started;
        for slot in self.slots {
            let SlotState::Running(handle) = slot.state else {
                continue;
            };
            let exit = handle.stop().await;
            match &exit {
                NodeExit::Clean(snapshot) => nodes.push(*snapshot),
                other => {
                    exits.push(NodeExitRecord {
                        id: slot.id,
                        kind: Self::exit_kind(other),
                        at_ms: started.elapsed().as_millis() as u64,
                        restarted: false,
                    });
                    nodes.push(other.last_snapshot());
                }
            }
        }

        let totals = ClusterTotals::fold(&nodes, &exits);
        ClusterReport {
            nodes,
            partition: self.cfg.partition,
            exits,
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(values: &[f64]) -> Vec<Attribute> {
        values.iter().map(|&v| Attribute::new(v).unwrap()).collect()
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn small_ranking_cluster_converges() {
        let values: Vec<f64> = (0..16).map(|i| i as f64 * 10.0).collect();
        let cfg = ClusterConfig {
            period: Duration::from_millis(10),
            bootstrap_degree: 5,
            ..ClusterConfig::new(
                attrs(&values),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        assert_eq!(cluster.len(), 16);
        cluster.run_for(Duration::from_millis(900)).await;
        let report = cluster.shutdown().await;
        // With 2 slices and well-spread attributes, most nodes must know
        // their half after ~90 periods.
        let acc = report.accuracy();
        assert!(
            acc >= 0.75,
            "accuracy {acc} too low; sdm = {}",
            report.sdm()
        );
        // Everyone ticked; nothing crashed.
        for s in &report.nodes {
            assert!(s.ticks > 10, "node {} only ticked {}", s.id, s.ticks);
        }
        assert!(report.exits.is_empty(), "exits: {:?}", report.exits);
        assert_eq!(report.totals.crashes, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn spawn_refuses_a_zero_view_and_an_empty_population() {
        let cfg = |values: &[f64], view_size| ClusterConfig {
            view_size,
            ..ClusterConfig::new(
                attrs(values),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        for bad in [cfg(&[1.0, 2.0], 0), cfg(&[], 4)] {
            let err = LocalCluster::spawn(bad).await.err().expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn ordering_cluster_runs_and_reports() {
        let values: Vec<f64> = (0..12).map(|i| (i * 7 % 12) as f64).collect();
        let cfg = ClusterConfig {
            period: Duration::from_millis(10),
            bootstrap_degree: 4,
            ..ClusterConfig::new(
                attrs(&values),
                Partition::equal(3).unwrap(),
                ProtocolKind::ModJk,
            )
        };
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        let sdm_start = cluster.live_sdm();
        cluster.run_for(Duration::from_millis(800)).await;
        let report = cluster.shutdown().await;
        let sdm_end = report.sdm();
        // The ordering protocol must not leave the system more disordered
        // than a random assignment; typically it improves markedly.
        assert!(
            sdm_end <= sdm_start,
            "SDM should not grow: {sdm_start} -> {sdm_end}"
        );
        assert_eq!(report.assignments().len(), 12);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn scrape_streams_and_traces_without_disturbing_the_run() {
        let values: Vec<f64> = (0..8).map(|i| i as f64 * 5.0).collect();
        let cfg = ClusterConfig {
            period: Duration::from_millis(10),
            chaos: ChaosPlan::new().at_ms(60).crash(NodeId::new(3)),
            ..ClusterConfig::new(
                attrs(&values),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        cluster.set_tracer(dslice_obs::TraceConfig::on());
        let dir = std::env::temp_dir().join(format!("dslice-net-stream-{}", std::process::id()));
        let stream_path = dir.join("metrics.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&stream_path);
        cluster.stream_metrics(&stream_path, Duration::from_millis(30));
        cluster.run_for(Duration::from_millis(250)).await;

        // The scrape carries per-node labeled series and aggregates.
        let reg = cluster.scrape();
        assert_eq!(reg.gauge("dslice_net_nodes_live"), Some(7.0));
        let prom = reg.to_prometheus();
        assert!(dslice_obs::validate_prometheus(&prom).unwrap() > 10);
        assert!(prom.contains("dslice_net_node_ticks{node=\"0\"}"));
        assert!(prom.contains("dslice_net_chaos_kills_total 1"));

        // The metrics stream wrote at least one valid JSON line.
        let streamed = std::fs::read_to_string(&stream_path).unwrap();
        let lines: Vec<&str> = streamed.lines().collect();
        assert!(!lines.is_empty(), "stream file must have lines");
        for line in &lines {
            serde_json::from_str::<serde_json::Value>(line).unwrap();
        }

        // The recorder saw the chaos kill and its exit.
        let recorder = cluster.take_recorder().unwrap();
        let kinds: Vec<_> = recorder.events().map(|e| e.kind).collect();
        assert!(kinds.contains(&dslice_obs::TraceKind::NetChaos));
        assert!(kinds.contains(&dslice_obs::TraceKind::NetExit));

        let report = cluster.shutdown().await;
        assert_eq!(report.totals.chaos_kills, 1);
        // Snapshots carry the new fields: every survivor has been up for
        // most of the run and pushed at least one message through a link.
        for s in &report.nodes {
            assert!(s.uptime_ms >= 100, "node {} uptime {}ms", s.id, s.uptime_ms);
        }
        assert!(report.totals.peak_queue_depth >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn snapshot(id: u64, k: u64, peak_queue_depth: u64) -> NodeSnapshot {
        NodeSnapshot {
            id: NodeId::new(id),
            attribute: Attribute::new(id as f64).unwrap(),
            estimate: 0.5,
            ticks: 10 * k,
            dropped: k,
            retries: 2 * k,
            timeouts: 3 * k,
            send_failures: 4 * k,
            evictions: 5 * k,
            queue_drops: 6 * k,
            uptime_ms: 100,
            peak_queue_depth,
        }
    }

    #[test]
    fn cluster_totals_fold_sums_snapshots_and_counts_exits() {
        let snapshots = [snapshot(0, 1, 9), snapshot(1, 2, 3), snapshot(2, 4, 5)];
        let exit = |id, kind, restarted| NodeExitRecord {
            id: NodeId::new(id),
            kind,
            at_ms: 0,
            restarted,
        };
        let crashed = || NodeExitKind::Crashed {
            reason: "boom".into(),
        };
        let exits = [
            exit(3, crashed(), true),
            exit(4, NodeExitKind::KilledByChaos, false),
            exit(5, NodeExitKind::Clean, true),
            exit(3, crashed(), false),
        ];
        // Network counters summed over the snapshots (k = 1 + 2 + 4), the
        // queue high-water mark max-folded, exits counted by kind and by
        // restart.
        assert_eq!(
            ClusterTotals::fold(&snapshots, &exits),
            ClusterTotals {
                retries: 14,
                timeouts: 21,
                send_failures: 28,
                evictions: 35,
                dropped: 7,
                queue_drops: 42,
                crashes: 2,
                chaos_kills: 1,
                restarts: 2,
                peak_queue_depth: 9,
            }
        );
        assert_eq!(ClusterTotals::fold(&[], &[]), ClusterTotals::default());
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn traced_counters_record_per_node_deltas() {
        let cfg = ClusterConfig::new(
            attrs(&[1.0, 2.0]),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        );
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        cluster.set_tracer(dslice_obs::TraceConfig::on());
        // A node outside the cluster, so only these snapshots reach it.
        cluster.trace_counters(&snapshot(7, 1, 0));
        cluster.trace_counters(&snapshot(7, 1, 0));
        cluster.trace_counters(&snapshot(7, 3, 0));
        let recorder = cluster.take_recorder().unwrap();
        let deltas: Vec<(TraceKind, u64)> = recorder
            .events()
            .filter(|e| e.node == Some(7))
            .map(|e| (e.kind, e.a))
            .collect();
        cluster.shutdown().await;
        // Retries, timeouts, send failures, evictions and queue drops log
        // their growth (k·[2, 3, 4, 5, 6]); an unchanged snapshot logs
        // nothing, and fault drops and ticks are never traced.
        let kinds = [
            TraceKind::NetRetry,
            TraceKind::NetTimeout,
            TraceKind::NetSendFailure,
            TraceKind::NetEviction,
            TraceKind::NetQueueDrop,
        ];
        let expected: Vec<(TraceKind, u64)> = [1, 2]
            .into_iter()
            .flat_map(|k| kinds.into_iter().zip((2..).map(move |m| m * k)))
            .collect();
        assert_eq!(deltas, expected);
    }

    /// Every series `scrape` emits for a three-node cluster, with its type,
    /// captured before the aggregates came from one counter table.
    const SCRAPED: [&str; 26] = [
        "dslice_net_chaos_kills_total counter",
        "dslice_net_crashes_total counter",
        "dslice_net_evictions_total counter",
        "dslice_net_fault_dropped_total counter",
        "dslice_net_node_estimate{node=\"0\"} gauge",
        "dslice_net_node_estimate{node=\"1\"} gauge",
        "dslice_net_node_estimate{node=\"2\"} gauge",
        "dslice_net_node_peak_queue_depth{node=\"0\"} gauge",
        "dslice_net_node_peak_queue_depth{node=\"1\"} gauge",
        "dslice_net_node_peak_queue_depth{node=\"2\"} gauge",
        "dslice_net_node_ticks{node=\"0\"} gauge",
        "dslice_net_node_ticks{node=\"1\"} gauge",
        "dslice_net_node_ticks{node=\"2\"} gauge",
        "dslice_net_node_uptime_ms{node=\"0\"} gauge",
        "dslice_net_node_uptime_ms{node=\"1\"} gauge",
        "dslice_net_node_uptime_ms{node=\"2\"} gauge",
        "dslice_net_nodes_live gauge",
        "dslice_net_peak_queue_depth gauge",
        "dslice_net_queue_drops_total counter",
        "dslice_net_restarts_total counter",
        "dslice_net_retries_total counter",
        "dslice_net_sdm gauge",
        "dslice_net_send_failures_total counter",
        "dslice_net_ticks_total counter",
        "dslice_net_timeouts_total counter",
        "dslice_net_uptime_ms gauge",
    ];

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn scrape_emits_the_pinned_metric_names() {
        let cfg = ClusterConfig {
            period: Duration::from_millis(10),
            ..ClusterConfig::new(
                attrs(&[1.0, 2.0, 3.0]),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        let cluster = LocalCluster::spawn(cfg).await.unwrap();
        let mut names: Vec<String> = cluster
            .scrape()
            .iter()
            .map(|m| format!("{} {}", m.name, m.value.type_name()))
            .collect();
        names.sort();
        cluster.shutdown().await;
        assert_eq!(names, SCRAPED);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn report_serializes_to_json() {
        let cfg = ClusterConfig {
            period: Duration::from_millis(10),
            ..ClusterConfig::new(
                attrs(&[1.0, 2.0, 3.0, 4.0]),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        cluster.run_for(Duration::from_millis(50)).await;
        let report = cluster.shutdown().await;
        let json = serde_json::to_string(&report).unwrap();
        let back: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes.len(), report.nodes.len());
        assert_eq!(back.totals, report.totals);
    }
}
