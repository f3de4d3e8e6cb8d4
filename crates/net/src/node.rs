//! One protocol node as a tokio task.
//!
//! A [`NodeRuntime`] owns exactly what a paper node owns: its protocol state
//! (Fig. 2 / Fig. 5), its view via a peer sampler (Fig. 3), and a periodic
//! timer (`period_i` of the pseudocode). Every `period` it runs the
//! membership shuffle — sending a real `ViewReq` instead of the simulator's
//! atomic exchange — and then the protocol's active thread; incoming frames
//! drive the passive threads. Protocol and sampler are the cycle
//! simulator's per-node types, [`AnyProtocol`] and [`AnySampler`], built by
//! the same constructors, so both runtimes dispatch every protocol and
//! sampler call through one path.
//!
//! ## Addressing
//!
//! View entries identify peers by [`NodeId`]; the mapping to socket
//! addresses lives in a shared [`Directory`] that the cluster harness
//! pre-populates (a stand-in for the out-of-band bootstrap/discovery any
//! deployed gossip system relies on). Messages also carry a `reply_to`
//! address so responses never need the directory.
//!
//! ## Fault tolerance
//!
//! The paper's setting is dynamic — peers crash, restart and refuse
//! connections — so the outbound path is built to survive it. Every send is
//! handed to a short-lived per-peer **link task** through a bounded channel
//! (`NodeRuntime::ship` never awaits the network), and the link task
//! applies the [`RetryPolicy`]: connect/write timeouts, bounded retries
//! with deterministic exponential backoff, and consecutive-failure strikes.
//! A peer that keeps failing is reported back to the node loop as a
//! dead-peer verdict and evicted from the sampler view and the directory.
//! The gossip timer therefore never stalls on a slow or dead peer; at worst
//! a message is dropped, which gossip tolerates by design.

use crate::codec::{read_frame_timeout, write_frame, WireMsg};
use crate::retry::RetryPolicy;
use dslice_algorithms::{AnyProtocol, ProtocolKind};
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{Attribute, NodeId, Partition, ProtocolMsg, ViewEntry};
use dslice_gossip::{AnySampler, PeerSampler, SamplerKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc::TrySendError;
use tokio::sync::{mpsc, watch, Mutex};
use tokio::task::JoinHandle;

/// Wire-level fault injection: probabilistic loss and added delay applied to
/// every outgoing message. The TCP substrate is reliable per connection;
/// these knobs re-introduce the datagram-like behaviour the protocols are
/// designed for, so the simulator's `loss_rate` / `LatencyModel` findings
/// can be checked over real sockets.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability that an outgoing message is silently dropped.
    pub loss: f64,
    /// Extra delay drawn uniformly from this range before the message is
    /// written to the wire.
    pub delay: Option<(Duration, Duration)>,
}

impl FaultPlan {
    /// No injected faults (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Uniform loss at probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultPlan {
            loss: p,
            delay: None,
        }
    }

    /// Uniform extra delay in `[min, max]`.
    pub fn delayed(min: Duration, max: Duration) -> Self {
        FaultPlan {
            loss: 0.0,
            delay: Some((min, max)),
        }
    }

    /// Rejects plans with a loss probability outside `[0, 1]` or an
    /// inverted delay range — mirroring the `LatencyModel::Uniform`
    /// validation on the simulator side.
    pub fn validate(&self) -> io::Result<()> {
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("FaultPlan loss must be in [0, 1], got {}", self.loss),
            ));
        }
        if let Some((min, max)) = self.delay {
            if min > max {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("FaultPlan delay range inverted: {min:?} > {max:?}"),
                ));
            }
        }
        Ok(())
    }
}

/// Shared id → address book (the discovery substrate).
pub type Directory = Arc<Mutex<HashMap<NodeId, SocketAddr>>>;

/// Static configuration of one network node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's identity.
    pub id: NodeId,
    /// This node's attribute value.
    pub attribute: Attribute,
    /// The global slice partition.
    pub partition: Partition,
    /// Which protocol to run.
    pub protocol: ProtocolKind,
    /// Peer-sampling substrate (Cyclon by default).
    pub sampler: SamplerKind,
    /// View size `c`.
    pub view_size: usize,
    /// The gossip period (`period_i` of Figs. 2/5).
    pub period: Duration,
    /// Per-node RNG seed.
    pub seed: u64,
    /// Wire-level fault injection applied to outgoing messages.
    pub faults: FaultPlan,
    /// Timeout/retry/eviction policy for outbound sends.
    pub retry: RetryPolicy,
    /// Fault-injection hook: panic after completing this many ticks, so
    /// crash classification and supervised restart can be exercised
    /// deterministically. `None` (the default) never fires.
    pub die_after_ticks: Option<u64>,
}

/// A live snapshot of a node, published on every tick.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// The node's id.
    pub id: NodeId,
    /// The node's attribute.
    pub attribute: Attribute,
    /// The current rank estimate.
    pub estimate: f64,
    /// Ticks executed so far.
    pub ticks: u64,
    /// Outgoing messages dropped by the fault plan.
    pub dropped: u64,
    /// Delivery retries performed by link tasks.
    pub retries: u64,
    /// Connect/write attempts that hit their timeout.
    pub timeouts: u64,
    /// Messages undelivered after all attempts.
    pub send_failures: u64,
    /// Peers evicted after a dead-peer verdict.
    pub evictions: u64,
    /// Messages dropped because a link queue was full.
    pub queue_drops: u64,
    /// Wall-clock milliseconds since this runtime instance started (a
    /// restarted node starts again from zero).
    pub uptime_ms: u64,
    /// The deepest any outbound link queue has ever been, in messages —
    /// the early-warning signal that a peer is falling behind before
    /// `queue_drops` starts counting.
    pub peak_queue_depth: u64,
}

/// How a node task ended, as observed by whoever reaps the handle.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeExit {
    /// Graceful shutdown; carries the final state.
    Clean(NodeSnapshot),
    /// The node task panicked; carries the last published snapshot.
    Crashed {
        /// The panic message.
        reason: String,
        /// The last snapshot published before the crash.
        last: NodeSnapshot,
    },
    /// The node task was aborted (chaos kill or harness abort).
    Killed {
        /// The last snapshot published before the kill.
        last: NodeSnapshot,
    },
}

impl NodeExit {
    /// The best available final snapshot, whatever the exit kind.
    pub fn last_snapshot(&self) -> NodeSnapshot {
        match self {
            NodeExit::Clean(snap) => *snap,
            NodeExit::Crashed { last, .. } | NodeExit::Killed { last } => *last,
        }
    }
}

/// What the listener does with inbound connections; driven by chaos plans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AcceptGate {
    /// Accept and read normally (the default).
    #[default]
    Open,
    /// Close the listening socket: connects fail fast with "refused".
    Refuse,
    /// Accept connections but never read them; they are reset (dropped)
    /// when the gate changes.
    Stall,
}

/// Handle to a spawned node: live snapshots, shutdown, final state.
#[derive(Debug)]
pub struct NodeHandle {
    /// The node's id.
    pub id: NodeId,
    /// The address the node listens on.
    pub addr: SocketAddr,
    snapshot_rx: watch::Receiver<NodeSnapshot>,
    shutdown_tx: watch::Sender<bool>,
    gate_tx: watch::Sender<AcceptGate>,
    join: JoinHandle<NodeSnapshot>,
}

impl NodeHandle {
    /// The most recent published snapshot.
    pub fn snapshot(&self) -> NodeSnapshot {
        *self.snapshot_rx.borrow()
    }

    /// Whether the node task has exited (cleanly, by panic, or by kill).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Changes what the node's listener does with inbound connections.
    pub fn set_accept_gate(&self, gate: AcceptGate) {
        let _ = self.gate_tx.send(gate);
    }

    /// Crashes the node abruptly: the task is aborted (its future — inbox,
    /// links, connections — is dropped on the spot) and the listener is
    /// closed. Peers discover the death through failed sends, exactly as
    /// with a real process crash. Reap the handle with [`NodeHandle::reap`].
    pub fn crash(&self) {
        self.join.abort();
        let _ = self.shutdown_tx.send(true);
    }

    /// Signals graceful shutdown and reaps the exit.
    pub async fn stop(self) -> NodeExit {
        let _ = self.shutdown_tx.send(true);
        self.reap().await
    }

    /// Waits for the task to end and classifies the exit. A panicked node
    /// surfaces as [`NodeExit::Crashed`] — it never propagates into the
    /// caller.
    pub async fn reap(self) -> NodeExit {
        let last = *self.snapshot_rx.borrow();
        match self.join.await {
            Ok(snapshot) => NodeExit::Clean(snapshot),
            Err(e) if e.is_cancelled() => NodeExit::Killed { last },
            Err(e) => NodeExit::Crashed {
                reason: e.to_string(),
                last,
            },
        }
    }
}

/// Counters shared between the node loop and its link tasks.
#[derive(Debug, Default)]
struct NetCounters {
    retries: AtomicU64,
    timeouts: AtomicU64,
    send_failures: AtomicU64,
}

/// One queued outbound message.
struct Outbound {
    wire: WireMsg,
    /// Fault-injected extra latency, applied by the link task.
    delay: Option<Duration>,
}

/// A dead-peer verdict from a link task: `strike_limit` consecutive
/// messages to `peer` failed every delivery attempt.
struct DeadVerdict {
    peer: NodeId,
    /// The address the failures were observed against (`None` if the peer
    /// had already vanished from the directory). Eviction only removes the
    /// directory entry if it still maps here, so a restarted peer's fresh
    /// registration is never clobbered by a stale verdict.
    addr: Option<SocketAddr>,
}

/// Capacity of a per-peer link queue. Gossip sends a handful of messages
/// per peer per period; a full queue means the peer is badly behind and
/// dropping (counted) is the right call.
const LINK_QUEUE: usize = 16;

/// Everything a link task needs to deliver to one peer.
struct Link {
    peer: NodeId,
    directory: Directory,
    policy: RetryPolicy,
    seed: u64,
    counters: Arc<NetCounters>,
    strikes: Arc<AtomicU32>,
    /// Messages currently queued on this link; the node increments on
    /// enqueue, the link task decrements per dequeue.
    depth: Arc<AtomicU64>,
    verdict: mpsc::Sender<DeadVerdict>,
}

impl Link {
    /// Drains the queue and exits. Link tasks are deliberately short-lived
    /// — one OS thread each under the vendored executor — so they deliver
    /// the burst in hand and get off the scheduler; the node respawns the
    /// link on the next send. (A message enqueued in the instant between
    /// the final empty check and the receiver drop is lost; gossip treats
    /// that as one more lost datagram.)
    async fn run(self, mut rx: mpsc::Receiver<Outbound>) {
        let mut conn: Option<TcpStream> = None;
        while let Some(out) = rx.try_recv() {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            match self.deliver(&out, &mut conn).await {
                Ok(()) => {
                    self.strikes.store(0, Ordering::Release);
                }
                Err(addr) => {
                    self.counters.send_failures.fetch_add(1, Ordering::Relaxed);
                    let strikes = self.strikes.fetch_add(1, Ordering::AcqRel) + 1;
                    if strikes >= self.policy.strike_limit {
                        let _ = self.verdict.try_send(DeadVerdict {
                            peer: self.peer,
                            addr,
                        });
                        return;
                    }
                }
            }
        }
    }

    /// Delivers one message under the retry policy. The peer's address is
    /// re-resolved from the directory on every attempt so a peer that
    /// restarted on a new port is picked up mid-message. On failure,
    /// returns the last address tried.
    async fn deliver(
        &self,
        out: &Outbound,
        conn: &mut Option<TcpStream>,
    ) -> Result<(), Option<SocketAddr>> {
        if let Some(delay) = out.delay {
            tokio::time::sleep(delay).await;
        }
        let mut last_addr = None;
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                let pause = self.policy.backoff(self.seed, self.peer.as_u64(), attempt);
                tokio::time::sleep(pause).await;
            }
            let addr = { self.directory.lock().await.get(&self.peer).copied() };
            let Some(addr) = addr else {
                // Unregistered peer: no address to retry against.
                return Err(last_addr);
            };
            if last_addr != Some(addr) {
                // The peer moved (restart on a new port): drop the stale
                // connection.
                *conn = None;
            }
            last_addr = Some(addr);
            if conn.is_none() {
                match tokio::time::timeout(self.policy.connect_timeout, TcpStream::connect(addr))
                    .await
                {
                    Ok(Ok(stream)) => *conn = Some(stream),
                    Ok(Err(_refused)) => continue,
                    Err(_elapsed) => {
                        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            }
            let stream = conn.as_mut().expect("connection established above");
            match tokio::time::timeout(self.policy.write_timeout, write_frame(stream, &out.wire))
                .await
            {
                Ok(Ok(())) => return Ok(()),
                Ok(Err(_broken)) => *conn = None,
                Err(_elapsed) => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    *conn = None;
                }
            }
        }
        Err(last_addr)
    }
}

/// The node runtime: protocol + sampler + listener, driven by one task.
pub struct NodeRuntime {
    cfg: NodeConfig,
    proto: AnyProtocol,
    sampler: AnySampler,
    directory: Directory,
    rng: StdRng,
    my_addr: SocketAddr,
    started: std::time::Instant,
    ticks: u64,
    dropped: u64,
    queue_drops: u64,
    evictions: u64,
    peak_queue_depth: u64,
    links: HashMap<NodeId, (mpsc::Sender<Outbound>, Arc<AtomicU64>)>,
    strikes: HashMap<NodeId, Arc<AtomicU32>>,
    counters: Arc<NetCounters>,
    verdict_tx: mpsc::Sender<DeadVerdict>,
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.cfg.id)
            .field("addr", &self.my_addr)
            .field("ticks", &self.ticks)
            .finish()
    }
}

/// The [`Context`] for network nodes: collects sends; the runtime ships them
/// after the callback returns.
struct NetCtx<'a> {
    rng: &'a mut StdRng,
    out: &'a mut Vec<(NodeId, ProtocolMsg)>,
}

impl Context for NetCtx<'_> {
    fn send(&mut self, to: NodeId, msg: ProtocolMsg) {
        self.out.push((to, msg));
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    fn record(&mut self, _event: Event) {
        // Network nodes do not aggregate fleet statistics locally; the
        // cluster harness derives quality measures from snapshots.
    }
}

impl NodeRuntime {
    /// Binds a listener, registers with the directory, and spawns the node
    /// task. Returns a handle for monitoring, fault injection and shutdown.
    pub async fn spawn(cfg: NodeConfig, directory: Directory) -> io::Result<NodeHandle> {
        cfg.faults.validate()?;
        cfg.retry.validate()?;
        let listener = TcpListener::bind("127.0.0.1:0").await?;
        let my_addr = listener.local_addr()?;
        directory.lock().await.insert(cfg.id, my_addr);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let proto = AnyProtocol::new(
            cfg.protocol,
            cfg.id,
            cfg.attribute,
            &cfg.partition,
            &mut rng,
        );
        let sampler = AnySampler::new(cfg.sampler, cfg.id, cfg.view_size)
            .expect("view_size validated by caller");

        let snapshot = NodeSnapshot {
            id: cfg.id,
            attribute: cfg.attribute,
            estimate: proto.estimate(),
            ticks: 0,
            dropped: 0,
            retries: 0,
            timeouts: 0,
            send_failures: 0,
            evictions: 0,
            queue_drops: 0,
            uptime_ms: 0,
            peak_queue_depth: 0,
        };
        let (snapshot_tx, snapshot_rx) = watch::channel(snapshot);
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let (gate_tx, gate_rx) = watch::channel(AcceptGate::Open);
        let (inbox_tx, inbox_rx) = mpsc::channel::<WireMsg>(256);
        let (verdict_tx, verdict_rx) = mpsc::channel::<DeadVerdict>(64);

        // Accept loop: one lightweight task per connection, frames go to
        // the node's inbox. Reads are deadline-bounded so stalled peers
        // cannot pin reader tasks.
        let read_timeout = (cfg.period * 10).max(Duration::from_millis(200));
        tokio::spawn(Self::accept_loop(
            listener,
            inbox_tx,
            gate_rx,
            shutdown_rx.clone(),
            read_timeout,
        ));

        let runtime = NodeRuntime {
            cfg: cfg.clone(),
            proto,
            sampler,
            directory,
            rng,
            my_addr,
            started: std::time::Instant::now(),
            ticks: 0,
            dropped: 0,
            queue_drops: 0,
            evictions: 0,
            peak_queue_depth: 0,
            links: HashMap::new(),
            strikes: HashMap::new(),
            counters: Arc::new(NetCounters::default()),
            verdict_tx,
        };
        let join = tokio::spawn(runtime.run(inbox_rx, verdict_rx, snapshot_tx, shutdown_rx));

        Ok(NodeHandle {
            id: cfg.id,
            addr: my_addr,
            snapshot_rx,
            shutdown_tx,
            gate_tx,
            join,
        })
    }

    async fn accept_loop(
        listener: TcpListener,
        inbox: mpsc::Sender<WireMsg>,
        mut gate: watch::Receiver<AcceptGate>,
        mut shutdown: watch::Receiver<bool>,
        read_timeout: Duration,
    ) {
        let addr = listener.local_addr().ok();
        let mut listener = Some(listener);
        // Connections accepted while stalled: held unread, reset (dropped)
        // when the gate changes.
        let mut stalled: Vec<TcpStream> = Vec::new();
        loop {
            if *shutdown.borrow() {
                return;
            }
            let mode = *gate.borrow();
            if mode != AcceptGate::Stall {
                stalled.clear();
            }
            if mode == AcceptGate::Refuse {
                // Close the socket so connects fail fast instead of queueing.
                drop(listener.take());
                tokio::select! {
                    _ = gate.changed() => {}
                    _ = shutdown.changed() => {}
                }
                continue;
            }
            if listener.is_none() {
                // Coming out of a refusal window: rebind the same address.
                let Some(addr) = addr else { return };
                match TcpListener::bind(addr).await {
                    Ok(l) => listener = Some(l),
                    Err(_in_use) => {
                        tokio::time::sleep(Duration::from_millis(2)).await;
                        continue;
                    }
                }
            }
            let bound = listener.as_ref().expect("listener bound above");
            tokio::select! {
                accepted = bound.accept() => {
                    let Ok((stream, _)) = accepted else { continue };
                    if mode == AcceptGate::Stall {
                        stalled.push(stream);
                        continue;
                    }
                    let inbox = inbox.clone();
                    tokio::spawn(async move {
                        let mut stream = stream;
                        // Read frames until the peer closes or stalls out;
                        // one connection may carry several frames.
                        while let Ok(msg) = read_frame_timeout(&mut stream, read_timeout).await {
                            if inbox.send(msg).await.is_err() {
                                break;
                            }
                        }
                    });
                }
                _ = gate.changed() => {}
                _ = shutdown.changed() => {}
            }
        }
    }

    /// The main node loop: ticks drive the active threads, inbox messages
    /// drive the passive threads, verdicts evict dead peers.
    async fn run(
        mut self,
        mut inbox: mpsc::Receiver<WireMsg>,
        mut verdicts: mpsc::Receiver<DeadVerdict>,
        snapshot_tx: watch::Sender<NodeSnapshot>,
        mut shutdown: watch::Receiver<bool>,
    ) -> NodeSnapshot {
        let mut ticker = tokio::time::interval(self.cfg.period);
        ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
        loop {
            tokio::select! {
                _ = ticker.tick() => {
                    self.on_tick();
                    self.ticks += 1;
                    let _ = snapshot_tx.send(self.snapshot());
                }
                Some(wire) = inbox.recv() => {
                    self.on_wire(wire).await;
                    let _ = snapshot_tx.send(self.snapshot());
                }
                Some(verdict) = verdicts.recv() => {
                    self.on_dead_peer(verdict).await;
                    let _ = snapshot_tx.send(self.snapshot());
                }
                _ = shutdown.changed() => {
                    if *shutdown.borrow() {
                        return self.snapshot();
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.cfg.id,
            attribute: self.cfg.attribute,
            estimate: self.proto.estimate(),
            ticks: self.ticks,
            dropped: self.dropped,
            retries: self.counters.retries.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            send_failures: self.counters.send_failures.load(Ordering::Relaxed),
            evictions: self.evictions,
            queue_drops: self.queue_drops,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            peak_queue_depth: self.peak_queue_depth,
        }
    }

    fn self_entry(&self) -> ViewEntry {
        ViewEntry::new(
            self.cfg.id,
            self.cfg.attribute,
            self.proto.published_value(),
        )
    }

    /// One period: membership shuffle, then the protocol active thread.
    /// Entirely synchronous — sends only enqueue onto link channels — so
    /// the gossip timer can never be stalled by a slow peer.
    fn on_tick(&mut self) {
        if self.cfg.die_after_ticks.is_some_and(|d| self.ticks >= d) {
            panic!(
                "fault injection: node {} dying after {} ticks",
                self.cfg.id, self.ticks
            );
        }

        // Membership (Fig. 3, active side): the reply arrives asynchronously.
        let self_entry = self.self_entry();
        if let Some(req) = self.sampler.initiate(self_entry, &mut self.rng) {
            let msg = ProtocolMsg::ViewReq {
                from: self.cfg.id,
                entries: req.entries,
            };
            self.ship(req.partner, msg);
        }

        // Protocol active thread (Fig. 2 / Fig. 5).
        let mut out = Vec::new();
        {
            let mut ctx = NetCtx {
                rng: &mut self.rng,
                out: &mut out,
            };
            self.proto.on_active(self.sampler.view(), &mut ctx);
        }
        for (to, msg) in out {
            self.ship(to, msg);
        }
    }

    /// Dispatches one incoming frame.
    async fn on_wire(&mut self, wire: WireMsg) {
        // Learn the sender's address opportunistically.
        if let Ok(addr) = wire.reply_to.parse::<SocketAddr>() {
            self.directory.lock().await.insert(wire.msg.from(), addr);
        }
        match wire.msg {
            ProtocolMsg::ViewReq { from, entries } => {
                let self_entry = self.self_entry();
                let reply = self.sampler.handle_request(self_entry, from, &entries);
                self.ship(
                    from,
                    ProtocolMsg::ViewAck {
                        from: self.cfg.id,
                        entries: reply,
                    },
                );
            }
            ProtocolMsg::ViewAck { from, entries } => {
                self.sampler.handle_reply(from, &entries);
            }
            other => {
                let mut out = Vec::new();
                {
                    let mut ctx = NetCtx {
                        rng: &mut self.rng,
                        out: &mut out,
                    };
                    self.proto.on_message(self.sampler.view(), other, &mut ctx);
                }
                for (to, msg) in out {
                    self.ship(to, msg);
                }
            }
        }
    }

    /// Evicts a peer the link layer declared dead: out of the sampler view,
    /// out of the link table, and out of the directory — but only if its
    /// directory entry still points at the address that failed, so a peer
    /// that restarted elsewhere in the meantime keeps its registration.
    async fn on_dead_peer(&mut self, verdict: DeadVerdict) {
        let dead = verdict.peer;
        self.sampler.remove_dead(&|id| id != dead);
        self.links.remove(&dead);
        self.strikes.remove(&dead);
        if let Some(addr) = verdict.addr {
            let mut dir = self.directory.lock().await;
            if dir.get(&dead) == Some(&addr) {
                dir.remove(&dead);
            }
        }
        self.evictions += 1;
    }

    /// Ships one message: fault injection, then a non-blocking enqueue onto
    /// the peer's link. Never awaits the network.
    fn ship(&mut self, to: NodeId, msg: ProtocolMsg) {
        // Fault injection: loss first, then delay.
        use rand::Rng;
        if self.cfg.faults.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.faults.loss {
            self.dropped += 1;
            return;
        }
        let delay = self.cfg.faults.delay.map(|(min, max)| {
            if max > min {
                min + (max - min).mul_f64(self.rng.gen::<f64>())
            } else {
                min
            }
        });
        let wire = WireMsg {
            reply_to: self.my_addr.to_string(),
            msg,
        };
        self.enqueue(to, Outbound { wire, delay });
    }

    /// Hands a message to the peer's link task, spawning or respawning the
    /// link as needed.
    fn enqueue(&mut self, to: NodeId, out: Outbound) {
        if let Some((tx, depth)) = self.links.get(&to) {
            // Count the message before it is visible to the link task: the
            // task decrements per dequeue, and a dequeue that overtook the
            // increment would take the counter below zero.
            let d = depth.fetch_add(1, Ordering::AcqRel) + 1;
            match tx.try_send(out) {
                Ok(()) => {
                    self.peak_queue_depth = self.peak_queue_depth.max(d);
                    return;
                }
                Err(TrySendError::Full(_)) => {
                    // The peer is badly behind; shed load like a lost
                    // datagram rather than blocking the node loop.
                    depth.fetch_sub(1, Ordering::AcqRel);
                    self.queue_drops += 1;
                    return;
                }
                Err(TrySendError::Closed(out)) => {
                    // The drain-and-exit link task finished; respawn it.
                    self.links.remove(&to);
                    self.spawn_link(to, out);
                    return;
                }
            }
        }
        self.spawn_link(to, out);
    }

    /// Creates a fresh link channel, enqueues `out` (a fresh channel always
    /// has room), and spawns the link task to drain it.
    fn spawn_link(&mut self, to: NodeId, out: Outbound) {
        let (tx, rx) = mpsc::channel::<Outbound>(LINK_QUEUE);
        tx.try_send(out)
            .unwrap_or_else(|_| unreachable!("fresh link queue has capacity"));
        let depth = Arc::new(AtomicU64::new(1));
        self.peak_queue_depth = self.peak_queue_depth.max(1);
        let strikes = Arc::clone(
            self.strikes
                .entry(to)
                .or_insert_with(|| Arc::new(AtomicU32::new(0))),
        );
        let link = Link {
            peer: to,
            directory: Arc::clone(&self.directory),
            policy: self.cfg.retry,
            seed: self.cfg.seed,
            counters: Arc::clone(&self.counters),
            strikes,
            depth: Arc::clone(&depth),
            verdict: self.verdict_tx.clone(),
        };
        tokio::spawn(link.run(rx));
        self.links.insert(to, (tx, depth));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn config(id: u64, a: f64, period_ms: u64) -> NodeConfig {
        NodeConfig {
            id: NodeId::new(id),
            attribute: attr(a),
            partition: Partition::equal(2).unwrap(),
            protocol: ProtocolKind::Ranking,
            sampler: SamplerKind::Cyclon,
            view_size: 8,
            period: Duration::from_millis(period_ms),
            seed: id,
            faults: FaultPlan::none(),
            retry: RetryPolicy::for_period(Duration::from_millis(period_ms)),
            die_after_ticks: None,
        }
    }

    #[tokio::test]
    async fn node_spawns_registers_and_stops() {
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let handle = NodeRuntime::spawn(config(1, 5.0, 10), directory.clone())
            .await
            .unwrap();
        assert!(directory.lock().await.contains_key(&NodeId::new(1)));
        assert_eq!(handle.id, NodeId::new(1));
        let NodeExit::Clean(snap) = handle.stop().await else {
            panic!("clean stop expected");
        };
        assert_eq!(snap.id, NodeId::new(1));
        assert_eq!(snap.attribute, attr(5.0));
    }

    #[tokio::test]
    async fn spawn_rejects_invalid_fault_and_retry_plans() {
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let mut bad_loss = config(1, 5.0, 10);
        bad_loss.faults = FaultPlan::lossy(1.5);
        let err = NodeRuntime::spawn(bad_loss, directory.clone())
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let mut bad_delay = config(2, 5.0, 10);
        bad_delay.faults = FaultPlan::delayed(Duration::from_millis(10), Duration::from_millis(1));
        let err = NodeRuntime::spawn(bad_delay, directory.clone())
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let mut bad_retry = config(3, 5.0, 10);
        bad_retry.retry.attempts = 0;
        let err = NodeRuntime::spawn(bad_retry, directory.clone())
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(directory.lock().await.is_empty(), "no partial registration");
    }

    #[tokio::test]
    async fn die_after_ticks_surfaces_as_crashed() {
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let mut cfg = config(9, 5.0, 5);
        cfg.die_after_ticks = Some(2);
        let handle = NodeRuntime::spawn(cfg, directory).await.unwrap();
        // Wait for the injected panic to land.
        while !handle.is_finished() {
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        let exit = handle.reap().await;
        let NodeExit::Crashed { reason, last } = exit else {
            panic!("expected Crashed, got {exit:?}");
        };
        assert!(reason.contains("die_after_ticks") || reason.contains("dying"));
        assert_eq!(last.ticks, 2, "completed exactly the configured ticks");
    }

    #[tokio::test]
    async fn crash_kills_abruptly_and_reap_classifies_it() {
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let handle = NodeRuntime::spawn(config(4, 5.0, 10), directory)
            .await
            .unwrap();
        handle.crash();
        let exit = handle.reap().await;
        assert!(
            matches!(exit, NodeExit::Killed { .. }),
            "expected Killed, got {exit:?}"
        );
    }

    #[tokio::test]
    async fn two_nodes_exchange_updates() {
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let h1 = NodeRuntime::spawn(config(1, 10.0, 5), directory.clone())
            .await
            .unwrap();
        let h2 = NodeRuntime::spawn(config(2, 20.0, 5), directory.clone())
            .await
            .unwrap();

        // Manually introduce node 2 to node 1 by sending it a view entry
        // through the wire: a ViewReq from node 2's identity.
        let addr1 = { directory.lock().await[&NodeId::new(1)] };
        let addr2 = { directory.lock().await[&NodeId::new(2)] };
        let mut stream = TcpStream::connect(addr1).await.unwrap();
        let intro = WireMsg {
            reply_to: addr2.to_string(),
            msg: ProtocolMsg::ViewReq {
                from: NodeId::new(2),
                entries: vec![ViewEntry::new(NodeId::new(2), attr(20.0), 0.5)],
            },
        };
        write_frame(&mut stream, &intro).await.unwrap();
        drop(stream);

        // Give them a few periods to gossip.
        tokio::time::sleep(Duration::from_millis(120)).await;

        let NodeExit::Clean(s1) = h1.stop().await else {
            panic!("clean stop expected");
        };
        let NodeExit::Clean(s2) = h2.stop().await else {
            panic!("clean stop expected");
        };
        // Node 1 (attribute 10) saw node 2's larger attribute: its estimate
        // must have dropped below 1/2 territory eventually; at minimum both
        // made progress (ticks advanced).
        assert!(s1.ticks > 3, "node 1 ticked: {}", s1.ticks);
        assert!(s2.ticks > 3, "node 2 ticked: {}", s2.ticks);
        // Ranking with samples: node 1's estimate reflects lower rank than
        // node 2's.
        assert!(
            s1.estimate <= s2.estimate + 0.5,
            "estimates diverged nonsensically: {} vs {}",
            s1.estimate,
            s2.estimate
        );
    }
}
