//! `net-loopback-8`: eight real TCP nodes on loopback, one probe client.
//!
//! The nodes are `NodeRuntime`s sharing a `Directory`, introduced to each
//! other with `ViewAck` frames the way `LocalCluster` does it, gossiping
//! every 20 ms. The probe is a closed loop of one client: connect to node
//! `k mod 8`, send an empty `ViewReq` naming the probe's own listener as
//! `reply_to`, wait for that node's `ViewAck` there, then send the next.
//! An empty request leaves the node's view as it was, so the probe never
//! enters the gossip. Every step of an exchange is the program's own:
//! connect → accept → reader task → inbox → node loop → link task →
//! connect back → frame. Traffic is loopback; no wire latency is claimed.

use crate::host;
use crate::micro::{self, Families, Micro};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{median, Summary};
use crate::RunArgs;
use dslice_core::rank;
use dslice_core::{Attribute, NodeId, Partition, ProtocolMsg, ViewEntry};
use dslice_net::node::{Directory, NodeSnapshot};
use dslice_net::{
    read_frame_timeout, write_frame, FaultPlan, NodeConfig, NodeHandle, NodeRuntime, RetryPolicy,
    WireMsg,
};
use dslice_sim::{ProtocolKind, SamplerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::Mutex;
use tokio::time::timeout;

/// Nodes in the cluster. Sixteen nodes at 10 ms saturate both cores of the
/// reference host, so eight at 20 ms is the largest load that measures the
/// program rather than the scheduler.
const NODES: usize = 8;
/// The gossip period.
const PERIOD: Duration = Duration::from_millis(20);
/// View size (every other node fits).
const VIEW_SIZE: usize = 8;
/// Two slices: with eight nodes every converged estimate lies at least
/// 1/14 from the boundary, so a correct run reads 1.0.
const SLICES: usize = 2;
/// A probe whose reply has not arrived after this long has failed.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// The probe's identity, far outside the cluster's id range.
const PROBE_ID: u64 = 1_000_000;
/// Gossip-only settling time, then probes discarded, before timing.
const WARM_UP: Duration = Duration::from_millis(500);
const WARM_UP_PROBES: usize = 200;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// A running cluster.
struct Cluster {
    nodes: Vec<NodeHandle>,
}

impl Cluster {
    /// Spawns the nodes and performs the bootstrap introductions. Each
    /// node's spawn is a `net.spawn_node` span when `spans` is given.
    async fn spawn(seed: u64, mut spans: Option<&mut Spans>) -> io::Result<Cluster> {
        let mut rng = StdRng::seed_from_u64(seed);
        let partition = Partition::equal(SLICES).expect("slices > 0");
        let directory: Directory = Arc::new(Mutex::new(HashMap::new()));
        let attributes: Vec<Attribute> = (0..NODES)
            .map(|_| Attribute::new(rng.gen_range(0.0..1e6)).expect("finite attribute"))
            .collect();

        let mut nodes = Vec::with_capacity(NODES);
        for (i, &attribute) in attributes.iter().enumerate() {
            let cfg = NodeConfig {
                id: NodeId::new(i as u64),
                attribute,
                partition: partition.clone(),
                protocol: ProtocolKind::Ranking,
                sampler: SamplerKind::Cyclon,
                view_size: VIEW_SIZE,
                period: PERIOD,
                seed: seed.wrapping_add(i as u64),
                faults: FaultPlan::none(),
                retry: RetryPolicy::for_period(PERIOD),
                die_after_ticks: None,
            };
            let start = spans.as_deref().map(Spans::now_ns);
            let handle = NodeRuntime::spawn(cfg, directory.clone()).await?;
            if let (Some(spans), Some(start)) = (spans.as_deref_mut(), start) {
                let end = spans.now_ns();
                spans.record("net.spawn_node", None, start, end);
            }
            nodes.push(handle);
        }

        // Introduce every node to all the others (the discovery handshake).
        for (i, node) in nodes.iter().enumerate() {
            let entries: Vec<ViewEntry> = (0..NODES)
                .filter(|&j| j != i)
                .map(|j| ViewEntry::new(nodes[j].id, attributes[j], rng.gen_range(0.0001..1.0f64)))
                .collect();
            let first = (i + 1) % NODES;
            let intro = WireMsg {
                reply_to: nodes[first].addr.to_string(),
                msg: ProtocolMsg::ViewAck {
                    from: nodes[first].id,
                    entries,
                },
            };
            let mut stream = TcpStream::connect(node.addr).await?;
            write_frame(&mut stream, &intro).await?;
        }
        Ok(Cluster { nodes })
    }

    fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.nodes.iter().map(NodeHandle::snapshot).collect()
    }

    fn any_exited(&self) -> bool {
        self.nodes.iter().any(NodeHandle::is_finished)
    }

    /// Signals every node to stop and waits for each to end.
    async fn stop(self) {
        for node in self.nodes {
            node.stop().await;
        }
    }
}

/// Why a probe exchange failed.
#[derive(Debug)]
enum ProbeError {
    /// Connect or write to the node failed.
    Send,
    /// No `ViewAck` from the probed node within [`PROBE_TIMEOUT`].
    NoReply,
}

/// The probe client: a listener for replies and the frame it sends.
struct Probe {
    listener: TcpListener,
    request: WireMsg,
}

impl Probe {
    async fn bind() -> io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0").await?;
        let request = WireMsg {
            reply_to: listener.local_addr()?.to_string(),
            msg: ProtocolMsg::ViewReq {
                from: NodeId::new(PROBE_ID),
                entries: Vec::new(),
            },
        };
        Ok(Probe { listener, request })
    }

    /// One exchange with `node`; returns `(send, wait)` durations.
    async fn exchange(&self, node: &NodeHandle) -> Result<(Duration, Duration), ProbeError> {
        let start = Instant::now();
        let deadline = start + PROBE_TIMEOUT;
        let mut stream = timeout(PROBE_TIMEOUT, TcpStream::connect(node.addr))
            .await
            .map_err(|_| ProbeError::Send)?
            .map_err(|_| ProbeError::Send)?;
        write_frame(&mut stream, &self.request)
            .await
            .map_err(|_| ProbeError::Send)?;
        let sent = Instant::now();
        // Replies of probes that already timed out may still arrive: skip
        // whatever is not this node's ViewAck.
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(Ok((mut reply, _))) = timeout(left, self.listener.accept()).await else {
                return Err(ProbeError::NoReply);
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if let Ok(WireMsg {
                msg: ProtocolMsg::ViewAck { from, .. },
                ..
            }) = read_frame_timeout(&mut reply, left).await
            {
                if from == node.id {
                    return Ok((sent - start, sent.elapsed()));
                }
            }
        }
    }
}

/// What a timed probe loop observed.
#[derive(Default)]
struct Probed {
    exchange_ms: Vec<f64>,
    send_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    threads_peak: u64,
}

/// Probes round-robin until `seconds` have passed (or exactly `count`
/// probes when given), one at a time.
async fn probe_loop(
    cluster: &Cluster,
    probe: &Probe,
    seconds: Duration,
    count: Option<usize>,
    mut spans: Option<&mut Spans>,
) -> Probed {
    let mut p = Probed::default();
    let cpu_start = host::cpu_seconds();
    let wall_start = Instant::now();
    let mut exited = false;
    loop {
        let k = p.attempted as usize;
        if count.map_or(wall_start.elapsed() >= seconds, |c| k >= c) {
            break;
        }
        if k.is_multiple_of(100) {
            p.threads_peak = p.threads_peak.max(host::threads());
            exited |= cluster.any_exited();
        }
        p.attempted += 1;
        let span_start = spans.as_deref().map(Spans::now_ns);
        match probe.exchange(&cluster.nodes[k % NODES]).await {
            // A reply from a cluster that has lost a node is not a result.
            Ok(_) if exited => p.failed += 1,
            Ok((send, wait)) => {
                p.send_ms.push(send.as_secs_f64() * 1e3);
                p.wait_ms.push(wait.as_secs_f64() * 1e3);
                p.exchange_ms.push((send + wait).as_secs_f64() * 1e3);
                if let (Some(spans), Some(start)) = (spans.as_deref_mut(), span_start) {
                    let sent = start + send.as_nanos() as u64;
                    let end = sent + wait.as_nanos() as u64;
                    let parent = spans.record("net.probe", None, start, end);
                    spans.record("net.probe_send", Some(parent), start, sent);
                    spans.record("net.probe_wait", Some(parent), sent, end);
                }
            }
            Err(e) => {
                if p.failed == 0 {
                    eprintln!("probe {k} failed: {e:?}");
                }
                p.failed += 1;
            }
        }
    }
    p.wall_s = wall_start.elapsed().as_secs_f64();
    p.cpu_s = host::cpu_seconds() - cpu_start;
    p
}

/// Spawns a cluster and waits until every node has answered one probe.
async fn ready_cluster(
    seed: u64,
    probe: &Probe,
    spans: Option<&mut Spans>,
) -> Result<Cluster, String> {
    let cluster = Cluster::spawn(seed, spans)
        .await
        .map_err(|e| format!("cannot spawn the cluster: {e}"))?;
    for node in &cluster.nodes {
        probe
            .exchange(node)
            .await
            .map_err(|e| format!("node {} never answered: {e:?}", node.id))?;
    }
    Ok(cluster)
}

async fn warm_up(cluster: &Cluster, probe: &Probe, smoke: bool) {
    let (sleep, probes) = if smoke {
        (WARM_UP / 5, WARM_UP_PROBES / 10)
    } else {
        (WARM_UP, WARM_UP_PROBES)
    };
    tokio::time::sleep(sleep).await;
    probe_loop(cluster, probe, Duration::ZERO, Some(probes), None).await;
}

/// Fraction of nodes whose believed slice is their true slice.
fn slice_accuracy(snapshots: &[NodeSnapshot]) -> f64 {
    let partition = Partition::equal(SLICES).expect("slices > 0");
    let truth = rank::true_slices(snapshots.iter().map(|s| (s.id, s.attribute)), &partition);
    let correct = snapshots
        .iter()
        .filter(|s| partition.slice_of(s.estimate) == truth[&s.id])
        .count();
    correct as f64 / snapshots.len() as f64
}

/// Σ ticks ÷ Σ (uptime ÷ period): 1.0 means the gossip timers keep up.
fn tick_rate_ratio(snapshots: &[NodeSnapshot]) -> f64 {
    let ticks: u64 = snapshots.iter().map(|s| s.ticks).sum();
    let due: f64 = snapshots
        .iter()
        .map(|s| s.uptime_ms as f64 / PERIOD.as_millis() as f64)
        .sum();
    ticks as f64 / due
}

fn smoke_probes(args: &RunArgs) -> Option<usize> {
    args.smoke.then_some(200)
}

async fn untraced(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let probe = Probe::bind().await.map_err(|e| e.to_string())?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster: Option<Cluster> = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        if let Some(previous) = cluster.take() {
            previous.stop().await;
        }
        let start = Instant::now();
        cluster = Some(ready_cluster(args.seed, &probe, None).await?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    warm_up(&cluster, &probe, args.smoke).await;

    let p = probe_loop(&cluster, &probe, args.duration(), smoke_probes(args), None).await;
    let snapshots = cluster.snapshots();
    cluster.stop().await;

    let exchanges = Summary::of(&p.exchange_ms);
    out.attempted = p.attempted;
    out.failed = p.failed;
    out.set("setup_s", median(&setups));
    out.set("work_per_s", exchanges.n as f64 / p.wall_s);
    out.set("op_ms_p50", exchanges.p50);
    out.set("op_ms_p75", exchanges.p75);
    out.set("slice_accuracy", slice_accuracy(&snapshots));
    out.set("cpu_cores_busy", p.cpu_s / p.wall_s);
    out.info.extend([
        ("exchanges".to_string(), json!(exchanges.n)),
        ("exchange_ms_p99".to_string(), json!(exchanges.p99)),
        (
            "tick_rate_ratio".to_string(),
            json!(tick_rate_ratio(&snapshots)),
        ),
        ("setups".to_string(), json!(setups.len())),
    ]);
    Ok(())
}

async fn traced(args: &RunArgs, out: &mut Outcome, spans: &mut Spans) -> Result<(), String> {
    let probe = Probe::bind().await.map_err(|e| e.to_string())?;
    let cluster = ready_cluster(args.seed, &probe, Some(spans)).await?;
    out.set("net.spawn_node_ms", spans.mean_ns("net.spawn_node") / 1e6);
    warm_up(&cluster, &probe, args.smoke).await;

    // Untraced reference, then the same loop with a span per probe step.
    let half = args.duration() / 2;
    let count = smoke_probes(args).map(|c| c / 2);
    let plain = probe_loop(&cluster, &probe, half, count, None).await;
    let p = probe_loop(&cluster, &probe, half, count, Some(spans)).await;
    let snapshots = cluster.snapshots();
    cluster.stop().await;

    let exchanges = Summary::of(&p.exchange_ms);
    out.attempted = p.attempted;
    out.failed = p.failed;
    out.set("net.probe_send_ms_p50", median(&p.send_ms));
    out.set("net.probe_wait_ms_p50", median(&p.wait_ms));
    out.set("net.exchange_ms_p99", exchanges.p99);
    out.set("net.exchange_ms_max", exchanges.max);
    out.set("net.tick_rate_ratio", tick_rate_ratio(&snapshots));
    let sum = |f: fn(&NodeSnapshot) -> u64| snapshots.iter().map(f).sum::<u64>() as f64;
    out.set("net.retries", sum(|s| s.retries));
    out.set("net.timeouts", sum(|s| s.timeouts));
    out.set("net.send_failures", sum(|s| s.send_failures));
    out.set("net.queue_drops", sum(|s| s.queue_drops));
    out.set("net.evictions", sum(|s| s.evictions));
    out.set(
        "net.peak_queue_depth",
        snapshots
            .iter()
            .map(|s| s.peak_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "net.threads_peak",
        p.threads_peak.max(plain.threads_peak) as f64,
    );
    out.set("net.cpu_s_per_node_s", p.cpu_s / (p.wall_s * NODES as f64));
    out.set(
        "obs.trace_overhead_pct",
        (exchanges.p50 / median(&plain.exchange_ms) - 1.0) * 100.0,
    );
    out.info.extend([
        ("exchanges".to_string(), json!(exchanges.n)),
        (
            "untraced_reference_op_ms_p50".to_string(),
            json!(median(&plain.exchange_ms)),
        ),
    ]);

    let mut m = Micro {
        spans,
        out,
        smoke: args.smoke,
    };
    micro::codec(&mut m, VIEW_SIZE);
    micro::core_view(&mut m, VIEW_SIZE);
    micro::gossip(&mut m, VIEW_SIZE, NODES);
    micro::algorithms(
        &mut m,
        VIEW_SIZE,
        SLICES,
        Families {
            ranking: true,
            ordering: false,
            defences: false,
        },
    );
    micro::obs(&mut m);
    Ok(())
}

/// Runs the workload on this thread under the vendored executor: traced
/// (per-layer metrics) when given a span log, untraced (end-to-end metrics)
/// otherwise.
pub fn run(args: &RunArgs, out: &mut Outcome, spans: Option<&mut Spans>) -> Result<(), String> {
    match spans {
        None => tokio::runtime::block_on(untraced(args, out)),
        Some(spans) => tokio::runtime::block_on(traced(args, out, spans)),
    }
}
