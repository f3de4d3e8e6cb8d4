//! Timed loops over each layer's public calls, at the workload's own view
//! size `c` and population `n`. Run only in the traced run; every loop is
//! also a span in the workload's trace.
//!
//! A layer number here is a hint about where an end-to-end change came
//! from, never a result by itself (see the prediction list in the README).

use crate::report::Outcome;
use crate::span::Spans;
use bytes::BytesMut;
use dslice_algorithms::{
    CounterEstimator, DecayEstimator, ProtocolKind, RankEstimator, ValueWindow, WindowEstimator,
};
use dslice_core::metrics::{self, RankCache};
use dslice_core::protocol::MockContext;
use dslice_core::{Attribute, NodeId, NodeSlab, Partition, ProtocolMsg, View, ViewEntry};
use dslice_gossip::{CyclonSampler, PeerSampler};
use dslice_net::{decode_frame, encode_frame, WireMsg};
use dslice_obs::{export, FlightRecorder, Histogram, Registry, TraceConfig, TraceKind, NS_BUCKETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed batch lasts at least this long, so the clock reads and the
/// loop overhead are a negligible share of it.
const BATCH: Duration = Duration::from_millis(8);
/// Batches per loop; the fastest is reported (the others met interference).
const BATCHES: usize = 3;

/// Where the timed loops put their spans and their numbers.
#[derive(Debug)]
pub struct Micro<'a> {
    /// The workload's span log.
    pub spans: &'a mut Spans,
    /// The workload's outcome.
    pub out: &'a mut Outcome,
    /// Smoke sizes: one short batch per loop.
    pub smoke: bool,
}

impl Micro<'_> {
    /// Nanoseconds per call of `op`: the batch size is doubled until one
    /// batch fills [`BATCH`], then the fastest of [`BATCHES`] is taken.
    fn ns_per_op(&mut self, span: &'static str, mut op: impl FnMut()) -> f64 {
        let (batch, batches) = if self.smoke {
            (Duration::from_micros(200), 1)
        } else {
            (BATCH, BATCHES)
        };
        let start_ns = self.spans.now_ns();
        let mut run_batch = |iters: u64| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed()
        };
        let mut iters = 1u64;
        let mut best = run_batch(iters);
        while best < batch {
            iters *= 2;
            best = run_batch(iters);
        }
        for _ in 1..batches {
            best = best.min(run_batch(iters));
        }
        let end_ns = self.spans.now_ns();
        self.spans.record(span, None, start_ns, end_ns);
        best.as_nanos() as f64 / iters as f64
    }

    /// Times `op` and stores the result under the metric `name`, divided by
    /// `per` (items one call handles).
    pub fn bench(&mut self, name: &'static str, per: usize, op: impl FnMut()) {
        let ns = self.ns_per_op(name, op);
        self.out.set(name, ns / per.max(1) as f64);
    }
}

fn attr(v: f64) -> Attribute {
    Attribute::new(v).expect("finite attribute")
}

fn entry(id: u64, age: u32, rng: &mut StdRng) -> ViewEntry {
    ViewEntry::with_age(
        NodeId::new(id),
        age,
        attr(rng.gen_range(0.0..1e6)),
        rng.gen_range(0.0001..1.0),
    )
}

/// A full view of capacity `c` over ids `first..first + c`.
fn full_view(c: usize, first: u64, rng: &mut StdRng) -> View {
    let mut view = View::new(c).expect("c > 0");
    for i in 0..c as u64 {
        view.insert(entry(first + i, (i % 5) as u32, rng));
    }
    view
}

/// `dslice_core`'s view: what every membership exchange and refresh does.
pub fn core_view(m: &mut Micro<'_>, c: usize) {
    let mut rng = StdRng::seed_from_u64(0xC07E);
    let owner = NodeId::new(0);

    // View::merge — a resident full view takes an incoming one of the same
    // size whose ids half overlap (what a Cyclon reply looks like).
    let resident = full_view(c, 1, &mut rng);
    let incoming: Vec<ViewEntry> = (0..c as u64)
        .map(|i| entry(1 + c as u64 / 2 + i, (i % 3) as u32, &mut rng))
        .collect();
    m.bench("core.view_merge_ns", 1, || {
        let mut view = resident.clone();
        view.merge(owner, black_box(&incoming));
        black_box(view);
    });

    let mut view = full_view(c, 1, &mut rng);
    let published: Vec<f64> = (0..=2 * c).map(|i| (i as f64 + 1.0) / 1e3).collect();
    m.bench("core.view_refresh_ns", 1, || {
        view.refresh_values(|id| Some(published[id.as_u64() as usize]));
        black_box(&view);
    });
}

/// `dslice_core`'s population structures — slab, rank cache, disorder
/// measures — which only the simulator uses.
pub fn core_population(m: &mut Micro<'_>, n: usize, churn: usize, slices: usize) {
    let mut rng = StdRng::seed_from_u64(0x51AB);

    // NodeSlab — n slots, random pairs, the membership phase's access.
    let mut slab: NodeSlab<u64> = NodeSlab::with_capacity(n);
    for id in 0..n as u64 {
        slab.insert(NodeId::new(id), id);
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let a = rng.gen_range(0..n as u64);
            let b = (a + rng.gen_range(1..n as u64)) % n as u64;
            (NodeId::new(a), NodeId::new(b))
        })
        .collect();
    let mut k = 0usize;
    m.bench("core.slab_take_put_ns", 1, || {
        let (a, b) = pairs[k % pairs.len()];
        k += 1;
        let pair = slab.take_pair(a, b).expect("distinct live ids");
        slab.put_back_pair(black_box(pair));
    });

    // Insert/remove keeps the population at n: one leaver, one joiner.
    let mut live: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
    let mut next_id = n as u64;
    let mut k = 0usize;
    m.bench("core.slab_insert_remove_ns", 1, || {
        let i = pairs[k % pairs.len()].0.as_u64() as usize;
        k += 1;
        black_box(slab.remove(live[i]));
        live[i] = NodeId::new(next_id);
        slab.insert(live[i], next_id);
        next_id += 1;
    });

    // RankCache and the disorder measures over n nodes.
    let partition = Partition::equal(slices).expect("slices > 0");
    let mut snapshot: Vec<(NodeId, Attribute, f64)> = (0..n as u64)
        .map(|id| {
            (
                NodeId::new(id),
                attr(rng.gen_range(0.0..1e6)),
                rng.gen_range(0.0001..1.0),
            )
        })
        .collect();
    let mut cache = RankCache::new();
    cache.rebuild(snapshot.iter().map(|&(id, a, _)| (id, a)));
    m.bench("core.rankcache_sdm_ns_per_node", n, || {
        black_box(cache.sdm(&partition, snapshot.iter().map(|&(id, _, est)| (id, est))));
    });
    m.bench("core.gdm_ns_per_node", n, || {
        black_box(metrics::gdm(&snapshot));
    });

    // apply_churn at the workload's per-cycle churn count (at least one
    // node, so a static workload still reports what one replacement costs).
    let churn = churn.clamp(1, n);
    let mut next_id = n as u64;
    let mut at = 0usize;
    m.bench("core.rankcache_churn_ns", 1, || {
        let mut leavers = Vec::with_capacity(churn);
        let mut joiners = Vec::with_capacity(churn);
        for _ in 0..churn {
            let slot = &mut snapshot[at % n];
            at += 1;
            leavers.push(slot.0);
            slot.0 = NodeId::new(next_id);
            next_id += 1;
            joiners.push((slot.0, slot.1));
        }
        cache.apply_churn(&leavers, &joiners);
    });
}

/// `dslice_gossip`: one Cyclon exchange and one dead-neighbour sweep.
pub fn gossip(m: &mut Micro<'_>, c: usize, n: usize) {
    let mut rng = StdRng::seed_from_u64(0x6055);
    let seeded = |owner: u64, rng: &mut StdRng| {
        let mut s = CyclonSampler::new(NodeId::new(owner), c).expect("c > 0");
        for i in 0..c as u64 {
            s.view_mut().insert(entry(10 + i, (i % 5) as u32, rng));
        }
        s
    };
    let mut a = seeded(0, &mut rng);
    let mut p = seeded(1, &mut rng);
    let desc_a = ViewEntry::new(NodeId::new(0), attr(0.0), 0.5);
    let desc_p = ViewEntry::new(NodeId::new(1), attr(1.0), 0.5);
    m.bench("gossip.cyclon_exchange_ns", 1, || {
        if let Some(partner) = a.schedule_exchange(&mut rng) {
            let req = a.initiate_with(partner, desc_a, &mut rng);
            let reply = p.handle_request(desc_p, NodeId::new(0), &req.entries);
            a.handle_reply(partner, &reply);
        }
    });

    // The engine's churn phase asks every sampler whether each neighbour
    // is still in the live set; nearly all are.
    let alive: HashSet<NodeId> = (0..n.max(c + 10) as u64).map(NodeId::new).collect();
    let mut s = seeded(0, &mut rng);
    m.bench("gossip.remove_dead_ns", 1, || {
        s.remove_dead(&|id| alive.contains(&id));
        black_box(&s);
    });
}

/// Which protocol families a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Families {
    /// The ranking family (Fig. 5).
    pub ranking: bool,
    /// The ordering family (mod-JK, Fig. 2).
    pub ordering: bool,
    /// The defended variants' sample windows and aging estimators.
    pub defences: bool,
}

/// `dslice_algorithms`: protocol steps through `ProtocolKind::build` and a
/// `MockContext`, estimators, and the defended variants' windows.
pub fn algorithms(m: &mut Micro<'_>, c: usize, slices: usize, families: Families) {
    let mut rng = StdRng::seed_from_u64(0xA160);
    let partition = Partition::equal(slices).expect("slices > 0");
    let view = full_view(c, 10, &mut rng);
    let me = NodeId::new(1);
    let mut ctx = MockContext::new(StdRng::seed_from_u64(4));

    if families.ranking {
        let mut node = ProtocolKind::Ranking.build(me, attr(5e5), &partition, &mut rng);
        m.bench("algorithms.ranking_active_ns", 1, || {
            node.on_active(&view, &mut ctx);
            ctx.sent.clear();
            ctx.events.clear();
        });
        let mut k = 0u64;
        m.bench("algorithms.ranking_update_ns", 1, || {
            k += 1;
            let msg = ProtocolMsg::Update {
                from: NodeId::new(2),
                a: attr((k % 1000) as f64 * 1e3),
            };
            node.on_message(&view, msg, &mut ctx);
            ctx.sent.clear();
            ctx.events.clear();
        });
        let mut counter = CounterEstimator::new();
        let mut k = 0u64;
        m.bench("algorithms.counter_absorb_ns", 1, || {
            k += 1;
            counter.absorb(k.is_multiple_of(3));
            black_box(&counter);
        });
    }

    if families.ordering {
        let mut node = ProtocolKind::ModJk.build(me, attr(5e5), &partition, &mut rng);
        m.bench("algorithms.modjk_active_ns", 1, || {
            node.on_active(&view, &mut ctx);
            ctx.sent.clear();
            ctx.events.clear();
        });
        // The simulator's transactional swap: low attribute holding the
        // high value meets the opposite; after the swap the pair is put
        // back out of order so every call swaps.
        let (lo_attr, hi_attr) = (attr(1.0), attr(2.0));
        let mut lo = ProtocolKind::ModJk.build(NodeId::new(2), lo_attr, &partition, &mut rng);
        let mut hi = ProtocolKind::ModJk.build(NodeId::new(3), hi_attr, &partition, &mut rng);
        m.bench("algorithms.modjk_swap_ns", 1, || {
            lo.adopt_value(0.9);
            hi.adopt_value(0.1);
            let old = lo
                .try_atomic_swap(hi_attr, hi.estimate())
                .expect("misplaced pair swaps");
            hi.adopt_value(black_box(old));
        });
    }

    let kind = if families.ordering && !families.ranking {
        ProtocolKind::ModJk
    } else {
        ProtocolKind::Ranking
    };
    let mut id = 100u64;
    m.bench("algorithms.protocol_build_ns", 1, || {
        id += 1;
        black_box(kind.build(NodeId::new(id), attr(id as f64), &partition, &mut rng));
    });

    if families.defences {
        const W: usize = 256;
        let mut window = WindowEstimator::new(W);
        let mut k = 0u64;
        m.bench("algorithms.window_absorb_ns", 1, || {
            k += 1;
            window.absorb(k.is_multiple_of(3));
            black_box(&window);
        });
        let mut decay = DecayEstimator::new(0.99);
        m.bench("algorithms.decay_absorb_ns", 1, || {
            k += 1;
            decay.absorb(k.is_multiple_of(3));
            black_box(&decay);
        });
        let mut values = ValueWindow::new(W);
        for _ in 0..W {
            values.push(rng.gen_range(0.0..1e6));
        }
        m.bench("algorithms.tukey_fences_ns", 1, || {
            black_box(values.tukey_fences(1.5));
        });
        m.bench("algorithms.fence_trim_cuts_ns", 1, || {
            black_box(values.fenced_trim_cuts(1.5, 0.1));
        });
    }
}

/// `dslice_net`'s codec: a view frame of `c` entries and an update frame.
pub fn codec(m: &mut Micro<'_>, c: usize) {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let reply_to = "127.0.0.1:40000".to_string();
    let view = WireMsg {
        reply_to: reply_to.clone(),
        msg: ProtocolMsg::ViewReq {
            from: NodeId::new(1),
            entries: (0..c as u64).map(|i| entry(10 + i, 1, &mut rng)).collect(),
        },
    };
    let update = WireMsg {
        reply_to,
        msg: ProtocolMsg::Update {
            from: NodeId::new(1),
            a: attr(123_456.789),
        },
    };
    for (msg, encode, decode, bytes) in [
        (
            &view,
            "net.encode_view_ns",
            "net.decode_view_ns",
            "net.frame_bytes_view",
        ),
        (
            &update,
            "net.encode_update_ns",
            "net.decode_update_ns",
            "net.frame_bytes_update",
        ),
    ] {
        let frame = encode_frame(msg).expect("small frame");
        m.out.set(bytes, frame.len() as f64);
        m.bench(encode, 1, || {
            black_box(encode_frame(black_box(msg)).expect("small frame"));
        });
        m.bench(decode, 1, || {
            let mut buf = BytesMut::from(&frame[..]);
            black_box(decode_frame(&mut buf).expect("valid frame"));
        });
    }
}

/// `dslice_obs`: the recorder, the registry and the chrome exporter.
pub fn obs(m: &mut Micro<'_>) {
    let mut recorder = FlightRecorder::new(TraceConfig::on());
    let mut k = 0u64;
    m.bench("obs.record_span_ns", 1, || {
        k += 1;
        recorder.span(TraceKind::PhaseActive, k, k * 10, 7);
    });
    m.bench("obs.record_instant_ns", 1, || {
        k += 1;
        recorder.instant(TraceKind::CycleSwaps, k, None, 3, 1);
    });
    let mut registry = Registry::new();
    m.bench("obs.counter_add_ns", 1, || {
        registry.counter_add("dslice_bench_ops_total", "operations", 1);
    });
    let mut histogram = Histogram::new(&NS_BUCKETS);
    m.bench("obs.histogram_observe_ns", 1, || {
        k += 1;
        histogram.observe((k % 1_000_000) as f64);
    });
    let events: Vec<_> = recorder.events().take(1024).copied().collect();
    m.bench("obs.to_chrome_ns_per_event", events.len(), || {
        black_box(export::to_chrome(&events));
    });
}
