//! Phases 2 and 6, the latency drain and delivery, and the message routing
//! they share.
//!
//! The **latency drain** delivers, in random order and before anyone's
//! active step, the messages whose cross-cycle latency elapsed — the
//! paper's staleness scenario stretched across cycles. The **delivery**
//! phase routes the outbox sender by sender per the
//! [`Concurrency`](crate::Concurrency) model: non-overlapping messages are
//! delivered immediately as *atomic exchanges*, overlapping ones wait for
//! an end-of-cycle drain in random order, where stale payloads surface as
//! unsuccessful swaps. Whatever a delivery provokes is routed the same way
//! (and may itself be delayed into a later cycle). All three drains are one
//! loop, [`Delivery::drain`].
//!
//! ## Atomic exchanges under phased execution
//!
//! The paper's baseline model executes each swap exchange atomically. In a
//! phased cycle, a proposal is *computed* in the active phase but
//! *resolved* here, so two same-cycle proposals can race for one partner.
//! For non-overlapping messages the engine restores atomicity by
//! **replaying** the loser: if a swap proposal no longer satisfies the
//! misplacement predicate when it is delivered (because an earlier
//! same-cycle exchange moved a value), the proposer's view is refreshed and
//! its active step re-runs against current state (on its replay stream),
//! exactly as if its atomic turn came after the conflicting exchange — so
//! `Concurrency::None` produces zero unsuccessful swaps, as in the paper.
//! Overlapping and latency-delayed proposals are *not* replayed; their
//! staleness is the measurement of §4.5.2 / Fig. 4(c).
//!
//! Delivery resolves each endpoint of a message once and borrows the
//! recipient where it lives. At the start of every group of `GATHER_AHEAD`
//! messages it reads the next group's recipients ahead (slab cell and
//! published value).

use super::active::Outbox;
use super::{Cycle, EngineCtx, Envelope, Payload, SimNode, GATHER_AHEAD, REPLAY_SALT};
use crate::stats::EventCounters;
use dslice_core::protocol::{Event, SliceProtocol};
use dslice_core::NodeSlab;
use dslice_gossip::PeerSampler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;
use std::hint::black_box;

/// The delivery queues, kept across cycles, and the messages held across
/// cycles by the latency model.
#[derive(Default)]
pub(super) struct Queues {
    /// Messages delayed across cycles: `(deliver_at_cycle, message)`.
    pub(super) in_flight: Vec<(usize, Envelope)>,
    /// Work queue shared by the three drains.
    queue: VecDeque<Envelope>,
    /// Overlap-deferred messages awaiting the end-of-cycle drain, and
    /// inside it, what one delivery provoked that overlaps.
    deferred: Vec<Envelope>,
    /// What the message being delivered provoked, before it is routed.
    responses: Vec<Envelope>,
    /// The atomic-exchange replay's own delivery queue (the outer one is
    /// mid-drain).
    replay_queue: VecDeque<Envelope>,
}

/// What the message path borrows for one cycle: the slab, the engine's
/// shared stream, the queues and the cycle's tallies.
pub(super) struct Delivery<'a> {
    pub(super) cx: &'a Cycle<'a>,
    pub(super) nodes: &'a mut NodeSlab<SimNode>,
    pub(super) rng: &'a mut StdRng,
    pub(super) q: &'a mut Queues,
    pub(super) counters: &'a mut EventCounters,
    pub(super) dropped: &'a mut u64,
}

impl Delivery<'_> {
    /// Latency drain: the messages due this cycle land in random order;
    /// their responses re-enter the normal routing.
    pub(super) fn drain_due(&mut self) {
        let (cycle, queue) = (self.cx.cycle, &mut self.q.queue);
        self.q.in_flight.retain(|&(at, envelope)| {
            if at <= cycle {
                queue.push_back(envelope);
            }
            at > cycle
        });
        queue.make_contiguous().shuffle(self.rng);
        self.drain(false, false);
    }

    /// Delivery phase: each sender's messages are routed, then everything
    /// immediate they provoked is delivered before the next sender's turn;
    /// last, the end-of-cycle drain delivers the overlapping messages in
    /// random order.
    pub(super) fn run(&mut self, outbox: &Outbox) {
        let mut next = 0;
        for &end in &outbox.ends {
            for (pos, &envelope) in outbox.msgs[next..end].iter().enumerate() {
                if (next + pos) % GATHER_AHEAD == 0 {
                    let ahead = outbox.msgs.iter().skip(next + pos + GATHER_AHEAD);
                    for envelope in ahead.take(GATHER_AHEAD) {
                        if let Some(node) = self.nodes.get(envelope.to) {
                            black_box(node.proto.published_value());
                        }
                    }
                }
                self.route(envelope);
            }
            next = end;
            self.drain(true, false);
        }
        self.q.deferred.shuffle(self.rng);
        self.q.queue.extend(self.q.deferred.drain(..));
        self.drain(false, true);
        let q = &self.q;
        debug_assert!(
            q.queue.is_empty() && q.deferred.is_empty() && q.responses.is_empty(),
            "delivery left messages queued"
        );
        debug_assert!(q.replay_queue.is_empty(), "a replay left messages queued");
    }

    /// Delivers until the queue is empty, routing what each delivery
    /// provokes: immediate messages join the queue, overlapping ones
    /// `deferred`. In the end-of-cycle drain (`requeue`), which has no later
    /// drain, those are appended to the queue after each message.
    fn drain(&mut self, atomic: bool, requeue: bool) {
        while let Some(envelope) = self.q.queue.pop_front() {
            self.deliver(envelope, atomic);
            for i in 0..self.q.responses.len() {
                self.route(self.q.responses[i]);
            }
            self.q.responses.clear();
            if requeue {
                self.q.queue.extend(self.q.deferred.drain(..));
            }
        }
    }

    /// Routes one outgoing message: drops it (partition, fault drop, loss),
    /// holds it across cycles (latency), defers it within the cycle
    /// (overlap), or queues it for immediate delivery. A quiet fault (the
    /// default) checks nothing and flips no coin, keeping fault-free runs
    /// byte-identical.
    fn route(&mut self, envelope: Envelope) {
        let (cfg, fault) = (self.cx.cfg, self.cx.fault);
        let faulted = !fault.is_quiet() && (self.severed(envelope) || self.lost(fault.drop_rate()));
        if faulted || self.lost(cfg.loss_rate) {
            *self.dropped += 1;
            return;
        }
        let delay = self.latency_to(envelope).sample(self.rng);
        if delay > 0 {
            let at = self.cx.cycle + delay as usize;
            self.q.in_flight.push((at, envelope));
        } else if cfg.concurrency.overlaps(self.rng) {
            self.q.deferred.push(envelope);
        } else {
            self.q.queue.push_back(envelope);
        }
    }

    /// The one loss coin, of the configured loss rate or the fault drop
    /// rate: flipped only while `rate` is non-zero.
    fn lost(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen::<f64>() < rate
    }

    /// Whether `envelope` crosses an installed network partition (both
    /// endpoints live in different attribute bands). Consumes no RNG; a
    /// departed endpoint is not this check's concern (delivery handles it).
    fn severed(&self, envelope: Envelope) -> bool {
        let attribute = |id| self.nodes.get(id).map(|n| n.proto.attribute().value());
        match (attribute(envelope.from), attribute(envelope.to)) {
            (Some(from), Some(to)) => self.cx.fault.severed(from, to),
            _ => false,
        }
    }

    /// The latency model governing delivery of `envelope`: the recipient
    /// band's fault override while a partition holds, the configured model
    /// otherwise.
    fn latency_to(&self, envelope: Envelope) -> crate::LatencyModel {
        let (fault, latency) = (self.cx.fault, self.cx.cfg.latency);
        if fault.partition().is_none() {
            return latency;
        }
        let to = self.nodes.get(envelope.to);
        to.and_then(|n| fault.latency_override(n.proto.attribute().value()))
            .unwrap_or(latency)
    }

    /// Delivers one message, leaving the responses it provoked in
    /// `responses`. Each endpoint's slot is resolved once and the node
    /// addressed in place from then on.
    ///
    /// `SwapReq` messages are resolved *transactionally* (see
    /// [`SliceProtocol::try_atomic_swap`]): the paper's cycle-based
    /// evaluation semantics, under which a stale proposal means "the
    /// expected swap does not occur" — never a half-completed exchange.
    /// `atomic` is true on the immediate (non-overlapping, zero-latency)
    /// path, where a conflicted proposal is replayed instead of counted
    /// stale (see [`Delivery::replay`] and the module docs). All other
    /// messages take the ordinary `on_message` path.
    fn deliver(&mut self, envelope: Envelope, atomic: bool) {
        if let Payload::SwapReq { a, .. } = envelope.payload {
            let nodes = &mut *self.nodes;
            let (Some(to_slot), Some(from_slot)) =
                (nodes.slot_of(envelope.to), nodes.slot_of(envelope.from))
            else {
                // Either endpoint departed mid-flight: the exchange cannot
                // complete; the message is lost.
                *self.dropped += 1;
                return;
            };
            // The proposal is evaluated against the proposer's *current*
            // value; the snapshot in the message only matters on real wires.
            let current_r = nodes.slot(from_slot).expect("resolved slot is live");
            let current_r = current_r.proto.estimate();
            let callee = nodes.slot_mut(to_slot).expect("resolved slot is live");
            match callee.proto.try_atomic_swap(a, current_r) {
                Some(pre_swap) => {
                    let proposer = nodes.slot_mut(from_slot).expect("resolved slot is live");
                    proposer.proto.adopt_value(pre_swap);
                    self.counters.record(Event::SwapApplied);
                }
                None if atomic => self.replay(from_slot),
                None => self.counters.record(Event::SwapUseless),
            }
            return;
        }
        match self.nodes.get_mut(envelope.to) {
            Some(node) => {
                let mut ctx = EngineCtx {
                    rng: &mut *self.rng,
                    out: &mut self.q.responses,
                    counters: &mut *self.counters,
                };
                node.proto
                    .on_message(node.sampler.view(), envelope.message(), &mut ctx);
            }
            None => *self.dropped += 1,
        }
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
    ///
    /// A swap request provokes no response, so `responses` is empty when a
    /// replay starts, and the replay stages its own traffic there.
    fn replay(&mut self, from_slot: usize) {
        // The aborted proposal never happened under atomic semantics;
        // un-count it (its replacement, if any, records itself).
        let proposed = &mut self.counters.swaps_proposed;
        *proposed = proposed.saturating_sub(1);
        // The proposer steps out of the slab while it reads its neighbors.
        let Some((from, mut node)) = self.nodes.take_slot(from_slot) else {
            return;
        };
        let nodes = &*self.nodes;
        node.sampler
            .view_mut()
            .refresh_values(|nid| nodes.get(nid).map(|n| n.proto.published_value()));
        let mut ctx = EngineCtx {
            rng: &mut self.cx.rng(from, REPLAY_SALT),
            out: &mut self.q.responses,
            counters: &mut *self.counters,
        };
        node.proto.on_active(node.sampler.view(), &mut ctx);
        self.nodes.put_back(from_slot, from, node);

        self.q.replay_queue.extend(self.q.responses.drain(..));
        while let Some(envelope) = self.q.replay_queue.pop_front() {
            self.deliver(envelope, false);
            self.q.replay_queue.extend(self.q.responses.drain(..));
        }
    }
}
