//! The protocol interface: how slicing algorithms plug into a runtime.
//!
//! A slicing protocol is a small state machine driven by two entry points —
//! the periodic *active thread* and the message-triggered *passive thread*
//! (the structure of Figs. 2 and 5 of the paper). Runtimes (the deterministic
//! cycle simulator in `dslice-sim`, the tokio runtime in `dslice-net`) own
//! the node's [`View`] and the transport; the protocol owns its estimate.
//!
//! The split keeps protocol implementations *identical* across runtimes,
//! which is what makes the simulator results transferable.

use crate::{Attribute, NodeId, Partition, ProtocolMsg, SliceIndex, View};
use rand::RngCore;

/// Statistics events a protocol reports to its runtime.
///
/// The paper's Figure 4(c) ("percentage of unsuccessful swaps") is computed
/// from the `Swap*` events.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Event {
    /// A swap proposal (`REQ`) was sent.
    SwapProposed,
    /// A swap was applied locally (either side of the exchange).
    SwapApplied,
    /// A swap message was received but the misplacement predicate no longer
    /// held — the paper's *unsuccessful swap* (§4.5.2).
    SwapUseless,
    /// An `UPD` attribute sample was sent (ranking algorithm).
    UpdateSent,
    /// An attribute sample was folded into the rank estimate.
    SampleAbsorbed,
    /// A swap proposal was abandoned unresolved — the partner never
    /// answered (dead, or it refused the transactional swap). Recorded by
    /// the liveness-tracking ordering variant when it clears a stale
    /// `pending` slot. On the wire path `SwapProposed` totals reconcile as
    /// `proposed = applied-by-initiator + useless + abandoned`; under the
    /// simulator's *atomic* delivery path a refused proposal is un-counted
    /// from `SwapProposed` before the replayed activation abandons it, so
    /// there the gross proposal count is `proposed + abandoned` and each
    /// abandon is one wasted activation.
    SwapAbandoned,
    /// An attribute sample was rejected by outlier-robust admission instead
    /// of being folded into the estimate (defended ranking variants).
    SampleRejected,
}

/// Runtime services offered to a protocol during a callback.
pub trait Context {
    /// Sends a message to another node. Delivery semantics (immediate,
    /// delayed, dropped on churn) belong to the runtime.
    fn send(&mut self, to: NodeId, msg: ProtocolMsg);

    /// The runtime's random number generator (deterministic in simulation).
    fn rng(&mut self) -> &mut dyn RngCore;

    /// Reports a statistics event.
    fn record(&mut self, event: Event);

    /// Reports `n` occurrences of one statistics event at once — what `n`
    /// calls to [`record`](Self::record) report, which is the default.
    fn record_n(&mut self, event: Event, n: usize) {
        for _ in 0..n {
            self.record(event);
        }
    }
}

/// A distributed slicing protocol instance, one per node.
///
/// Implementations in `dslice-algorithms`:
/// * `Ordering` — the ordering family (§4): the baseline JK algorithm of
///   Jelasity & Kermarrec, the paper's mod-JK, and mod-JK with swap
///   liveness.
/// * `Ranking`, `SlidingRanking` and `DecayRanking` — the rank-estimation
///   family (§5), with unbounded counters, the sliding window of §5.3.4,
///   and exponential sample aging.
/// * `Liar` and `Adaptive` — attackers wrapping another instance.
/// * `AnyProtocol` — any of the above in one enum, which is what both
///   runtimes hold per node.
pub trait SliceProtocol: Send {
    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// This node's (immutable) attribute value.
    fn attribute(&self) -> Attribute;

    /// The node's current normalized-rank estimate in `(0, 1]`: the random
    /// value `r_i` for ordering algorithms, `ℓ_i/g_i` for ranking.
    fn estimate(&self) -> f64;

    /// The value this node publishes in view entries about itself. Defaults
    /// to [`estimate`](Self::estimate); both families publish their estimate.
    fn published_value(&self) -> f64 {
        self.estimate()
    }

    /// The periodic active step (Fig. 2 lines 2–14, Fig. 5 lines 2–16).
    /// Called once per cycle *after* the membership layer refreshed `view`.
    fn on_active(&mut self, view: &View, ctx: &mut dyn Context);

    /// The passive step: a message arrived (Fig. 2 lines 15–19, Fig. 5
    /// lines 17–21). Those lines read only the message, and the cycle
    /// simulator passes an empty `view` here (the network runtime passes
    /// the node's own), so an implementation must not depend on the view's
    /// contents.
    fn on_message(&mut self, view: &View, msg: ProtocolMsg, ctx: &mut dyn Context);

    /// The slice this node currently believes it belongs to.
    fn slice(&self, partition: &Partition) -> SliceIndex {
        partition.slice_of(self.estimate())
    }

    /// Transactional swap hook for the *simulator's* delivery semantics.
    ///
    /// The paper's cycle-based evaluation treats a stale swap proposal as
    /// "the message of `i` becomes useless and **the expected swap does not
    /// occur**" (§4.5.2) — an exchange either completes atomically or
    /// aborts, so the multiset of random values is conserved. The simulator
    /// implements that by resolving a delivered `SwapReq` through this hook
    /// with the proposer's *current* value: if the misplacement predicate
    /// holds, the callee adopts `other_value` and returns its own pre-swap
    /// value (which the runtime hands to the proposer via
    /// [`adopt_value`](Self::adopt_value)); otherwise it returns `None` and
    /// nothing changes anywhere.
    ///
    /// Over a real network (`dslice-net`) no such transaction exists: the
    /// raw Fig. 2 message path (`on_message`) runs instead, where
    /// half-completed exchanges can duplicate values — the honest cost of
    /// asynchrony that the paper's simulator abstracts away.
    ///
    /// The default (for estimate-based protocols, which never swap) refuses.
    fn try_atomic_swap(&mut self, _other_attr: Attribute, _other_value: f64) -> Option<f64> {
        None
    }

    /// Second half of the transactional swap: unconditionally adopt the
    /// value returned by the partner's [`try_atomic_swap`](Self::try_atomic_swap).
    /// Default: no-op (estimate-based protocols hold no swappable value).
    fn adopt_value(&mut self, _value: f64) {}

    /// Replaces the slice partition this node targets.
    ///
    /// §3.2 assumes "this partitioning is known by all nodes"; when the
    /// platform re-allocates resources it installs a *new* partitioning,
    /// and the point of rank-based slicing is that nothing else needs to
    /// change: estimates (random values, rank fractions) are
    /// partition-independent, so every node's new slice is just a fresh
    /// lookup. Protocols that *store* the partition (the ranking family
    /// uses it for `j1` boundary targeting) override this to swap it;
    /// the default no-op suits protocols that never consult it.
    fn set_partition(&mut self, _partition: &Partition) {}
}

/// A recording [`Context`] for unit tests and single-node driving.
///
/// Collects sent messages and events; hands out a caller-provided RNG.
#[derive(Debug)]
pub struct MockContext<R: RngCore> {
    /// Messages sent through this context, in order.
    pub sent: Vec<(NodeId, ProtocolMsg)>,
    /// Events recorded through this context, in order.
    pub events: Vec<Event>,
    rng: R,
}

impl<R: RngCore> MockContext<R> {
    /// Creates a mock context around the given RNG.
    pub fn new(rng: R) -> Self {
        MockContext {
            sent: Vec::new(),
            events: Vec::new(),
            rng,
        }
    }

    /// Number of recorded occurrences of `event`.
    pub fn count(&self, event: Event) -> usize {
        self.events.iter().filter(|e| **e == event).count()
    }

    /// Drains and returns the sent messages.
    pub fn take_sent(&mut self) -> Vec<(NodeId, ProtocolMsg)> {
        std::mem::take(&mut self.sent)
    }
}

impl<R: RngCore> Context for MockContext<R> {
    fn send(&mut self, to: NodeId, msg: ProtocolMsg) {
        self.sent.push((to, msg));
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }

    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixed {
        id: NodeId,
        a: Attribute,
        r: f64,
    }

    impl SliceProtocol for Fixed {
        fn id(&self) -> NodeId {
            self.id
        }
        fn attribute(&self) -> Attribute {
            self.a
        }
        fn estimate(&self) -> f64 {
            self.r
        }
        fn on_active(&mut self, _view: &View, ctx: &mut dyn Context) {
            ctx.record(Event::SwapProposed);
        }
        fn on_message(&mut self, _view: &View, _msg: ProtocolMsg, _ctx: &mut dyn Context) {}
    }

    #[test]
    fn default_slice_uses_estimate() {
        let p = Fixed {
            id: NodeId::new(1),
            a: Attribute::new(5.0).unwrap(),
            r: 0.77,
        };
        let part = Partition::equal(10).unwrap();
        assert_eq!(p.slice(&part).as_usize(), 7);
        assert_eq!(p.published_value(), 0.77);
    }

    #[test]
    fn mock_context_records() {
        let mut ctx = MockContext::new(StdRng::seed_from_u64(1));
        let mut p = Fixed {
            id: NodeId::new(1),
            a: Attribute::new(5.0).unwrap(),
            r: 0.5,
        };
        let view = View::new(4).unwrap();
        p.on_active(&view, &mut ctx);
        assert_eq!(ctx.count(Event::SwapProposed), 1);
        ctx.send(
            NodeId::new(2),
            ProtocolMsg::SwapAck {
                from: NodeId::new(1),
                r: 0.5,
            },
        );
        assert_eq!(ctx.take_sent().len(), 1);
        assert!(ctx.sent.is_empty());
        let _ = ctx.rng().next_u32();
    }
}
