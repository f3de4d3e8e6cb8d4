//! Lying nodes: the adversarial extension of the slicing-accuracy question.
//!
//! The paper assumes every node reports its protocol state honestly; the
//! natural attack against rank-based slicing is a node that **claims a
//! higher normalized rank than its attribute warrants** — a freeloader
//! advertising itself into the premium slice. [`Liar`] wraps any honest
//! protocol instance ([`AnyProtocol`]) and applies exactly that attack
//! surface:
//!
//! * its *claimed* rank ([`estimate`](SliceProtocol::estimate) and
//!   [`published_value`](SliceProtocol::published_value)) is the honest
//!   inner estimate multiplied by an inflation factor, clamped to `1.0`;
//! * every outgoing message is rewritten in flight: swap traffic
//!   (`SwapReq`/`SwapAck`) carries the inflated random value, and ranking
//!   `Update` samples carry an inflated attribute — poisoning the observers'
//!   rank counters;
//! * it refuses every incoming atomic swap
//!   ([`try_atomic_swap`](SliceProtocol::try_atomic_swap) returns `None`),
//!   so honest proposals against it burn as unsuccessful swaps, and it
//!   silently drops values it should adopt
//!   ([`adopt_value`](SliceProtocol::adopt_value) is a no-op) — it never
//!   surrenders the position it claims;
//! * its *attribute* is reported truthfully: the evaluation oracle (rank
//!   cache, SDM) must keep seeing ground truth, otherwise the metrics would
//!   adopt the attacker's frame.
//!
//! The wrapper works for both families. Against the ordering family the
//! damage flows through poisoned swap values; against the ranking family
//! through inflated attribute samples (each observer's `g` counter grows
//! while `ℓ` under-grows relative to truth for observers below the lie).
//!
//! Runtimes decide *who* lies (e.g.
//! `dslice_sim::Engine::corrupt_nodes`) and measure the damage via
//! honest-only accuracy; the wrapper itself is runtime-agnostic.

use crate::AnyProtocol;
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{Attribute, NodeId, Partition, ProtocolMsg, View};
use rand::RngCore;

/// A node that reports an inflated rank: wraps an honest protocol instance
/// and lies on every external surface (see the module docs).
pub struct Liar {
    inner: Box<AnyProtocol>,
    inflation: f64,
}

impl std::fmt::Debug for Liar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Liar")
            .field("id", &self.inner.id())
            .field("honest_estimate", &self.inner.estimate())
            .field("claimed", &self.claim())
            .field("inflation", &self.inflation)
            .finish()
    }
}

impl Liar {
    /// Wraps `inner` so it claims `inner.estimate() * inflation` (clamped to
    /// `1.0`). `inflation` must be finite and ≥ 1 — a "liar" that deflates
    /// its rank is a different (and uninteresting) animal; the constructor
    /// clamps it up to 1.
    pub fn new(inner: Box<AnyProtocol>, inflation: f64) -> Self {
        let inflation = if inflation.is_finite() {
            inflation.max(1.0)
        } else {
            1.0
        };
        Liar { inner, inflation }
    }

    /// The rank this node claims to the outside world.
    fn claim(&self) -> f64 {
        (self.inner.estimate() * self.inflation).min(1.0)
    }

    /// The configured inflation factor.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The honest estimate of the wrapped protocol — what the node *would*
    /// report if it were not lying. Runtimes use this to quantify the gap
    /// between claim and truth.
    pub fn honest_estimate(&self) -> f64 {
        self.inner.estimate()
    }

    /// `ctx` behind the lie as it stands now: the claim in swap traffic and
    /// each attribute sample inflated, saturating at the original value if
    /// the product stops being a valid (finite) attribute.
    fn rewrite<'a>(
        &self,
        ctx: &'a mut dyn Context,
    ) -> Rewrite<'a, impl Fn(Attribute) -> Attribute> {
        let inflation = self.inflation;
        Rewrite {
            inner: ctx,
            claim: self.claim(),
            poison: move |a: Attribute| Attribute::new(a.value() * inflation).unwrap_or(a),
        }
    }
}

/// A [`Context`] shim that rewrites a wrapped protocol's outgoing payloads
/// with a lie before forwarding them to the real runtime context: swap
/// traffic (`SwapReq`/`SwapAck`) carries `claim` in place of the random
/// value, and each `UPD` sample's attribute passes through `poison`. Both
/// attackers, [`Liar`] and [`Adaptive`](crate::Adaptive), send through it.
pub(crate) struct Rewrite<'a, P> {
    pub(crate) inner: &'a mut dyn Context,
    pub(crate) claim: f64,
    pub(crate) poison: P,
}

impl<P: Fn(Attribute) -> Attribute> Context for Rewrite<'_, P> {
    fn send(&mut self, to: NodeId, msg: ProtocolMsg) {
        let msg = match msg {
            ProtocolMsg::SwapReq { from, r: _, a } => ProtocolMsg::SwapReq {
                from,
                r: self.claim,
                a,
            },
            ProtocolMsg::SwapAck { from, r: _ } => ProtocolMsg::SwapAck {
                from,
                r: self.claim,
            },
            ProtocolMsg::Update { from, a } => ProtocolMsg::Update {
                from,
                a: (self.poison)(a),
            },
            // View traffic belongs to the membership substrate; the payload
            // entries were snapshotted by the sampler, not the protocol, so
            // there is nothing of ours to rewrite here.
            other => other,
        };
        self.inner.send(to, msg);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }

    fn record(&mut self, event: Event) {
        self.inner.record(event);
    }

    fn record_n(&mut self, event: Event, n: usize) {
        self.inner.record_n(event, n);
    }
}

impl SliceProtocol for Liar {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    /// Ground truth: the evaluation oracle must see the real attribute.
    fn attribute(&self) -> Attribute {
        self.inner.attribute()
    }

    /// The *claimed* rank: honest estimate × inflation, clamped to 1.
    fn estimate(&self) -> f64 {
        self.claim()
    }

    fn on_active(&mut self, view: &View, ctx: &mut dyn Context) {
        let mut lying = self.rewrite(ctx);
        self.inner.on_active(view, &mut lying);
    }

    fn on_message(&mut self, view: &View, msg: ProtocolMsg, ctx: &mut dyn Context) {
        let mut lying = self.rewrite(ctx);
        self.inner.on_message(view, msg, &mut lying);
    }

    /// Refuses every swap: the liar never surrenders its claimed position.
    fn try_atomic_swap(&mut self, _other_attr: Attribute, _other_value: f64) -> Option<f64> {
        None
    }

    /// Drops the value it was supposed to adopt (keeping the claim intact).
    fn adopt_value(&mut self, _value: f64) {}

    fn set_partition(&mut self, partition: &Partition) {
        self.inner.set_partition(partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use dslice_core::protocol::MockContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn liar(kind: ProtocolKind, attribute: f64, inflation: f64) -> Liar {
        let mut rng = StdRng::seed_from_u64(7);
        let partition = Partition::equal(4).unwrap();
        let inner = AnyProtocol::new(
            kind,
            NodeId::new(1),
            Attribute::new(attribute).unwrap(),
            &partition,
            &mut rng,
        );
        Liar::new(Box::new(inner), inflation)
    }

    #[test]
    fn claim_is_inflated_and_clamped() {
        let liar = liar(ProtocolKind::ModJk, 5.0, 3.0);
        let honest = liar.honest_estimate();
        assert!((0.0..=1.0).contains(&honest));
        assert_eq!(liar.estimate(), (honest * 3.0).min(1.0));
        assert_eq!(liar.published_value(), liar.estimate());
        // Huge inflation clamps to the top of the rank interval.
        let maxed = super::Liar::new(
            liar.inner, // re-wrap the same honest core
            1e9,
        );
        assert_eq!(maxed.estimate(), 1.0);
    }

    #[test]
    fn attribute_stays_truthful() {
        let liar = liar(ProtocolKind::Ranking, 42.0, 2.0);
        assert_eq!(liar.attribute().value(), 42.0);
    }

    #[test]
    fn refuses_swaps_and_adoption() {
        let mut liar = liar(ProtocolKind::ModJk, 5.0, 2.0);
        let before = liar.estimate();
        assert_eq!(
            liar.try_atomic_swap(Attribute::new(9.0).unwrap(), 0.01),
            None
        );
        liar.adopt_value(0.01);
        assert_eq!(liar.estimate(), before, "the claim never moves");
    }

    #[test]
    fn outgoing_swap_traffic_carries_the_claim() {
        let mut liar = liar(ProtocolKind::ModJk, 5.0, 4.0);
        let claim = liar.estimate();
        // A view with one clearly misplaced neighbor provokes a SwapReq.
        let mut view = View::new(4).unwrap();
        view.insert(dslice_core::ViewEntry::new(
            NodeId::new(2),
            Attribute::new(1000.0).unwrap(),
            0.0001,
        ));
        let mut ctx = MockContext::new(StdRng::seed_from_u64(3));
        liar.on_active(&view, &mut ctx);
        let sent = ctx.take_sent();
        assert!(!sent.is_empty(), "misplaced neighbor must provoke traffic");
        for (_, msg) in sent {
            if let ProtocolMsg::SwapReq { r, .. } = msg {
                assert_eq!(r, claim, "REQ must carry the inflated value");
            }
        }
    }

    #[test]
    fn outgoing_updates_carry_inflated_attributes() {
        let mut liar = liar(ProtocolKind::Ranking, 10.0, 2.5);
        let mut view = View::new(4).unwrap();
        view.insert(dslice_core::ViewEntry::new(
            NodeId::new(2),
            Attribute::new(3.0).unwrap(),
            0.5,
        ));
        let mut ctx = MockContext::new(StdRng::seed_from_u64(4));
        liar.on_active(&view, &mut ctx);
        let updates: Vec<f64> = ctx
            .take_sent()
            .into_iter()
            .filter_map(|(_, msg)| match msg {
                ProtocolMsg::Update { a, .. } => Some(a.value()),
                _ => None,
            })
            .collect();
        assert!(!updates.is_empty(), "ranking active step sends UPDs");
        for a in updates {
            assert_eq!(a, 25.0, "UPD must carry attribute × inflation");
        }
    }

    #[test]
    fn sub_unit_inflation_is_clamped_to_honest() {
        let liar = liar(ProtocolKind::Ranking, 10.0, 0.25);
        assert_eq!(liar.inflation(), 1.0);
        assert_eq!(liar.estimate(), liar.honest_estimate());
    }
}
