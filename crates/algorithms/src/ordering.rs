//! The ordering algorithms: JK and mod-JK (paper §4, Fig. 2).
//!
//! Every node draws a uniform random value `r_i ∈ (0, 1]`. Misplaced
//! neighbor pairs — `(a_j − a_i)(r_j − r_i) < 0` — swap random values until
//! the random order matches the attribute order; each node's slice is then
//! determined by its current random value.
//!
//! The two variants differ *only* in how the swap partner is selected among
//! the misplaced neighbors in the view:
//!
//! * **JK** picks one uniformly at random (the behavior of the original
//!   algorithm of Jelasity & Kermarrec).
//! * **mod-JK** picks the one maximizing the gain `G_{i,j}` of Eq. (1) —
//!   equivalently the score `ℓα_i·ℓρ_j + ℓα_j·ℓρ_i − ℓα_j·ℓρ_j` (Eq. 2) —
//!   computed over the local sequences of `N_i ∪ {i}`.
//!
//! ## Message flow (Fig. 2)
//!
//! ```text
//! i: active    send(REQ, r_i, a_i) → j
//! j: passive   send(ACK, r_j)      → i ; if misplaced: r_j ← r_i
//! i: passive   on ACK: if misplaced (recheck with current r_i): r_i ← r_j
//! ```
//!
//! The recheck on both sides is what makes stale messages *unsuccessful
//! swaps* under concurrency (§4.5.2): if either side's value changed while
//! the message was in flight, the predicate may no longer hold and the swap
//! is abandoned (counted via [`Event::SwapUseless`]).

use dslice_core::attribute::{misplaced, AttributeKey};
use dslice_core::metrics::gain_score;
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{Attribute, NodeId, ProtocolMsg, View, ViewEntry};
use rand::Rng;
use std::collections::HashMap;

/// Swap-partner selection policy: the one knob distinguishing JK and mod-JK.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapSelection {
    /// JK: a uniformly random misplaced neighbor.
    RandomMisplaced,
    /// mod-JK: the misplaced neighbor maximizing the gain of Eq. (1).
    MaxGain,
}

impl SwapSelection {
    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SwapSelection::RandomMisplaced => "jk",
            SwapSelection::MaxGain => "mod-jk",
        }
    }
}

/// Per-partner liveness bookkeeping for the swap-liveness defense.
///
/// A dead or swap-refusing partner (a crashed node, a `Liar`) leaves the
/// proposer's `pending` slot unresolved every time. Without tracking, the
/// gain heuristic re-selects the same maximally-"misplaced" refuser forever
/// — the 95%-useless-swap fixed point. This tracker counts *strikes*
/// (consecutive unresolved proposals per partner) and, once a partner
/// reaches `strike_limit`, bans it from partner selection for `cooldown`
/// activations. Everything is value-determined, so the defense preserves
/// the simulator's byte-determinism.
#[derive(Clone, Debug)]
struct Liveness {
    /// Strikes before a partner is excluded from selection.
    strike_limit: u32,
    /// Activations a banned partner stays excluded.
    cooldown: u64,
    /// Local activation counter (the node's own time base).
    clock: u64,
    /// Consecutive unresolved proposals per partner.
    strikes: HashMap<NodeId, u32>,
    /// Partners excluded from selection until the given activation.
    banned_until: HashMap<NodeId, u64>,
}

impl Liveness {
    fn new(strike_limit: u32, cooldown: u64) -> Self {
        Liveness {
            strike_limit: strike_limit.max(1),
            cooldown: cooldown.max(1),
            clock: 0,
            strikes: HashMap::new(),
            banned_until: HashMap::new(),
        }
    }

    /// Whether `id` is currently excluded from partner selection.
    fn is_banned(&self, id: NodeId) -> bool {
        self.banned_until
            .get(&id)
            .is_some_and(|&until| until > self.clock)
    }

    /// Registers an unresolved proposal against `partner`; bans it once the
    /// strike limit is reached.
    fn strike(&mut self, partner: NodeId) {
        let strikes = self.strikes.entry(partner).or_insert(0);
        *strikes += 1;
        if *strikes >= self.strike_limit {
            self.strikes.remove(&partner);
            self.banned_until
                .insert(partner, self.clock + self.cooldown);
        }
    }

    /// A proposal to `partner` resolved: its slate is wiped clean.
    fn clear(&mut self, partner: NodeId) {
        self.strikes.remove(&partner);
        self.banned_until.remove(&partner);
    }

    /// Advances the activation clock and drops expired bans (bounded maps;
    /// the retain predicate is value-based, so iteration order is moot).
    fn tick(&mut self) {
        self.clock += 1;
        let clock = self.clock;
        self.banned_until.retain(|_, until| *until > clock);
    }
}

/// An ordering-algorithm node: the state of Fig. 2.
#[derive(Clone, Debug)]
pub struct Ordering {
    id: NodeId,
    attribute: Attribute,
    /// The current random value `r_i` — swapped, never redrawn.
    r: f64,
    selection: SwapSelection,
    /// The partner of the in-flight swap proposal, with its attribute
    /// (attributes are immutable, so caching it at send time is safe even if
    /// the view rotates before the ACK returns).
    pending: Option<(NodeId, Attribute)>,
    /// Optional per-partner liveness tracking (the mod-JK-live defense);
    /// `None` for the paper-faithful variants. Boxed so the node stays
    /// 64 bytes: the two maps would nearly triple it for every node.
    liveness: Option<Box<Liveness>>,
}

impl Ordering {
    /// Creates a JK node with initial random value `r ∈ (0, 1]`.
    pub fn jk(id: NodeId, attribute: Attribute, r: f64) -> Self {
        Self::with_selection(id, attribute, r, SwapSelection::RandomMisplaced)
    }

    /// Creates a mod-JK node with initial random value `r ∈ (0, 1]`.
    pub fn mod_jk(id: NodeId, attribute: Attribute, r: f64) -> Self {
        Self::with_selection(id, attribute, r, SwapSelection::MaxGain)
    }

    /// Creates a node with an explicit selection policy.
    pub fn with_selection(
        id: NodeId,
        attribute: Attribute,
        r: f64,
        selection: SwapSelection,
    ) -> Self {
        debug_assert!(r > 0.0 && r <= 1.0, "random value must lie in (0, 1]");
        Ordering {
            id,
            attribute,
            r,
            selection,
            pending: None,
            liveness: None,
        }
    }

    /// Creates a gain-maximizing node with the swap-liveness defense:
    /// a partner whose proposals go unresolved `strike_limit` consecutive
    /// times is excluded from partner selection for `cooldown` activations.
    /// Both knobs are clamped to ≥ 1.
    pub fn mod_jk_live(
        id: NodeId,
        attribute: Attribute,
        r: f64,
        strike_limit: u32,
        cooldown: u64,
    ) -> Self {
        Self::with_selection(id, attribute, r, SwapSelection::MaxGain)
            .with_liveness(strike_limit, cooldown)
    }

    /// Attaches the swap-liveness defense (builder style).
    pub fn with_liveness(mut self, strike_limit: u32, cooldown: u64) -> Self {
        self.liveness = Some(Box::new(Liveness::new(strike_limit, cooldown)));
        self
    }

    /// Whether `id` is currently excluded from partner selection by the
    /// liveness defense (always `false` without it).
    pub fn is_partner_banned(&self, id: NodeId) -> bool {
        self.liveness.as_ref().is_some_and(|l| l.is_banned(id))
    }

    /// Resolves a stale `pending` slot at the start of an activation: the
    /// previous proposal's partner never answered (dead, or it refused the
    /// transactional swap), so the slot is abandoned. With liveness
    /// tracking the abandonment is recorded and counted as a strike, and
    /// `true` is returned so the activation can back off; the
    /// paper-faithful variants clear silently (their `pending` was simply
    /// overwritten before, which is the bug this replaces) and return
    /// `false`.
    fn abandon_stale_proposal(&mut self, ctx: &mut dyn Context) -> bool {
        let Some((partner, _)) = self.pending.take() else {
            return false;
        };
        let Some(liveness) = &mut self.liveness else {
            return false;
        };
        ctx.record(Event::SwapAbandoned);
        liveness.strike(partner);
        true
    }

    /// The selection policy of this node.
    pub fn selection(&self) -> SwapSelection {
        self.selection
    }

    /// This node as a member of its own local sequences.
    fn self_entry(&self) -> ViewEntry {
        ViewEntry::new(self.id, self.attribute, self.r)
    }

    /// `member`'s 1-based positions `(ℓα, ℓρ)` in the local sequences over
    /// `N_i ∪ {i}` (Fig. 2 lines 4–8), as
    /// [`local_ranks`](dslice_core::metrics::local_ranks) would number them
    /// — ties broken by id — but counted straight off the view: a member's
    /// position is one more than the number of members ordered before it.
    fn local_positions(&self, view: &View, member: &ViewEntry) -> (usize, usize) {
        let me = self.self_entry();
        let before = |x: &ViewEntry, y: &ViewEntry| {
            let by_attribute =
                AttributeKey::new(x.id, x.attribute) < AttributeKey::new(y.id, y.attribute);
            let by_value = x
                .value
                .partial_cmp(&y.value)
                .expect("random values are finite")
                .then_with(|| x.id.cmp(&y.id))
                .is_lt();
            (by_attribute as usize, by_value as usize)
        };
        view.iter()
            .chain(std::iter::once(&me))
            .fold((1, 1), |(la, lr), other| {
                let (attribute_first, value_first) = before(other, member);
                (la + attribute_first, lr + value_first)
            })
    }

    /// Selects the swap partner among the misplaced neighbors of `view`,
    /// per the node's policy. `None` if no neighbor is misplaced.
    fn select_partner(&self, view: &View, ctx: &mut dyn Context) -> Option<NodeId> {
        let candidates = || {
            view.iter()
                .filter(|e| misplaced(self.attribute, self.r, e.attribute, e.value))
                .filter(|e| !self.is_partner_banned(e.id))
        };
        match self.selection {
            SwapSelection::RandomMisplaced => {
                let count = candidates().count();
                if count == 0 {
                    return None;
                }
                let idx = ctx.rng().gen_range(0..count);
                candidates().nth(idx).map(|e| e.id)
            }
            SwapSelection::MaxGain => {
                let mut candidates = candidates().peekable();
                candidates.peek()?;
                let me = self.local_positions(view, &self.self_entry());
                candidates
                    .map(|e| (gain_score(me, self.local_positions(view, e)), e.id))
                    .max_by(|a, b| {
                        a.0.partial_cmp(&b.0)
                            .expect("gain scores are finite")
                            // Deterministic tie-break.
                            .then_with(|| b.1.cmp(&a.1))
                    })
                    .map(|(_, id)| id)
            }
        }
    }
}

impl SliceProtocol for Ordering {
    fn id(&self) -> NodeId {
        self.id
    }

    fn attribute(&self) -> Attribute {
        self.attribute
    }

    fn estimate(&self) -> f64 {
        self.r
    }

    /// Fig. 2 lines 2–14: pick the partner, propose a swap.
    ///
    /// The swap itself completes in the passive threads; under the atomic
    /// cycle model (messages delivered immediately) the whole exchange
    /// happens within this step.
    fn on_active(&mut self, view: &View, ctx: &mut dyn Context) {
        if let Some(liveness) = &mut self.liveness {
            liveness.tick();
        }
        // A proposal still pending from an earlier activation never
        // resolved — clear it (and charge the partner when tracking).
        // A liveness-tracking node then *backs off* for this activation:
        // it just learned a partner is unresponsive, and blindly
        // re-proposing into the same (possibly adversarial) neighborhood
        // is exactly the wedge this defense removes. One activation of
        // silence costs a converging node almost nothing; a wedged node
        // converts an infinite useless-swap stream into a ban.
        if self.abandon_stale_proposal(ctx) {
            return;
        }
        let Some(partner) = self.select_partner(view, ctx) else {
            return;
        };
        let partner_attr = view.get(partner).expect("partner from view").attribute;
        self.pending = Some((partner, partner_attr));
        ctx.record(Event::SwapProposed);
        ctx.send(
            partner,
            ProtocolMsg::SwapReq {
                from: self.id,
                r: self.r,
                a: self.attribute,
            },
        );
    }

    fn on_message(&mut self, _view: &View, msg: ProtocolMsg, ctx: &mut dyn Context) {
        match msg {
            // Fig. 2 lines 15–19 (passive thread at j).
            ProtocolMsg::SwapReq {
                from,
                r: r_i,
                a: a_i,
            } => {
                ctx.send(
                    from,
                    ProtocolMsg::SwapAck {
                        from: self.id,
                        r: self.r,
                    },
                );
                if misplaced(self.attribute, self.r, a_i, r_i) {
                    self.r = r_i;
                    ctx.record(Event::SwapApplied);
                } else {
                    // The proposal was computed against a stale snapshot of
                    // our value: an unsuccessful swap (§4.5.2).
                    ctx.record(Event::SwapUseless);
                }
            }
            // Fig. 2 lines 10–14 (completion at the initiator).
            ProtocolMsg::SwapAck { from, r: r_j } => {
                let Some((expected, a_j)) = self.pending.take() else {
                    return; // No proposal outstanding; stray ACK.
                };
                if expected != from {
                    self.pending = Some((expected, a_j));
                    return;
                }
                // The partner answered: it is live, whatever the outcome.
                if let Some(liveness) = &mut self.liveness {
                    liveness.clear(from);
                }
                if misplaced(self.attribute, self.r, a_j, r_j) {
                    self.r = r_j;
                    ctx.record(Event::SwapApplied);
                } else {
                    ctx.record(Event::SwapUseless);
                }
            }
            // Ordering nodes ignore ranking/membership traffic.
            _ => {}
        }
    }

    /// Transactional swap (simulator delivery semantics, §4.5.2): adopt
    /// `other_value` and surrender the current value iff the pair is still
    /// misplaced at delivery time.
    fn try_atomic_swap(&mut self, other_attr: Attribute, other_value: f64) -> Option<f64> {
        if misplaced(self.attribute, self.r, other_attr, other_value) {
            let old = self.r;
            self.r = other_value;
            Some(old)
        } else {
            None
        }
    }

    /// The simulator calls this when the partner *accepted* the
    /// transactional swap — the pending proposal resolved successfully, so
    /// the slot clears and the partner's liveness slate is wiped.
    fn adopt_value(&mut self, value: f64) {
        self.r = value;
        if let Some((partner, _)) = self.pending.take() {
            if let Some(liveness) = &mut self.liveness {
                liveness.clear(partner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::protocol::MockContext;
    use dslice_core::{Partition, ViewEntry};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn view_of(entries: &[(u64, f64, f64)]) -> View {
        let mut v = View::new(entries.len().max(1)).unwrap();
        for &(id, a, r) in entries {
            v.insert(ViewEntry::new(NodeId::new(id), attr(a), r));
        }
        v
    }

    fn ctx() -> MockContext<StdRng> {
        MockContext::new(StdRng::seed_from_u64(42))
    }

    /// Runs one atomic cycle over a complete graph of nodes: each node in
    /// turn recomputes its (complete) view from the others' live values,
    /// runs the active step, and every message is delivered immediately —
    /// the paper's cycle-based simulation model in miniature.
    fn atomic_cycle(nodes: &mut [Ordering]) {
        let empty = view_of(&[]);
        for idx in 0..nodes.len() {
            let view = {
                let me = &nodes[idx];
                let others: Vec<(u64, f64, f64)> = nodes
                    .iter()
                    .filter(|n| n.id() != me.id())
                    .map(|n| (n.id().as_u64(), n.attribute().value(), n.estimate()))
                    .collect();
                view_of(&others)
            };
            let mut c = ctx();
            nodes[idx].on_active(&view, &mut c);
            // Deliver messages (and the replies they trigger) immediately.
            let mut queue = c.take_sent();
            while let Some((to, msg)) = queue.pop() {
                let target = nodes.iter_mut().find(|n| n.id() == to).unwrap();
                target.on_message(&empty, msg, &mut c);
                queue.extend(c.take_sent());
            }
        }
    }

    #[test]
    fn paper_example_converges_to_sorted_values() {
        // §4.1: a = (50, 120, 25), r = (0.85, 0.1, 0.35) must end as
        // r = (0.35, 0.85, 0.1).
        let mut nodes = vec![
            Ordering::mod_jk(NodeId::new(1), attr(50.0), 0.85),
            Ordering::mod_jk(NodeId::new(2), attr(120.0), 0.10),
            Ordering::mod_jk(NodeId::new(3), attr(25.0), 0.35),
        ];
        for _ in 0..6 {
            atomic_cycle(&mut nodes);
        }
        assert_eq!(nodes[0].estimate(), 0.35);
        assert_eq!(nodes[1].estimate(), 0.85);
        assert_eq!(nodes[2].estimate(), 0.10);
    }

    #[test]
    fn jk_also_converges_on_complete_views() {
        let mut nodes: Vec<Ordering> = (0..8)
            .map(|i| {
                Ordering::jk(
                    NodeId::new(i),
                    attr(i as f64 * 10.0),
                    // Reversed initial values: maximal disorder.
                    1.0 - (i as f64 + 1.0) / 10.0,
                )
            })
            .collect();
        for _ in 0..40 {
            atomic_cycle(&mut nodes);
        }
        // Fully sorted: values increase with the attribute.
        for w in nodes.windows(2) {
            assert!(
                w[0].estimate() < w[1].estimate(),
                "values must end sorted along attributes"
            );
        }
    }

    #[test]
    fn no_message_when_no_neighbor_misplaced() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.5);
        // Neighbor with larger attribute and larger value: ordered.
        let view = view_of(&[(2, 120.0, 0.9)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert!(c.sent.is_empty());
        assert_eq!(c.count(Event::SwapProposed), 0);
    }

    #[test]
    fn jk_proposes_to_some_misplaced_neighbor() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.9);
        // Two misplaced (larger attribute, smaller value), one ordered.
        let view = view_of(&[(2, 120.0, 0.1), (3, 100.0, 0.2), (4, 10.0, 0.05)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert_eq!(c.sent.len(), 1);
        let to = c.sent[0].0.as_u64();
        assert!(to == 2 || to == 3, "partner must be misplaced, got {to}");
    }

    #[test]
    fn mod_jk_picks_the_gain_maximizing_partner() {
        // Node 1: a = 50, r = 0.9. Neighbors: node 2 (a=120, r=0.1) is far
        // more misplaced than node 3 (a=60, r=0.85). The gain heuristic must
        // pick node 2 (swapping with the most-displaced pair gains most).
        let mut node = Ordering::mod_jk(NodeId::new(1), attr(50.0), 0.9);
        let view = view_of(&[(2, 120.0, 0.1), (3, 60.0, 0.85)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert_eq!(c.sent.len(), 1);
        assert_eq!(c.sent[0].0, NodeId::new(2));
    }

    #[test]
    fn swap_req_applies_when_misplaced_and_acks_old_value() {
        let mut node = Ordering::jk(NodeId::new(2), attr(120.0), 0.1);
        let view = view_of(&[]);
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::SwapReq {
                from: NodeId::new(1),
                r: 0.85,
                a: attr(50.0),
            },
            &mut c,
        );
        // ACK carries the pre-swap value 0.1.
        assert!(matches!(
            c.sent[0].1,
            ProtocolMsg::SwapAck { r, .. } if r == 0.1
        ));
        assert_eq!(node.estimate(), 0.85);
        assert_eq!(c.count(Event::SwapApplied), 1);
    }

    #[test]
    fn swap_req_rejected_when_stale() {
        // Node's value moved such that the predicate no longer holds:
        // unsuccessful swap, value unchanged, ACK still sent.
        let mut node = Ordering::jk(NodeId::new(2), attr(120.0), 0.95);
        let view = view_of(&[]);
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::SwapReq {
                from: NodeId::new(1),
                r: 0.85,
                a: attr(50.0),
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.95);
        assert_eq!(c.count(Event::SwapUseless), 1);
        assert_eq!(c.sent.len(), 1, "ACK is sent regardless");
    }

    #[test]
    fn ack_applies_with_cached_attribute() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // proposes to 2, pending set
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(2),
                r: 0.1,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.1);
        assert_eq!(c.count(Event::SwapApplied), 1);
    }

    #[test]
    fn ack_rejected_when_own_value_changed_meanwhile() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        // Meanwhile another REQ swapped our value to something small.
        node.on_message(
            &view,
            ProtocolMsg::SwapReq {
                from: NodeId::new(9),
                r: 0.05,
                a: attr(200.0),
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.05);
        // Now the original ACK arrives: 0.1 vs our 0.05 with a_j = 120 > 50
        // → (a_j - a_i)(r_j - r_i) = (+)(+) ≥ 0: no longer misplaced.
        let events_before = c.count(Event::SwapUseless);
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(2),
                r: 0.1,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.05, "stale ACK must not apply");
        assert_eq!(c.count(Event::SwapUseless), events_before + 1);
    }

    #[test]
    fn stray_ack_is_ignored() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[]);
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(7),
                r: 0.2,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.85);
        assert!(c.events.is_empty());
    }

    #[test]
    fn ack_from_unexpected_sender_preserves_pending() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // pending = node 2
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(3),
                r: 0.01,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.85, "ACK from wrong sender ignored");
        // The genuine ACK still completes.
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(2),
                r: 0.1,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.1);
    }

    #[test]
    fn update_messages_are_ignored_by_ordering_nodes() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[]);
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::Update {
                from: NodeId::new(2),
                a: attr(10.0),
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.85);
        assert!(c.sent.is_empty());
    }

    #[test]
    fn slice_follows_random_value() {
        let part = Partition::equal(10).unwrap();
        let node = Ordering::jk(NodeId::new(1), attr(5.0), 0.42);
        assert_eq!(node.slice(&part).as_usize(), 4);
    }

    #[test]
    fn labels() {
        assert_eq!(SwapSelection::RandomMisplaced.label(), "jk");
        assert_eq!(SwapSelection::MaxGain.label(), "mod-jk");
    }

    #[test]
    fn atomic_swap_applies_only_when_misplaced() {
        let mut node = Ordering::mod_jk(NodeId::new(1), attr(50.0), 0.85);
        // Proposer with larger attribute but smaller value: misplaced.
        let taken = node.try_atomic_swap(attr(120.0), 0.10);
        assert_eq!(taken, Some(0.85), "callee surrenders its pre-swap value");
        assert_eq!(node.estimate(), 0.10, "callee adopted the proposal");
        // Now the pair would be ordered: a second identical proposal aborts.
        let again = node.try_atomic_swap(attr(120.0), 0.85);
        assert_eq!(again, None);
        assert_eq!(node.estimate(), 0.10, "aborted swap changes nothing");
    }

    #[test]
    fn adopt_value_overwrites() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        node.adopt_value(0.33);
        assert_eq!(node.estimate(), 0.33);
    }

    #[test]
    fn stale_pending_is_cleared_at_next_activation() {
        let mut node = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // proposes to 2
                                       // Next activation: the view rotated, nobody is misplaced, and 2
                                       // never answered. The dangling proposal must not linger.
        let ordered = view_of(&[(3, 120.0, 0.9)]);
        node.on_active(&ordered, &mut c);
        // 2's ACK finally arrives — but the proposal was abandoned.
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: NodeId::new(2),
                r: 0.1,
            },
            &mut c,
        );
        assert_eq!(
            node.estimate(),
            0.85,
            "an abandoned proposal must not complete"
        );
        assert_eq!(
            c.count(Event::SwapAbandoned),
            0,
            "paper-faithful variants abandon silently"
        );
    }

    #[test]
    fn liveness_bans_refusing_partner_after_strikes() {
        let mut node = Ordering::mod_jk_live(NodeId::new(1), attr(50.0), 0.9, 2, 5);
        assert!(node.liveness.is_some());
        let refuser = NodeId::new(2);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // proposal #1 (never answered)
        node.on_active(&view, &mut c); // abandon #1 → strike 1, back off
        assert_eq!(c.count(Event::SwapAbandoned), 1);
        assert_eq!(c.count(Event::SwapProposed), 1, "backoff: no re-proposal");
        assert!(!node.is_partner_banned(refuser));
        node.on_active(&view, &mut c); // proposal #2
        node.on_active(&view, &mut c); // abandon #2 → strike 2 → ban
        assert_eq!(c.count(Event::SwapAbandoned), 2);
        assert!(node.is_partner_banned(refuser));
        assert_eq!(
            c.count(Event::SwapProposed),
            2,
            "a banned partner draws no further proposals"
        );
        // The ban expires after `cooldown` activations (banned at clock 4,
        // excluded through clock 8, free again at clock 9).
        for _ in 0..4 {
            node.on_active(&view, &mut c);
            assert!(node.is_partner_banned(refuser));
        }
        node.on_active(&view, &mut c);
        assert!(!node.is_partner_banned(refuser), "cooldown must expire");
        assert_eq!(c.count(Event::SwapProposed), 3, "selection resumes");
    }

    #[test]
    fn successful_swap_clears_strikes_and_pending() {
        let mut node = Ordering::mod_jk_live(NodeId::new(1), attr(50.0), 0.9, 2, 5);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // proposal #1 unresolved
        node.on_active(&view, &mut c); // abandon → strike 1, back off
        node.on_active(&view, &mut c); // proposal #2
        assert_eq!(c.count(Event::SwapAbandoned), 1);
        // This time the partner accepts (the simulator's transactional
        // path): pending resolves, the strike slate wipes.
        node.adopt_value(0.1);
        assert_eq!(node.estimate(), 0.1);
        let ordered = view_of(&[(3, 120.0, 0.95)]);
        node.on_active(&ordered, &mut c);
        assert_eq!(
            c.count(Event::SwapAbandoned),
            1,
            "a resolved proposal charges no strike"
        );
        assert!(!node.is_partner_banned(NodeId::new(2)));
    }

    #[test]
    fn ack_resolution_clears_strikes_too() {
        // The raw Fig. 2 message path (network runtime): an answering
        // partner is live whatever the swap outcome — one completed
        // exchange must wipe the partner's accumulated strikes.
        let mut node = Ordering::mod_jk_live(NodeId::new(1), attr(50.0), 0.9, 2, 5);
        let refuser = NodeId::new(2);
        let view = view_of(&[(2, 120.0, 0.1)]);
        let mut c = ctx();
        node.on_active(&view, &mut c); // proposal #1
        node.on_active(&view, &mut c); // abandon → strike 1, back off
        node.on_active(&view, &mut c); // proposal #2
        node.on_message(
            &view,
            ProtocolMsg::SwapAck {
                from: refuser,
                r: 0.1,
            },
            &mut c,
        );
        assert_eq!(node.estimate(), 0.1, "the ACK completed the swap");
        // Two more unresolved proposals: were the earlier strike still on
        // the books, the second would be strike #3 — but the slate was
        // wiped, so the ban lands exactly at two *fresh* strikes.
        let again = view_of(&[(2, 120.0, 0.05)]);
        node.on_active(&again, &mut c); // proposal #3
        node.on_active(&again, &mut c); // abandon → fresh strike 1
        assert!(
            !node.is_partner_banned(refuser),
            "the resolved exchange must have wiped the first strike"
        );
        node.on_active(&again, &mut c); // proposal #4
        node.on_active(&again, &mut c); // abandon → fresh strike 2 → ban
        assert!(node.is_partner_banned(refuser));
        assert_eq!(c.count(Event::SwapAbandoned), 3);
    }

    #[test]
    fn liveness_defense_unwedges_against_a_refuser() {
        // One honest node, one permanent swap-refuser that looks maximally
        // attractive to the gain heuristic, one honest partner. Plain
        // mod-JK proposes to the refuser forever; the live variant bans it
        // and completes the real swap.
        let refuser = (2u64, 120.0, 0.05); // huge attribute, tiny value
        let honest = (3u64, 100.0, 0.1);
        let view = view_of(&[refuser, honest]);
        let mut c = ctx();

        let mut plain = Ordering::mod_jk(NodeId::new(1), attr(50.0), 0.9);
        for _ in 0..10 {
            plain.on_active(&view, &mut c);
        }
        let plain_targets: Vec<u64> = c.sent.iter().map(|(to, _)| to.as_u64()).collect();
        assert!(
            plain_targets.iter().all(|&t| t == 2),
            "plain mod-JK stays wedged on the refuser: {plain_targets:?}"
        );

        let mut c = ctx();
        let mut live = Ordering::mod_jk_live(NodeId::new(1), attr(50.0), 0.9, 2, 16);
        for _ in 0..6 {
            live.on_active(&view, &mut c);
            // The refuser never answers; the honest partner's ACK (with its
            // true value) completes a real swap once selected.
            if let Some((to, ProtocolMsg::SwapReq { .. })) = c.sent.last() {
                if to.as_u64() == 3 {
                    live.on_message(
                        &view,
                        ProtocolMsg::SwapAck {
                            from: NodeId::new(3),
                            r: 0.1,
                        },
                        &mut c,
                    );
                    break;
                }
            }
        }
        assert_eq!(
            live.estimate(),
            0.1,
            "the live variant must reach the honest partner and swap"
        );
    }

    proptest! {
        #[test]
        fn counted_local_positions_match_the_sorted_local_ranks(
            // Coarse grids force attribute and value ties, which the id breaks.
            members in proptest::collection::vec((0u32..6, 1u32..6), 1..14),
        ) {
            let entries: Vec<(u64, f64, f64)> = members
                .iter()
                .enumerate()
                .map(|(k, &(a, r))| (k as u64 + 2, a as f64, r as f64 / 8.0))
                .collect();
            let view = view_of(&entries);
            let node = Ordering::mod_jk(NodeId::new(1), attr(3.0), 0.5);
            let mut all: Vec<(NodeId, Attribute, f64)> = view
                .iter()
                .map(|e| (e.id, e.attribute, e.value))
                .collect();
            all.push((node.id, node.attribute, node.r));
            let sorted = dslice_core::metrics::local_ranks(&all);
            let me = node.self_entry();
            for member in view.iter().chain(std::iter::once(&me)) {
                prop_assert_eq!(node.local_positions(&view, member), sorted[&member.id]);
            }
        }

        #[test]
        fn liveness_bans_exactly_at_strike_limit_and_frees_at_cooldown_expiry(
            strike_limit in 1u32..5,
            cooldown in 1u64..20,
        ) {
            // A permanently refusing partner: each (propose, abandon)
            // activation pair charges exactly one strike. The ban must land
            // exactly at strike `strike_limit` — not one earlier — and
            // expire exactly `cooldown` activations later — not one later.
            let refuser = NodeId::new(2);
            let view = view_of(&[(2, 120.0, 0.1)]);
            let mut c = ctx();
            let mut node = Ordering::mod_jk_live(
                NodeId::new(1), attr(50.0), 0.9, strike_limit, cooldown,
            );
            for s in 1..=strike_limit {
                prop_assert!(!node.is_partner_banned(refuser));
                node.on_active(&view, &mut c); // propose
                node.on_active(&view, &mut c); // abandon → strike s
                if s < strike_limit {
                    prop_assert!(
                        !node.is_partner_banned(refuser),
                        "strike {}/{} must not ban yet", s, strike_limit
                    );
                }
            }
            prop_assert!(
                node.is_partner_banned(refuser),
                "ban must land exactly at strike {}", strike_limit
            );
            prop_assert_eq!(
                c.count(Event::SwapAbandoned), strike_limit as usize
            );
            // Banned for the next cooldown−1 activations...
            for k in 1..cooldown {
                node.on_active(&view, &mut c);
                prop_assert!(
                    node.is_partner_banned(refuser),
                    "must stay banned at {}/{}", k, cooldown
                );
            }
            // ...and free exactly on the cooldown-th, where selection
            // resumes within the same activation.
            node.on_active(&view, &mut c);
            prop_assert!(
                !node.is_partner_banned(refuser),
                "ban must expire exactly at cooldown {}", cooldown
            );
            prop_assert_eq!(
                c.count(Event::SwapProposed), strike_limit as usize + 1
            );
        }
    }

    #[test]
    fn atomic_swap_pair_is_conservative() {
        // A full transactional exchange between two nodes conserves the
        // value pair and orders it.
        let mut i = Ordering::jk(NodeId::new(1), attr(50.0), 0.85);
        let mut j = Ordering::jk(NodeId::new(2), attr(120.0), 0.10);
        if let Some(pre) = j.try_atomic_swap(i.attribute(), i.estimate()) {
            i.adopt_value(pre);
        }
        assert_eq!(i.estimate(), 0.10);
        assert_eq!(j.estimate(), 0.85);
        assert!(!misplaced(
            i.attribute(),
            i.estimate(),
            j.attribute(),
            j.estimate()
        ));
    }
}
