//! [`AnyProtocol`]: every concrete protocol of this crate behind one enum.
//!
//! A runtime that holds one protocol instance per node for 10⁵–10⁶ nodes
//! (the cycle simulator) stores this enum inline in its node storage: no
//! heap object per node and no pointer to chase on every visit, where a
//! `Box<dyn SliceProtocol>` costs both. The network node stores the enum as
//! well, so both runtimes dispatch through it. The enum implements
//! [`SliceProtocol`] by forwarding each required method, and each provided
//! one that some protocol overrides, to the concrete type in its arm.
//! `published_value` and `slice` are overridden by none, so their defaults
//! reach the arm through the forwarded `estimate`, and the enum behaves call
//! for call as that type does.
//!
//! An arm larger than [`Ranking`]'s 56 bytes is boxed inside the arm, so
//! the common arms set the enum's size and the rare large ones pay one
//! pointer.

use crate::kind::ProtocolKind;
use crate::ranking::{RobustFilter, Targeting};
use crate::{Adaptive, DecayRanking, Liar, Ordering, Ranking, SlidingRanking};
use dslice_core::protocol::{Context, SliceProtocol};
use dslice_core::{Attribute, NodeId, Partition, ProtocolMsg, View};
use rand::Rng;

/// One protocol instance of any concrete type (see the module docs).
#[derive(Debug)]
pub enum AnyProtocol {
    /// JK, mod-JK and mod-JK-live.
    Ordering(Ordering),
    /// Counter-based ranking, with or without boundary targeting and
    /// sample admission.
    Ranking(Ranking),
    /// Sliding-window ranking (boxed: its bit window makes it 96 bytes).
    Sliding(Box<SlidingRanking>),
    /// Ranking with exponential sample aging (boxed: 64 bytes).
    Decay(Box<DecayRanking>),
    /// A rank-inflating liar around another instance.
    Liar(Liar),
    /// An adaptive attacker around another instance.
    Adaptive(Adaptive),
}

/// Expands `$body` once per arm with `$p` bound to the arm's concrete
/// value (`&T` or `&mut T`, boxes dereferenced), so every forward below is
/// statically dispatched and calls the trait method by path — never an
/// inherent method of the same name.
macro_rules! forward {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyProtocol::Ordering($p) => $body,
            AnyProtocol::Ranking($p) => $body,
            AnyProtocol::Sliding(boxed) => {
                let $p = &**boxed;
                $body
            }
            AnyProtocol::Decay(boxed) => {
                let $p = &**boxed;
                $body
            }
            AnyProtocol::Liar($p) => $body,
            AnyProtocol::Adaptive($p) => $body,
        }
    };
    ($self:expr, mut $p:ident => $body:expr) => {
        match $self {
            AnyProtocol::Ordering($p) => $body,
            AnyProtocol::Ranking($p) => $body,
            AnyProtocol::Sliding(boxed) => {
                let $p = &mut **boxed;
                $body
            }
            AnyProtocol::Decay(boxed) => {
                let $p = &mut **boxed;
                $body
            }
            AnyProtocol::Liar($p) => $body,
            AnyProtocol::Adaptive($p) => $body,
        }
    };
}

impl AnyProtocol {
    /// Instantiates a node running `kind` — the one construction path
    /// behind [`ProtocolKind::build`]. The initial random value (used
    /// directly by the ordering algorithms, and as the pre-sample fallback
    /// by the ranking ones) is drawn from `rng`.
    pub fn new<R: Rng + ?Sized>(
        kind: ProtocolKind,
        id: NodeId,
        attribute: Attribute,
        partition: &Partition,
        rng: &mut R,
    ) -> Self {
        let initial = 1.0 - rng.gen::<f64>(); // (0, 1]
        let ranking = || Ranking::new(id, attribute, initial, partition.clone());
        match kind {
            ProtocolKind::Jk => Ordering::jk(id, attribute, initial).into(),
            ProtocolKind::ModJk => Ordering::mod_jk(id, attribute, initial).into(),
            ProtocolKind::ModJkLive {
                strike_limit,
                cooldown,
            } => {
                Ordering::mod_jk_live(id, attribute, initial, strike_limit, cooldown as u64).into()
            }
            ProtocolKind::Ranking => ranking().into(),
            ProtocolKind::RankingUniform => ranking().with_targeting(Targeting::TwoRandom).into(),
            ProtocolKind::SlidingRanking { window } => {
                SlidingRanking::with_window(id, attribute, initial, partition.clone(), window)
                    .into()
            }
            ProtocolKind::DecayRanking { lambda_ppm } => DecayRanking::with_lambda(
                id,
                attribute,
                initial,
                partition.clone(),
                lambda_ppm as f64 / 1e6,
            )
            .into(),
            ProtocolKind::RobustRanking { window } => {
                ranking().with_filter(RobustFilter::new(window)).into()
            }
            ProtocolKind::TrimmedRanking { window, trim_ppm } => ranking()
                .with_filter(RobustFilter::trimmed(window, trim_ppm as f64 / 1e6))
                .into(),
            ProtocolKind::FencedTrimmedRanking { window, trim_ppm } => ranking()
                .with_filter(RobustFilter::fenced_trimmed(window, trim_ppm as f64 / 1e6))
                .into(),
        }
    }
}

impl From<Ordering> for AnyProtocol {
    fn from(p: Ordering) -> Self {
        AnyProtocol::Ordering(p)
    }
}

impl From<Ranking> for AnyProtocol {
    fn from(p: Ranking) -> Self {
        AnyProtocol::Ranking(p)
    }
}

impl From<SlidingRanking> for AnyProtocol {
    fn from(p: SlidingRanking) -> Self {
        AnyProtocol::Sliding(Box::new(p))
    }
}

impl From<DecayRanking> for AnyProtocol {
    fn from(p: DecayRanking) -> Self {
        AnyProtocol::Decay(Box::new(p))
    }
}

impl From<Liar> for AnyProtocol {
    fn from(p: Liar) -> Self {
        AnyProtocol::Liar(p)
    }
}

impl From<Adaptive> for AnyProtocol {
    fn from(p: Adaptive) -> Self {
        AnyProtocol::Adaptive(p)
    }
}

impl SliceProtocol for AnyProtocol {
    fn id(&self) -> NodeId {
        forward!(self, p => SliceProtocol::id(p))
    }

    fn attribute(&self) -> Attribute {
        forward!(self, p => SliceProtocol::attribute(p))
    }

    fn estimate(&self) -> f64 {
        forward!(self, p => SliceProtocol::estimate(p))
    }

    fn on_active(&mut self, view: &View, ctx: &mut dyn Context) {
        forward!(self, mut p => SliceProtocol::on_active(p, view, ctx))
    }

    fn on_message(&mut self, view: &View, msg: ProtocolMsg, ctx: &mut dyn Context) {
        forward!(self, mut p => SliceProtocol::on_message(p, view, msg, ctx))
    }

    fn try_atomic_swap(&mut self, other_attr: Attribute, other_value: f64) -> Option<f64> {
        forward!(self, mut p => SliceProtocol::try_atomic_swap(p, other_attr, other_value))
    }

    fn adopt_value(&mut self, value: f64) {
        forward!(self, mut p => SliceProtocol::adopt_value(p, value))
    }

    fn set_partition(&mut self, partition: &Partition) {
        forward!(self, mut p => SliceProtocol::set_partition(p, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackerSpec;
    use dslice_core::protocol::MockContext;
    use dslice_core::ViewEntry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::mem::size_of;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    /// Every kind, one parameterization each.
    fn kinds() -> [ProtocolKind; 10] {
        [
            ProtocolKind::Jk,
            ProtocolKind::ModJk,
            ProtocolKind::ModJkLive {
                strike_limit: 2,
                cooldown: 16,
            },
            ProtocolKind::Ranking,
            ProtocolKind::RankingUniform,
            ProtocolKind::SlidingRanking { window: 64 },
            ProtocolKind::decay(0.98),
            ProtocolKind::RobustRanking { window: 16 },
            ProtocolKind::trimmed(16, 0.1),
            ProtocolKind::fenced_trimmed(16, 0.1),
        ]
    }

    /// The concrete type `kind` builds, boxed — what [`AnyProtocol::new`]
    /// holds in its arm, built without going through the enum.
    fn concrete(
        kind: ProtocolKind,
        id: NodeId,
        a: Attribute,
        part: &Partition,
        initial: f64,
    ) -> Box<dyn SliceProtocol> {
        let ranking = || Ranking::new(id, a, initial, part.clone());
        match kind {
            ProtocolKind::Jk => Box::new(Ordering::jk(id, a, initial)),
            ProtocolKind::ModJk => Box::new(Ordering::mod_jk(id, a, initial)),
            ProtocolKind::ModJkLive {
                strike_limit,
                cooldown,
            } => Box::new(Ordering::mod_jk_live(
                id,
                a,
                initial,
                strike_limit,
                cooldown as u64,
            )),
            ProtocolKind::Ranking => Box::new(ranking()),
            ProtocolKind::RankingUniform => {
                Box::new(ranking().with_targeting(Targeting::TwoRandom))
            }
            ProtocolKind::SlidingRanking { window } => Box::new(SlidingRanking::with_window(
                id,
                a,
                initial,
                part.clone(),
                window,
            )),
            ProtocolKind::DecayRanking { .. } => Box::new(DecayRanking::with_lambda(
                id,
                a,
                initial,
                part.clone(),
                kind.lambda().unwrap(),
            )),
            ProtocolKind::RobustRanking { window } => {
                Box::new(ranking().with_filter(RobustFilter::new(window)))
            }
            ProtocolKind::TrimmedRanking { window, .. } => Box::new(
                ranking().with_filter(RobustFilter::trimmed(window, kind.trim_fraction().unwrap())),
            ),
            ProtocolKind::FencedTrimmedRanking { window, .. } => Box::new(ranking().with_filter(
                RobustFilter::fenced_trimmed(window, kind.trim_fraction().unwrap()),
            )),
        }
    }

    /// A view around `owner` whose neighbours straddle its attribute, so
    /// both families have misplaced partners and samples on both sides.
    fn view_for(owner: u64) -> View {
        let mut view = View::new(8).unwrap();
        for k in 1..=8u64 {
            let id = owner + k;
            let value = (k as f64 * 0.37) % 1.0 + 0.01;
            view.insert(ViewEntry::new(
                NodeId::new(id),
                attr(id as f64 * 3.0 % 50.0),
                value,
            ));
        }
        view
    }

    /// Drives `a` and `b` through the same calls, comparing every answer
    /// and everything they send or record.
    fn assert_agree(
        label: &str,
        a: &mut dyn SliceProtocol,
        b: &mut dyn SliceProtocol,
        view: &View,
    ) {
        let part = Partition::equal(5).unwrap();
        let mut ctx_a = MockContext::new(StdRng::seed_from_u64(5));
        let mut ctx_b = MockContext::new(StdRng::seed_from_u64(5));
        let observe = |p: &dyn SliceProtocol| {
            (
                p.id(),
                p.attribute(),
                p.estimate().to_bits(),
                p.published_value().to_bits(),
                p.slice(&part),
            )
        };
        assert_eq!(observe(a), observe(b), "{label}: initial state");
        for round in 0..6u64 {
            a.on_active(view, &mut ctx_a);
            b.on_active(view, &mut ctx_b);
            let msgs = [
                ProtocolMsg::Update {
                    from: NodeId::new(round + 1),
                    a: attr(round as f64 * 9.0),
                },
                ProtocolMsg::SwapReq {
                    from: NodeId::new(round + 2),
                    r: 0.1 * round as f64 + 0.05,
                    a: attr(40.0 - round as f64 * 7.0),
                },
                ProtocolMsg::SwapAck {
                    from: NodeId::new(round + 3),
                    r: 0.9 - 0.1 * round as f64,
                },
            ];
            for msg in msgs {
                a.on_message(view, msg.clone(), &mut ctx_a);
                b.on_message(view, msg, &mut ctx_b);
            }
            let other = attr(round as f64 * 11.0 % 50.0);
            let value = 0.15 * round as f64 + 0.02;
            assert_eq!(
                a.try_atomic_swap(other, value).map(f64::to_bits),
                b.try_atomic_swap(other, value).map(f64::to_bits),
                "{label}: try_atomic_swap in round {round}"
            );
            a.adopt_value(1.0 - value);
            b.adopt_value(1.0 - value);
            if round == 3 {
                let finer = Partition::equal(7).unwrap();
                a.set_partition(&finer);
                b.set_partition(&finer);
            }
            assert_eq!(observe(a), observe(b), "{label}: state after round {round}");
        }
        assert_eq!(ctx_a.sent, ctx_b.sent, "{label}: messages sent");
        assert_eq!(ctx_a.events, ctx_b.events, "{label}: events recorded");
    }

    #[test]
    fn every_kind_agrees_with_its_concrete_type_call_for_call() {
        let part = Partition::equal(5).unwrap();
        for kind in kinds() {
            let (id, a) = (NodeId::new(3), attr(21.0));
            let mut rng = StdRng::seed_from_u64(9);
            let mut any = AnyProtocol::new(kind, id, a, &part, &mut rng);
            let initial = 1.0 - StdRng::seed_from_u64(9).gen::<f64>();
            let mut plain = concrete(kind, id, a, &part, initial);
            assert_agree(kind.label(), &mut any, &mut *plain, &view_for(3));
        }
    }

    #[test]
    fn wrappers_agree_with_their_concrete_type_call_for_call() {
        let part = Partition::equal(5).unwrap();
        let (id, a) = (NodeId::new(3), attr(21.0));
        let spec = AttackerSpec::Drifter {
            inflation: 3.0,
            step: 0.25,
            epoch: 2,
        };
        for inner in [ProtocolKind::ModJk, ProtocolKind::Ranking] {
            let build = || {
                Box::new(AnyProtocol::new(
                    inner,
                    id,
                    a,
                    &part,
                    &mut StdRng::seed_from_u64(9),
                ))
            };
            let mut any = AnyProtocol::from(Liar::new(build(), 2.5));
            let mut plain = Liar::new(build(), 2.5);
            assert_agree("liar", &mut any, &mut plain, &view_for(3));
            let mut any = AnyProtocol::from(Adaptive::new(build(), spec));
            let mut plain = Adaptive::new(build(), spec);
            assert_agree("adaptive", &mut any, &mut plain, &view_for(3));
        }
    }

    /// Pins every byte the two wrappers put out — each message they send,
    /// each event they record and each `estimate`/`published_value`/`slice`
    /// reading — for the static liar and each adaptive attacker around
    /// mod-JK and around ranking. The agreement test above cannot catch a
    /// change in the message-rewriting shim, since both of its sides run
    /// the same shim; this constant can.
    #[test]
    fn wrapper_outputs_are_pinned() {
        let part = Partition::equal(5).unwrap();
        let (id, a) = (NodeId::new(3), attr(21.0));
        let specs = [
            AttackerSpec::Colluder { target: 0.9 },
            AttackerSpec::Throttler {
                accept_period: 2,
                inflation: 3.0,
            },
            AttackerSpec::Drifter {
                inflation: 2.0,
                step: 0.25,
                epoch: 2,
            },
        ];
        let mut bytes = Vec::new();
        fn push(bytes: &mut Vec<u8>, word: u64) {
            bytes.extend(word.to_le_bytes());
        }
        for inner in [ProtocolKind::ModJk, ProtocolKind::Ranking] {
            let build = || AnyProtocol::new(inner, id, a, &part, &mut StdRng::seed_from_u64(9));
            let mut wrapped = vec![AnyProtocol::from(Liar::new(Box::new(build()), 2.5))];
            for spec in specs {
                wrapped.push(Adaptive::new(Box::new(build()), spec).into());
            }
            for node in &mut wrapped {
                let mut ctx = MockContext::new(StdRng::seed_from_u64(5));
                for round in 0..12u64 {
                    let view = view_for(round % 4);
                    node.on_active(&view, &mut ctx);
                    let msgs = [
                        ProtocolMsg::Update {
                            from: NodeId::new(round + 1),
                            a: attr(round as f64 * 9.0 + 1.0),
                        },
                        ProtocolMsg::SwapReq {
                            from: NodeId::new(round + 2),
                            r: 0.07 * round as f64 + 0.05,
                            a: attr(40.0 - round as f64 * 3.0),
                        },
                        ProtocolMsg::SwapAck {
                            from: NodeId::new(round + 3),
                            r: 0.9 - 0.06 * round as f64,
                        },
                    ];
                    for msg in msgs {
                        node.on_message(&view, msg, &mut ctx);
                    }
                    let swapped =
                        node.try_atomic_swap(attr(round as f64 * 11.0 % 50.0), 0.08 * round as f64);
                    push(&mut bytes, swapped.map_or(u64::MAX, f64::to_bits));
                    node.adopt_value(1.0 - 0.05 * round as f64);
                    push(&mut bytes, node.estimate().to_bits());
                    push(&mut bytes, node.published_value().to_bits());
                    push(&mut bytes, node.slice(&part).as_usize() as u64);
                }
                for (to, msg) in ctx.take_sent() {
                    push(&mut bytes, to.as_u64());
                    let (tag, from, r, a) = match msg {
                        ProtocolMsg::SwapReq { from, r, a } => (1, from, r, a.value()),
                        ProtocolMsg::SwapAck { from, r } => (2, from, r, 0.0),
                        ProtocolMsg::Update { from, a } => (3, from, 0.0, a.value()),
                        other => panic!("a protocol sent membership traffic: {other:?}"),
                    };
                    for word in [tag, from.as_u64(), r.to_bits(), a.to_bits()] {
                        push(&mut bytes, word);
                    }
                }
                bytes.extend(format!("{:?}", ctx.events).bytes());
            }
        }
        assert_eq!(
            dslice_core::digest::fnv1a64(bytes),
            0x3a25_624a_6350_d682,
            "wrapper outputs changed"
        );
    }

    /// The passive step reads only the message (Fig. 2 lines 15–19, Fig. 5
    /// lines 17–21): every kind, and each wrapper around mod-JK and
    /// ranking, sends, records and estimates the same from `on_message`
    /// with an empty view as with a full one. The cycle simulator relies on
    /// this: it hands `on_message` an empty view.
    #[test]
    fn on_message_reads_only_the_message() {
        let part = Partition::equal(5).unwrap();
        let (id, a) = (NodeId::new(3), attr(21.0));
        let spec = AttackerSpec::Drifter {
            inflation: 2.0,
            step: 0.25,
            epoch: 2,
        };
        let build = |kind| AnyProtocol::new(kind, id, a, &part, &mut StdRng::seed_from_u64(9));
        let mut pairs: Vec<(String, AnyProtocol, AnyProtocol)> = kinds()
            .into_iter()
            .map(|kind| (kind.label().to_string(), build(kind), build(kind)))
            .collect();
        for inner in [ProtocolKind::ModJk, ProtocolKind::Ranking] {
            let liar = || Liar::new(Box::new(build(inner)), 2.5).into();
            pairs.push(("liar".into(), liar(), liar()));
            let adaptive = || Adaptive::new(Box::new(build(inner)), spec).into();
            pairs.push(("adaptive".into(), adaptive(), adaptive()));
        }
        let empty = View::new(8).unwrap();
        for (label, mut full_side, mut empty_side) in pairs {
            let mut ctx_full = MockContext::new(StdRng::seed_from_u64(5));
            let mut ctx_empty = MockContext::new(StdRng::seed_from_u64(5));
            for round in 0..8u64 {
                let view = view_for(round % 3);
                full_side.on_active(&view, &mut ctx_full);
                empty_side.on_active(&view, &mut ctx_empty);
                let msgs = [
                    ProtocolMsg::Update {
                        from: NodeId::new(round + 1),
                        a: attr(round as f64 * 7.0 + 1.0),
                    },
                    ProtocolMsg::SwapReq {
                        from: NodeId::new(round + 2),
                        r: 0.09 * round as f64 + 0.05,
                        a: attr(45.0 - round as f64 * 5.0),
                    },
                    ProtocolMsg::SwapAck {
                        from: NodeId::new(round + 3),
                        r: 0.85 - 0.08 * round as f64,
                    },
                ];
                for msg in msgs {
                    full_side.on_message(&view, msg.clone(), &mut ctx_full);
                    empty_side.on_message(&empty, msg, &mut ctx_empty);
                }
                assert_eq!(
                    full_side.estimate().to_bits(),
                    empty_side.estimate().to_bits(),
                    "{label}: estimate after round {round}"
                );
            }
            assert_eq!(ctx_full.sent, ctx_empty.sent, "{label}: messages sent");
            assert_eq!(ctx_full.events, ctx_empty.events, "{label}: events");
        }
    }

    #[test]
    fn inline_arms_fit_in_a_ranking_node() {
        let ranking = size_of::<Ranking>();
        assert_eq!(ranking, 56);
        assert!(
            size_of::<Ordering>() <= ranking,
            "Ordering is {} B",
            size_of::<Ordering>()
        );
        assert!(size_of::<Liar>() <= ranking);
        assert!(size_of::<Adaptive>() <= ranking);
        // The two boxed arms would widen every node.
        assert!(size_of::<SlidingRanking>() > ranking);
        assert!(size_of::<DecayRanking>() > ranking);
        assert_eq!(size_of::<AnyProtocol>(), 64);
    }
}
