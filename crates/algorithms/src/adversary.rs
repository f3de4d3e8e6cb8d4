//! Adaptive adversaries: attackers that observe the defense and react.
//!
//! [`Liar`](crate::Liar) models a *static, naive* attacker — a fixed
//! inflation factor applied blindly. The defenses added against it
//! ([`RobustFilter`](crate::RobustFilter) fences, `mod-jk-live` strike
//! bans) all leave a residual channel that a smarter attacker can probe:
//!
//! * [`Colluder`] — aims its poisoned attribute samples *just inside* the
//!   upper Tukey fence of the honest stream it observes, so fence-only
//!   admission accepts maximal distortion. Its claimed rank is a fixed
//!   target percentile (the slice it wants to squat in).
//! * [`Throttler`] — a swap-refuser that answers exactly often enough to
//!   keep wiping its strike record before `mod-jk-live` bans it, probing
//!   the configured strike limit/cooldown.
//! * [`Drifter`] — re-targets its inflation each epoch from observed
//!   rejection feedback: if its poison would land outside the fences it
//!   backs off, if comfortably inside it escalates.
//!
//! All three are **deterministic**: their state advances only on observed
//! samples and activation counts, so a node's behavior is a pure function
//! of the per-node SplitMix64 streams that already drive the simulation —
//! byte-identical reruns come for free.
//!
//! [`Adaptive`] is the runtime wrapper (the adaptive sibling of
//! [`Liar`](crate::Liar)): it boxes an honest [`AnyProtocol`] plus a
//! strategy, feeds every observed attribute to the strategy, and rewrites
//! outgoing traffic with the strategy's current [`AttackPlan`], through the
//! same rewriting shim as the liar. Runtimes decide who
//! attacks (e.g. `dslice_sim::Engine::corrupt_adaptive`) and measure the
//! damage via honest-only accuracy.

use crate::liar::Rewrite;
use crate::window::ValueWindow;
use crate::AnyProtocol;
use dslice_core::protocol::{Context, SliceProtocol};
use dslice_core::{Attribute, Error, NodeId, Partition, ProtocolMsg, Result, View};
use serde::{Deserialize, Serialize};

/// Width of the mirror window an observing attacker keeps: enough samples
/// for stable quartiles, small enough to track honest shifts quickly.
const MIRROR_WINDOW: usize = 64;

/// Multiplier applied to the observed upper fence so the aimed poison lands
/// strictly *inside* the admissible band despite rounding.
const FENCE_MARGIN: f64 = 0.999;

/// What an adaptive attacker wants its external surfaces to carry right now.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackPlan {
    /// The normalized rank to claim in swap traffic and published state.
    pub claim: f64,
    /// The attribute value to stamp on outgoing `UPD` samples; `None`
    /// reports the truthful attribute (e.g. while gathering intelligence).
    pub poison: Option<f64>,
}

/// An attacker brain: observes the sample stream, re-plans each activation,
/// and decides which incoming swap probes to answer.
pub trait AdaptiveAdversary: std::fmt::Debug + Send {
    /// Short label for diagnostics and run records.
    fn label(&self) -> &'static str;

    /// Feeds one attribute value the node observed (view scan or `UPD`).
    fn observe(&mut self, value: f64);

    /// Re-plans at the start of an activation, given the wrapped protocol's
    /// honest estimate and the node's true attribute value.
    fn plan(&mut self, honest_estimate: f64, attribute: f64) -> AttackPlan;

    /// Whether to answer the next incoming atomic-swap probe. Refusals
    /// surface as unsuccessful swaps at the proposer.
    fn allow_swap(&mut self) -> bool;
}

/// Serializable parameterization of the three concrete attackers — the form
/// scenario scripts and runtimes select an adversary by.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackerSpec {
    /// Coordinated fence-aware poisoning (see [`Colluder`]).
    Colluder {
        /// The normalized rank every colluder claims, in `(0, 1]`.
        target: f64,
    },
    /// Strike-limit probing swap refusal (see [`Throttler`]).
    Throttler {
        /// Answer every `accept_period`-th incoming swap probe (≥ 1).
        accept_period: u32,
        /// Rank-inflation factor for the claimed value (finite, ≥ 1).
        inflation: f64,
    },
    /// Feedback-driven inflation drift (see [`Drifter`]).
    Drifter {
        /// Starting inflation factor (finite, ≥ 1).
        inflation: f64,
        /// Multiplicative adjustment per epoch, in `(0, 1)`.
        step: f64,
        /// Activations per re-targeting epoch (≥ 1).
        epoch: u32,
    },
}

impl AttackerSpec {
    /// Short label for run records and scenario catalogs.
    pub fn label(&self) -> &'static str {
        match self {
            AttackerSpec::Colluder { .. } => "colluder",
            AttackerSpec::Throttler { .. } => "throttler",
            AttackerSpec::Drifter { .. } => "drifter",
        }
    }

    /// Validates the parameterization, mirroring
    /// [`ProtocolKind::validate`](crate::ProtocolKind::validate).
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidProtocol(msg));
        match *self {
            AttackerSpec::Colluder { target }
                if !target.is_finite() || !(0.0..=1.0).contains(&target) || target == 0.0 =>
            {
                bad(format!("colluder target must lie in (0, 1], got {target}"))
            }
            AttackerSpec::Throttler {
                accept_period: 0, ..
            } => bad("throttler accept period must be at least 1".into()),
            AttackerSpec::Throttler { inflation, .. }
                if !inflation.is_finite() || inflation < 1.0 =>
            {
                bad(format!(
                    "throttler inflation must be finite and ≥ 1, got {inflation}"
                ))
            }
            AttackerSpec::Drifter { inflation, .. }
                if !inflation.is_finite() || inflation < 1.0 =>
            {
                bad(format!(
                    "drifter inflation must be finite and ≥ 1, got {inflation}"
                ))
            }
            AttackerSpec::Drifter { step, .. }
                if !step.is_finite() || !(0.0..1.0).contains(&step) || step == 0.0 =>
            {
                bad(format!("drifter step must lie in (0, 1), got {step}"))
            }
            AttackerSpec::Drifter { epoch: 0, .. } => {
                bad("drifter epoch must be at least 1".into())
            }
            _ => Ok(()),
        }
    }

    /// Instantiates the attacker brain this spec describes.
    ///
    /// # Panics
    /// Panics if the spec does not [`validate`](AttackerSpec::validate).
    pub fn build(&self) -> Box<dyn AdaptiveAdversary> {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid attacker spec: {e}"));
        match *self {
            AttackerSpec::Colluder { target } => Box::new(Colluder::new(target)),
            AttackerSpec::Throttler {
                accept_period,
                inflation,
            } => Box::new(Throttler::new(accept_period, inflation)),
            AttackerSpec::Drifter {
                inflation,
                step,
                epoch,
            } => Box::new(Drifter::new(inflation, step, epoch)),
        }
    }
}

/// Fence-aware coordinated poisoning.
///
/// Keeps a mirror [`ValueWindow`] of the attribute stream the node observes
/// — the same evidence an honest defender's [`crate::RobustFilter`] sees — and
/// stamps outgoing `UPD` samples with a value just *inside* the observed
/// upper Tukey fence: the maximal distortion fence-only admission accepts.
/// While the mirror is still warming up it reports truthfully (no poison),
/// so the attack never exposes itself to trivial rejection. The claimed
/// rank is a fixed target percentile; swaps are always refused.
#[derive(Clone, Debug)]
pub struct Colluder {
    target: f64,
    mirror: ValueWindow,
}

impl Colluder {
    /// A colluder claiming normalized rank `target ∈ (0, 1]`.
    pub fn new(target: f64) -> Self {
        Colluder {
            target: target.clamp(f64::MIN_POSITIVE, 1.0),
            mirror: ValueWindow::new(MIRROR_WINDOW),
        }
    }
}

impl AdaptiveAdversary for Colluder {
    fn label(&self) -> &'static str {
        "colluder"
    }

    fn observe(&mut self, value: f64) {
        self.mirror.push(value);
    }

    fn plan(&mut self, _honest_estimate: f64, attribute: f64) -> AttackPlan {
        let poison = if self.mirror.is_full() {
            self.mirror
                .tukey_fences(crate::RobustFilter::DEFAULT_FENCE_K)
                // Never *deflate* below the truthful attribute: the attack
                // only ever pushes the sample stream upward.
                .map(|(_, hi)| (hi * FENCE_MARGIN).max(attribute))
        } else {
            None // intelligence-gathering warmup: stay honest
        };
        AttackPlan {
            claim: self.target,
            poison,
        }
    }

    fn allow_swap(&mut self) -> bool {
        false
    }
}

/// Strike-limit probing swap refusal.
///
/// `mod-jk-live` bans a partner after `strike_limit` consecutive unresolved
/// proposals, and *clears* the strike record whenever a proposal resolves.
/// The throttler exploits the clearing rule: it answers exactly every
/// `accept_period`-th probe, so with `accept_period ≤ strike_limit` no
/// proposer ever accumulates enough strikes to ban it — yet the vast
/// majority of proposals against it still burn as useless swaps. Against a
/// re-tuned defense (`strike_limit < accept_period`) the same attacker gets
/// banned and neutralized.
#[derive(Clone, Debug)]
pub struct Throttler {
    accept_period: u32,
    inflation: f64,
    probes: u64,
}

impl Throttler {
    /// A throttler answering every `accept_period`-th probe (≥ 1) and
    /// claiming `honest × inflation`.
    pub fn new(accept_period: u32, inflation: f64) -> Self {
        Throttler {
            accept_period: accept_period.max(1),
            inflation: if inflation.is_finite() {
                inflation.max(1.0)
            } else {
                1.0
            },
            probes: 0,
        }
    }
}

impl AdaptiveAdversary for Throttler {
    fn label(&self) -> &'static str {
        "throttler"
    }

    fn observe(&mut self, _value: f64) {}

    fn plan(&mut self, honest_estimate: f64, _attribute: f64) -> AttackPlan {
        AttackPlan {
            claim: (honest_estimate * self.inflation).min(1.0),
            poison: None,
        }
    }

    fn allow_swap(&mut self) -> bool {
        self.probes += 1;
        self.probes.is_multiple_of(self.accept_period as u64)
    }
}

/// Feedback-driven inflation drift.
///
/// Starts from a configured inflation factor and re-targets once per epoch
/// (measured in activations) using the mirror window as a rejection oracle:
/// if the current poison value would land *above* the observed upper fence
/// (i.e. the defense is rejecting it) the inflation backs off
/// multiplicatively; if it sits comfortably below the fence the attacker
/// escalates. The result hill-climbs to the strongest admissible lie
/// without any side channel — only the samples every node already sees.
#[derive(Clone, Debug)]
pub struct Drifter {
    inflation: f64,
    step: f64,
    epoch: u32,
    activations: u32,
    mirror: ValueWindow,
}

impl Drifter {
    /// Escalation headroom: poison below this fraction of the fence is
    /// "comfortably inside" and invites a raise.
    const HEADROOM: f64 = 0.9;

    /// A drifter starting at `inflation ≥ 1`, adjusting by `step ∈ (0, 1)`
    /// every `epoch ≥ 1` activations.
    pub fn new(inflation: f64, step: f64, epoch: u32) -> Self {
        Drifter {
            inflation: if inflation.is_finite() {
                inflation.max(1.0)
            } else {
                1.0
            },
            step: step.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON),
            epoch: epoch.max(1),
            activations: 0,
            mirror: ValueWindow::new(MIRROR_WINDOW),
        }
    }

    /// The current inflation factor (exposed for tests and diagnostics).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }
}

impl AdaptiveAdversary for Drifter {
    fn label(&self) -> &'static str {
        "drifter"
    }

    fn observe(&mut self, value: f64) {
        self.mirror.push(value);
    }

    fn plan(&mut self, honest_estimate: f64, attribute: f64) -> AttackPlan {
        self.activations += 1;
        if self.activations.is_multiple_of(self.epoch) {
            if let Some((_, hi)) = self
                .mirror
                .tukey_fences(crate::RobustFilter::DEFAULT_FENCE_K)
            {
                let poison = attribute * self.inflation;
                if poison > hi {
                    // The defense is (or would be) rejecting us: back off.
                    self.inflation = (self.inflation * (1.0 - self.step)).max(1.0);
                } else if poison < hi * Self::HEADROOM {
                    // Comfortably admissible: escalate.
                    self.inflation *= 1.0 + self.step;
                }
            }
        }
        AttackPlan {
            claim: (honest_estimate * self.inflation).min(1.0),
            poison: Some(attribute * self.inflation),
        }
    }

    fn allow_swap(&mut self) -> bool {
        false
    }
}

/// A node running an adaptive attack: wraps an honest protocol instance and
/// an [`AdaptiveAdversary`] strategy (see the module docs).
pub struct Adaptive {
    inner: Box<AnyProtocol>,
    strategy: Box<dyn AdaptiveAdversary>,
    /// The plan cached at the last activation — external surfaces
    /// (`estimate`, `published_value`, message rewrites) read this.
    plan: AttackPlan,
}

impl std::fmt::Debug for Adaptive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adaptive")
            .field("id", &self.inner.id())
            .field("strategy", &self.strategy.label())
            .field("honest_estimate", &self.inner.estimate())
            .field("plan", &self.plan)
            .finish()
    }
}

impl Adaptive {
    /// Wraps `inner` with the attacker `spec` describes.
    ///
    /// # Panics
    /// Panics if the spec does not [`validate`](AttackerSpec::validate).
    pub fn new(inner: Box<AnyProtocol>, spec: AttackerSpec) -> Self {
        let mut strategy = spec.build();
        let plan = strategy.plan(inner.estimate(), inner.attribute().value());
        Adaptive {
            inner,
            strategy,
            plan,
        }
    }

    /// The honest estimate of the wrapped protocol — what the node *would*
    /// report if it were not attacking.
    pub fn honest_estimate(&self) -> f64 {
        self.inner.estimate()
    }

    /// `ctx` behind the cached [`AttackPlan`]: its claim in swap traffic,
    /// and its poison, if any, on each attribute sample (saturating at the
    /// truthful attribute if the poison is not a representable value).
    fn rewrite<'a>(
        &self,
        ctx: &'a mut dyn Context,
    ) -> Rewrite<'a, impl Fn(Attribute) -> Attribute> {
        let AttackPlan { claim, poison } = self.plan;
        Rewrite {
            inner: ctx,
            claim,
            poison: move |a: Attribute| poison.map_or(a, |p| Attribute::new(p).unwrap_or(a)),
        }
    }
}

impl SliceProtocol for Adaptive {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    /// Ground truth: the evaluation oracle must see the real attribute.
    fn attribute(&self) -> Attribute {
        self.inner.attribute()
    }

    /// The *claimed* rank from the current plan.
    fn estimate(&self) -> f64 {
        self.plan.claim
    }

    fn on_active(&mut self, view: &View, ctx: &mut dyn Context) {
        // Intelligence phase: the strategy sees exactly the evidence an
        // honest defender's filter would.
        for entry in view.iter() {
            self.strategy.observe(entry.attribute.value());
        }
        self.plan = self
            .strategy
            .plan(self.inner.estimate(), self.inner.attribute().value());
        let mut shim = self.rewrite(ctx);
        self.inner.on_active(view, &mut shim);
    }

    fn on_message(&mut self, view: &View, msg: ProtocolMsg, ctx: &mut dyn Context) {
        if let ProtocolMsg::Update { a, .. } = &msg {
            self.strategy.observe(a.value());
        }
        let mut shim = self.rewrite(ctx);
        self.inner.on_message(view, msg, &mut shim);
    }

    /// Swap probes reach the strategy's throttle: refused probes burn as
    /// unsuccessful swaps at the proposer, answered ones resolve honestly
    /// (and, against `mod-jk-live`, wipe the proposer's strike record).
    fn try_atomic_swap(&mut self, other_attr: Attribute, other_value: f64) -> Option<f64> {
        if self.strategy.allow_swap() {
            self.inner.try_atomic_swap(other_attr, other_value)
        } else {
            None
        }
    }

    fn adopt_value(&mut self, value: f64) {
        self.inner.adopt_value(value);
    }

    fn set_partition(&mut self, partition: &Partition) {
        self.inner.set_partition(partition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use dslice_core::protocol::MockContext;
    use dslice_core::ViewEntry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adaptive(kind: ProtocolKind, attribute: f64, spec: AttackerSpec) -> Adaptive {
        let mut rng = StdRng::seed_from_u64(7);
        let partition = Partition::equal(4).unwrap();
        let inner = AnyProtocol::new(
            kind,
            NodeId::new(1),
            Attribute::new(attribute).unwrap(),
            &partition,
            &mut rng,
        );
        Adaptive::new(Box::new(inner), spec)
    }

    fn honest_stream() -> Vec<f64> {
        (0..MIRROR_WINDOW)
            .map(|i| 30.0 + (i % 8) as f64 * 10.0)
            .collect()
    }

    #[test]
    fn colluder_stays_honest_during_warmup() {
        let mut c = Colluder::new(0.95);
        c.observe(50.0);
        let plan = c.plan(0.4, 50.0);
        assert_eq!(plan.claim, 0.95);
        assert_eq!(plan.poison, None, "no poison before the mirror fills");
        assert!(!c.allow_swap());
    }

    #[test]
    fn colluder_aims_just_inside_the_fences() {
        let mut c = Colluder::new(0.95);
        let stream = honest_stream();
        for &v in &stream {
            c.observe(v);
        }
        let mut probe = ValueWindow::new(MIRROR_WINDOW);
        for &v in &stream {
            probe.push(v);
        }
        let (_, hi) = probe
            .tukey_fences(crate::RobustFilter::DEFAULT_FENCE_K)
            .unwrap();
        let plan = c.plan(0.4, 50.0);
        let poison = plan.poison.expect("full mirror must poison");
        assert!(poison < hi, "poison {poison} must stay inside fence {hi}");
        assert!(
            poison > stream.iter().fold(f64::MIN, |m, &v| m.max(v)),
            "poison {poison} must exceed every honest value"
        );
        // A fence-only filter warmed on the same stream admits the poison.
        let mut fenced = crate::RobustFilter::new(MIRROR_WINDOW);
        for &v in &stream {
            fenced.admit(v);
        }
        assert!(fenced.admit(poison));
    }

    #[test]
    fn colluder_never_deflates_below_truth() {
        let mut c = Colluder::new(0.5);
        for &v in &honest_stream() {
            c.observe(v);
        }
        // A node whose true attribute already exceeds the fence keeps it.
        let plan = c.plan(0.9, 1e6);
        assert_eq!(plan.poison, Some(1e6));
    }

    #[test]
    fn throttler_answers_every_kth_probe() {
        let mut t = Throttler::new(3, 2.0);
        let pattern: Vec<bool> = (0..9).map(|_| t.allow_swap()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
        let plan = t.plan(0.4, 5.0);
        assert_eq!(plan.claim, 0.8);
        assert_eq!(plan.poison, None, "throttler does not poison samples");
    }

    #[test]
    fn drifter_backs_off_when_rejected_and_escalates_when_safe() {
        // Narrow honest stream around 50: fences sit near 50, so a 100×
        // inflation on attribute 50 is far outside → back-off.
        let mut d = Drifter::new(100.0, 0.5, 1);
        for i in 0..MIRROR_WINDOW {
            d.observe(45.0 + (i % 10) as f64);
        }
        let before = d.inflation();
        d.plan(0.5, 50.0);
        assert!(
            d.inflation() < before,
            "rejected poison must shrink inflation: {} -> {}",
            before,
            d.inflation()
        );
        // Tiny inflation on a mid-stream attribute is comfortably inside
        // the fences → escalate.
        let mut d = Drifter::new(1.0, 0.5, 1);
        for i in 0..MIRROR_WINDOW {
            d.observe(45.0 + (i % 10) as f64);
        }
        d.plan(0.5, 10.0);
        assert!(d.inflation() > 1.0, "safe poison must grow inflation");
        // Inflation never drops below 1 (an attacker never deflates).
        let mut d = Drifter::new(1.0, 0.9, 1);
        for _ in 0..MIRROR_WINDOW {
            d.observe(1.0);
        }
        for _ in 0..20 {
            d.plan(0.5, 1e9);
        }
        assert!(d.inflation() >= 1.0);
    }

    #[test]
    fn drifter_converges_toward_the_fence() {
        // Hill-climb: after enough epochs the drifter's poison should sit
        // in the admissible band just under the fence.
        let mut d = Drifter::new(1.0, 0.2, 1);
        let stream = honest_stream();
        let attribute = 50.0;
        let mut probe = ValueWindow::new(MIRROR_WINDOW);
        for &v in &stream {
            d.observe(v);
            probe.push(v);
        }
        let (_, hi) = probe
            .tukey_fences(crate::RobustFilter::DEFAULT_FENCE_K)
            .unwrap();
        let mut last = AttackPlan {
            claim: 0.0,
            poison: None,
        };
        for _ in 0..60 {
            last = d.plan(0.5, attribute);
        }
        let poison = last.poison.unwrap();
        assert!(
            poison <= hi && poison > hi * 0.4,
            "poison {poison} should hover under fence {hi}"
        );
    }

    #[test]
    fn spec_validation_rejects_degenerate_parameters() {
        assert!(AttackerSpec::Colluder { target: 0.0 }.validate().is_err());
        assert!(AttackerSpec::Colluder { target: 1.5 }.validate().is_err());
        assert!(AttackerSpec::Colluder { target: f64::NAN }
            .validate()
            .is_err());
        assert!(AttackerSpec::Throttler {
            accept_period: 0,
            inflation: 2.0
        }
        .validate()
        .is_err());
        assert!(AttackerSpec::Throttler {
            accept_period: 2,
            inflation: 0.5
        }
        .validate()
        .is_err());
        assert!(AttackerSpec::Drifter {
            inflation: f64::INFINITY,
            step: 0.1,
            epoch: 4
        }
        .validate()
        .is_err());
        assert!(AttackerSpec::Drifter {
            inflation: 2.0,
            step: 1.0,
            epoch: 4
        }
        .validate()
        .is_err());
        assert!(AttackerSpec::Drifter {
            inflation: 2.0,
            step: 0.1,
            epoch: 0
        }
        .validate()
        .is_err());
        // Healthy specs pass and build.
        for spec in [
            AttackerSpec::Colluder { target: 0.95 },
            AttackerSpec::Throttler {
                accept_period: 2,
                inflation: 3.0,
            },
            AttackerSpec::Drifter {
                inflation: 2.0,
                step: 0.25,
                epoch: 4,
            },
        ] {
            assert!(spec.validate().is_ok());
            let brain = spec.build();
            assert_eq!(brain.label(), spec.label());
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for spec in [
            AttackerSpec::Colluder { target: 0.95 },
            AttackerSpec::Throttler {
                accept_period: 2,
                inflation: 3.0,
            },
            AttackerSpec::Drifter {
                inflation: 2.0,
                step: 0.25,
                epoch: 4,
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let parsed: AttackerSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn wrapper_rewrites_swap_traffic_with_the_claim() {
        let mut node = adaptive(
            ProtocolKind::ModJk,
            5.0,
            AttackerSpec::Throttler {
                accept_period: 2,
                inflation: 4.0,
            },
        );
        let mut view = View::new(4).unwrap();
        view.insert(ViewEntry::new(
            NodeId::new(2),
            Attribute::new(1000.0).unwrap(),
            0.0001,
        ));
        let mut ctx = MockContext::new(StdRng::seed_from_u64(3));
        node.on_active(&view, &mut ctx);
        let claim = node.estimate();
        let sent = ctx.take_sent();
        assert!(!sent.is_empty(), "misplaced neighbor must provoke traffic");
        for (_, msg) in sent {
            if let ProtocolMsg::SwapReq { r, .. } = msg {
                assert_eq!(r, claim, "REQ must carry the claimed value");
            }
        }
    }

    #[test]
    fn wrapper_gates_swaps_through_the_throttle() {
        let mut node = adaptive(
            ProtocolKind::ModJk,
            5.0,
            AttackerSpec::Throttler {
                accept_period: 3,
                inflation: 2.0,
            },
        );
        // Each answered probe makes the inner node adopt the proposed value,
        // so later probes must offer a strictly smaller one to stay useful.
        let probe = |node: &mut Adaptive, v: f64| {
            node.try_atomic_swap(Attribute::new(9.0).unwrap(), v)
                .is_some()
        };
        let pattern: Vec<bool> = (0..6)
            .map(|i| probe(&mut node, 0.01 / (i + 1) as f64))
            .collect();
        assert_eq!(pattern, [false, false, true, false, false, true]);
    }

    #[test]
    fn wrapper_poisons_updates_only_after_warmup() {
        let mut node = adaptive(
            ProtocolKind::Ranking,
            50.0,
            AttackerSpec::Colluder { target: 0.95 },
        );
        let mut view = View::new(8).unwrap();
        for (i, &v) in honest_stream().iter().take(8).enumerate() {
            view.insert(ViewEntry::new(
                NodeId::new(10 + i as u64),
                Attribute::new(v).unwrap(),
                0.5,
            ));
        }
        let mut ctx = MockContext::new(StdRng::seed_from_u64(4));
        // First activations: mirror not yet full → truthful updates.
        node.on_active(&view, &mut ctx);
        for (_, msg) in ctx.take_sent() {
            if let ProtocolMsg::Update { a, .. } = msg {
                assert_eq!(a.value(), 50.0, "warmup updates stay truthful");
            }
        }
        // 8 observations per activation: the 64-sample mirror fills after 8.
        for _ in 0..8 {
            node.on_active(&view, &mut ctx);
        }
        let _ = ctx.take_sent();
        node.on_active(&view, &mut ctx);
        let mut saw_poison = false;
        for (_, msg) in ctx.take_sent() {
            if let ProtocolMsg::Update { a, .. } = msg {
                assert!(a.value() > 100.0, "post-warmup updates carry poison");
                saw_poison = true;
            }
        }
        assert!(saw_poison, "ranking active step must send UPDs");
        // Claim and truthful attribute stay fixed throughout.
        assert_eq!(node.estimate(), 0.95);
        assert_eq!(node.published_value(), 0.95);
        assert_eq!(node.attribute().value(), 50.0);
        assert_eq!(node.strategy.label(), "colluder");
    }
}
