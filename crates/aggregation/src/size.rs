//! Network-size estimation by inverse averaging (ref \[12\], §"COUNT").
//!
//! One designated initiator seeds its estimate with `1.0`, every other node
//! with `0.0`. Push–pull averaging drives every estimate to the common mean
//! `1/n`, so each node recovers `n ≈ 1/estimate` — without any node ever
//! enumerating the network.
//!
//! §2 of the slicing paper uses the *need* for such a size estimate as the
//! argument against quantile-search approaches ("solutions to the quantile
//! search problem … use an approximation of the system size"); this module
//! makes that dependency explicit and measurable.

use crate::protocol::{AggregateKind, AggregationState};

/// One node's participation in a size-estimation instance.
#[derive(Clone, Copy, Debug)]
pub struct SizeEstimator {
    state: AggregationState,
    initiator: bool,
}

impl SizeEstimator {
    /// Creates the estimator; exactly one node per instance must pass
    /// `initiator = true`.
    pub fn new(initiator: bool) -> Self {
        SizeEstimator {
            state: AggregationState::new(AggregateKind::Average, if initiator { 1.0 } else { 0.0 }),
            initiator,
        }
    }

    /// The size estimate `1/token`, or `None` while the token is still zero
    /// (the counting wave has not reached this node yet).
    pub fn estimate(&self) -> Option<f64> {
        let t = self.state.value();
        if t > 0.0 {
            Some(1.0 / t)
        } else {
            None
        }
    }

    /// Restarts the epoch, reseeding the token.
    pub fn reset(&mut self) {
        self.state.reset(if self.initiator { 1.0 } else { 0.0 });
    }
}

/// Runs a complete size-estimation epoch over `n` nodes for `rounds`
/// synchronous rounds and returns every node's final estimate.
///
/// A convenience harness for tests, benches and the CLI; real deployments
/// drive [`SizeEstimator`] exchange by exchange.
pub fn estimate_size(n: usize, rounds: usize, seed: u64) -> Vec<Option<f64>> {
    use crate::swarm::Swarm;
    assert!(n >= 1);
    let mut initial = vec![0.0; n];
    initial[0] = 1.0;
    let mut swarm = Swarm::new(AggregateKind::Average, &initial, seed);
    for _ in 0..rounds {
        swarm.round();
    }
    swarm
        .values()
        .into_iter()
        .map(|t| if t > 0.0 { Some(1.0 / t) } else { None })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiator_starts_at_one_others_at_zero() {
        assert_eq!(SizeEstimator::new(true).estimate(), Some(1.0));
        assert_eq!(SizeEstimator::new(false).estimate(), None);
    }

    #[test]
    fn pairwise_exchange_halves_the_token() {
        let mut a = SizeEstimator::new(true);
        let mut b = SizeEstimator::new(false);
        let pushed = a.state.push_value();
        let reply = b.state.respond(pushed);
        a.state.absorb_reply(reply);
        assert_eq!(a.estimate(), Some(2.0));
        assert_eq!(b.estimate(), Some(2.0));
    }

    #[test]
    fn full_epoch_estimates_network_size() {
        for &n in &[64usize, 500, 1000] {
            let estimates = estimate_size(n, 40, 42);
            for (i, est) in estimates.iter().enumerate() {
                let est = est.unwrap_or_else(|| panic!("node {i} never reached"));
                let rel = (est - n as f64).abs() / n as f64;
                assert!(
                    rel < 0.05,
                    "n = {n}: node {i} estimated {est:.1} (rel err {rel:.3})"
                );
            }
        }
    }

    #[test]
    fn estimate_tightens_with_rounds() {
        let n = 512;
        let worst = |rounds: usize| -> f64 {
            estimate_size(n, rounds, 7)
                .into_iter()
                .map(|e| e.map_or(f64::INFINITY, |e| (e - n as f64).abs() / n as f64))
                .fold(0.0f64, f64::max)
        };
        let coarse = worst(10);
        let fine = worst(40);
        assert!(
            fine < coarse,
            "40 rounds ({fine:.4}) not tighter than 10 ({coarse:.4})"
        );
        assert!(fine < 0.01);
    }

    #[test]
    fn reset_reseeds_the_token() {
        let mut a = SizeEstimator::new(true);
        a.state.respond(0.0); // halves the token
        assert_eq!(a.estimate(), Some(2.0));
        a.reset();
        assert_eq!(a.estimate(), Some(1.0));
        let mut b = SizeEstimator::new(false);
        b.state.respond(1.0);
        b.reset();
        assert_eq!(b.estimate(), None);
    }

    #[test]
    fn singleton_network_estimates_one() {
        let estimates = estimate_size(1, 5, 3);
        assert_eq!(estimates, vec![Some(1.0)]);
    }
}
