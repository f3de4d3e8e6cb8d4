//! A deterministic round driver for a population of aggregation instances.
//!
//! Ref \[12\]'s analysis assumes each node initiates one push–pull exchange
//! per cycle with a uniformly random peer. [`Swarm`] reproduces exactly that
//! model (it plays the role PeerSim plays for the slicing protocols), so the
//! measured variance-reduction rate can be compared against the paper's
//! `1/(2√e)` prediction.

use crate::protocol::{AggregateKind, AggregationState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A population of aggregation states driven in synchronous rounds.
#[derive(Debug, Clone)]
pub struct Swarm {
    nodes: Vec<AggregationState>,
    kind: AggregateKind,
    rng: StdRng,
    rounds: usize,
}

impl Swarm {
    /// Creates a swarm computing `kind` over `initial` (one value per node).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty — an aggregate over nothing is
    /// meaningless and indicates a harness bug.
    pub fn new(kind: AggregateKind, initial: &[f64], seed: u64) -> Self {
        assert!(!initial.is_empty(), "swarm needs at least one node");
        Swarm {
            nodes: initial
                .iter()
                .map(|&v| AggregationState::new(kind, v))
                .collect(),
            kind,
            rng: StdRng::seed_from_u64(seed),
            rounds: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the swarm is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The aggregate kind.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// Current per-node estimates.
    pub fn values(&self) -> Vec<f64> {
        self.nodes.iter().map(|n| n.value()).collect()
    }

    /// Mean of the current estimates. Under averaging this is invariant
    /// (mass conservation).
    pub fn mean(&self) -> f64 {
        self.nodes.iter().map(|n| n.value()).sum::<f64>() / self.nodes.len() as f64
    }

    /// Empirical variance of the current estimates — ref \[12\]'s progress
    /// measure.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.nodes
            .iter()
            .map(|n| {
                let d = n.value() - mean;
                d * d
            })
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Runs one synchronous round: every node, in random order, initiates a
    /// push–pull exchange with a uniformly random other node.
    pub fn round(&mut self) {
        let n = self.nodes.len();
        if n < 2 {
            self.rounds += 1;
            return;
        }
        // Random initiation order (Fisher–Yates), as in the cycle simulator.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for &i in &order {
            let mut j = self.rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let pushed = self.nodes[i].push_value();
            let reply = self.nodes[j].respond(pushed);
            self.nodes[i].absorb_reply(reply);
        }
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn averaging_converges_to_the_mean() {
        let values = ramp(256);
        let exact = AggregateKind::Average
            .exact(values.iter().copied())
            .unwrap();
        let mut swarm = Swarm::new(AggregateKind::Average, &values, 1);
        for _ in 0..40 {
            swarm.round();
        }
        for v in swarm.values() {
            assert!(
                (v - exact).abs() < 1e-6,
                "estimate {v} far from exact mean {exact}"
            );
        }
    }

    #[test]
    fn averaging_conserves_the_mean_every_round() {
        let values = ramp(128);
        let mut swarm = Swarm::new(AggregateKind::Average, &values, 2);
        let m0 = swarm.mean();
        for _ in 0..20 {
            swarm.round();
            assert!((swarm.mean() - m0).abs() < 1e-9 * m0.abs().max(1.0));
        }
    }

    #[test]
    fn variance_reduction_is_roughly_geometric() {
        // Ref [12]: expected variance drops by a factor ~1/(2√e) ≈ 0.303 per
        // round. Allow generous slack but insist on clear geometric decay.
        let values = ramp(4096);
        let mut swarm = Swarm::new(AggregateKind::Average, &values, 3);
        let v0 = swarm.variance();
        for _ in 0..10 {
            swarm.round();
        }
        let v10 = swarm.variance();
        let per_round = (v10 / v0).powf(0.1);
        assert!(
            per_round < 0.5,
            "variance shrank only {per_round:.3}× per round (expected ≈ 0.30)"
        );
    }

    #[test]
    fn min_and_max_converge_exactly() {
        let values = ramp(512);
        for (kind, exact) in [(AggregateKind::Min, 0.0), (AggregateKind::Max, 511.0)] {
            let mut swarm = Swarm::new(kind, &values, 4);
            for _ in 0..30 {
                swarm.round();
            }
            for v in swarm.values() {
                assert_eq!(v, exact, "{kind} failed to spread");
            }
        }
    }

    #[test]
    fn extrema_spread_in_logarithmic_rounds() {
        // Epidemic doubling: the number of holders of the extremum at least
        // doubles in expectation each round, so 512 nodes need ~9–20 rounds.
        let values = ramp(512);
        let mut swarm = Swarm::new(AggregateKind::Max, &values, 5);
        let mut rounds = 0;
        while swarm.values().iter().any(|&v| v != 511.0) {
            swarm.round();
            rounds += 1;
            assert!(rounds < 40, "max took more than 40 rounds to spread");
        }
        assert!(rounds >= 5, "spread implausibly fast ({rounds} rounds)");
    }

    #[test]
    fn single_node_swarm_is_a_fixpoint() {
        let mut swarm = Swarm::new(AggregateKind::Average, &[42.0], 8);
        swarm.round();
        assert_eq!(swarm.values(), vec![42.0]);
        assert_eq!(swarm.rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_swarm_panics() {
        let _ = Swarm::new(AggregateKind::Average, &[], 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let values = ramp(100);
        let mut a = Swarm::new(AggregateKind::Average, &values, 10);
        let mut b = Swarm::new(AggregateKind::Average, &values, 10);
        for _ in 0..5 {
            a.round();
            b.round();
        }
        assert_eq!(a.values(), b.values());
    }
}
