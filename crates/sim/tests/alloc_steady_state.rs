//! The cycle hot path must not allocate per node.
//!
//! The engine's phase buffers promise that "the cycle hot path performs no
//! allocation that scales with `n`" once the first cycles have warmed them
//! up. This test holds it to that: a counting global allocator
//! watches `Engine::step()` on a static population, and every cycle must
//! stay under one constant ceiling at two populations four times apart. What
//! remains is a handful of per-cycle vectors whose *number* does not depend
//! on `n` (the metrics snapshot and the slice tracker's bookkeeping) and,
//! for mod-JK, the occasional replay queue growing.
//!
//! Construction is held to a per-node count as well: `Engine::new` stores
//! each node's protocol and sampler inline in its slab cell, so a node
//! costs the allocations of its own buffers and nothing for the node
//! itself.

use dslice_core::Partition;
use dslice_sim::{
    AttributeDistribution, ChurnSchedule, Engine, ProtocolKind, SimConfig, UncorrelatedChurn,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (`alloc` and `realloc` calls).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread so that the test
/// harness's other threads cannot disturb the measurement.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down, when the counter is already gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<u64>` with a const initializer and no destructor, so touching it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations one steady-state cycle may make, at any population.
const CEILING: u64 = 32;

#[test]
fn steady_state_cycles_do_not_allocate_per_node() {
    const WARM_UP: usize = 3;
    const MEASURED: usize = 5;
    for (n, kind) in [2_000, 8_000]
        .into_iter()
        .flat_map(|n| [(n, ProtocolKind::Ranking), (n, ProtocolKind::ModJk)])
    {
        let cfg = SimConfig {
            n,
            view_size: 10,
            partition: Partition::equal(20).unwrap(),
            seed: 11,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, kind).unwrap();
        for _ in 0..WARM_UP {
            engine.step();
        }
        for cycle in 0..MEASURED {
            let before = allocations();
            let stats = engine.step();
            let spent = allocations() - before;
            assert_eq!(stats.n, n, "the population is static");
            assert!(
                spent <= CEILING,
                "{}: cycle {} made {spent} allocations for {n} nodes (ceiling {CEILING})",
                kind.label(),
                WARM_UP + cycle + 1,
            );
        }
    }
}

/// Allocations `Engine::new` may make per node (measured: 9.0): the view's entry buffer and
/// the bootstrap sampling's scratch. With the protocol and the sampler
/// each in its own box the count was 11.0.
const CONSTRUCTION_PER_NODE: f64 = 9.0;

#[test]
fn construction_allocates_a_fixed_number_of_times_per_node() {
    for kind in [ProtocolKind::Ranking, ProtocolKind::ModJk] {
        let spent = |n: usize| {
            let cfg = SimConfig {
                n,
                view_size: 10,
                partition: Partition::equal(20).unwrap(),
                seed: 11,
                ..SimConfig::default()
            };
            let before = allocations();
            let engine = Engine::new(cfg, kind).unwrap();
            let spent = allocations() - before;
            drop(engine);
            spent
        };
        // The difference between two populations is what each further
        // node costs; the fixed buffers and their doublings cancel out to
        // well under one allocation per node.
        let (small, large) = (spent(2_000), spent(8_000));
        let per_node = (large - small) as f64 / 6_000.0;
        assert!(
            per_node < CONSTRUCTION_PER_NODE + 0.05,
            "{}: construction made {per_node:.3} allocations per node \
             (ceiling {CONSTRUCTION_PER_NODE})",
            kind.label(),
        );
    }
}

/// Allocations each joiner may add to a churned cycle on top of
/// [`CEILING`]: its view's entry buffer, the bootstrap sampling's scratch,
/// and its share of the id-indexed columns' amortised growth. Measured
/// before the refresh snapshot became an id-indexed column: at most 9.45
/// over 80 cycles (2 000 and 8 000 nodes, ranking and mod-JK, 1 % churn).
const PER_JOINER: f64 = 9.5;

/// Under churn the id-indexed columns grow with every identity issued, so
/// a cycle may allocate for its joiners, and for them alone: the bound is
/// the static ceiling plus a fixed amount per joiner, at two populations
/// four times apart. An allocation per live node — in the churn phase's
/// view pruning, the columns' growth or the refresh snapshot — breaks it.
#[test]
fn churned_cycles_allocate_per_joiner_not_per_node() {
    const WARM_UP: usize = 3;
    const MEASURED: usize = 20;
    for (n, kind) in [2_000, 8_000]
        .into_iter()
        .flat_map(|n| [(n, ProtocolKind::Ranking), (n, ProtocolKind::ModJk)])
    {
        let cfg = SimConfig {
            n,
            view_size: 10,
            partition: Partition::equal(20).unwrap(),
            seed: 11,
            ..SimConfig::default()
        };
        let churn = UncorrelatedChurn::new(
            ChurnSchedule {
                rate: 0.01,
                period: 1,
                stop_after: None,
            },
            AttributeDistribution::default(),
        );
        let mut engine = Engine::new(cfg, kind).unwrap().with_churn(Box::new(churn));
        for _ in 0..WARM_UP {
            engine.step();
        }
        for cycle in 0..MEASURED {
            let before = allocations();
            let stats = engine.step();
            let spent = allocations() - before;
            let allowance = CEILING as f64 + PER_JOINER * stats.joined as f64;
            assert!(
                spent as f64 <= allowance,
                "{}: cycle {} made {spent} allocations for {n} nodes and {} joiners \
                 (allowance {allowance})",
                kind.label(),
                WARM_UP + cycle + 1,
                stats.joined,
            );
        }
    }
}
