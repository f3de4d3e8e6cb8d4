//! The cycle hot path must not allocate per node.
//!
//! The engine's phase buffers promise that "the cycle hot path performs no
//! allocation that scales with `n`" once the first cycles have warmed them
//! up. These tests hold it to that: a counting global allocator watches
//! `Engine::step()`, counting both the calls and the bytes they ask for.
//! On a static population every cycle must stay under one constant ceiling
//! of calls at two populations four times apart; what remains is a handful
//! of small per-cycle vectors and, for mod-JK, the occasional replay queue
//! growing. Under churn, with the disorder metrics on every cycle, the
//! bytes a cycle asks for must not grow with the population either.
//!
//! Construction is held to a per-node count as well: `Engine::new` stores
//! each node's protocol and sampler inline in its slab cell, so a node
//! costs the allocations of its own buffers and nothing for the node
//! itself.

use dslice_core::Partition;
use dslice_sim::{
    AttributeDistribution, ChurnSchedule, Concurrency, Engine, ProtocolKind, SimConfig,
    UncorrelatedChurn,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (`alloc` and `realloc` calls).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for: the whole new block of each.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and bytes per thread so that the
/// test harness's other threads cannot disturb the measurement.
struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down, when the counters are already gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// `Cell<u64>`s with const initializers and no destructor, so touching them
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
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

/// Allocations `Engine::new` may make per node (measured: 3.0): the view's
/// entry buffer and the index sample the bootstrap draws. The picks land
/// in one reused buffer and are read from one population snapshot, so no
/// per-node vector is built; when each node collected its sampled ids and
/// then their entries into vectors of its own the count was 9.0, and with
/// the protocol and the sampler each in its own box it was 11.0.
const CONSTRUCTION_PER_NODE: f64 = 3.0;

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
/// [`CEILING`]: its view's entry buffer, the index sample its bootstrap
/// draws, and its share of the cycle's id pool, pick and entry buffers and
/// of the id-indexed columns' amortised growth. Measured: at most 3.25 over
/// 80 cycles (2 000 and 8 000 nodes, ranking and mod-JK, 1 % churn); 9.4
/// while each joiner built vectors of its own picks and their entries.
const PER_JOINER: f64 = 3.25;

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

/// Joiners (and leavers) per churned cycle in the byte test, at both
/// populations.
const JOINERS: usize = 20;

/// The median bytes a churned cycle may ask for at 8 000 nodes beyond what
/// it asks for at 2 000, with the same [`JOINERS`] per cycle: a cycle's
/// bytes go to its joiners (views, bootstrap samples, the rank cache's
/// incoming run) and to small per-cycle vectors, none of which grows with
/// `n`. One byte per live node per cycle — a population copy, a snapshot,
/// a rebuilt sorted run or a per-call sort buffer — would add 6 000.
const BYTES_SLACK: u64 = 2_048;

/// Churned mod-JK cycles with the disorder metrics on every cycle: the
/// median bytes per cycle must not grow from 2 000 to 8 000 nodes.
///
/// The id-indexed columns (the slab index, the refresh snapshot and the
/// rank cache's ranks) are excepted: they grow by doubling as ids are
/// issued, so a cycle that crosses a column's capacity reallocates it —
/// bytes in proportion to `n`, but once per ≈ `n / JOINERS` cycles, which
/// is O(1) per joiner amortized. The median excludes those cycles: the 25
/// measured cycles issue 500 ids, fewer than the `n` it takes a column to
/// double twice, so each of the three columns lands in at most one
/// measured cycle, and three outlying cycles cannot move the median of 25.
#[test]
fn churned_cycles_allocate_bytes_per_joiner_not_per_node() {
    const WARM_UP: usize = 5;
    const MEASURED: usize = 25;
    let median_bytes = |n: usize| {
        let cfg = SimConfig {
            n,
            view_size: 20,
            partition: Partition::equal(20).unwrap(),
            concurrency: Concurrency::Half,
            metrics_every: 1,
            seed: 11,
            ..SimConfig::default()
        };
        let churn = UncorrelatedChurn::new(
            ChurnSchedule {
                rate: JOINERS as f64 / n as f64,
                period: 1,
                stop_after: None,
            },
            AttributeDistribution::default(),
        );
        let mut engine = Engine::new(cfg, ProtocolKind::ModJk)
            .unwrap()
            .with_churn(Box::new(churn));
        for _ in 0..WARM_UP {
            engine.step();
        }
        let mut per_cycle: Vec<u64> = (0..MEASURED)
            .map(|_| {
                let before = bytes();
                let stats = engine.step();
                assert_eq!((stats.joined, stats.left), (JOINERS, JOINERS));
                bytes() - before
            })
            .collect();
        per_cycle.sort_unstable();
        per_cycle[MEASURED / 2]
    };
    let (small, large) = (median_bytes(2_000), median_bytes(8_000));
    assert!(
        large <= small + BYTES_SLACK,
        "a churned mod-JK cycle asks for {large} bytes at 8 000 nodes against {small} at \
         2 000 (median of {MEASURED} cycles, {JOINERS} joiners each; slack {BYTES_SLACK})",
    );
}
