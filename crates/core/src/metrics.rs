//! The three disorder measures of the paper.
//!
//! * **Global disorder measure** (GDM, §4.2): `GDM(t) = (1/n) Σ_i (α_i − ρ_i(t))²`
//!   — how far the random-value order is from the attribute order, globally.
//! * **Local disorder measure** (LDM, §4.3) and the swap **gain** `G_{i,j}`
//!   (Eq. 1) — the node-local heuristic that mod-JK maximizes when choosing
//!   a swap partner.
//! * **Slice disorder measure** (SDM, §4.4):
//!   `SDM(t) = Σ_i 1/(u_i−l_i) · |(u_i+l_i)/2 − (û_i+l̂_i)/2|`
//!   — the application-level error: how many slice-widths separate each
//!   node's believed slice from its true slice.
//!
//! GDM and SDM are *evaluation oracles*: they use global knowledge and are
//! computed by the simulator, never by protocol code. The LDM/gain functions
//! are genuinely local and are used inside mod-JK.

use crate::attribute::AttributeKey;
use crate::{rank, Attribute, NodeId, Partition, SliceIndex};
use std::collections::HashMap;
use std::mem::size_of;

/// Global disorder measure from explicit rank pairs `(α_i, ρ_i)`.
///
/// Returns 0 for an empty population.
pub fn gdm_from_ranks<I>(ranks: I) -> f64
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut sum = 0.0;
    let mut n = 0usize;
    for (alpha, rho) in ranks {
        let d = alpha as f64 - rho as f64;
        sum += d * d;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Global disorder measure of a population given each node's attribute and
/// current random value: computes `A.sequence` and `R.sequence` ranks and
/// applies the GDM formula.
///
/// This is the self-contained form, for a population nobody keeps a
/// [`RankCache`] of, and the reference [`RankCache::gdm`] is tested
/// against bit for bit. Runtimes that maintain a cache use the method: it
/// takes `α` from the cache instead of sorting attributes again and builds
/// no hash maps.
pub fn gdm<'a, I>(nodes: I) -> f64
where
    I: IntoIterator<Item = &'a (NodeId, Attribute, f64)>,
{
    let nodes: Vec<_> = nodes.into_iter().copied().collect();
    let alpha = rank::attribute_ranks(nodes.iter().map(|&(id, a, _)| (id, a)));
    let rho = rank::value_ranks(nodes.iter().map(|&(id, _, r)| (id, r)));
    gdm_from_ranks(nodes.iter().map(|(id, _, _)| (alpha[id], rho[id])))
}

/// Computes the *local* sequences `LA.sequence_i` / `LR.sequence_i` over a
/// node's view plus itself, returning for each member its pair of 1-based
/// local indices `(ℓα, ℓρ)`.
///
/// Ties are broken by node id, mirroring the global sequences.
pub fn local_ranks(members: &[(NodeId, Attribute, f64)]) -> HashMap<NodeId, (usize, usize)> {
    let la = rank::attribute_ranks(members.iter().map(|&(id, a, _)| (id, a)));
    let lr = rank::value_ranks(members.iter().map(|&(id, _, r)| (id, r)));
    members
        .iter()
        .map(|(id, _, _)| (*id, (la[id], lr[id])))
        .collect()
}

/// Local disorder measure of node `i` (§4.3):
/// `LDM_i = 1/(c+1) Σ_{j ∈ N_i ∪ {i}} (ℓα_j − ℓρ_j)²`,
/// where `members` is `N_i ∪ {i}` and `c = |N_i|`.
pub fn ldm(members: &[(NodeId, Attribute, f64)]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    let ranks = local_ranks(members);
    let sum: f64 = ranks
        .values()
        .map(|&(la, lr)| {
            let d = la as f64 - lr as f64;
            d * d
        })
        .sum();
    sum / members.len() as f64
}

/// The closed-form swap gain `G_{i,j}` of Eq. (1):
///
/// `G_{i,j}·(c+1) = (ℓα_i−ℓρ_i)² + (ℓα_j−ℓρ_j)² − (ℓα_i−ℓρ_j)² − (ℓα_j−ℓρ_i)²`
///
/// i.e. the decrease of `LDM_i` obtained by swapping the local random-value
/// positions of `i` and `j`. `c_plus_1` is `|N_i ∪ {i}|`.
pub fn swap_gain(
    (la_i, lr_i): (usize, usize),
    (la_j, lr_j): (usize, usize),
    c_plus_1: usize,
) -> f64 {
    let (la_i, lr_i, la_j, lr_j) = (la_i as f64, lr_i as f64, la_j as f64, lr_j as f64);
    let before = (la_i - lr_i).powi(2) + (la_j - lr_j).powi(2);
    let after = (la_i - lr_j).powi(2) + (la_j - lr_i).powi(2);
    (before - after) / c_plus_1 as f64
}

/// The paper's simplified comparison score (derivation below Eq. 2):
/// maximizing `G_{i,j}` over `j` is equivalent to maximizing
/// `gain_j = ℓα_i·ℓρ_j + ℓα_j·ℓρ_i − ℓα_j·ℓρ_j`.
///
/// (Expanding Eq. 1, `G_{i,j}·(c+1)/2 = gain_j − ℓα_i·ℓρ_i`, and the dropped
/// term does not depend on `j`.)
pub fn gain_score((la_i, lr_i): (usize, usize), (la_j, lr_j): (usize, usize)) -> f64 {
    (la_i * lr_j + la_j * lr_i) as f64 - (la_j * lr_j) as f64
}

/// Slice disorder measure from `(true slice, estimated slice)` pairs.
pub fn sdm_from_slices<I>(partition: &Partition, pairs: I) -> f64
where
    I: IntoIterator<Item = (crate::SliceIndex, crate::SliceIndex)>,
{
    pairs
        .into_iter()
        .map(|(actual, estimated)| partition.sdm_term(actual, estimated))
        .sum()
}

/// Slice disorder measure of a population, given each node's attribute and
/// its current *estimate* (random value for the ordering algorithms, rank
/// estimate for the ranking algorithm).
///
/// True slices come from the attribute ranks; estimated slices from looking
/// the estimate up in the partition.
pub fn sdm<'a, I>(partition: &Partition, nodes: I) -> f64
where
    I: IntoIterator<Item = &'a (NodeId, Attribute, f64)>,
{
    let nodes: Vec<_> = nodes.into_iter().copied().collect();
    let truth = rank::true_slices(nodes.iter().map(|&(id, a, _)| (id, a)), partition);
    sdm_from_slices(
        partition,
        nodes
            .iter()
            .map(|(id, _, est)| (truth[id], partition.slice_of(*est))),
    )
}

/// One step of a churn batch over the old sorted order (see
/// [`RankCache::apply_churn`]): a run of kept keys, all moving by one shift,
/// or a joiner and the position it lands at.
#[derive(Clone, Copy)]
enum ChurnStep {
    /// The keys at old positions `from..to` move by `shift`.
    Keys {
        from: usize,
        to: usize,
        shift: isize,
    },
    /// `incoming[joiner]` lands at `target`.
    Joiner { joiner: usize, target: usize },
}

/// `pos` moved by `shift`.
fn shifted(pos: usize, shift: isize) -> usize {
    pos.checked_add_signed(shift)
        .expect("a kept key lands inside the order")
}

/// An incrementally maintained `A.sequence`: the attribute ranks (and hence
/// the *true* slices) of a live population, updated on churn instead of
/// re-sorted from scratch on every evaluation.
///
/// Attributes are immutable (§3.1), so the attribute order of a population
/// only changes when nodes join or leave. Large-scale runtimes exploit that:
/// they [`rebuild`](RankCache::rebuild) once at start-up, fold each cycle's
/// churn plan in via [`apply_churn`](RankCache::apply_churn) (a linear merge
/// in place, no global re-sort), and then evaluate the SDM with
/// [`sdm`](RankCache::sdm) in O(n) — where the uncached [`sdm`] function
/// pays an O(n log n) sort per call — and the GDM with
/// [`gdm_of`](RankCache::gdm_of), which orders only the random values. On
/// churn-free cycles the maintenance cost is zero.
///
/// The ranks are a column indexed by the raw node id, so every rank lookup
/// is an array index: 4 bytes per identity ever tracked (the simulator
/// issues ids sequentially from 0).
#[derive(Clone, Debug, Default)]
pub struct RankCache {
    /// Live nodes in `A.sequence` order (sorted by `(attribute, id)`).
    sorted: Vec<AttributeKey>,
    /// 1-based attribute rank per raw id, renumbered after each churn;
    /// 0 for an id that is not tracked.
    ranks: Vec<u32>,
}

impl RankCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held: the sorted keys' and the rank column's capacities.
    pub fn heap_bytes(&self) -> usize {
        self.sorted.capacity() * size_of::<AttributeKey>()
            + self.ranks.capacity() * size_of::<u32>()
    }

    /// Number of live nodes tracked.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the cache tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Rebuilds the cache from scratch: one O(n log n) sort.
    pub fn rebuild<I>(&mut self, nodes: I)
    where
        I: IntoIterator<Item = (NodeId, Attribute)>,
    {
        self.sorted = nodes
            .into_iter()
            .map(|(id, a)| AttributeKey::new(id, a))
            .collect();
        self.sorted.sort_unstable();
        self.ranks.clear();
        self.renumber(0..self.sorted.len());
    }

    /// Folds one churn batch in: drops `leavers`, merges `joiners` into the
    /// sorted order, in place, writing each key that moves once and
    /// renumbering only the keys whose position changes.
    ///
    /// The batch's events — a leaver's position, a joiner's insertion
    /// point — cut the old order into runs of kept keys, each of which
    /// moves by one shift: the joiners before it less the leavers before
    /// it. A run that does not move is not touched, so a batch that
    /// replaces each leaver by a joiner of a nearby attribute costs
    /// O(e log n) for its e events, not a pass over the keys between them.
    /// Runs moving down are moved in order, runs moving up in reverse
    /// order once the run after them has left room, then the joiners are
    /// written into the places left between the runs. Allocates the
    /// batch's own small buffers only.
    pub fn apply_churn(&mut self, leavers: &[NodeId], joiners: &[(NodeId, Attribute)]) {
        // Leavers are untracked first; a tracked leaver's rank is one past
        // its sorted position.
        let mut gone = Vec::with_capacity(leavers.len());
        for &id in leavers {
            if let Some(rank) = self.ranks.get_mut(id.row()).filter(|r| **r != 0) {
                gone.push(*rank as usize - 1);
                *rank = 0;
            }
        }
        gone.sort_unstable();
        let mut incoming: Vec<AttributeKey> = joiners
            .iter()
            .map(|&(id, a)| AttributeKey::new(id, a))
            .collect();
        incoming.sort_unstable();
        if gone.is_empty() && incoming.is_empty() {
            return;
        }
        let (len, sorted) = (self.sorted.len(), &mut self.sorted);
        let mut steps = Vec::with_capacity(gone.len() + 2 * incoming.len() + 1);
        let (mut from, mut shift) = (0, 0isize);
        let keys = |from: usize, to: usize, shift: isize, steps: &mut Vec<ChurnStep>| {
            if to > from {
                steps.push(ChurnStep::Keys { from, to, shift });
            }
        };
        let mut leaving = gone.iter().copied().peekable();
        for (joiner, key) in incoming.iter().enumerate() {
            // A joiner lands before the first old key above it; a leaver
            // at that position sits after it.
            let at = sorted.partition_point(|old| old < key);
            while let Some(position) = leaving.next_if(|&position| position < at) {
                keys(from, position, shift, &mut steps);
                (from, shift) = (position + 1, shift - 1);
            }
            keys(from, at, shift, &mut steps);
            from = at;
            steps.push(ChurnStep::Joiner {
                joiner,
                target: shifted(at, shift),
            });
            shift += 1;
        }
        for position in leaving {
            keys(from, position, shift, &mut steps);
            (from, shift) = (position + 1, shift - 1);
        }
        keys(from, len, shift, &mut steps);

        let new_len = len - gone.len() + incoming.len();
        if let Some(&placeholder) = incoming.first().filter(|_| new_len > len) {
            sorted.resize(new_len, placeholder);
        }
        let move_up = |sorted: &mut Vec<AttributeKey>, steps: &[ChurnStep]| {
            for step in steps.iter().rev() {
                if let ChurnStep::Keys { from, to, shift } = *step {
                    sorted.copy_within(from..to, shifted(from, shift));
                }
            }
        };
        let mut rising = None;
        for (idx, step) in steps.iter().enumerate() {
            let ChurnStep::Keys { from, to, shift } = *step else {
                continue;
            };
            if shift > 0 {
                rising.get_or_insert(idx);
                continue;
            }
            // Every rising run lands below this run's new place.
            if let Some(start) = rising.take() {
                move_up(sorted, &steps[start..idx]);
            }
            if shift < 0 {
                sorted.copy_within(from..to, shifted(from, shift));
            }
        }
        if let Some(start) = rising {
            move_up(sorted, &steps[start..]);
        }
        sorted.truncate(new_len);
        for step in steps {
            match step {
                ChurnStep::Keys { from, to, shift } if shift != 0 => {
                    self.renumber(shifted(from, shift)..shifted(to, shift));
                }
                ChurnStep::Joiner { joiner, target } => {
                    self.sorted[target] = incoming[joiner];
                    self.renumber(target..target + 1);
                }
                ChurnStep::Keys { .. } => {}
            }
        }
    }

    /// Rewrites the rows of the keys at the given sorted positions; rows of
    /// ids that left are already 0.
    fn renumber(&mut self, positions: std::ops::Range<usize>) {
        for (idx, key) in (positions.start..).zip(&self.sorted[positions]) {
            let row = key.id.row();
            if row >= self.ranks.len() {
                self.ranks.resize(row + 1, 0);
            }
            // Fits: the tracked ids are distinct and below `u32::MAX`.
            self.ranks[row] = (idx + 1) as u32;
        }
    }

    /// The 1-based attribute rank `α_i` of a live node.
    pub fn rank(&self, id: NodeId) -> Option<usize> {
        let rank = *self.ranks.get(id.row())?;
        (rank != 0).then_some(rank as usize)
    }

    /// [`rank`](RankCache::rank) for an id the caller guarantees is tracked.
    fn tracked_rank(&self, id: NodeId) -> usize {
        self.rank(id)
            .unwrap_or_else(|| panic!("node {id} is not tracked by the rank cache"))
    }

    /// [`true_slice`](RankCache::true_slice) for an id the caller
    /// guarantees is tracked (panics otherwise).
    pub fn tracked_slice(&self, partition: &Partition, id: NodeId) -> SliceIndex {
        self.true_slice(partition, id)
            .unwrap_or_else(|| panic!("node {id} is not tracked by the rank cache"))
    }

    /// The *true* slice of a live node under `partition`: its normalized
    /// attribute rank looked up in the partition.
    pub fn true_slice(&self, partition: &Partition, id: NodeId) -> Option<SliceIndex> {
        let alpha = self.rank(id)?;
        Some(partition.slice_of(rank::normalized(alpha, self.len())))
    }

    /// Slice disorder measure over `(id, estimate)` pairs, using the cached
    /// attribute ranks: O(n), no sorting.
    ///
    /// Every `id` must be tracked by the cache (panics otherwise — runtimes
    /// keep the cache in lock-step with the live population).
    pub fn sdm<I>(&self, partition: &Partition, estimates: I) -> f64
    where
        I: IntoIterator<Item = (NodeId, f64)>,
    {
        let terms = SdmTerms::new(partition);
        estimates
            .into_iter()
            .map(|(id, est)| {
                let actual = self.tracked_slice(partition, id);
                terms.term(actual, partition.slice_of(est))
            })
            .sum()
    }

    /// Fraction of `(id, estimate)` pairs whose believed slice equals their
    /// true slice: O(n) via the cached ranks. Returns 1.0 for an empty input.
    pub fn accuracy<I>(&self, partition: &Partition, estimates: I) -> f64
    where
        I: IntoIterator<Item = (NodeId, f64)>,
    {
        let (mut total, mut correct) = (0usize, 0usize);
        for (id, est) in estimates {
            if partition.slice_of(est) == self.tracked_slice(partition, id) {
                correct += 1;
            }
            total += 1;
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Global disorder measure of `snapshot` — `(id, attribute, value)` for
    /// exactly the population the cache tracks — bit-identical to the free
    /// [`gdm`] over the same slice: [`gdm_of`](RankCache::gdm_of) over a
    /// fresh [`ValueOrder`] of the snapshot's values.
    pub fn gdm(&self, snapshot: &[(NodeId, Attribute, f64)]) -> f64 {
        let mut order = ValueOrder::default();
        order.count(snapshot.len(), snapshot.iter().map(|&(_, _, value)| value));
        for &(id, _, value) in snapshot {
            order.place(id, value);
        }
        self.gdm_of(&mut order)
    }

    /// Global disorder measure of the population placed in `order` —
    /// exactly the population the cache tracks — bit-identical to the free
    /// [`gdm`] over the same `(id, value)` sequence.
    ///
    /// `α_i` is the cached `A.sequence` rank (no attribute sort, no map);
    /// `ρ_i` comes from ordering the values as [`rank::value_ranks`] does
    /// (`partial_cmp`, ties by id), so it is the same bijection. The squared
    /// differences are summed in place order, as [`gdm`] sums them in
    /// snapshot order: float addition order decides the last bit.
    ///
    /// Once ordered, each key's upper half is free: the pass over the
    /// `R.sequence` writes the id and `ρ` of the node placed `p`-th into
    /// the upper half of key `p`, whose lower half it has read or has yet
    /// to read, so the sum walks the keys in place order with no second
    /// buffer.
    ///
    /// Panics if an id is not tracked (runtimes keep the cache in lock-step
    /// with the live population, which debug builds check).
    pub fn gdm_of(&self, order: &mut ValueOrder) -> f64 {
        let keys = order.sorted();
        debug_assert_eq!(
            keys.len(),
            self.len(),
            "the rank cache must track exactly the measured population"
        );
        for rho in 1..=keys.len() {
            let low = keys[rho - 1] as u64;
            let place = low as u32 as usize;
            let row = low >> 32;
            keys[place] =
                u128::from(keys[place] as u64) | u128::from(row) << 96 | (rho as u128) << 64;
        }
        gdm_from_ranks(keys.iter().map(|&key| {
            let alpha = self.tracked_rank(NodeId::new((key >> 96) as u64));
            (alpha, (key >> 64) as u32 as usize)
        }))
    }
}

/// The SDM's per-slice constants — each slice's midpoint and length —
/// computed once per evaluation rather than twice per node. A
/// [`term`](SdmTerms::term) is [`Partition::sdm_term`]'s arithmetic on the
/// same values, so it is the same bits.
#[derive(Clone, Debug, Default)]
pub struct SdmTerms {
    /// `(midpoint, length)` per slice index.
    slices: Vec<(f64, f64)>,
}

impl SdmTerms {
    /// The constants of `partition`.
    pub fn new(partition: &Partition) -> Self {
        let mut terms = SdmTerms::default();
        terms.reset(partition);
        terms
    }

    /// Heap bytes held: the constants' capacity.
    pub fn heap_bytes(&self) -> usize {
        self.slices.capacity() * size_of::<(f64, f64)>()
    }

    /// Recomputes the constants for `partition`, reusing the buffer.
    pub fn reset(&mut self, partition: &Partition) {
        self.slices.clear();
        let slices = partition.slices();
        self.slices
            .extend(slices.map(|slice| (slice.midpoint(), slice.length())));
    }

    /// A node's SDM term: the distance between the midpoints of its true
    /// (`actual`) and believed (`estimated`) slices, in units of the true
    /// slice's length.
    pub fn term(&self, actual: SliceIndex, estimated: SliceIndex) -> f64 {
        let (midpoint, length) = self.slices[actual.as_usize()];
        (midpoint - self.slices[estimated.as_usize()].0).abs() / length
    }
}

/// The GDM's `R.sequence` of one evaluation, in buffers kept across
/// evaluations: a [`count`](ValueOrder::count)ing pass over the
/// population's values, then a [`place`](ValueOrder::place) per node in the
/// order the sum should run, then [`RankCache::gdm_of`].
///
/// Each node is one `u128` key: the value as a `u64` that orders as
/// `partial_cmp` does (`−0.0` folded into `+0.0`, then the sign-magnitude
/// bits mapped to an unsigned order), the id and the place — 64, 32 and 32
/// bits — so ties fall to the id and the place rides along. The counting
/// pass sizes one region per bucket ⌊clamp(v, 0, 1)·B⌋ (monotone in the
/// key order); each key is built straight into its bucket's region; then
/// each region is sorted by the full key. Keys are distinct, so that is
/// exactly the order one `sort_unstable` of all keys gives, in linear time
/// for values spread over `[0, 1]` (values outside share the end buckets).
#[derive(Clone, Debug, Default)]
pub struct ValueOrder {
    /// One key per counted node, grouped by bucket once placed.
    keys: Vec<u128>,
    /// Per bucket: the next free place of its region while keys are
    /// placed, which leaves it at the region's end.
    buckets: Vec<u32>,
    /// Keys placed so far.
    placed: usize,
}

impl ValueOrder {
    /// Heap bytes held: the keys' and the buckets' capacities.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<u128>() + self.buckets.capacity() * size_of::<u32>()
    }

    /// The counting pass: opens an evaluation of the `n` nodes holding
    /// `values` (in any order), keeping the buffers. Panics unless there
    /// are exactly `n` values.
    pub fn count(&mut self, n: usize, values: impl IntoIterator<Item = f64>) {
        // One or two keys per bucket, and a power of two, so that v·B is
        // exact.
        let count = (n / 2).max(1).next_power_of_two();
        self.buckets.clear();
        self.buckets.resize(count, 0);
        let mut counted = 0;
        for value in values {
            self.buckets[bucket_of(value, count)] += 1;
            counted += 1;
        }
        assert_eq!(counted, n, "the counting pass saw every node once");
        let mut start = 0;
        for bucket in &mut self.buckets {
            let size = *bucket;
            *bucket = start;
            start += size;
        }
        self.keys.resize(n, 0);
        self.placed = 0;
    }

    /// The scatter: places node `id`, holding `value`, next in the sum
    /// order — each counted value once. Panics on NaN, which `partial_cmp`
    /// cannot order.
    pub fn place(&mut self, id: NodeId, value: f64) {
        let key = u128::from(value_key(value)) << 64 | (id.row() as u128) << 32;
        let bucket = bucket_of(value, self.buckets.len());
        let next = &mut self.buckets[bucket];
        self.keys[*next as usize] = key | self.placed as u128;
        *next += 1;
        self.placed += 1;
    }

    /// The placed keys, ascending: each bucket's region sorted by the full
    /// key.
    fn sorted(&mut self) -> &mut [u128] {
        assert_eq!(self.placed, self.keys.len(), "every counted node is placed");
        let mut start = 0;
        for &end in &self.buckets {
            self.keys[start..end as usize].sort_unstable();
            start = end as usize;
        }
        debug_assert!(self.keys.is_sorted(), "a key left its bucket");
        &mut self.keys
    }
}

/// The bucket of `value` among `count` (a power of two): ⌊v·count⌋ for `v`
/// clamped to `[0, 1]`, the top bucket also holding 1. Monotone in `v`;
/// both zeros land in bucket 0.
fn bucket_of(value: f64, count: usize) -> usize {
    ((value.clamp(0.0, 1.0) * count as f64) as usize).min(count - 1)
}

/// A `u64` whose unsigned order is `partial_cmp`'s order on non-NaN `f64`:
/// `−0.0` is folded into `+0.0` (they compare equal), then the sign bit is
/// flipped for positives and every bit for negatives. Panics on NaN, which
/// `partial_cmp` cannot order.
fn value_key(value: f64) -> u64 {
    assert!(!value.is_nan(), "random values are finite");
    let bits = (value + 0.0).to_bits();
    let negative = ((bits as i64) >> 63) as u64;
    bits ^ (negative | 1 << 63)
}

/// Tracks per-node *believed* slices across observations and counts
/// changes — the stability requirement §3.2 attaches to slicing ("the
/// reference to slices introduces special requirements related to
/// stability"): an application holding a slice allocation cares as much
/// about nodes *flapping* between slices as about raw assignment accuracy.
///
/// Open each observation with [`next_observation`](SliceTracker::next_observation),
/// then [`observe`](SliceTracker::observe) every live node once, with the
/// slot it lives in; each call reports whether that node changed its
/// believed slice since the previous observation. Departed nodes are
/// forgotten; joiners count as changes only on their second appearance.
///
/// The beliefs are a column of stamps indexed by slot — 12 bytes per slot,
/// so bounded by the peak population however many identities churn issues
/// — overwritten in place: a node's change counts only when its slot's
/// stamp comes from the immediately preceding observation *and* names the
/// node as its owner, so nothing is rebuilt or cleared between cycles, and
/// a joiner that takes a departed node's slot never inherits its stamp.
#[derive(Clone, Debug, Default)]
pub struct SliceTracker {
    /// Per slot: what the last observation of the slot saw.
    stamps: Vec<Stamp>,
    /// Observations opened so far.
    epoch: u32,
    /// Nodes in the latest observation.
    len: usize,
}

/// One slot's belief record.
#[derive(Clone, Copy, Debug, Default)]
struct Stamp {
    /// The observation that saw it (0 = never).
    epoch: u32,
    /// The raw id of the node that lived in the slot then.
    owner: u32,
    /// The slice that node believed.
    slice: u32,
}

impl SliceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held: the per-slot stamps' capacity.
    pub fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * size_of::<Stamp>()
    }

    /// Number of nodes in the latest observation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the latest observation saw no node (or none was made).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Opens the next observation, of nodes living in slots `0..slots`.
    pub fn next_observation(&mut self, slots: usize) {
        if slots > self.stamps.len() {
            self.stamps.resize(slots, Stamp::default());
        }
        self.epoch += 1;
        self.len = 0;
    }

    /// Records that node `id`, living in `slot`, believes `slice` in the
    /// current observation (each slot at most once per observation);
    /// returns whether it believed another slice in the previous one.
    /// Panics if `slot` lies beyond the slots the observation was opened
    /// for.
    pub fn observe(&mut self, slot: usize, id: NodeId, slice: SliceIndex) -> bool {
        // Fits: ids lie below `u32::MAX`, and no partition has that many
        // slices.
        let (owner, slice) = (id.row() as u32, slice.as_usize() as u32);
        let stamp = &mut self.stamps[slot];
        let seen_last = self.epoch > 1 && stamp.epoch == self.epoch - 1 && stamp.owner == owner;
        let changed = seen_last && stamp.slice != slice;
        *stamp = Stamp {
            epoch: self.epoch,
            owner,
            slice,
        };
        self.len += 1;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceIndex;
    use proptest::prelude::*;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn node(id: u64, a: f64, r: f64) -> (NodeId, Attribute, f64) {
        (NodeId::new(id), attr(a), r)
    }

    #[test]
    fn gdm_zero_when_orders_match() {
        let nodes = vec![node(1, 10.0, 0.1), node(2, 20.0, 0.2), node(3, 30.0, 0.3)];
        assert_eq!(gdm(&nodes), 0.0);
    }

    #[test]
    fn gdm_of_paper_example() {
        // a = (50, 120, 25), r = (0.85, 0.1, 0.35):
        // alpha = (2, 3, 1), rho = (3, 1, 2) → ((2−3)² + (3−1)² + (1−2)²)/3 = 2.
        let nodes = vec![
            node(1, 50.0, 0.85),
            node(2, 120.0, 0.10),
            node(3, 25.0, 0.35),
        ];
        assert!((gdm(&nodes) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gdm_maximal_for_reversed_order() {
        // n nodes fully reversed: GDM = (1/n) Σ (2i−n−1)² maximal over permutations.
        let n = 5;
        let nodes: Vec<_> = (1..=n)
            .map(|i| node(i as u64, i as f64, 1.0 - i as f64 / 10.0))
            .collect();
        let reversed = gdm(&nodes);
        let expected: f64 = (1..=n)
            .map(|i| {
                let d = (i as f64) - (n - i + 1) as f64;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        assert!((reversed - expected).abs() < 1e-12);
    }

    #[test]
    fn gdm_empty_population() {
        assert_eq!(gdm_from_ranks(std::iter::empty()), 0.0);
    }

    #[test]
    fn ldm_zero_when_locally_ordered() {
        let members = vec![node(1, 1.0, 0.1), node(2, 2.0, 0.2), node(3, 3.0, 0.3)];
        assert_eq!(ldm(&members), 0.0);
    }

    #[test]
    fn ldm_counts_local_misorder() {
        // Two members swapped: each off by 1 → (1 + 1)/2 = 1.
        let members = vec![node(1, 1.0, 0.9), node(2, 2.0, 0.1)];
        assert!((ldm(&members) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ldm_empty() {
        assert_eq!(ldm(&[]), 0.0);
    }

    #[test]
    fn swap_gain_positive_for_misplaced_pair() {
        // i at local ranks (la=1, lr=2), j at (la=2, lr=1): swapping fixes both.
        let g = swap_gain((1, 2), (2, 1), 3);
        assert!(g > 0.0);
        // Perfect positions: no gain from swapping.
        let g0 = swap_gain((1, 1), (2, 2), 3);
        assert!(g0 <= 0.0);
    }

    #[test]
    fn gain_score_example_ordering() {
        // For fixed i, the j maximizing swap_gain must maximize gain_score.
        let i = (2, 5);
        let js = [(1, 1), (3, 2), (5, 3), (4, 6)];
        let by_gain = js
            .iter()
            .max_by(|a, b| {
                swap_gain(i, **a, 5)
                    .partial_cmp(&swap_gain(i, **b, 5))
                    .unwrap()
            })
            .unwrap();
        let by_score = js
            .iter()
            .max_by(|a, b| gain_score(i, **a).partial_cmp(&gain_score(i, **b)).unwrap())
            .unwrap();
        assert_eq!(by_gain, by_score);
    }

    #[test]
    fn sdm_zero_when_all_estimates_correct() {
        let part = Partition::equal(2).unwrap();
        // Ranks 1..4 of 4 → normalized 0.25, 0.5, 0.75, 1.0; estimates placed
        // in the matching slice.
        let nodes = vec![
            node(1, 1.0, 0.2),
            node(2, 2.0, 0.4),
            node(3, 3.0, 0.7),
            node(4, 4.0, 0.9),
        ];
        assert_eq!(sdm(&part, &nodes), 0.0);
    }

    #[test]
    fn sdm_counts_slice_distance() {
        let part = Partition::equal(4).unwrap();
        // Node 1 is rank 1/2 → normalized 0.5 → true slice index 1,
        // but estimate 0.9 → believed slice 3: distance 2.
        // Node 2 is rank 2/2 → slice 3, estimate 0.95 → slice 3: distance 0.
        let nodes = vec![node(1, 1.0, 0.9), node(2, 2.0, 0.95)];
        assert!((sdm(&part, &nodes) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sdm_from_slices_uses_partition_term() {
        let part = Partition::equal(10).unwrap();
        let pairs = vec![
            (SliceIndex::new(0), SliceIndex::new(2)),
            (SliceIndex::new(5), SliceIndex::new(5)),
        ];
        assert!((sdm_from_slices(&part, pairs) - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn gdm_is_zero_iff_sorted_consistently(
            values in proptest::collection::vec((0.0001f64..1.0, -1e3f64..1e3), 2..60),
        ) {
            let nodes: Vec<_> = values
                .iter()
                .enumerate()
                .map(|(i, &(r, a))| node(i as u64, a, r))
                .collect();
            let g = gdm(&nodes);
            prop_assert!(g >= 0.0);
            let alpha = rank::attribute_ranks(nodes.iter().map(|&(id, a, _)| (id, a)));
            let rho = rank::value_ranks(nodes.iter().map(|&(id, _, r)| (id, r)));
            let aligned = nodes.iter().all(|(id, _, _)| alpha[id] == rho[id]);
            prop_assert_eq!(g == 0.0, aligned);
        }

        #[test]
        fn gain_equals_ldm_difference(
            members in proptest::collection::vec((-1e3f64..1e3, 0.0001f64..1.0), 2..12),
        ) {
            // Build N_i ∪ {i}; pick i = first member, j = second.
            let nodes: Vec<_> = members
                .iter()
                .enumerate()
                .map(|(k, &(a, r))| node(k as u64, a, r))
                .collect();
            let before = ldm(&nodes);
            let ranks = local_ranks(&nodes);
            let i = nodes[0].0;
            let j = nodes[1].0;
            let g = swap_gain(ranks[&i], ranks[&j], nodes.len());

            // Swap the random values of i and j and recompute the LDM.
            let mut after_nodes = nodes.clone();
            let ri = after_nodes[0].2;
            after_nodes[0].2 = after_nodes[1].2;
            after_nodes[1].2 = ri;
            let after = ldm(&after_nodes);

            // Equality of Eq. 1 holds whenever the swap only exchanges the two
            // local rho positions (true when the two values are adjacent in
            // the local R-order or no third value lies between them). In
            // general the closed form assumes exactly that exchange, so we
            // verify against a direct rank exchange instead:
            let mut exchanged: Vec<(usize, usize)> = Vec::new();
            for (id, _, _) in &nodes {
                let (la, lr) = ranks[id];
                let lr2 = if *id == i {
                    ranks[&j].1
                } else if *id == j {
                    ranks[&i].1
                } else {
                    lr
                };
                exchanged.push((la, lr2));
            }
            let ldm_exchanged: f64 = exchanged
                .iter()
                .map(|&(la, lr)| ((la as f64) - (lr as f64)).powi(2))
                .sum::<f64>() / nodes.len() as f64;
            prop_assert!((before - ldm_exchanged - g).abs() < 1e-9,
                "gain {g} != ldm drop {}", before - ldm_exchanged);
            // And the rank-exchange LDM matches the value-swap LDM whenever
            // the two r-values are adjacent in local order.
            let (lr_i, lr_j) = (ranks[&i].1, ranks[&j].1);
            if lr_i.abs_diff(lr_j) == 1 {
                prop_assert!((after - ldm_exchanged).abs() < 1e-9);
            }
        }

        #[test]
        fn argmax_gain_matches_argmax_score(
            members in proptest::collection::vec((-1e3f64..1e3, 0.0001f64..1.0), 3..12),
        ) {
            let nodes: Vec<_> = members
                .iter()
                .enumerate()
                .map(|(k, &(a, r))| node(k as u64, a, r))
                .collect();
            let ranks = local_ranks(&nodes);
            let i = nodes[0].0;
            let candidates = &nodes[1..];
            let best_by_gain = candidates
                .iter()
                .map(|(id, _, _)| swap_gain(ranks[&i], ranks[id], nodes.len()))
                .fold(f64::NEG_INFINITY, f64::max);
            let best_by_score = candidates
                .iter()
                .map(|(id, _, _)| gain_score(ranks[&i], ranks[id]))
                .fold(f64::NEG_INFINITY, f64::max);
            // The two maxima are attained by the same candidates.
            for (id, _, _) in candidates {
                let g = swap_gain(ranks[&i], ranks[id], nodes.len());
                let s = gain_score(ranks[&i], ranks[id]);
                prop_assert_eq!(
                    (g - best_by_gain).abs() < 1e-9,
                    (s - best_by_score).abs() < 1e-9,
                    "gain argmax and score argmax disagree"
                );
            }
        }

        #[test]
        fn sdm_nonnegative_and_zero_iff_exact(
            values in proptest::collection::vec((-1e3f64..1e3, 0.0001f64..1.0), 1..50),
            k in 1usize..8,
        ) {
            let nodes: Vec<_> = values
                .iter()
                .enumerate()
                .map(|(i, &(a, r))| node(i as u64, a, r))
                .collect();
            let part = Partition::equal(k).unwrap();
            let s = sdm(&part, &nodes);
            prop_assert!(s >= 0.0);
            let truth = rank::true_slices(nodes.iter().map(|&(id, a, _)| (id, a)), &part);
            let exact = nodes
                .iter()
                .all(|(id, _, r)| part.slice_of(*r) == truth[id]);
            prop_assert_eq!(s == 0.0, exact);
        }
    }

    #[test]
    fn rank_cache_matches_fresh_computation() {
        let part = Partition::equal(4).unwrap();
        let nodes = vec![
            node(1, 50.0, 0.1),
            node(2, 120.0, 0.9),
            node(3, 25.0, 0.4),
            node(4, 80.0, 0.6),
        ];
        let mut cache = RankCache::new();
        cache.rebuild(nodes.iter().map(|&(id, a, _)| (id, a)));
        assert_eq!(cache.len(), 4);
        let alpha = rank::attribute_ranks(nodes.iter().map(|&(id, a, _)| (id, a)));
        for (id, _, _) in &nodes {
            assert_eq!(cache.rank(*id), Some(alpha[id]));
        }
        let cached = cache.sdm(&part, nodes.iter().map(|&(id, _, est)| (id, est)));
        let fresh = sdm(&part, &nodes);
        assert!((cached - fresh).abs() < 1e-12);
        let truth = rank::true_slices(nodes.iter().map(|&(id, a, _)| (id, a)), &part);
        for (id, _, _) in &nodes {
            assert_eq!(cache.true_slice(&part, *id), Some(truth[id]));
        }
    }

    #[test]
    fn rank_cache_churn_merge_tracks_rebuild() {
        let mut cache = RankCache::new();
        let initial: Vec<(NodeId, Attribute)> = (0..20)
            .map(|i| (NodeId::new(i), attr((i as f64 * 7.3) % 11.0)))
            .collect();
        cache.rebuild(initial.iter().copied());
        // Leave 5 nodes, join 4 (including attribute ties with survivors).
        let leavers: Vec<NodeId> = [2u64, 7, 11, 13, 19].map(NodeId::new).into();
        let joiners: Vec<(NodeId, Attribute)> = (100..104u64)
            .map(|i| (NodeId::new(i), attr((i % 5) as f64)))
            .collect();
        cache.apply_churn(&leavers, &joiners);

        let mut reference = RankCache::new();
        reference.rebuild(
            initial
                .iter()
                .copied()
                .filter(|(id, _)| !leavers.contains(id))
                .chain(joiners.iter().copied()),
        );
        assert_eq!(cache.len(), reference.len());
        for (id, _) in initial.iter().chain(joiners.iter()) {
            assert_eq!(cache.rank(*id), reference.rank(*id), "rank of {id}");
        }
        assert_eq!(cache.rank(NodeId::new(2)), None, "leaver forgotten");
    }

    #[test]
    fn rank_cache_accuracy_counts_correct_beliefs() {
        let part = Partition::equal(2).unwrap();
        // Ranks 1, 2 of 2 → normalized 0.5 and 1.0 → slices 0 and 1.
        let nodes = [node(1, 1.0, 0.3), node(2, 2.0, 0.4)];
        let mut cache = RankCache::new();
        cache.rebuild(nodes.iter().map(|&(id, a, _)| (id, a)));
        // Node 1 believes slice 0 (correct), node 2 believes slice 0 (wrong).
        let acc = cache.accuracy(&part, nodes.iter().map(|&(id, _, est)| (id, est)));
        assert!((acc - 0.5).abs() < 1e-12);
        assert_eq!(cache.accuracy(&part, std::iter::empty()), 1.0);
    }

    proptest! {
        #[test]
        fn rank_cache_sdm_equals_uncached_sdm_under_churn(
            values in proptest::collection::vec((-1e3f64..1e3, 0.0001f64..1.0), 4..40),
            k in 1usize..6,
            leave in proptest::collection::vec(0usize..40, 0..10),
        ) {
            let part = Partition::equal(k).unwrap();
            let nodes: Vec<_> = values
                .iter()
                .enumerate()
                .map(|(i, &(a, r))| node(i as u64, a, r))
                .collect();
            let mut cache = RankCache::new();
            cache.rebuild(nodes.iter().map(|&(id, a, _)| (id, a)));
            // Churn: remove the chosen indices, add replacements.
            let leavers: Vec<NodeId> = leave
                .iter()
                .filter(|&&i| i < nodes.len())
                .map(|&i| nodes[i].0)
                .collect::<std::collections::HashSet<_>>()
                .into_iter()
                .collect();
            let joiners: Vec<(NodeId, Attribute)> = leave
                .iter()
                .enumerate()
                .map(|(j, _)| (NodeId::new(1000 + j as u64), attr(j as f64 * 3.7 - 5.0)))
                .collect();
            cache.apply_churn(&leavers, &joiners);
            let survivors: Vec<_> = nodes
                .iter()
                .copied()
                .filter(|(id, _, _)| !leavers.contains(id))
                .chain(joiners.iter().map(|&(id, a)| (id, a, 0.5)))
                .collect();
            let cached = cache.sdm(&part, survivors.iter().map(|&(id, _, est)| (id, est)));
            let fresh = sdm(&part, &survivors);
            prop_assert!((cached - fresh).abs() < 1e-9, "cached {cached} vs fresh {fresh}");
        }
    }

    /// A population with repeated attributes and repeated values (both
    /// drawn from small grids), so the id tie-breaks of both sequences are
    /// exercised. Some values are `+0.0` and some `-0.0`: the two compare
    /// equal, so they tie too and fall back to the id order. Others lie
    /// outside `[0, 1]` — negative, exactly 1, above 1, infinite — as a
    /// liar's or a broken protocol's value may.
    fn tied_population(picks: &[(u8, u8)], first_id: u64) -> Vec<(NodeId, Attribute, f64)> {
        picks
            .iter()
            .enumerate()
            .map(|(i, &(a, r))| {
                let value = match r % 14 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => -f64::from(r % 3 + 1) / 4.0,
                    3 => 1.0 + f64::from(r % 3) / 2.0,
                    4 => f64::INFINITY,
                    5 => f64::NEG_INFINITY,
                    _ => f64::from(r % 7 + 1) / 8.0,
                };
                node(first_id + i as u64, f64::from(a % 5) * 10.0, value)
            })
            .collect()
    }

    proptest! {
        /// `RankCache::gdm` is the free `gdm` bit for bit — on the built
        /// population and after every one of several random churn batches,
        /// with the snapshot in an arbitrary (slot-like) order.
        #[test]
        fn rank_cache_gdm_is_bit_identical_to_gdm_under_churn(
            initial in proptest::collection::vec((0u8..255, 0u8..255), 1..60),
            batches in proptest::collection::vec(
                (proptest::collection::vec(0usize..64, 0..8), proptest::collection::vec((0u8..255, 0u8..255), 0..8)),
                0..6,
            ),
            rotate in 0usize..64,
        ) {
            let mut live = tied_population(&initial, 0);
            let mut next_id = 1000;
            let mut cache = RankCache::new();
            cache.rebuild(live.iter().map(|&(id, a, _)| (id, a)));
            let check = |cache: &RankCache, live: &Vec<(NodeId, Attribute, f64)>| {
                let mut snapshot = live.clone();
                let len = snapshot.len().max(1);
                snapshot.rotate_left(rotate % len);
                let cached = cache.gdm(&snapshot);
                let fresh = gdm(&snapshot);
                prop_assert_eq!(cached.to_bits(), fresh.to_bits(), "cached {} vs fresh {}", cached, fresh);
                Ok(())
            };
            check(&cache, &live)?;
            for (leave, join) in batches {
                let mut leavers: Vec<NodeId> = leave
                    .iter()
                    .filter(|_| live.len() > 1)
                    .map(|&k| live[k % live.len()].0)
                    .collect();
                leavers.sort_unstable();
                leavers.dedup();
                live.retain(|(id, _, _)| !leavers.contains(id));
                let joiners = tied_population(&join, next_id);
                next_id += joiners.len() as u64;
                cache.apply_churn(
                    &leavers,
                    &joiners.iter().map(|&(id, a, _)| (id, a)).collect::<Vec<_>>(),
                );
                live.extend(joiners);
                check(&cache, &live)?;
            }
        }
    }

    proptest! {
        /// `apply_churn` rewrites only the span of sorted positions a batch
        /// changes: after every random batch — leavers repeated, departed
        /// or never tracked included, the population growing, shrinking or
        /// keeping its size — its ranks are bit for bit those of a full
        /// renumber, and its order that of a rebuild.
        #[test]
        fn rank_cache_churn_matches_a_full_renumber(
            initial in proptest::collection::vec((0u8..255, 0u8..255), 0..60),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..80, 0..8),
                    proptest::collection::vec((0u8..255, 0u8..255), 0..8),
                    any::<bool>(),
                ),
                1..8,
            ),
        ) {
            let mut live = tied_population(&initial, 0);
            let mut next_id = 1000;
            let mut cache = RankCache::new();
            cache.rebuild(live.iter().map(|&(id, a, _)| (id, a)));
            for (leave, join, replace) in batches {
                // Indices past the population name ids never tracked.
                let leavers: Vec<NodeId> = leave
                    .iter()
                    .map(|&k| live.get(k).map_or(NodeId::new(5000 + k as u64), |n| n.0))
                    .collect();
                // A replacement batch: one joiner per leaver, each with its
                // leaver's attribute, so the size holds and spans are short.
                let replaced: Vec<Attribute> = live
                    .iter()
                    .filter(|(id, _, _)| replace && leavers.contains(id))
                    .map(|&(_, a, _)| a)
                    .collect();
                live.retain(|(id, _, _)| !leavers.contains(id));
                let mut joiners: Vec<_> = tied_population(&join, next_id)
                    .iter()
                    .map(|&(id, a, _)| (id, a))
                    .collect();
                if replace {
                    joiners = (next_id..).zip(replaced).map(|(id, a)| (NodeId::new(id), a)).collect();
                }
                next_id += joiners.len() as u64;
                cache.apply_churn(&leavers, &joiners);
                live.extend(joiners.iter().map(|&(id, a)| (id, a, 0.5)));

                let mut full = cache.clone();
                full.renumber(0..full.sorted.len());
                prop_assert_eq!(&cache.ranks, &full.ranks);
                let mut rebuilt = RankCache::new();
                rebuilt.rebuild(live.iter().map(|&(id, a, _)| (id, a)));
                prop_assert_eq!(&cache.sorted, &rebuilt.sorted);
                for &(id, _, _) in &live {
                    prop_assert_eq!(cache.rank(id), rebuilt.rank(id));
                }
            }
        }
    }

    /// Thousands of nodes, so most buckets hold several keys and the
    /// scatter carries keys across many buckets: a fifth of the values sit
    /// on 1.0 (a liar's capped claim), some lie below 0 or above 1, and the
    /// rest repeat on a fine grid.
    #[test]
    fn rank_cache_gdm_is_bit_identical_to_gdm_at_scale() {
        let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            rng_state >> 33
        };
        for n in [1usize, 2, 7, 8, 9, 1_000, 4_321] {
            let nodes: Vec<_> = (0..n as u64)
                .map(|id| {
                    let value = match next() % 10 {
                        0 | 1 => 1.0,
                        2 => -((next() % 5) as f64) / 4.0,
                        3 => 1.0 + (next() % 5) as f64 / 4.0,
                        _ => (next() % 2_000) as f64 / 2_000.0,
                    };
                    node(id * 3, (next() % 50) as f64, value)
                })
                .collect();
            let mut cache = RankCache::new();
            cache.rebuild(nodes.iter().map(|&(id, a, _)| (id, a)));
            let (cached, fresh) = (cache.gdm(&nodes), gdm(&nodes));
            assert_eq!(
                cached.to_bits(),
                fresh.to_bits(),
                "n = {n}: {cached} vs {fresh}"
            );
        }
    }

    #[test]
    fn sdm_terms_are_the_partition_terms_bit_for_bit() {
        let partitions = [
            Partition::equal(1).unwrap(),
            Partition::equal(7).unwrap(),
            Partition::equal(100).unwrap(),
            Partition::from_fractions(&[0.01, 0.01, 0.02, 0.06, 0.2, 0.3, 0.4]).unwrap(),
        ];
        for partition in &partitions {
            let terms = SdmTerms::new(partition);
            for a in 0..partition.len() {
                for e in 0..partition.len() {
                    let (a, e) = (SliceIndex::new(a), SliceIndex::new(e));
                    assert_eq!(
                        terms.term(a, e).to_bits(),
                        partition.sdm_term(a, e).to_bits(),
                        "{partition}: slices {a:?} and {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn value_keys_order_like_partial_cmp() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    value_key(a).cmp(&value_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "random values are finite")]
    fn a_nan_value_has_no_key() {
        value_key(f64::NAN);
    }

    /// The map-rebuilding tracker the stamp column replaced: the reference
    /// the property test below holds `SliceTracker` to.
    #[derive(Default)]
    struct MapTracker {
        believed: HashMap<NodeId, SliceIndex>,
    }

    impl MapTracker {
        fn observe(&mut self, partition: &Partition, nodes: &[(NodeId, f64)]) -> usize {
            let mut changes = 0;
            let mut fresh = HashMap::new();
            for &(id, est) in nodes {
                let slice = partition.slice_of(est);
                if self
                    .believed
                    .get(&id)
                    .is_some_and(|&previous| previous != slice)
                {
                    changes += 1;
                }
                fresh.insert(id, slice);
            }
            self.believed = fresh;
            changes
        }
    }

    /// Feeds `snapshot` (distinct ids) to `tracker` as the engine does:
    /// `slots` first loses the nodes that left and then gives the joiners
    /// slots, recycling the freed ones, and every node is observed in the
    /// slot it lives in. Returns the changes counted.
    fn observe_in_slots(
        tracker: &mut SliceTracker,
        slots: &mut crate::NodeSlab<()>,
        partition: &Partition,
        snapshot: &[(NodeId, f64)],
    ) -> usize {
        let gone: Vec<NodeId> = slots
            .ids()
            .filter(|id| snapshot.iter().all(|&(live, _)| live != *id))
            .collect();
        for id in gone {
            slots.remove(id);
        }
        for &(id, _) in snapshot {
            if !slots.contains(id) {
                slots.insert(id, ());
            }
        }
        tracker.next_observation(slots.slot_count());
        snapshot
            .iter()
            .filter(|&&(id, est)| {
                let slot = slots.slot_of(id).expect("inserted above");
                tracker.observe(slot, id, partition.slice_of(est))
            })
            .count()
    }

    proptest! {
        /// Over random snapshot sequences — nodes leaving, joining with
        /// fresh ids in recycled slots, coming back after an absence,
        /// moving between slices — the stamp column counts exactly the
        /// changes the map did.
        #[test]
        fn slice_tracker_matches_the_map_reference(
            k in 1usize..6,
            steps in proptest::collection::vec(
                proptest::collection::vec((0u64..48, 0.0f64..=1.0), 0..40),
                1..12,
            ),
            repartition_at in 0usize..16,
        ) {
            let mut part = Partition::equal(k).unwrap();
            let mut tracker = SliceTracker::new();
            let mut reference = MapTracker::default();
            let mut slots = crate::NodeSlab::new();
            for (step, picks) in steps.iter().enumerate() {
                if step == repartition_at {
                    // What `Engine::set_partition` does: a fresh tracker.
                    part = Partition::equal(k + 1).unwrap();
                    tracker = SliceTracker::new();
                    reference = MapTracker::default();
                }
                let mut seen = std::collections::BTreeSet::new();
                let snapshot: Vec<_> = picks
                    .iter()
                    .filter(|&&(id, _)| seen.insert(id))
                    .map(|&(id, est)| (NodeId::new(id), est))
                    .collect();
                prop_assert_eq!(
                    observe_in_slots(&mut tracker, &mut slots, &part, &snapshot),
                    reference.observe(&part, &snapshot),
                    "step {}", step
                );
                prop_assert_eq!(tracker.len(), reference.believed.len());
            }
        }
    }

    #[test]
    fn tracker_counts_changes_not_first_sightings() {
        let part = Partition::equal(2).unwrap();
        let mut t = SliceTracker::new();
        let mut slots = crate::NodeSlab::new();
        assert!(t.is_empty());
        // First sighting: no change counted.
        let snap1 = [(NodeId::new(1), 0.2), (NodeId::new(2), 0.9)];
        assert_eq!(observe_in_slots(&mut t, &mut slots, &part, &snap1), 0);
        assert_eq!(t.len(), 2);
        // Node 1 crosses the boundary; node 2 stays.
        let snap2 = [(NodeId::new(1), 0.7), (NodeId::new(2), 0.8)];
        assert_eq!(observe_in_slots(&mut t, &mut slots, &part, &snap2), 1);
        // Stable snapshot: zero changes.
        assert_eq!(observe_in_slots(&mut t, &mut slots, &part, &snap2), 0);
    }

    #[test]
    fn tracker_forgets_departed_and_rediscovers_joiners() {
        let part = Partition::equal(2).unwrap();
        let mut t = SliceTracker::new();
        let mut slots = crate::NodeSlab::new();
        observe_in_slots(&mut t, &mut slots, &part, &[(NodeId::new(1), 0.2)]);
        // Node 1 departs; node 2 joins into its slot, believing another
        // slice: a first sighting, not a change of node 1's.
        let joined = [(NodeId::new(2), 0.9)];
        assert_eq!(observe_in_slots(&mut t, &mut slots, &part, &joined), 0);
        assert_eq!(
            slots.slot_of(NodeId::new(2)),
            Some(0),
            "the slot is recycled"
        );
        assert_eq!(t.len(), 1);
        // Node 1 rejoins in the *other* slice: first sighting again, no change.
        let rejoined = [(NodeId::new(1), 0.9), (NodeId::new(2), 0.9)];
        assert_eq!(observe_in_slots(&mut t, &mut slots, &part, &rejoined), 0);
    }
}
