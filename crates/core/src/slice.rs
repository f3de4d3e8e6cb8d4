//! Slices and partitions of the normalized rank space `(0, 1]`.
//!
//! The paper (§3.2) defines the slice `S_{l,u}` as the set of nodes whose
//! normalized rank `α_i / n` satisfies `l < α_i/n ≤ u`, with slices forming
//! adjacent intervals `(l_1, u_1], (l_2, u_2], …` partitioning `(0, 1]`. The
//! partitioning is global knowledge shared by all nodes.
//!
//! [`Partition`] owns the ordered interior boundaries and answers the two
//! queries every protocol needs:
//!
//! * [`Partition::slice_of`] — which slice does a normalized rank / random
//!   value fall into (lines 14, 19 of Fig. 2 and 16, 21 of Fig. 5)?
//! * [`Partition::boundary_distance`] — how far is an estimate from the
//!   closest slice boundary (`dist(·, b)` of Fig. 5, and the `d` of
//!   Theorem 5.1)?
//!
//! Both are answered in O(1) through a lookup grid (see [`Partition`]).

use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Tolerance used when validating that slice fractions sum to one.
const FRACTION_SUM_TOLERANCE: f64 = 1e-9;

/// Most cells a partition's lookup grid gets (256 KiB of counts). Finer
/// partitions share cells between boundaries and bisect inside them.
const MAX_GRID_CELLS: usize = 1 << 16;

/// Index of a slice within a [`Partition`] (0-based, ordered by rank).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SliceIndex(usize);

impl SliceIndex {
    /// Creates a slice index.
    pub const fn new(idx: usize) -> Self {
        SliceIndex(idx)
    }

    /// Returns the index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0
    }

    /// Absolute distance in slice units — the per-node term of the slice
    /// disorder measure for equal-size slices.
    pub fn distance(self, other: SliceIndex) -> usize {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for SliceIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A half-open rank interval `(lower, upper]`.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Slice {
    /// Lower boundary `l ∈ [0, 1)`, excluded.
    pub lower: f64,
    /// Upper boundary `u ∈ (0, 1]`, included.
    pub upper: f64,
}

impl Slice {
    /// Creates the slice `(lower, upper]`, validating `0 ≤ lower < upper ≤ 1`.
    pub fn new(lower: f64, upper: f64) -> Result<Self> {
        if !lower.is_finite() || !upper.is_finite() || !(0.0..1.0).contains(&lower) {
            return Err(Error::InvalidBoundaries(format!(
                "lower boundary {lower} must lie in [0, 1)"
            )));
        }
        if lower >= upper || upper > 1.0 {
            return Err(Error::InvalidBoundaries(format!(
                "upper boundary {upper} must lie in ({lower}, 1]"
            )));
        }
        Ok(Slice { lower, upper })
    }

    /// Tests membership: `lower < r ≤ upper`.
    pub fn contains(&self, r: f64) -> bool {
        self.lower < r && r <= self.upper
    }

    /// The length `u − l` of the interval — the fraction of the network the
    /// slice represents.
    pub fn length(&self) -> f64 {
        self.upper - self.lower
    }

    /// The midpoint `(l + u) / 2`, used by the slice disorder measure.
    pub fn midpoint(&self) -> f64 {
        (self.lower + self.upper) / 2.0
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.lower, self.upper)
    }
}

/// An ordered partitioning of `(0, 1]` into adjacent slices.
///
/// Internally stored as the strictly increasing *interior* boundaries
/// `b_1 < b_2 < … < b_{k−1}` in `(0, 1)`; slice `j` is
/// `(b_j, b_{j+1}]` with `b_0 = 0` and `b_k = 1`.
///
/// ```
/// use dslice_core::Partition;
///
/// // 100 equal slices, as in the paper's main experiments.
/// let part = Partition::equal(100).unwrap();
/// assert_eq!(part.len(), 100);
/// assert_eq!(part.slice_of(0.801).as_usize(), 80);
///
/// // "20% best nodes": boundaries at 0.8 (paper §1.2).
/// let part = Partition::from_boundaries(&[0.8]).unwrap();
/// assert_eq!(part.slice_of(0.85).as_usize(), 1);
/// ```
///
/// # The lookup grid
///
/// [`slice_of`](Partition::slice_of) and
/// [`boundary_distance`](Partition::boundary_distance) both start from the
/// number of boundaries below `r`. Rather than bisect the boundaries for
/// it, a partition cuts `[0, 1]` into `m` equal cells, `m` a power of two
/// (the smallest at least twice the boundary count, at most 2^16), and
/// stores per cell edge the number of boundaries below it. A lookup reads
/// the count at the edge of `r`'s cell and compares `r` with the one
/// boundary the cell can hold; the distance is then the smaller of those to
/// the two boundaries that bracket `r`. Only a cell holding two or more
/// boundaries (boundaries closer together than `1/m`) is bisected.
///
/// The grid is exact, not an approximation: `m` is a power of two, so
/// `r · m` only moves the exponent and truncating it is `⌊r·m⌋`, and every
/// cell edge `j/m` is a float. Every boundary below the edge of `r`'s cell
/// is below `r`, and every boundary at or above the next edge is above it,
/// so only the cell's own boundaries need comparing. The answers are those
/// of a bisection bit for bit, NaN and infinities included.
///
/// Cost: 4 bytes per cell plus 8 per boundary, built once and shared — for
/// the paper's 100 slices that is 1 KiB of counts beside 0.8 KiB of
/// boundaries.
#[derive(Clone)]
pub struct Partition {
    /// Shared: the partitioning is global knowledge (§3.2), so every node's
    /// copy is one more handle on the same boundaries and grid, not `k − 1`
    /// floats of its own.
    lookup: Arc<Lookup>,
}

/// A partition's boundaries and the grid that finds them (see
/// [`Partition`]).
struct Lookup {
    /// `−∞`, the strictly increasing interior boundaries (all in `(0, 1)`),
    /// `+∞`: the padding brackets every `r` by two entries.
    padded: Box<[f64]>,
    /// The number of grid cells `m`, a power of two, as a float.
    cells: f64,
    /// Entry `j` counts the boundaries below `j/m`, for `j ∈ 0..=m`; a
    /// repeat of the last entry closes cell `m`, where `r ≥ 1` lands.
    below: Box<[u32]>,
}

impl Lookup {
    /// Builds the grid over already validated boundaries.
    fn new(boundaries: &[f64]) -> Self {
        let cells = (2 * boundaries.len())
            .next_power_of_two()
            .min(MAX_GRID_CELLS);
        let mut below = Vec::with_capacity(cells + 2);
        let mut count = 0;
        for j in 0..=cells {
            let edge = j as f64 / cells as f64;
            count += boundaries[count..].partition_point(|&b| b < edge);
            below.push(u32::try_from(count).expect("fewer than 2^32 boundaries"));
        }
        below.push(*below.last().expect("m + 1 edges"));
        let padded = std::iter::once(f64::NEG_INFINITY)
            .chain(boundaries.iter().copied())
            .chain(std::iter::once(f64::INFINITY))
            .collect();
        Lookup {
            padded,
            cells: cells as f64,
            below: below.into(),
        }
    }
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.boundaries() == other.boundaries()
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partition")
            .field("boundaries", &self.boundaries())
            .finish()
    }
}

/// On the wire a partition is `{"boundaries": [..]}`, as the derive wrote it
/// while the boundaries were a plain `Vec`; the grid is derived state.
impl Serialize for Partition {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("boundaries".into(), self.boundaries().to_value())])
    }
}

/// Goes through [`Partition::from_boundaries`]: the boundary lookups rely on
/// sorted boundaries inside `(0, 1)`, so nothing else must get in.
impl Deserialize for Partition {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected a map for Partition"))?;
        let boundaries = Vec::<f64>::from_value(serde::__field(map, "boundaries"))?;
        Partition::from_boundaries(&boundaries).map_err(serde::Error::custom)
    }
}

impl Partition {
    /// Creates `k` slices of equal length `1/k`.
    pub fn equal(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::EmptyPartition);
        }
        let boundaries: Vec<f64> = (1..k).map(|j| j as f64 / k as f64).collect();
        Ok(Partition::new(&boundaries))
    }

    /// Wraps validated boundaries with their lookup grid.
    fn new(boundaries: &[f64]) -> Self {
        Partition {
            lookup: Arc::new(Lookup::new(boundaries)),
        }
    }

    /// Creates a partition from explicit interior boundaries.
    ///
    /// Boundaries must be strictly increasing and lie strictly inside
    /// `(0, 1)`. An empty list yields the single slice `(0, 1]`.
    pub fn from_boundaries(boundaries: &[f64]) -> Result<Self> {
        for w in boundaries.windows(2) {
            if w[0] >= w[1] || w[0].is_nan() || w[1].is_nan() {
                return Err(Error::InvalidBoundaries(format!(
                    "boundaries must be strictly increasing, got {} then {}",
                    w[0], w[1]
                )));
            }
        }
        for &b in boundaries {
            if !(b.is_finite() && 0.0 < b && b < 1.0) {
                return Err(Error::InvalidBoundaries(format!(
                    "boundary {b} must lie strictly inside (0, 1)"
                )));
            }
        }
        Ok(Partition::new(boundaries))
    }

    /// Creates a partition from slice fractions, e.g. `[0.1, 0.4, 0.5]` for a
    /// 10% / 40% / 50% split. Fractions must be positive and sum to 1
    /// (within 1e-9), and the cumulative boundaries they yield must pass
    /// [`from_boundaries`](Partition::from_boundaries): a sum inside the
    /// tolerance can still push an interior boundary to 1 or past it.
    pub fn from_fractions(fractions: &[f64]) -> Result<Self> {
        if fractions.is_empty() {
            return Err(Error::EmptyPartition);
        }
        let sum: f64 = fractions.iter().sum();
        if (sum - 1.0).abs() > FRACTION_SUM_TOLERANCE {
            return Err(Error::InvalidFractions(format!(
                "fractions must sum to 1, got {sum}"
            )));
        }
        let mut boundaries = Vec::with_capacity(fractions.len() - 1);
        let mut acc = 0.0;
        for (idx, &frac) in fractions[..fractions.len() - 1].iter().enumerate() {
            if frac <= 0.0 || !frac.is_finite() {
                return Err(Error::InvalidFractions(format!(
                    "fraction #{idx} is {frac}, must be positive"
                )));
            }
            acc += frac;
            boundaries.push(acc);
        }
        let last = *fractions.last().expect("non-empty");
        if last <= 0.0 || !last.is_finite() {
            return Err(Error::InvalidFractions(format!(
                "last fraction is {last}, must be positive"
            )));
        }
        Partition::from_boundaries(&boundaries)
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.boundaries().len() + 1
    }

    /// A partition always has at least one slice.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the slice interval at `idx`, or `None` if out of range.
    pub fn slice(&self, idx: SliceIndex) -> Option<Slice> {
        let j = idx.as_usize();
        if j >= self.len() {
            return None;
        }
        let boundaries = self.boundaries();
        let lower = if j == 0 { 0.0 } else { boundaries[j - 1] };
        let upper = if j == self.len() - 1 {
            1.0
        } else {
            boundaries[j]
        };
        Some(Slice { lower, upper })
    }

    /// Iterates over all slice intervals in rank order.
    pub fn slices(&self) -> impl Iterator<Item = Slice> + '_ {
        (0..self.len()).map(|j| self.slice(SliceIndex::new(j)).expect("in range"))
    }

    /// Maps a normalized rank (or random value) `r ∈ (0, 1]` to its slice:
    /// the unique `S_{l,u}` with `l < r ≤ u`.
    ///
    /// Values are clamped into `(0, 1]` (an `r` of exactly `0.0` — possible
    /// only for a degenerate estimate — maps to the first slice; values above
    /// 1 map to the last). This keeps protocol code total.
    pub fn slice_of(&self, r: f64) -> SliceIndex {
        // Membership is l < r ≤ u, so a value equal to a boundary belongs to
        // the slice *below* it: the index is the count of boundaries < r.
        SliceIndex::new(self.count_below(r))
    }

    /// The number of interior boundaries `b < r` (0 for a NaN `r`), read
    /// off the lookup grid (see [`Partition`]).
    fn count_below(&self, r: f64) -> usize {
        let Lookup {
            padded,
            cells,
            below,
        } = &*self.lookup;
        // ⌊r·m⌋ exactly (m is a power of two); a NaN `r` lands in cell 0,
        // where it compares below no boundary.
        let cell = (r.clamp(0.0, 1.0) * cells) as usize;
        let (first, end) = (below[cell] as usize, below[cell + 1] as usize);
        if end - first > 1 {
            return first + padded[1 + first..1 + end].partition_point(|&b| b < r);
        }
        // The cell holds at most `padded[first + 1]`; if it holds nothing,
        // that entry lies at or above the next cell edge, so above `r`.
        first + usize::from(padded[first + 1] < r)
    }

    /// The two entries of the padded boundary array that bracket `r` — the
    /// last boundary below it (or `−∞`) and the first at or above it (or
    /// `+∞`) — and the index of the lower one.
    fn bracket(&self, r: f64) -> (f64, f64) {
        let idx = self.count_below(r);
        let padded = &self.lookup.padded;
        (padded[idx], padded[idx + 1])
    }

    /// Distance from `r` to the closest *interior* slice boundary — the `d`
    /// of Theorem 5.1 and the `dist(·, b)` used to select `j1` in Fig. 5.
    /// O(1) (see [`Partition`]).
    ///
    /// For a single-slice partition there is no interior boundary and the
    /// distance is `+∞` (every node is trivially far from any boundary); a
    /// NaN `r` is `+∞` away from everything too.
    pub fn boundary_distance(&self, r: f64) -> f64 {
        let (lower, upper) = self.bracket(r);
        // Against the ±∞ padding a finite `r` is +∞ away; an infinite `r`
        // against the padding of its own sign gives NaN, which `min`
        // ignores, and so does a NaN `r` until the last `min` makes it +∞.
        (r - lower).abs().min((r - upper).abs()).min(f64::INFINITY)
    }

    /// The interior boundaries (strictly increasing, inside `(0,1)`).
    pub fn boundaries(&self) -> &[f64] {
        let padded = &self.lookup.padded;
        &padded[1..padded.len() - 1]
    }

    /// Per-node term of the *slice disorder measure* (§4.4):
    /// `1/(u−l) · |(u+l)/2 − (û+l̂)/2|` where `(l,u]` is the node's correct
    /// slice and `(l̂,û]` its estimated slice.
    ///
    /// For equal-size slices this equals the absolute difference of slice
    /// indices, matching the paper's example (`|1 − 3| = 2`).
    pub fn sdm_term(&self, actual: SliceIndex, estimated: SliceIndex) -> f64 {
        let s = self.slice(actual).expect("actual slice in range");
        let e = self.slice(estimated).expect("estimated slice in range");
        (s.midpoint() - e.midpoint()).abs() / s.length()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Partition[{} slices]", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_partition_has_uniform_lengths() {
        let part = Partition::equal(4).unwrap();
        assert_eq!(part.len(), 4);
        for s in part.slices() {
            assert!((s.length() - 0.25).abs() < 1e-12);
        }
        assert_eq!(part.slice(SliceIndex::new(0)).unwrap().lower, 0.0);
        assert_eq!(part.slice(SliceIndex::new(3)).unwrap().upper, 1.0);
    }

    #[test]
    fn zero_slices_rejected() {
        assert!(matches!(Partition::equal(0), Err(Error::EmptyPartition)));
    }

    #[test]
    fn single_slice_partition() {
        let part = Partition::equal(1).unwrap();
        assert_eq!(part.len(), 1);
        assert_eq!(part.slice_of(0.0001).as_usize(), 0);
        assert_eq!(part.slice_of(1.0).as_usize(), 0);
        assert_eq!(part.boundary_distance(0.5), f64::INFINITY);
    }

    #[test]
    fn slice_of_respects_half_open_intervals() {
        let part = Partition::equal(2).unwrap();
        // membership is l < r <= u: exactly 0.5 belongs to the first slice.
        assert_eq!(part.slice_of(0.5).as_usize(), 0);
        assert_eq!(part.slice_of(0.5 + 1e-12).as_usize(), 1);
        assert_eq!(part.slice_of(1.0).as_usize(), 1);
    }

    #[test]
    fn slice_of_clamps_out_of_range_estimates() {
        let part = Partition::equal(3).unwrap();
        assert_eq!(part.slice_of(0.0).as_usize(), 0);
        assert_eq!(part.slice_of(-0.5).as_usize(), 0);
        assert_eq!(part.slice_of(1.5).as_usize(), 2);
    }

    #[test]
    fn paper_top_20_percent_slice() {
        // §1.2: "a slice containing 20% of the best nodes … random values
        // greater than 0.8".
        let part = Partition::from_boundaries(&[0.8]).unwrap();
        assert_eq!(part.len(), 2);
        assert_eq!(part.slice_of(0.80).as_usize(), 0);
        assert_eq!(part.slice_of(0.81).as_usize(), 1);
    }

    #[test]
    fn from_fractions_builds_cumulative_boundaries() {
        let part = Partition::from_fractions(&[0.1, 0.4, 0.5]).unwrap();
        assert_eq!(part.len(), 3);
        let b = part.boundaries();
        assert!((b[0] - 0.1).abs() < 1e-12);
        assert!((b[1] - 0.5).abs() < 1e-12);
        assert_eq!(part.slice_of(0.05).as_usize(), 0);
        assert_eq!(part.slice_of(0.3).as_usize(), 1);
        assert_eq!(part.slice_of(0.99).as_usize(), 2);
    }

    #[test]
    fn from_fractions_rejects_bad_input() {
        assert!(Partition::from_fractions(&[]).is_err());
        assert!(Partition::from_fractions(&[0.5, 0.4]).is_err()); // sums to 0.9
        assert!(Partition::from_fractions(&[1.2, -0.2]).is_err());
        assert!(Partition::from_fractions(&[0.0, 1.0]).is_err());
        // Sums within the tolerance whose cumulative boundary overshoots 1:
        // the last slice would have negative length.
        assert!(Partition::from_fractions(&[0.6, 0.4 + 5e-10, 1e-10]).is_err());
        assert!(Partition::from_fractions(&[0.5, 0.5 + 9e-10, 1e-12]).is_err());
    }

    #[test]
    fn from_boundaries_rejects_bad_input() {
        assert!(Partition::from_boundaries(&[0.5, 0.5]).is_err());
        assert!(Partition::from_boundaries(&[0.7, 0.3]).is_err());
        assert!(Partition::from_boundaries(&[0.0]).is_err());
        assert!(Partition::from_boundaries(&[1.0]).is_err());
        assert!(Partition::from_boundaries(&[f64::NAN]).is_err());
        assert!(Partition::from_boundaries(&[]).is_ok());
    }

    #[test]
    fn slice_validation() {
        assert!(Slice::new(0.0, 1.0).is_ok());
        assert!(Slice::new(0.5, 0.5).is_err());
        assert!(Slice::new(-0.1, 0.5).is_err());
        assert!(Slice::new(0.2, 1.1).is_err());
        let s = Slice::new(0.25, 0.75).unwrap();
        assert!(s.contains(0.5));
        assert!(!s.contains(0.25)); // lower excluded
        assert!(s.contains(0.75)); // upper included
        assert!((s.midpoint() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_distance_matches_manual() {
        let part = Partition::equal(4).unwrap(); // boundaries 0.25, 0.5, 0.75
        assert!((part.boundary_distance(0.3) - 0.05).abs() < 1e-12);
        assert!((part.boundary_distance(0.5) - 0.0).abs() < 1e-12);
        assert!((part.boundary_distance(0.95) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nan_and_infinite_estimates_are_infinitely_far_from_every_boundary() {
        let part = Partition::equal(4).unwrap();
        assert_eq!(part.boundary_distance(f64::NAN), f64::INFINITY);
        assert_eq!(part.boundary_distance(f64::INFINITY), f64::INFINITY);
        assert_eq!(part.boundary_distance(f64::NEG_INFINITY), f64::INFINITY);
    }

    #[test]
    fn boundary_distance_midway_and_on_a_boundary() {
        let part = Partition::from_boundaries(&[0.25, 0.75]).unwrap();
        assert_eq!(part.boundary_distance(0.5), 0.25);
        assert_eq!(part.boundary_distance(0.75), 0.0);
    }

    #[test]
    fn deserialization_validates_boundaries() {
        let part = Partition::from_fractions(&[0.1, 0.4, 0.5]).unwrap();
        let parsed = Partition::from_value(&part.to_value()).unwrap();
        assert_eq!(parsed, part);
        let bad = |boundaries: &[f64]| {
            serde::Value::Map(vec![("boundaries".into(), boundaries.to_value())])
        };
        assert!(
            Partition::from_value(&bad(&[0.7, 0.3])).is_err(),
            "unsorted"
        );
        assert!(
            Partition::from_value(&bad(&[0.5, 1.5])).is_err(),
            "outside (0, 1)"
        );
        assert!(Partition::from_value(&serde::Value::Null).is_err());
    }

    #[test]
    fn clones_share_one_boundary_array() {
        let part = Partition::equal(100).unwrap();
        let copy = part.clone();
        assert!(std::ptr::eq(part.boundaries(), copy.boundaries()));
    }

    #[test]
    fn sdm_term_equals_index_distance_for_equal_slices() {
        // Paper §4.4 example: believed slice 3, actual slice 1 → distance 2.
        let part = Partition::equal(10).unwrap();
        let d = part.sdm_term(SliceIndex::new(0), SliceIndex::new(2));
        assert!((d - 2.0).abs() < 1e-9);
        let zero = part.sdm_term(SliceIndex::new(4), SliceIndex::new(4));
        assert!(zero.abs() < 1e-12);
    }

    #[test]
    fn slice_index_distance() {
        assert_eq!(SliceIndex::new(1).distance(SliceIndex::new(3)), 2);
        assert_eq!(SliceIndex::new(3).distance(SliceIndex::new(1)), 2);
        assert_eq!(SliceIndex::new(5).distance(SliceIndex::new(5)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SliceIndex::new(2).to_string(), "S2");
        assert_eq!(Slice::new(0.0, 0.5).unwrap().to_string(), "(0, 0.5]");
        assert_eq!(
            Partition::equal(3).unwrap().to_string(),
            "Partition[3 slices]"
        );
    }

    /// The linear scan `boundary_distance` was before it bisected: the
    /// reference the property test below holds the lookup to.
    fn linear_scan(part: &Partition, r: f64) -> f64 {
        part.boundaries()
            .iter()
            .map(|&b| (r - b).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Partitions built both ways: explicit boundaries (from sorted distinct
    /// grid points, so gaps are irregular) and cumulative fractions.
    fn any_partition() -> impl Strategy<Value = Partition> {
        prop_oneof![
            proptest::collection::vec(1u32..1000, 0..24).prop_map(|mut grid| {
                grid.sort_unstable();
                grid.dedup();
                let boundaries: Vec<f64> = grid.iter().map(|&g| g as f64 / 1000.0).collect();
                Partition::from_boundaries(&boundaries).unwrap()
            }),
            proptest::collection::vec(1u32..50, 1..24).prop_map(|weights| {
                let total: u32 = weights.iter().sum();
                let fractions: Vec<f64> =
                    weights.iter().map(|&w| w as f64 / total as f64).collect();
                Partition::from_fractions(&fractions).unwrap()
            }),
        ]
    }

    /// The bisection lookups `slice_of` and `nearest_boundary` were before
    /// the lookup grid, kept verbatim (over the bare boundary array): the
    /// reference the grid lookups are held to, bit for bit.
    mod bisection {
        pub(super) fn slice_of(boundaries: &[f64], r: f64) -> usize {
            boundaries.partition_point(|&b| b < r).min(boundaries.len())
        }

        pub(super) fn nearest_boundary(boundaries: &[f64], r: f64) -> Option<(f64, f64)> {
            if r.is_nan() {
                return None;
            }
            let above = boundaries.partition_point(|&b| b < r);
            let candidate = |idx: usize| boundaries.get(idx).map(|&b| (b, (r - b).abs()));
            match (above.checked_sub(1).and_then(candidate), candidate(above)) {
                (Some(lower), Some(upper)) => Some(if upper.1 < lower.1 { upper } else { lower }),
                (lower, upper) => lower.or(upper),
            }
        }
    }

    /// Every `r` the lookups must agree on for `part`: the IEEE specials,
    /// subnormals, 1.0 and beyond, then each boundary with its two float
    /// neighbours, the exact midpoint to the next boundary, and the dyadic
    /// rationals `⌊b·2^p⌋/2^p` just below it (where grid cells start)
    /// with their neighbours.
    fn probes(part: &Partition) -> Vec<f64> {
        let mut probes = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -f64::MIN_POSITIVE,
            -1.0,
            0.5,
            1.0,
            1.0f64.next_down(),
            1.0f64.next_up(),
            1.5,
            2.0,
            f64::MAX,
        ];
        let b = part.boundaries();
        for (idx, &x) in b.iter().enumerate() {
            probes.extend([x, x.next_up(), x.next_down()]);
            let next = b.get(idx + 1).copied().unwrap_or(1.0);
            probes.push((x + next) / 2.0);
            for p in 1..=17 {
                let scale = f64::from(1u32 << p);
                let cell = (x * scale).floor() / scale;
                probes.extend([cell, cell.next_up(), cell.next_down()]);
            }
        }
        if let Some(&first) = b.first() {
            probes.push(first / 2.0);
        }
        probes
    }

    /// `slice_of` and `boundary_distance` (by bits) agree with the
    /// bisection reference at `r`.
    fn lookups_match_bisection(part: &Partition, r: f64) -> std::result::Result<(), TestCaseError> {
        let b = part.boundaries();
        let nearest = bisection::nearest_boundary(b, r);
        let distance = nearest.map_or(f64::INFINITY, |(_, d)| d);
        prop_assert_eq!(
            part.slice_of(r).as_usize(),
            bisection::slice_of(b, r),
            "slice_of({:?}) over {:?}",
            r,
            b
        );
        prop_assert_eq!(
            part.boundary_distance(r).to_bits(),
            distance.to_bits(),
            "boundary_distance({:?}) over {:?}",
            r,
            b
        );
        Ok(())
    }

    #[test]
    fn crowded_boundaries_share_a_grid_cell() {
        // Three boundaries below 0.05 and six in all: a 16-cell grid, whose
        // first cell [0, 1/16) holds all three — the bisected path.
        let part = Partition::from_fractions(&[0.01, 0.01, 0.02, 0.06, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(part.lookup.cells, 16.0);
        assert_eq!(&part.lookup.below[..3], &[0, 3, 4]);
        assert_eq!(part.slice_of(0.015).as_usize(), 1);
        assert_eq!(part.boundary_distance(0.035), part.boundaries()[2] - 0.035);
        // Equal partitions never crowd a cell.
        for k in 1..=300 {
            let part = Partition::equal(k).unwrap();
            assert!(
                part.lookup.below.windows(2).all(|w| w[1] - w[0] <= 1),
                "k = {k}"
            );
        }
    }

    #[test]
    fn equal_partition_lookups_match_bisection() {
        for k in 1..=300 {
            let part = Partition::equal(k).unwrap();
            for r in probes(&part) {
                lookups_match_bisection(&part, r).unwrap();
            }
        }
    }

    /// Partitions of every shape the lookups must handle: equal ones,
    /// explicit random boundaries (irregular gaps, some nearly touching),
    /// the single slice, and cumulative fractions that open with a run of
    /// tiny slices, so several boundaries share one grid cell.
    fn lookup_partition() -> impl Strategy<Value = Partition> {
        prop_oneof![
            (1usize..=300).prop_map(|k| Partition::equal(k).unwrap()),
            proptest::collection::vec(0.0f64..1.0, 0..40).prop_map(|mut raw| {
                raw.retain(|&b| b > 0.0);
                raw.sort_unstable_by(f64::total_cmp);
                raw.dedup();
                Partition::from_boundaries(&raw).unwrap()
            }),
            Just(Partition::equal(1).unwrap()),
            (
                proptest::collection::vec(1u32..1000, 1..24),
                proptest::collection::vec(1u32..50, 1..8),
                0i32..7,
            )
                .prop_map(|(tiny, big, exponent)| {
                    let scale = 10f64.powi(-3 - exponent);
                    let mut fractions: Vec<f64> =
                        tiny.iter().map(|&t| f64::from(t) * scale).collect();
                    let rest = 1.0 - fractions.iter().sum::<f64>();
                    let total: u32 = big.iter().sum();
                    fractions.extend(big.iter().map(|&w| rest * f64::from(w) / f64::from(total)));
                    Partition::from_fractions(&fractions)
                        .unwrap_or_else(|_| Partition::equal(1).unwrap())
                }),
        ]
    }

    proptest! {
        #[test]
        fn partition_lookups_match_bisection(
            part in lookup_partition(),
            drawn in proptest::collection::vec(-0.25f64..1.25, 0..16),
            bits in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            let random = drawn.into_iter().chain(bits.into_iter().map(f64::from_bits));
            for r in probes(&part).into_iter().chain(random) {
                lookups_match_bisection(&part, r)?;
            }
        }

        #[test]
        fn bisected_boundary_lookup_matches_the_linear_scan(
            part in any_partition(),
            r in -0.5f64..=1.5,
            on_boundary in 0usize..32,
        ) {
            let mut probes = vec![r];
            // Exactly on a boundary, and exactly midway between neighbors.
            if let Some(&b) = part.boundaries().get(on_boundary % part.len()) {
                probes.push(b);
            }
            for w in part.boundaries().windows(2) {
                probes.push((w[0] + w[1]) / 2.0);
            }
            for r in probes {
                // Bit-for-bit: the ranking protocol's j1 choice compares
                // these distances, and the goldens pin its choices.
                prop_assert_eq!(part.boundary_distance(r).to_bits(), linear_scan(&part, r).to_bits());
            }
        }

        #[test]
        fn slice_of_is_consistent_with_contains(
            k in 1usize..50,
            r in 0.0001f64..=1.0,
        ) {
            let part = Partition::equal(k).unwrap();
            let idx = part.slice_of(r);
            let slice = part.slice(idx).unwrap();
            prop_assert!(slice.contains(r), "r={r} not in {slice} (idx {idx:?})");
        }

        #[test]
        fn slices_tile_the_unit_interval(k in 1usize..40) {
            let part = Partition::equal(k).unwrap();
            let slices: Vec<_> = part.slices().collect();
            prop_assert_eq!(slices[0].lower, 0.0);
            prop_assert_eq!(slices[k - 1].upper, 1.0);
            for w in slices.windows(2) {
                prop_assert!((w[0].upper - w[1].lower).abs() < 1e-12);
            }
            let total: f64 = slices.iter().map(Slice::length).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn every_rank_maps_to_exactly_one_slice(
            k in 2usize..30,
            r in 0.0001f64..=1.0,
        ) {
            let part = Partition::equal(k).unwrap();
            let holders: Vec<_> = part
                .slices()
                .enumerate()
                .filter(|(_, s)| s.contains(r))
                .collect();
            prop_assert_eq!(holders.len(), 1);
            prop_assert_eq!(holders[0].0, part.slice_of(r).as_usize());
        }

        #[test]
        fn boundary_distance_is_nonnegative_and_tight(
            k in 2usize..30,
            r in 0.0f64..=1.0,
        ) {
            let part = Partition::equal(k).unwrap();
            let d = part.boundary_distance(r);
            prop_assert!(d >= 0.0);
            prop_assert!(part.boundaries().iter().any(|&b| ((r - b).abs() - d).abs() < 1e-12));
        }

        #[test]
        fn fractions_roundtrip(k in 1usize..20) {
            let fracs = vec![1.0 / k as f64; k];
            let from_frac = Partition::from_fractions(&fracs).unwrap();
            let equal = Partition::equal(k).unwrap();
            prop_assert_eq!(from_frac.len(), equal.len());
            for (a, b) in from_frac.boundaries().iter().zip(equal.boundaries()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
