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

use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Tolerance used when validating that slice fractions sum to one.
const FRACTION_SUM_TOLERANCE: f64 = 1e-9;

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
#[derive(Clone, PartialEq, Debug)]
pub struct Partition {
    /// Strictly increasing interior boundaries, all in `(0, 1)`. Shared:
    /// the partitioning is global knowledge (§3.2), so every node's copy is
    /// one more handle on the same array, not `k − 1` floats of its own.
    boundaries: Arc<[f64]>,
}

/// On the wire a partition is `{"boundaries": [..]}`, as the derive wrote it
/// while the boundaries were a plain `Vec`.
impl Serialize for Partition {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("boundaries".into(), self.boundaries.to_value())])
    }
}

/// Goes through [`Partition::from_boundaries`]: the boundary lookups bisect,
/// so unsorted or out-of-range input must not get in.
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
        let boundaries = (1..k).map(|j| j as f64 / k as f64).collect();
        Ok(Partition { boundaries })
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
        Ok(Partition {
            boundaries: boundaries.into(),
        })
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
        self.boundaries.len() + 1
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
        let lower = if j == 0 { 0.0 } else { self.boundaries[j - 1] };
        let upper = if j == self.len() - 1 {
            1.0
        } else {
            self.boundaries[j]
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
        // partition_point returns the count of boundaries b with b < r;
        // membership is l < r ≤ u, so a value equal to a boundary belongs to
        // the slice *below* it.
        let idx = self.boundaries.partition_point(|&b| b < r);
        SliceIndex::new(idx.min(self.len() - 1))
    }

    /// The interior boundary closest to `r` and its distance `|r − b|`, from
    /// one bisection: the closest boundary is one of the two that bracket
    /// `r`. Midway between them the lower one wins. `None` for a
    /// single-slice partition or a NaN `r`.
    fn nearest_boundary(&self, r: f64) -> Option<(f64, f64)> {
        if r.is_nan() {
            return None;
        }
        let above = self.boundaries.partition_point(|&b| b < r);
        let candidate = |idx: usize| self.boundaries.get(idx).map(|&b| (b, (r - b).abs()));
        match (above.checked_sub(1).and_then(candidate), candidate(above)) {
            (Some(lower), Some(upper)) => Some(if upper.1 < lower.1 { upper } else { lower }),
            (lower, upper) => lower.or(upper),
        }
    }

    /// Distance from `r` to the closest *interior* slice boundary — the `d`
    /// of Theorem 5.1 and the `dist(·, b)` used to select `j1` in Fig. 5.
    /// O(log k) in the number of slices.
    ///
    /// For a single-slice partition there is no interior boundary and the
    /// distance is `+∞` (every node is trivially far from any boundary); a
    /// NaN `r` is `+∞` away from everything too.
    pub fn boundary_distance(&self, r: f64) -> f64 {
        self.nearest_boundary(r)
            .map_or(f64::INFINITY, |(_, distance)| distance)
    }

    /// The closest interior boundary to `r`, if any (`None` for a NaN `r`);
    /// exactly midway between two boundaries, the lower one.
    pub fn closest_boundary(&self, r: f64) -> Option<f64> {
        self.nearest_boundary(r).map(|(boundary, _)| boundary)
    }

    /// The interior boundaries (strictly increasing, inside `(0,1)`).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
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
        assert_eq!(part.closest_boundary(0.5), None);
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
        assert_eq!(part.closest_boundary(0.3), Some(0.25));
    }

    #[test]
    fn nan_estimate_has_no_closest_boundary() {
        // `closest_boundary` used to panic on NaN while `boundary_distance`
        // quietly answered +∞; both now come from one lookup.
        let part = Partition::equal(4).unwrap();
        assert_eq!(part.closest_boundary(f64::NAN), None);
        assert_eq!(part.boundary_distance(f64::NAN), f64::INFINITY);
        // Infinite estimates are merely far away.
        assert_eq!(part.boundary_distance(f64::INFINITY), f64::INFINITY);
        assert_eq!(part.closest_boundary(f64::NEG_INFINITY), Some(0.25));
    }

    #[test]
    fn midway_between_two_boundaries_the_lower_one_wins() {
        let part = Partition::from_boundaries(&[0.25, 0.75]).unwrap();
        assert_eq!(part.closest_boundary(0.5), Some(0.25));
        assert_eq!(part.boundary_distance(0.5), 0.25);
        // On a boundary the answer is that boundary, at distance zero.
        assert_eq!(part.closest_boundary(0.75), Some(0.75));
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

    /// The linear scans `boundary_distance` and `closest_boundary` were
    /// before they bisected: the reference the property test below holds the
    /// O(log k) lookup to. (`min_by` keeps the first of equal minima — the
    /// lower boundary.)
    fn linear_scan(part: &Partition, r: f64) -> (f64, Option<f64>) {
        let distance = part
            .boundaries()
            .iter()
            .map(|&b| (r - b).abs())
            .fold(f64::INFINITY, f64::min);
        let closest = part
            .boundaries()
            .iter()
            .copied()
            .min_by(|x, y| (r - x).abs().partial_cmp(&(r - y).abs()).unwrap());
        (distance, closest)
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

    proptest! {
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
                let (distance, closest) = linear_scan(&part, r);
                // Bit-for-bit: the ranking protocol's j1 choice compares
                // these distances, and the goldens pin its choices.
                prop_assert_eq!(part.boundary_distance(r).to_bits(), distance.to_bits());
                prop_assert_eq!(part.closest_boundary(r), closest);
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
            let b = part.closest_boundary(r).unwrap();
            prop_assert!(((r - b).abs() - d).abs() < 1e-12);
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
