//! A fixed-capacity FIFO window of bits.
//!
//! §5.3.4 of the paper observes that "the only necessary relevant
//! information of a message is simply whether it contains a lower attribute
//! value than the attribute value of `i`, or not. Consequently, a single bit
//! per message would be sufficient" — e.g. 10⁴ samples fit in
//! `10⁴ / 8 / 1000 = 1.25 kB`.
//!
//! [`BitWindow`] is that structure: a ring buffer of single bits packed into
//! `u64` words, with O(1) push and a running popcount so the rank estimate
//! `ones / len` is O(1) too.
//!
//! [`ValueWindow`] keeps the *raw* attribute samples (not just the
//! comparison bit) in the same FIFO discipline and answers order-statistic
//! queries over them — the evidence base for the outlier-robust absorption
//! defense, which needs quartiles of the recent sample stream to decide
//! whether a new sample is statistically plausible. The defenses query it
//! once or twice for *every* sample a node sees, so it keeps a sorted
//! mirror of the ring up to date on each push (O(log w) search, one shift
//! of at most w floats) and answers from that, rather than sorting per
//! query; see the type docs for the invariant and why it is bit-exact.

use serde::{Deserialize, Serialize};

/// A fixed-capacity ring buffer of bits with a running count of ones.
///
/// Deserialization is validating: every structural invariant (`ones ≤ len ≤
/// capacity`, word-vector length, popcount agreement, no bits outside the
/// live region) is re-checked, so crafted JSON cannot materialize a window
/// whose running counters disagree with its bits.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct BitWindow {
    words: Vec<u64>,
    capacity: usize,
    /// Number of bits currently stored (≤ capacity).
    len: usize,
    /// Ring head: index of the slot the next push writes to.
    head: usize,
    /// Running number of set bits among the stored ones.
    ones: usize,
}

impl BitWindow {
    /// Creates a window holding up to `capacity ≥ 1` bits.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BitWindow capacity must be at least 1");
        BitWindow {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
            head: 0,
            ones: 0,
        }
    }

    /// The maximal number of bits retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bits currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are stored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has wrapped (old bits are being discarded).
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Number of set bits currently stored.
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Fraction of set bits, or `None` when empty.
    pub fn fraction(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.ones as f64 / self.len as f64)
        }
    }

    /// Pushes a bit, evicting the oldest one if the window is full.
    pub fn push(&mut self, bit: bool) {
        let idx = self.head;
        let (word, mask) = (idx / 64, 1u64 << (idx % 64));
        if self.len == self.capacity {
            // Evict the bit currently stored in this slot.
            if self.words[word] & mask != 0 {
                self.ones -= 1;
            }
        } else {
            self.len += 1;
        }
        if bit {
            self.words[word] |= mask;
            self.ones += 1;
        } else {
            self.words[word] &= !mask;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Clears all stored bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
        self.head = 0;
        self.ones = 0;
    }

    /// Approximate heap footprint in bytes — the paper's 1.25 kB check.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Whether bit slot `idx` is set (callers guarantee `idx < capacity`).
    fn bit(words: &[u64], idx: usize) -> bool {
        words[idx / 64] & (1u64 << (idx % 64)) != 0
    }
}

impl Deserialize for BitWindow {
    /// Validating deserialization: the derived impl would happily accept
    /// `ones > len`, `len > capacity` or bits parked outside the live
    /// region, silently corrupting every later `fraction()` answer. Each
    /// invariant `push`/`clear` maintain is re-established here instead.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct BitWindow"))?;
        let field = |name: &str| serde::__field(m, name);
        let err = |msg: String| serde::Error::custom(format!("BitWindow: {msg}"));
        let words: Vec<u64> = Deserialize::from_value(field("words"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.words: {e}")))?;
        let capacity: usize = Deserialize::from_value(field("capacity"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.capacity: {e}")))?;
        let len: usize = Deserialize::from_value(field("len"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.len: {e}")))?;
        let head: usize = Deserialize::from_value(field("head"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.head: {e}")))?;
        let ones: usize = Deserialize::from_value(field("ones"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.ones: {e}")))?;

        if capacity == 0 {
            return Err(err("capacity must be at least 1".into()));
        }
        if words.len() != capacity.div_ceil(64) {
            return Err(err(format!(
                "capacity {capacity} needs {} words, got {}",
                capacity.div_ceil(64),
                words.len()
            )));
        }
        if len > capacity {
            return Err(err(format!("len {len} exceeds capacity {capacity}")));
        }
        if head >= capacity {
            return Err(err(format!(
                "head {head} out of range for capacity {capacity}"
            )));
        }
        // Until the first wrap the head trails the push count exactly;
        // afterwards len stays pinned at capacity. Any other combination is
        // unreachable from `new`/`push`/`clear`.
        if len < capacity && head != len {
            return Err(err(format!(
                "head {head} inconsistent with unwrapped len {len}"
            )));
        }
        if ones > len {
            return Err(err(format!("ones {ones} exceeds len {len}")));
        }
        let popcount: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if popcount != ones {
            return Err(err(format!(
                "running count {ones} disagrees with stored bits ({popcount} set)"
            )));
        }
        // Every set bit must lie in the live region (push clears evicted
        // slots, and bits beyond `capacity` in the last word never exist).
        // Unwrapped windows live in [0, len); full windows own every slot.
        for idx in 0..capacity {
            let live = len == capacity || idx < len;
            if !live && Self::bit(&words, idx) {
                return Err(err(format!("set bit at dead slot {idx} (len {len})")));
            }
        }
        for idx in capacity..words.len() * 64 {
            if Self::bit(&words, idx) {
                return Err(err(format!("set bit at {idx} beyond capacity {capacity}")));
            }
        }

        Ok(BitWindow {
            words,
            capacity,
            len,
            head,
            ones,
        })
    }
}

/// A fixed-capacity FIFO window of raw `f64` samples with order-statistic
/// queries.
///
/// Where [`BitWindow`] compresses each sample to one comparison bit, this
/// window retains the values themselves so their spread can be measured:
/// the robust-absorption defense asks "is this new sample an outlier versus
/// the recent stream?" via [`tukey_fences`](ValueWindow::tukey_fences).
///
/// # The sorted mirror
///
/// Beside the ring buffer (arrival order, which decides *who* is evicted)
/// the window keeps `sorted`: the same multiset of samples in
/// [`f64::total_cmp`] order. [`push`](ValueWindow::push) and
/// [`clear`](ValueWindow::clear) keep the two in step, and every query
/// interpolates straight off the mirror.
///
/// **Invariant:** `sorted` is a permutation of `values` (bit patterns, not
/// just numeric values) and is non-decreasing under `total_cmp`.
///
/// **Why that is exact:** `total_cmp` is a total order on bit patterns —
/// two samples compare equal only if they are the same bits (`-0.0` sorts
/// before `0.0`, NaNs sort by sign and payload) — so a multiset of `f64`s
/// has exactly one sorted sequence. The mirror therefore *is* the vector a
/// clone-and-sort of the ring would produce, bit for bit, and every
/// quantile, fence and cut read off it is the one the sort would give.
///
/// **Cost:** a push into a full window is two binary searches (the evicted
/// sample's position, the new sample's position) and one shift of the
/// elements between the two — O(log w) comparisons plus at most `w` moved
/// floats. Queries are O(1) ([`quantile`](ValueWindow::quantile),
/// [`tukey_fences`](ValueWindow::tukey_fences)) or O(log w)
/// ([`fenced_trim_cuts`](ValueWindow::fenced_trim_cuts)), where sorting per
/// query was O(w log w) — and the filters ask once or twice per sample.
///
/// On the wire the window is `{"values", "capacity", "head"}`; the mirror is
/// derived state and is rebuilt, after validation, on deserialization.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueWindow {
    values: Vec<f64>,
    capacity: usize,
    /// Index the next overwrite lands on once the window has filled.
    head: usize,
    /// The stored samples in `f64::total_cmp` order (see the type docs).
    sorted: Vec<f64>,
}

impl ValueWindow {
    /// Creates a window retaining the freshest `capacity ≥ 1` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ValueWindow capacity must be at least 1");
        ValueWindow {
            values: Vec::new(),
            capacity,
            head: 0,
            sorted: Vec::new(),
        }
    }

    /// The maximal number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples are stored yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has filled (old samples are being discarded).
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Pushes a sample, evicting the oldest one if the window is full.
    pub fn push(&mut self, value: f64) {
        if self.values.len() < self.capacity {
            self.values.push(value);
            let at = Self::insertion_point(&self.sorted, value);
            self.sorted.insert(at, value);
        } else {
            let evicted = std::mem::replace(&mut self.values[self.head], value);
            self.head = (self.head + 1) % self.capacity;
            self.replace_in_mirror(evicted, value);
        }
    }

    /// Where `value` goes in a `total_cmp`-sorted slice: before its twins.
    fn insertion_point(sorted: &[f64], value: f64) -> usize {
        sorted.partition_point(|v| v.total_cmp(&value).is_lt())
    }

    /// Takes `evicted` out of the mirror and puts `value` in, shifting only
    /// the elements between the two positions.
    fn replace_in_mirror(&mut self, evicted: f64, value: f64) {
        // `total_cmp` equality is bit equality, so whichever twin the search
        // lands on is the right one; `==` would take `0.0` for `-0.0`.
        let out = self
            .sorted
            .binary_search_by(|v| v.total_cmp(&evicted))
            .expect("every sample in the ring is in the mirror");
        if value.total_cmp(&evicted).is_gt() {
            let at = out + 1 + Self::insertion_point(&self.sorted[out + 1..], value);
            self.sorted.copy_within(out + 1..at, out);
            self.sorted[at - 1] = value;
        } else {
            let at = Self::insertion_point(&self.sorted[..out], value);
            self.sorted.copy_within(at..out, at + 1);
            self.sorted[at] = value;
        }
    }

    /// Discards all stored samples.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sorted.clear();
        self.head = 0;
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the stored samples with linear
    /// interpolation between order statistics, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(Self::interpolate(&self.sorted, q))
    }

    /// `q`-quantile over an already-sorted slice.
    fn interpolate(sorted: &[f64], q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        // `floor` and `ceil` without the libm calls: `pos` is NaN or at
        // least 0, where truncation is the floor (NaN casts to 0) and the
        // ceiling is one more exactly when a fraction remains.
        let lo = pos as usize;
        let hi = lo + usize::from(pos > lo as f64);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// Tukey outlier fences `(q1 − k·IQR, q3 + k·IQR)` over the stored
    /// samples. `None` while the window is empty or the interquartile range
    /// is zero (a degenerate stream carries no spread information to judge
    /// outliers against).
    pub fn tukey_fences(&self, k: f64) -> Option<(f64, f64)> {
        if self.sorted.is_empty() {
            return None;
        }
        let q1 = Self::interpolate(&self.sorted, 0.25);
        let q3 = Self::interpolate(&self.sorted, 0.75);
        let iqr = q3 - q1;
        if iqr <= 0.0 {
            return None;
        }
        Some((q1 - k * iqr, q3 + k * iqr))
    }

    /// Trim cuts `(quantile(pct), quantile(1 − pct))` computed over the
    /// *fence-sanitized* subset of the window: samples outside the Tukey
    /// fences with multiplier `k` are excluded from the evidence base
    /// before the quantiles are taken.
    ///
    /// This is what makes a trim band robust to stream pollution: an
    /// attacker injecting a few huge values into the window cannot drag the
    /// naive `quantile(1 − pct)` cut up to its poison level, because those
    /// values never enter the cut computation. The IQR box always lies
    /// inside its own fences, so at least half the window survives the
    /// sanitization and the quantiles stay well-defined. When the fences
    /// are undefined (zero spread) the cuts fall back to whole-window
    /// quantiles. `None` while the window is empty.
    pub fn fenced_trim_cuts(&self, k: f64, pct: f64) -> Option<(f64, f64)> {
        if self.sorted.is_empty() {
            return None;
        }
        let sorted = &self.sorted[..];
        let q1 = Self::interpolate(sorted, 0.25);
        let q3 = Self::interpolate(sorted, 0.75);
        let iqr = q3 - q1;
        let inliers = if iqr > 0.0 {
            let lo = q1 - k * iqr;
            let hi = q3 + k * iqr;
            let start = sorted.partition_point(|&v| v < lo);
            let end = sorted.partition_point(|&v| v <= hi);
            &sorted[start..end]
        } else {
            sorted
        };
        Some((
            Self::interpolate(inliers, pct),
            Self::interpolate(inliers, 1.0 - pct),
        ))
    }
}

/// The mirror is derived state: the wire form stays the three fields the
/// derive wrote before the mirror existed, in the same order.
impl Serialize for ValueWindow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("values".into(), self.values.to_value()),
            ("capacity".into(), self.capacity.to_value()),
            ("head".into(), self.head.to_value()),
        ])
    }
}

impl Deserialize for ValueWindow {
    /// Validating deserialization: a zero capacity, more samples than the
    /// capacity or a head outside the ring would otherwise parse and panic
    /// on the next `push`. Only states `new`/`push`/`clear` can reach are
    /// accepted; the mirror is rebuilt by sorting once.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct ValueWindow"))?;
        let field = |name: &str| serde::__field(m, name);
        let err = |msg: String| serde::Error::custom(format!("ValueWindow: {msg}"));
        let values: Vec<f64> = Deserialize::from_value(field("values"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.values: {e}")))?;
        let capacity: usize = Deserialize::from_value(field("capacity"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.capacity: {e}")))?;
        let head: usize = Deserialize::from_value(field("head"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.head: {e}")))?;

        if capacity == 0 {
            return Err(err("capacity must be at least 1".into()));
        }
        if values.len() > capacity {
            return Err(err(format!(
                "{} values exceed capacity {capacity}",
                values.len()
            )));
        }
        if head >= capacity {
            return Err(err(format!(
                "head {head} out of range for capacity {capacity}"
            )));
        }
        // The head only starts moving once the window has filled.
        if values.len() < capacity && head != 0 {
            return Err(err(format!(
                "head {head} inconsistent with unfilled len {}",
                values.len()
            )));
        }

        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        Ok(ValueWindow {
            values,
            capacity,
            head,
            sorted,
        })
    }
}

/// The clone-and-sort window the sorted mirror replaced, kept verbatim as
/// the reference the differential tests (here and in `ranking.rs`) hold
/// [`ValueWindow`] to, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    /// A ring buffer that clones and sorts its samples on every query.
    #[derive(Clone, Debug)]
    pub(crate) struct SortingWindow {
        values: Vec<f64>,
        capacity: usize,
        head: usize,
    }

    impl SortingWindow {
        pub(crate) fn new(capacity: usize) -> Self {
            assert!(capacity > 0);
            SortingWindow {
                values: Vec::new(),
                capacity,
                head: 0,
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.values.len()
        }

        pub(crate) fn is_full(&self) -> bool {
            self.values.len() == self.capacity
        }

        pub(crate) fn push(&mut self, value: f64) {
            if self.values.len() < self.capacity {
                self.values.push(value);
            } else {
                self.values[self.head] = value;
                self.head = (self.head + 1) % self.capacity;
            }
        }

        pub(crate) fn clear(&mut self) {
            self.values.clear();
            self.head = 0;
        }

        fn sorted(&self) -> Option<Vec<f64>> {
            if self.values.is_empty() {
                return None;
            }
            let mut sorted = self.values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            Some(sorted)
        }

        fn interpolate(sorted: &[f64], q: f64) -> f64 {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }

        pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
            Some(Self::interpolate(&self.sorted()?, q))
        }

        pub(crate) fn tukey_fences(&self, k: f64) -> Option<(f64, f64)> {
            let sorted = self.sorted()?;
            let q1 = Self::interpolate(&sorted, 0.25);
            let q3 = Self::interpolate(&sorted, 0.75);
            let iqr = q3 - q1;
            if iqr <= 0.0 {
                return None;
            }
            Some((q1 - k * iqr, q3 + k * iqr))
        }

        pub(crate) fn fenced_trim_cuts(&self, k: f64, pct: f64) -> Option<(f64, f64)> {
            let sorted = self.sorted()?;
            let q1 = Self::interpolate(&sorted, 0.25);
            let q3 = Self::interpolate(&sorted, 0.75);
            let iqr = q3 - q1;
            let inliers = if iqr > 0.0 {
                let lo = q1 - k * iqr;
                let hi = q3 + k * iqr;
                let start = sorted.partition_point(|&v| v < lo);
                let end = sorted.partition_point(|&v| v <= hi);
                &sorted[start..end]
            } else {
                &sorted[..]
            };
            Some((
                Self::interpolate(inliers, pct),
                Self::interpolate(inliers, 1.0 - pct),
            ))
        }
    }

    /// Samples chosen to break an inexact mirror: duplicates, both zeros
    /// (`-0.0 == 0.0` but `total_cmp` orders them), infinities, subnormals
    /// and NaNs of both signs.
    pub(crate) const TRICKY: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.25,
        0.5,
        0.75,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        1e300,
        f64::NAN,
        -f64::NAN,
    ];

    /// Bit-for-bit equality, except that any NaN equals any NaN: which
    /// operand's payload an arithmetic NaN inherits is not specified, and
    /// no comparison downstream can tell payloads apart.
    pub(crate) fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// [`same_bits`] over an optional pair (fences, cuts).
    pub(crate) fn same_pair(a: Option<(f64, f64)>, b: Option<(f64, f64)>) -> bool {
        match (a, b) {
            (Some((a0, a1)), Some((b0, b1))) => same_bits(a0, b0) && same_bits(a1, b1),
            (None, None) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{same_bits, same_pair, SortingWindow, TRICKY};
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = BitWindow::new(0);
    }

    #[test]
    fn push_and_count_before_wrap() {
        let mut w = BitWindow::new(8);
        assert!(w.is_empty());
        assert_eq!(w.fraction(), None);
        w.push(true);
        w.push(false);
        w.push(true);
        assert_eq!(w.len(), 3);
        assert_eq!(w.ones(), 2);
        assert!((w.fraction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_evicts_oldest() {
        let mut w = BitWindow::new(3);
        w.push(true);
        w.push(true);
        w.push(false);
        assert!(w.is_full());
        assert_eq!(w.ones(), 2);
        w.push(false); // evicts the first `true`
        assert_eq!(w.len(), 3);
        assert_eq!(w.ones(), 1);
        w.push(false); // evicts the second `true`
        assert_eq!(w.ones(), 0);
        w.push(true); // evicts a `false`
        assert_eq!(w.ones(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut w = BitWindow::new(4);
        w.push(true);
        w.push(true);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.ones(), 0);
        assert_eq!(w.fraction(), None);
        w.push(false);
        assert_eq!(w.fraction(), Some(0.0));
    }

    #[test]
    fn paper_footprint_10k_samples() {
        // §5.3.4: 10⁴ bits ≈ 1.25 kB.
        let w = BitWindow::new(10_000);
        assert_eq!(w.size_bytes(), 10_000usize.div_ceil(64) * 8);
        assert!(w.size_bytes() <= 1256, "10k bits must fit in ~1.25 kB");
    }

    #[test]
    fn capacity_not_multiple_of_64() {
        let mut w = BitWindow::new(65);
        for i in 0..130 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.len(), 65);
        // Alternating bits: ceil or floor of half.
        assert!(w.ones() == 32 || w.ones() == 33);
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let mut w = BitWindow::new(100);
        for i in 0..137 {
            w.push(i % 3 != 0);
        }
        let json = serde_json::to_string(&w).unwrap();
        let parsed: BitWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, w);
        // And an unwrapped window too.
        let mut small = BitWindow::new(70);
        small.push(true);
        small.push(false);
        let parsed: BitWindow =
            serde_json::from_str(&serde_json::to_string(&small).unwrap()).unwrap();
        assert_eq!(parsed, small);
    }

    #[test]
    fn deserialize_rejects_inconsistent_state() {
        // A valid 8-bit window with 2 stored bits (both set) for reference:
        // {"words":[3],"capacity":8,"len":2,"head":2,"ones":2}
        let cases = [
            // ones > len
            (
                r#"{"words":[3],"capacity":8,"len":1,"head":1,"ones":2}"#,
                "exceeds len",
            ),
            // len > capacity
            (
                r#"{"words":[3],"capacity":8,"len":9,"head":0,"ones":2}"#,
                "exceeds capacity",
            ),
            // zero capacity
            (
                r#"{"words":[],"capacity":0,"len":0,"head":0,"ones":0}"#,
                "at least 1",
            ),
            // wrong word-vector length
            (
                r#"{"words":[3,0],"capacity":8,"len":2,"head":2,"ones":2}"#,
                "words",
            ),
            // head out of range
            (
                r#"{"words":[3],"capacity":8,"len":8,"head":8,"ones":2}"#,
                "head",
            ),
            // head disagrees with an unwrapped len
            (
                r#"{"words":[3],"capacity":8,"len":2,"head":5,"ones":2}"#,
                "inconsistent",
            ),
            // running count disagrees with the stored bits
            (
                r#"{"words":[7],"capacity":8,"len":4,"head":4,"ones":2}"#,
                "disagrees",
            ),
            // a set bit in a dead slot (len 2 but bit 2 set; popcount agrees)
            (
                r#"{"words":[5],"capacity":8,"len":2,"head":2,"ones":2}"#,
                "dead slot",
            ),
            // a set bit beyond capacity inside the last word
            (
                r#"{"words":[256],"capacity":8,"len":8,"head":0,"ones":1}"#,
                "beyond capacity",
            ),
        ];
        for (json, needle) in cases {
            let err = serde_json::from_str::<BitWindow>(json)
                .expect_err(&format!("must reject {json}"))
                .to_string();
            assert!(
                err.contains(needle),
                "error for {json} should mention `{needle}`, got: {err}"
            );
        }
        // The reference state itself parses.
        let ok: BitWindow =
            serde_json::from_str(r#"{"words":[3],"capacity":8,"len":2,"head":2,"ones":2}"#)
                .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.ones(), 2);
    }

    #[test]
    fn value_window_fifo_and_quantiles() {
        let mut w = ValueWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert!(w.is_full());
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(1.0), Some(4.0));
        assert_eq!(w.quantile(0.5), Some(2.5));
        // Pushing evicts the oldest: window becomes {2, 3, 4, 10}.
        w.push(10.0);
        assert_eq!(w.quantile(1.0), Some(10.0));
        assert_eq!(w.quantile(0.0), Some(2.0));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 4);
    }

    #[test]
    fn value_window_serde_roundtrip_preserves_every_answer() {
        // Unfilled, exactly full, and wrapped with the head mid-ring.
        for pushes in [0usize, 5, 8, 21] {
            let mut w = ValueWindow::new(8);
            for i in 0..pushes {
                w.push(((i * 37) % 11) as f64 * 0.25 - 1.0);
            }
            let json = serde_json::to_string(&w).unwrap();
            assert!(
                json.starts_with(r#"{"values":["#) && !json.contains("sorted"),
                "wire form is values/capacity/head only: {json}"
            );
            let mut parsed: ValueWindow = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, w);
            assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
            // The rebuilt mirror answers bit-for-bit, now and after more
            // pushes (eviction must find its samples in the rebuilt mirror).
            for step in 0..12 {
                for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                    assert_eq!(
                        parsed.quantile(q).map(f64::to_bits),
                        w.quantile(q).map(f64::to_bits)
                    );
                }
                assert!(same_pair(parsed.tukey_fences(1.5), w.tukey_fences(1.5)));
                assert!(same_pair(
                    parsed.fenced_trim_cuts(1.5, 0.1),
                    w.fenced_trim_cuts(1.5, 0.1)
                ));
                parsed.push(step as f64 * 0.3);
                w.push(step as f64 * 0.3);
            }
        }
    }

    #[test]
    fn value_window_deserialize_rejects_unreachable_state() {
        let cases = [
            // zero capacity: the next push would index an empty ring
            (r#"{"values":[],"capacity":0,"head":0}"#, "at least 1"),
            // more samples than the ring holds
            (
                r#"{"values":[1.0,2.0,3.0],"capacity":2,"head":0}"#,
                "exceed capacity",
            ),
            // head outside the ring
            (
                r#"{"values":[1.0,2.0],"capacity":2,"head":2}"#,
                "out of range",
            ),
            // the head moves only once the window has filled
            (r#"{"values":[1.0],"capacity":4,"head":1}"#, "inconsistent"),
            // wrong shapes
            (r#"{"values":[1.0],"capacity":4}"#, "head"),
            (r#"{"values":"x","capacity":4,"head":0}"#, "values"),
            (r#"[1.0, 2.0]"#, "expected map"),
        ];
        for (json, needle) in cases {
            let err = serde_json::from_str::<ValueWindow>(json)
                .expect_err(&format!("must reject {json}"))
                .to_string();
            assert!(
                err.contains(needle),
                "error for {json} should mention `{needle}`, got: {err}"
            );
        }
        // Reachable states parse: a full window with the head mid-ring.
        let mut ok: ValueWindow =
            serde_json::from_str(r#"{"values":[4.0,2.0,3.0],"capacity":3,"head":1}"#).unwrap();
        assert_eq!(ok.quantile(0.5), Some(3.0));
        ok.push(9.0); // evicts the 2.0 the head points at
        assert_eq!(ok.quantile(0.0), Some(3.0));
        assert_eq!(ok.quantile(1.0), Some(9.0));
    }

    #[test]
    fn value_window_tukey_fences() {
        let mut w = ValueWindow::new(8);
        assert_eq!(w.tukey_fences(1.5), None, "empty window has no fences");
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
            w.push(v);
        }
        // q1 = 2.75, q3 = 6.25, IQR = 3.5.
        let (lo, hi) = w.tukey_fences(1.5).unwrap();
        assert!((lo - (2.75 - 5.25)).abs() < 1e-12);
        assert!((hi - (6.25 + 5.25)).abs() < 1e-12);
        // Degenerate stream: all equal → no spread → no fences.
        let mut flat = ValueWindow::new(8);
        for _ in 0..8 {
            flat.push(5.0);
        }
        assert_eq!(flat.tukey_fences(1.5), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn value_window_zero_capacity_panics() {
        let _ = ValueWindow::new(0);
    }

    #[test]
    fn fenced_trim_cuts_ignore_fence_margin_pollution() {
        // 60 honest samples spread over (0, 1) plus 4 poison samples parked
        // just inside a generous admission fence. Naive whole-window cuts
        // drift upward with the poison; fence-sanitized cuts must not.
        let mut clean = ValueWindow::new(64);
        let mut polluted = ValueWindow::new(64);
        for i in 0..60 {
            let v = (i as f64 + 0.5) / 60.0;
            clean.push(v);
            polluted.push(v);
        }
        for _ in 0..4 {
            polluted.push(2.25);
        }
        let (clean_lo, clean_hi) = clean.fenced_trim_cuts(1.5, 0.1).unwrap();
        let (lo, hi) = polluted.fenced_trim_cuts(1.5, 0.1).unwrap();
        assert!(
            (lo - clean_lo).abs() < 0.02 && (hi - clean_hi).abs() < 0.02,
            "sanitized cuts ({lo:.3}, {hi:.3}) drifted from clean ({clean_lo:.3}, {clean_hi:.3})"
        );
        assert!(hi < 1.0, "upper cut must stay below the poison level");
        // The naive whole-window cut, by contrast, is dragged upward by the
        // four poison samples sitting at the top of the order: quantile 0.9
        // of the polluted window lands ~0.06 above the clean cut.
        assert!(polluted.quantile(0.9).unwrap() > clean_hi + 0.04);
    }

    #[test]
    fn fenced_trim_cuts_degenerate_cases() {
        let empty = ValueWindow::new(8);
        assert_eq!(empty.fenced_trim_cuts(1.5, 0.1), None);
        // Zero spread → fences undefined → whole-window fallback.
        let mut flat = ValueWindow::new(8);
        for _ in 0..8 {
            flat.push(5.0);
        }
        assert_eq!(flat.fenced_trim_cuts(1.5, 0.1), Some((5.0, 5.0)));
        // A single sample is its own cut on both sides.
        let mut one = ValueWindow::new(8);
        one.push(3.0);
        assert_eq!(one.fenced_trim_cuts(1.5, 0.1), Some((3.0, 3.0)));
    }

    proptest! {
        #[test]
        fn matches_reference_deque(
            cap in 1usize..200,
            bits in proptest::collection::vec(any::<bool>(), 0..500),
        ) {
            let mut w = BitWindow::new(cap);
            let mut reference: VecDeque<bool> = VecDeque::new();
            for b in bits {
                w.push(b);
                reference.push_back(b);
                if reference.len() > cap {
                    reference.pop_front();
                }
                prop_assert_eq!(w.len(), reference.len());
                let expect_ones = reference.iter().filter(|&&x| x).count();
                prop_assert_eq!(w.ones(), expect_ones);
            }
        }

        #[test]
        fn deserialized_windows_always_came_from_valid_pushes(
            cap in 1usize..100,
            bits in proptest::collection::vec(any::<bool>(), 0..300),
        ) {
            // Serialize any reachable state; deserialization must accept it
            // bit-for-bit (the validator rejects only unreachable states).
            let mut w = BitWindow::new(cap);
            for b in bits {
                w.push(b);
            }
            let parsed: BitWindow =
                serde_json::from_str(&serde_json::to_string(&w).unwrap()).unwrap();
            prop_assert_eq!(parsed, w);
        }

        #[test]
        fn value_window_quantiles_match_sorted_suffix(
            cap in 1usize..50,
            samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
        ) {
            let mut w = ValueWindow::new(cap);
            for &s in &samples {
                w.push(s);
            }
            let mut tail: Vec<f64> =
                samples.iter().rev().take(cap).copied().collect();
            tail.sort_unstable_by(f64::total_cmp);
            prop_assert_eq!(w.len(), tail.len());
            prop_assert_eq!(w.quantile(0.0), Some(tail[0]));
            prop_assert_eq!(w.quantile(1.0), Some(*tail.last().unwrap()));
            if let Some((lo, hi)) = w.tukey_fences(3.0) {
                prop_assert!(lo < hi);
                // Fences bracket the interquartile range.
                prop_assert!(lo <= w.quantile(0.25).unwrap());
                prop_assert!(hi >= w.quantile(0.75).unwrap());
            }
        }

        #[test]
        fn value_window_matches_the_sorting_reference_bit_for_bit(
            cap in 1usize..=64,
            ops in proptest::collection::vec(
                (0u32..40, 0usize..TRICKY.len() + 8, -2.0f64..2.0, 0.0f64..1.0),
                1..300,
            ),
            k in 0.5f64..4.0,
            pct in 0.0f64..0.5,
        ) {
            let mut window = ValueWindow::new(cap);
            let mut reference = SortingWindow::new(cap);
            for (op, pick, drawn, q) in ops {
                if op == 0 {
                    window.clear();
                    reference.clear();
                } else {
                    // Mostly pool values, so twins and specials are common.
                    let value = TRICKY.get(pick).copied().unwrap_or(drawn);
                    window.push(value);
                    reference.push(value);
                }
                prop_assert_eq!(window.len(), reference.len());
                prop_assert_eq!(window.is_full(), reference.is_full());
                for q in [q, 0.0, 0.25, 0.75, 1.0] {
                    match (window.quantile(q), reference.quantile(q)) {
                        (Some(a), Some(b)) => prop_assert!(
                            same_bits(a, b),
                            "quantile({q}): {a:?} vs reference {b:?}"
                        ),
                        (a, b) => prop_assert_eq!(a, b),
                    }
                }
                let (a, b) = (window.tukey_fences(k), reference.tukey_fences(k));
                prop_assert!(same_pair(a, b), "tukey_fences({k}): {a:?} vs {b:?}");
                let (a, b) = (
                    window.fenced_trim_cuts(k, pct),
                    reference.fenced_trim_cuts(k, pct),
                );
                prop_assert!(same_pair(a, b), "fenced_trim_cuts({k}, {pct}): {a:?} vs {b:?}");
            }
        }

        #[test]
        fn fenced_trim_cuts_always_defined_and_ordered(
            cap in 1usize..50,
            samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
            k in 0.5f64..4.0,
            pct in 0.0f64..0.25,
        ) {
            // The IQR box lies inside its own fences, so the sanitized
            // subset is never empty and the cuts are always defined and
            // ordered, whatever the stream looks like.
            let mut w = ValueWindow::new(cap);
            for &s in &samples {
                w.push(s);
            }
            let (lo, hi) = w.fenced_trim_cuts(k, pct).unwrap();
            prop_assert!(lo <= hi);
            // Cuts never leave the window's own range.
            prop_assert!(lo >= w.quantile(0.0).unwrap());
            prop_assert!(hi <= w.quantile(1.0).unwrap());
        }
    }
}
