//! Statistics primitives used by the metrics layer.
//!
//! The evaluation section of the paper reports aggregate counters (traffic
//! breakdowns, log high-water marks) and a handful of distributions. This
//! module provides the small set of accumulators those reports are built
//! from: [`Counter`] and the log-bucketed [`LogHistogram`].

use std::fmt;

/// A simple monotonically increasing event/byte counter.
///
/// # Example
///
/// ```
/// use revive_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds `n` to the counter. Saturates at `u64::MAX` so very long runs
    /// degrade to a pinned counter instead of a panic or a wrap.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log-bucketed histogram: values below `2·SUB` are exact, and every
/// power-of-two octave `[2^k, 2^(k+1))` above that is split into `SUB`
/// linear sub-buckets, so a quantile's relative error is at most `1/SUB`.
///
/// Two resolutions are in use. [`Histogram`] (`SUB = 1`) has one bucket
/// per octave — bucket `i` holds `[2^(i-1), 2^i)`, bucket 0 the value 0 —
/// which is enough for traffic breakdowns. [`TailHistogram`]
/// (`SUB = `[`TAIL_SUB_BUCKETS`]) keeps SLO-grade tails apart: one-bucket
/// octaves collapse p99/p99.9/p99.99 whenever the tail spans less than a
/// factor of two, which request latencies routinely do.
///
/// # Example
///
/// ```
/// use revive_sim::stats::{Histogram, TailHistogram};
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5); // falls in [4, 8) => bucket 3
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.bucket_count(3), 1);
///
/// let mut t = TailHistogram::new();
/// for x in [100u64, 200, 400, 800] { t.record(x); }
/// assert!(t.quantile_upper_bound(0.5) < t.quantile_upper_bound(1.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogHistogram<const SUB: u64> {
    buckets: Vec<u64>,
    total: u64,
}

/// One bucket per power-of-two octave.
pub type Histogram = LogHistogram<1>;

/// Sub-bucket resolution of [`TailHistogram`]: each power-of-two octave is
/// split into this many linear sub-buckets, bounding the relative error of
/// any quantile to `1/TAIL_SUB_BUCKETS` (6.25%).
pub const TAIL_SUB_BUCKETS: u64 = 16;

/// The log-linear (HDR-style) resolution for SLO-grade tail quantiles.
pub type TailHistogram = LogHistogram<TAIL_SUB_BUCKETS>;

impl<const SUB: u64> LogHistogram<SUB> {
    /// log2(SUB); `SUB` must be a power of two.
    const SUB_SHIFT: u32 = {
        assert!(SUB.is_power_of_two(), "SUB must be a power of two");
        SUB.trailing_zeros()
    };

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(x: u64) -> usize {
        if x < 2 * SUB {
            return x as usize;
        }
        // 2^k <= x < 2^(k+1) with k > SUB_SHIFT: shift x down so the
        // mantissa lands in [SUB, 2·SUB), giving SUB linear sub-buckets per
        // octave, contiguous with the exact range below. The index is
        // (shift << SUB_SHIFT) + mantissa, written with the mantissa's top
        // bit as the `+ 1` so that for `SUB = 1` it is just `k + 1`.
        let k = 63 - x.leading_zeros();
        let shift = k - Self::SUB_SHIFT;
        (((shift as u64 + 1) << Self::SUB_SHIFT) + ((x >> shift) & (SUB - 1))) as usize
    }

    /// The inclusive upper bound of bucket `i` (saturating at `u64::MAX`
    /// for the topmost octaves).
    fn bucket_upper_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i;
        }
        // Inverse of `bucket_of`: index = (shift << SUB_SHIFT) + mantissa
        // with mantissa in [SUB, 2·SUB), so index >> SUB_SHIFT = shift + 1.
        let shift = (i >> Self::SUB_SHIFT) - 1;
        let mantissa = (i & (SUB - 1)) + SUB;
        let hi = (mantissa as u128 + 1) << shift;
        u128::min(hi - 1, u64::MAX as u128) as u64
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => Self::bucket_upper_bound(i - 1) + 1,
        }
    }

    /// Records one sample. Bucket and total counts saturate at `u64::MAX`.
    pub fn record(&mut self, x: u64) {
        let b = Self::bucket_of(x);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of samples in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// The raw bucket counts, indexed like [`LogHistogram::bucket_lower_bound`].
    /// Exposed for report serialization.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The smallest bucket bound `v` such that at least `q` (in `[0,1]`) of
    /// the samples are `<= v`, reported at bucket-boundary granularity.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.total == 0 {
            return 0;
        }
        let target = quantile_target(self.total, q);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(self.buckets.len().saturating_sub(1))
    }

    /// The median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.5)
    }

    /// The p90 upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile_upper_bound(0.9)
    }

    /// The p99 upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    /// The p99.9 upper bound.
    pub fn p999(&self) -> u64 {
        self.quantile_upper_bound(0.999)
    }

    /// The p99.99 upper bound.
    pub fn p9999(&self) -> u64 {
        self.quantile_upper_bound(0.9999)
    }
}

/// `ceil(q · total)` computed in integer arithmetic.
///
/// The float expression `(q * total as f64).ceil() as u64` goes wrong once
/// `total` exceeds 2^53: the product rounds before the ceiling is taken, so
/// the rank can land a whole bucket early or late. Every `f64` is a binary
/// rational `m · 2^e`, so the product `total · m · 2^e` is instead formed
/// exactly in 128 bits and ceiling-shifted.
///
/// One subtlety: `q` itself is quantized. A caller writing `0.9` gets the
/// f64 `0.9 + 2.2e-17`, and a blind exact ceiling of `(0.9 + 2.2e-17) · 10`
/// would answer 10 where rank 9 was meant. The fractional part is therefore
/// snapped down when it is within `q`'s own quantization error
/// (`total · ulp(q)/2`) of the integer below — never more than half a unit,
/// so genuine fractions like `0.5 · 7` still round up.
fn quantile_target(total: u64, q: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&q));
    let bits = q.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let mantissa = bits & ((1u64 << 52) - 1);
    // q == m · 2^e exactly (subnormals have no implicit leading bit).
    let (m, e) = if exp == 0 {
        (mantissa, -1074i64)
    } else {
        (mantissa | (1u64 << 52), exp - 1075)
    };
    if m == 0 {
        return 0;
    }
    // q <= 1.0 means e <= -52 < 0, so the scale is always a right-shift.
    let shift = (-e) as u32;
    let prod = total as u128 * m as u128; // < 2^117
    if shift >= 117 {
        // 2^shift exceeds any possible product: ceil is 1 for q > 0.
        return 1;
    }
    let floor = (prod >> shift) as u64;
    let frac = prod & ((1u128 << shift) - 1);
    // total · ulp(q)/2 in `frac` units is total/2, capped below a genuine
    // half so quantization slack never absorbs a true `.5`.
    let window = (total as u128 / 2).min((1u128 << (shift - 1)) - 1);
    if frac > window {
        floor + 1
    } else {
        floor
    }
}

impl<const SUB: u64> fmt::Display for LogHistogram<SUB> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist(n={})", self.total)?;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                write!(f, " [{}..):{c}", Self::bucket_lower_bound(i))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1: [1,2)
        h.record(2); // bucket 2: [2,4)
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2);
        assert_eq!(h.bucket_count(11), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for x in 0..100u64 {
            h.record(x);
        }
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        // Median of 0..100 is within [32..64) => upper bound 63.
        assert_eq!(h.quantile_upper_bound(0.5), 63);
        assert_eq!(h.quantile_upper_bound(1.0), 127);
        assert_eq!(Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantile_target_is_exact_at_the_edges() {
        // q = 0 must ask for rank 0; q = 1 must ask for exactly `total`.
        assert_eq!(quantile_target(100, 0.0), 0);
        assert_eq!(quantile_target(100, 1.0), 100);
        assert_eq!(quantile_target(u64::MAX, 1.0), u64::MAX);
        // Totals at and around 2^53, where `total as f64` stops being
        // exact and the old float path could misrank.
        for total in [
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            (1u64 << 53) + 3,
        ] {
            assert_eq!(quantile_target(total, 1.0), total, "total={total}");
            assert_eq!(quantile_target(total, 0.0), 0, "total={total}");
            // ceil(0.5 · total) without drifting a unit.
            assert_eq!(quantile_target(total, 0.5), total.div_ceil(2));
        }
        // Tiny q never rounds down to rank 0 on a nonzero total.
        assert_eq!(quantile_target(10, f64::MIN_POSITIVE), 1);
        // Agreement with the float path where the float path is safe.
        for total in [1u64, 2, 3, 7, 99, 1000, 1 << 20] {
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
                assert_eq!(
                    quantile_target(total, q),
                    (q * total as f64).ceil() as u64,
                    "total={total} q={q}"
                );
            }
        }
    }

    #[test]
    fn histogram_quantiles_near_2_pow_53_totals() {
        // A histogram whose counts straddle 2^53: the median must land in
        // the second bucket, not be pushed past it by float rounding.
        let mut h = Histogram::new();
        h.buckets.resize(11, 0);
        h.buckets[1] = 1u64 << 53; // values in [1, 2)
        h.buckets[10] = 3; // a tail beyond
        h.total = (1u64 << 53) + 3;
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 1);
        assert_eq!(h.quantile_upper_bound(1.0), 1023);
    }

    #[test]
    fn histogram_top_bucket_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // lands in bucket 64
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
        assert_eq!(h.bucket_count(64), 1);
    }

    #[test]
    fn counters_saturate_at_u64_max() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.add(1); // would overflow; must pin instead
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = Histogram::new();
        h.record(4);
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn tail_histogram_buckets_are_exact_below_the_linear_range() {
        for x in 0..2 * TAIL_SUB_BUCKETS {
            assert_eq!(TailHistogram::bucket_of(x), x as usize);
            assert_eq!(TailHistogram::bucket_upper_bound(x as usize), x);
        }
    }

    #[test]
    fn tail_histogram_bounds_bracket_their_values() {
        // Every recorded value must fall at or below its bucket's reported
        // upper bound, and above the previous bucket's.
        for x in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            4096,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let b = TailHistogram::bucket_of(x);
            let hi = TailHistogram::bucket_upper_bound(b);
            assert!(x <= hi, "x={x} above bound {hi}");
            if b > 0 {
                let prev = TailHistogram::bucket_upper_bound(b - 1);
                assert!(x > prev, "x={x} not above previous bound {prev}");
            }
        }
    }

    #[test]
    fn tail_histogram_relative_error_is_bounded() {
        // Log-linear bucketing promises ≤ 1/TAIL_SUB_BUCKETS relative error.
        for x in [100u64, 999, 52_431, 1_000_000, 123_456_789] {
            let hi = TailHistogram::bucket_upper_bound(TailHistogram::bucket_of(x));
            let err = (hi - x) as f64 / x as f64;
            assert!(
                err <= 1.0 / TAIL_SUB_BUCKETS as f64,
                "x={x} bound={hi} err={err}"
            );
        }
    }

    #[test]
    fn wide_distribution_tail_quantiles_do_not_collapse() {
        // The bucket-resolution guard: a heavy-tailed latency distribution
        // whose body and tail all land inside one power-of-two octave
        // [2^19, 2^20). The coarse histogram puts every sample in a single
        // bucket, so p50 = p99 = p99.9 = p99.99 — the tail "collapses". The
        // log-linear histogram must keep all four strictly apart.
        let mut coarse = Histogram::new();
        let mut tail = TailHistogram::new();
        let strata: [(u64, u64); 4] = [
            (9_899, 530_000), // body: ranks 1..=9899
            (90, 700_000),    // p99 stratum: ranks 9900..=9989
            (9, 850_000),     // p99.9 stratum: ranks 9990..=9998
            (2, 1_040_000),   // p99.99 stratum: ranks 9999..=10000
        ];
        for (n, x) in strata {
            assert!((524_288..1_048_576).contains(&x), "outside the octave");
            for _ in 0..n {
                coarse.record(x);
                tail.record(x);
            }
        }
        // Coarse: one bucket, indistinguishable tail.
        assert_eq!(coarse.quantile_upper_bound(0.5), (1 << 20) - 1);
        assert_eq!(coarse.p999(), coarse.quantile_upper_bound(0.5));
        assert_eq!(coarse.p9999(), coarse.p999());
        // Log-linear: strictly ordered tail quantiles, each bracketing its
        // exact rank value within the promised relative error.
        let got = [tail.p50(), tail.p99(), tail.p999(), tail.p9999()];
        assert!(got.windows(2).all(|w| w[0] < w[1]), "collapsed: {got:?}");
        for (g, want) in got
            .into_iter()
            .zip([530_000u64, 700_000, 850_000, 1_040_000])
        {
            assert!(g >= want, "got={g} want>={want}");
            assert!(
                (g - want) as f64 / want as f64 <= 1.0 / TAIL_SUB_BUCKETS as f64,
                "got={g} want={want}"
            );
        }
    }

    #[test]
    fn one_sub_bucket_is_one_bucket_per_octave() {
        // The reference power-of-two rule: index 0 holds the value 0 and
        // index i covers [2^(i-1), 2^i).
        let index = |x: u64| {
            if x == 0 {
                0
            } else {
                (64 - x.leading_zeros()) as usize
            }
        };
        let upper = |i: usize| match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        };
        let lower = |i: usize| if i == 0 { 0 } else { 1u64 << (i - 1) };
        for i in 0..=64 {
            assert_eq!(Histogram::bucket_upper_bound(i), upper(i), "i={i}");
            assert_eq!(Histogram::bucket_lower_bound(i), lower(i), "i={i}");
        }
        for k in 0..64 {
            let lo = 1u64 << k;
            for x in [lo, lo + 1, lo + lo / 2, lo | (lo - 1)] {
                assert_eq!(Histogram::bucket_of(x), index(x), "x={x}");
            }
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn tail_histogram_top_bucket_saturates() {
        let mut h = TailHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
    }
}
