//! Statistics primitives used by the metrics layer.
//!
//! The evaluation section of the paper reports aggregate counters (traffic
//! breakdowns, log high-water marks) and a handful of distributions. This
//! module provides the small set of accumulators those reports are built
//! from: [`Counter`], [`Running`] (mean/min/max), and a power-of-two bucketed
//! [`Histogram`].

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

/// Running summary statistics: count, sum, mean, min, max.
///
/// # Example
///
/// ```
/// use revive_sim::stats::Running;
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 6.0] { r.record(x); }
/// assert_eq!(r.count(), 3);
/// assert_eq!(r.mean(), 4.0);
/// assert_eq!(r.min(), 2.0);
/// assert_eq!(r.max(), 6.0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Running {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Running {
        Running {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; zero when no samples have been recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl fmt::Display for Running {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

/// A histogram with power-of-two buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` (bucket 0 holds the value 0).
///
/// # Example
///
/// ```
/// use revive_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5); // falls in [4, 8) => bucket 3
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.bucket_count(3), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(x: u64) -> usize {
        if x == 0 {
            0
        } else {
            (64 - x.leading_zeros()) as usize
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

    /// The raw bucket counts (index `i` covers `[2^(i-1), 2^i)`; index 0 is
    /// the value 0). Exposed for report serialization.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The smallest value `v` such that at least `q` (in `[0,1]`) of the
    /// samples are `<= v`, reported at bucket-boundary granularity.
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
        let upper = |i: usize| -> u64 {
            if i == 0 {
                0
            } else if i >= 64 {
                u64::MAX // the top bucket's bound saturates
            } else {
                (1u64 << i) - 1
            }
        };
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper(i);
            }
        }
        upper(self.buckets.len())
    }

    /// The p99.9 upper bound — see [`Histogram::quantile_upper_bound`] for
    /// the granularity caveat: with power-of-two buckets, tail quantiles a
    /// factor <2 apart collapse onto the same bucket boundary. SLO-grade
    /// tails should use [`TailHistogram`].
    pub fn p999(&self) -> u64 {
        self.quantile_upper_bound(0.999)
    }

    /// The p99.99 upper bound (same granularity caveat as [`Histogram::p999`]).
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

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist(n={})", self.total)?;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                write!(f, " [{lo}..):{c}")?;
            }
        }
        Ok(())
    }
}

/// Sub-bucket resolution of [`TailHistogram`]: each power-of-two octave is
/// split into this many linear sub-buckets, bounding the relative error of
/// any quantile to `1/TAIL_SUB_BUCKETS` (6.25%) instead of the factor-of-two
/// granularity of [`Histogram`].
pub const TAIL_SUB_BUCKETS: u64 = 16;

/// A log-linear (HDR-style) histogram for SLO-grade tail quantiles.
///
/// [`Histogram`]'s power-of-two buckets are fine for traffic breakdowns but
/// collapse p99/p99.9/p99.99 of a latency distribution into one bucket
/// whenever the tail spans less than a factor of two — which request
/// latencies routinely do. Here values below 2·[`TAIL_SUB_BUCKETS`] are
/// exact and every octave `[2^k, 2^(k+1))` above that is split into
/// [`TAIL_SUB_BUCKETS`] linear sub-buckets, so adjacent tail quantiles stay
/// distinguishable at ≤ 6.25% relative error across the full `u64` range.
///
/// # Example
///
/// ```
/// use revive_sim::stats::TailHistogram;
/// let mut h = TailHistogram::new();
/// for x in [100u64, 200, 400, 800] { h.record(x); }
/// assert_eq!(h.total(), 4);
/// assert!(h.quantile_upper_bound(0.5) < h.quantile_upper_bound(1.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TailHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl TailHistogram {
    /// Creates an empty histogram.
    pub fn new() -> TailHistogram {
        TailHistogram::default()
    }

    /// log2(TAIL_SUB_BUCKETS).
    const SUB_SHIFT: u32 = TAIL_SUB_BUCKETS.trailing_zeros();

    fn bucket_of(x: u64) -> usize {
        if x < 2 * TAIL_SUB_BUCKETS {
            return x as usize;
        }
        // 2^k <= x < 2^(k+1) with k > SUB_SHIFT: shift x down so the
        // mantissa lands in [SUB, 2·SUB), giving SUB linear sub-buckets per
        // octave, contiguous with the exact range below.
        let k = 63 - x.leading_zeros();
        let shift = k - Self::SUB_SHIFT;
        (((shift as u64) << Self::SUB_SHIFT) + (x >> shift)) as usize
    }

    /// The inclusive upper bound of bucket `i` (saturating at `u64::MAX`
    /// for the topmost octaves).
    fn bucket_upper_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * TAIL_SUB_BUCKETS {
            return i;
        }
        // Inverse of `bucket_of`: index = (shift << SUB_SHIFT) + mantissa
        // with mantissa in [SUB, 2·SUB), so index >> SUB_SHIFT = shift + 1.
        let shift = (i >> Self::SUB_SHIFT) - 1;
        let mantissa = (i & (TAIL_SUB_BUCKETS - 1)) + TAIL_SUB_BUCKETS;
        let hi = (mantissa as u128 + 1) << shift;
        u128::min(hi - 1, u64::MAX as u128) as u64
    }

    /// Records one sample. Counts saturate at `u64::MAX`.
    pub fn record(&mut self, x: u64) {
        let b = Self::bucket_of(x);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.sum = self.sum.saturating_add(x as u128);
        self.max = self.max.max(x);
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of the recorded samples (the sum is kept
    /// alongside the buckets); zero when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The exact largest sample recorded; zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The smallest bucket bound `v` such that at least `q` (in `[0,1]`) of
    /// the samples are `<= v` — same exact-rank arithmetic as
    /// [`Histogram::quantile_upper_bound`], at log-linear resolution.
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

impl fmt::Display for TailHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tail(n={} p50={} p99={} p999={} max={})",
            self.total,
            self.p50(),
            self.p99(),
            self.p999(),
            self.max
        )
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
    fn running_empty_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
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
    fn tail_histogram_mean_and_max() {
        let mut a = TailHistogram::new();
        a.record(100);
        a.record(300);
        a.record(200);
        assert_eq!(a.total(), 3);
        assert_eq!(a.mean(), 200.0);
        assert_eq!(a.max(), 300);
        assert_eq!(TailHistogram::new().quantile_upper_bound(0.5), 0);
        assert_eq!(TailHistogram::new().mean(), 0.0);
    }

    #[test]
    fn tail_histogram_top_bucket_saturates() {
        let mut h = TailHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile_upper_bound(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }
}
