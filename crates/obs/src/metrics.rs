//! Counters, histograms, and span timing — live and `obs-off` variants.
//!
//! The two implementations live in sibling modules with identical public
//! APIs; the feature flag selects which one is exported. Keeping them as
//! whole-module mirrors (rather than `cfg` on every field) makes the
//! no-op variant trivially auditable: every method body is empty.

/// Number of log2 buckets in a [`LogHist`].
///
/// Bucket 0 holds the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`; the last bucket additionally absorbs everything
/// larger. 32 buckets cover `[0, 2^31)` exactly, which is plenty for
/// nanosecond spans up to ~2 s and for any queue-occupancy count.
pub const HIST_BUCKETS: usize = 32;

/// Inclusive lower bound of histogram bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Bucket index for a recorded value (shared by both variants so the
/// mapping is defined even when recording compiles out).
#[inline(always)]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

#[cfg(not(feature = "obs-off"))]
mod live {
    use super::{bucket_index, HIST_BUCKETS};
    use std::time::Instant;

    /// Single-owner monotonic event counter.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Counter {
        value: u64,
    }

    impl Counter {
        /// A counter at zero.
        pub const fn new() -> Self {
            Counter { value: 0 }
        }

        /// Count one event.
        #[inline(always)]
        pub fn inc(&mut self) {
            self.value += 1;
        }

        /// Count `n` events at once.
        #[inline(always)]
        pub fn add(&mut self, n: u64) {
            self.value += n;
        }

        /// Current count (0 forever under `obs-off`).
        #[inline]
        pub fn get(&self) -> u64 {
            self.value
        }

        /// Reset to zero (campaign boundaries).
        #[inline]
        pub fn reset(&mut self) {
            self.value = 0;
        }
    }

    /// Fixed-layout log2 histogram ([`HIST_BUCKETS`] buckets), plus
    /// exact count / total / max of the recorded values.
    #[derive(Debug, Clone)]
    pub struct LogHist {
        buckets: [u64; HIST_BUCKETS],
        count: u64,
        total: u64,
        max: u64,
    }

    impl Default for LogHist {
        fn default() -> Self {
            Self::new()
        }
    }

    impl LogHist {
        /// An empty histogram.
        pub const fn new() -> Self {
            LogHist { buckets: [0; HIST_BUCKETS], count: 0, total: 0, max: 0 }
        }

        /// Record one value.
        #[inline(always)]
        pub fn record(&mut self, v: u64) {
            self.buckets[bucket_index(v)] += 1;
            self.count += 1;
            self.total += v;
            if v > self.max {
                self.max = v;
            }
        }

        /// Number of recorded values.
        #[inline]
        pub fn count(&self) -> u64 {
            self.count
        }

        /// Exact sum of recorded values.
        #[inline]
        pub fn total(&self) -> u64 {
            self.total
        }

        /// Largest recorded value.
        #[inline]
        pub fn max(&self) -> u64 {
            self.max
        }

        /// Mean of the recorded values (0.0 when empty).
        pub fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.total as f64 / self.count as f64
            }
        }

        /// Bucket occupancies, by value (all zero under `obs-off`).
        pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
            self.buckets
        }

        /// Fold another histogram in (exact: buckets align by layout).
        pub fn merge(&mut self, other: &LogHist) {
            for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *b += o;
            }
            self.count += other.count;
            self.total += other.total;
            self.max = self.max.max(other.max);
        }
    }

    /// Accumulated wall time (monotonic clock) of a named code region.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Stopwatch {
        ns: u64,
    }

    impl Stopwatch {
        /// A stopwatch with nothing accumulated.
        pub const fn new() -> Self {
            Stopwatch { ns: 0 }
        }

        /// Add raw nanoseconds (e.g. from a detached [`Timer`]).
        #[inline(always)]
        pub fn add_ns(&mut self, ns: u64) {
            self.ns += ns;
        }

        /// Accumulated nanoseconds (0 forever under `obs-off`).
        #[inline]
        pub fn ns(&self) -> u64 {
            self.ns
        }

        /// Enter a span: the returned guard adds its elapsed time to the
        /// stopwatch on drop.
        #[inline]
        pub fn span(&mut self) -> Span<'_> {
            Span { sw: self, timer: Timer::start() }
        }

        /// Run `f` inside a span of this stopwatch.
        #[inline]
        pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
            let _span = self.span();
            f()
        }
    }

    /// RAII span guard; see [`Stopwatch::span`].
    #[derive(Debug)]
    pub struct Span<'a> {
        sw: &'a mut Stopwatch,
        timer: Timer,
    }

    impl Drop for Span<'_> {
        fn drop(&mut self) {
            self.sw.add_ns(self.timer.elapsed_ns());
        }
    }

    /// One-shot monotonic timer.
    #[derive(Debug, Clone, Copy)]
    pub struct Timer {
        start: Instant,
    }

    impl Timer {
        /// Start timing now.
        #[inline]
        pub fn start() -> Self {
            Timer { start: Instant::now() }
        }

        /// Nanoseconds since [`Timer::start`], saturated to `u64`
        /// (0 forever under `obs-off`).
        #[inline]
        pub fn elapsed_ns(&self) -> u64 {
            let nanos = self.start.elapsed().as_nanos();
            u64::try_from(nanos).unwrap_or(u64::MAX)
        }
    }
}

#[cfg(feature = "obs-off")]
mod off {
    use super::HIST_BUCKETS;
    use core::marker::PhantomData;

    /// No-op [`Counter`](super::live) mirror (`obs-off`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Counter;

    impl Counter {
        pub const fn new() -> Self {
            Counter
        }
        #[inline(always)]
        pub fn inc(&mut self) {}
        #[inline(always)]
        pub fn add(&mut self, _n: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn reset(&mut self) {}
    }

    /// No-op `LogHist` mirror (`obs-off`).
    #[derive(Debug, Clone, Default)]
    pub struct LogHist;

    impl LogHist {
        pub const fn new() -> Self {
            LogHist
        }
        #[inline(always)]
        pub fn record(&mut self, _v: u64) {}
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn total(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn max(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn mean(&self) -> f64 {
            0.0
        }
        #[inline(always)]
        pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
            [0; HIST_BUCKETS]
        }
        #[inline(always)]
        pub fn merge(&mut self, _other: &LogHist) {}
    }

    /// No-op `Stopwatch` mirror (`obs-off`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Stopwatch;

    impl Stopwatch {
        pub const fn new() -> Self {
            Stopwatch
        }
        #[inline(always)]
        pub fn add_ns(&mut self, _ns: u64) {}
        #[inline(always)]
        pub fn ns(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn span(&mut self) -> Span<'_> {
            Span { _sw: PhantomData }
        }
        #[inline(always)]
        pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
            f()
        }
    }

    /// No-op `Span` mirror (`obs-off`).
    #[derive(Debug)]
    pub struct Span<'a> {
        _sw: PhantomData<&'a mut Stopwatch>,
    }

    /// No-op `Timer` mirror (`obs-off`).
    #[derive(Debug, Clone, Copy)]
    pub struct Timer;

    impl Timer {
        #[inline(always)]
        pub fn start() -> Self {
            Timer
        }
        #[inline(always)]
        pub fn elapsed_ns(&self) -> u64 {
            0
        }
    }
}

#[cfg(not(feature = "obs-off"))]
pub use live::{Counter, LogHist, Span, Stopwatch, Timer};
#[cfg(feature = "obs-off")]
pub use off::{Counter, LogHist, Span, Stopwatch, Timer};

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.inc();
        c.add(40);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn hist_bucket_boundaries() {
        // 0 -> bucket 0; 1 -> bucket 1; [2,4) -> bucket 2; ...
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(11), 1024);
    }

    #[test]
    fn hist_records_and_merges() {
        let mut a = LogHist::new();
        a.record(0);
        a.record(3);
        a.record(1024);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), 1027);
        assert_eq!(a.max(), 1024);
        let b = a.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[2], 1);
        assert_eq!(b[11], 1);

        let mut m = LogHist::new();
        m.record(3);
        m.merge(&a);
        assert_eq!(m.count(), 4);
        assert_eq!(m.total(), 1030);
        assert_eq!(m.buckets()[2], 2);
        assert!((a.mean() - 1027.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stopwatch_spans_accumulate() {
        let mut sw = Stopwatch::new();
        sw.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        {
            let _g = sw.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Two ~2 ms sleeps: at least 4 ms accumulated.
        assert!(sw.ns() >= 4_000_000, "accumulated only {} ns", sw.ns());
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.elapsed_ns() >= 1_000_000);
    }
}
