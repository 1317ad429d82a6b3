//! Zero-cost-when-disabled observability primitives for the glitchmask
//! acquisition stack.
//!
//! The workspace is fully offline, so this crate supplies the small slice
//! of the `tracing`/`metrics` API surface the simulators and campaign
//! drivers actually need, with no dependencies:
//!
//! * [`Counter`] — a plain monotonic event counter for single-owner hot
//!   paths (one writer, reads only at report time).
//! * [`LogHist`] — a fixed-size power-of-two histogram
//!   ([`HIST_BUCKETS`] log2 buckets) for latency/occupancy
//!   distributions; merging is exact, no allocation ever.
//! * [`Stopwatch`] / [`Timer`] / [`Span`] — monotonic-clock span timing
//!   (`Instant`-based), mirroring `span!(..).in_scope(..)`:
//!   `stopwatch.span()` returns a guard that adds its elapsed time on
//!   drop, `stopwatch.time(f)` wraps a closure.
//! * [`Report`] — an ordered `name -> u64` bag that instrumented
//!   components fill via `obs_report`-style hooks and sinks serialize as
//!   a flat JSON object. `Report` is *always* compiled (so sink plumbing
//!   never needs feature gates); only the sources of its numbers
//!   compile out.
//! * [`trace`] — a timestamped span-tree recorder (`trace::span`)
//!   exporting Chrome trace-event JSON; capture is armed explicitly
//!   (`--trace-out`), so idle span sites cost one relaxed load.
//!
//! # The `obs-off` guarantee
//!
//! With the `obs-off` cargo feature every primitive above (except
//! [`Report`]) becomes a zero-sized type whose methods are empty
//! `#[inline(always)]` bodies — no branches, no loads, no stores remain
//! in instrumented hot loops, and struct layouts of instrumented types
//! shrink accordingly. Compound instrumentation (anything more than a
//! single counter bump, e.g. a table lookup feeding a census counter)
//! should additionally be wrapped in `if gm_obs::ENABLED { .. }`, which
//! is a `const` the optimizer folds away. Unit tests in this crate pin
//! the zero-size property so the guarantee cannot silently rot.

pub mod fmt;
mod metrics;
mod report;
pub mod trace;

pub use metrics::{bucket_lo, Counter, LogHist, Span, Stopwatch, Timer, HIST_BUCKETS};
pub use report::{escape_into, Report};

/// `true` when instrumentation is compiled in (the `obs-off` feature is
/// **not** active). A `const`, so `if gm_obs::ENABLED { .. }` blocks are
/// folded away entirely in `obs-off` builds.
pub const ENABLED: bool = cfg!(not(feature = "obs-off"));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_const_matches_feature() {
        assert_eq!(ENABLED, cfg!(not(feature = "obs-off")));
    }

    #[cfg(feature = "obs-off")]
    mod off {
        use super::*;

        /// The obs-off guarantee: every primitive is a ZST, so
        /// instrumented structs pay no layout cost.
        #[test]
        fn primitives_are_zero_sized() {
            assert_eq!(core::mem::size_of::<Counter>(), 0);
            assert_eq!(core::mem::size_of::<LogHist>(), 0);
            assert_eq!(core::mem::size_of::<Stopwatch>(), 0);
            assert_eq!(core::mem::size_of::<Timer>(), 0);
            assert_eq!(core::mem::size_of::<trace::TraceSpan>(), 0);
        }

        #[test]
        fn reads_are_zero() {
            let mut c = Counter::new();
            c.inc();
            c.add(17);
            assert_eq!(c.get(), 0);
            let mut h = LogHist::new();
            h.record(1000);
            assert_eq!(h.count(), 0);
            assert_eq!(h.total(), 0);
            let mut sw = Stopwatch::new();
            {
                let _g = sw.span();
            }
            assert_eq!(sw.ns(), 0);
            let t = Timer::start();
            assert_eq!(t.elapsed_ns(), 0);
        }
    }
}
