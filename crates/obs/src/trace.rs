//! Timestamped hierarchical span-tree recorder with Chrome trace-event
//! export — live and `obs-off` variants.
//!
//! Unlike [`Stopwatch`](crate::Stopwatch) (which only *accumulates* wall
//! time), this module records every begin/end edge with a timestamp and
//! a thread id, so a whole campaign can be replayed as a span tree in
//! `chrome://tracing` / Perfetto. The design keeps the idle cost to one
//! relaxed atomic load per span site:
//!
//! * Capture is globally armed by [`start_capture`]; when disarmed,
//!   [`span`] returns an inert guard without touching the clock.
//! * Each thread buffers events in a thread-local ring of
//!   [`THREAD_RING`] slots; a full ring (or the thread exiting) flushes
//!   the batch into the global store under one mutex acquisition, so
//!   the hot path never contends on a lock.
//! * The global store is bounded by [`MAX_EVENTS`]; overflow events are
//!   counted, not silently discarded ([`dropped_events`]).
//! * Span names are `&'static str`, so recording an edge is two word
//!   stores plus a monotonic clock read — no allocation.
//!
//! [`stop_capture`] drains the caller's ring and returns everything
//! flushed so far; [`chrome_trace_json`] serializes the events as Chrome
//! trace-event JSON (`ph: "B"/"E"` pairs, microsecond timestamps). Both
//! the event type and the serializer are always compiled — under
//! `obs-off` the recorder itself is a no-op ZST and captures nothing,
//! but `--trace-out` plumbing keeps compiling (it just writes an empty
//! trace).
//!
//! Threads that have not flushed their ring when [`stop_capture`] runs
//! contribute nothing from it. A thread's TLS destructor flushes its ring
//! when the thread exits, but `std::thread::scope` may return before
//! that destructor has run, so a joined scope does not guarantee the
//! flush. Worker threads therefore call [`flush_thread`] when their work
//! ends: the campaign pool's workers flush before they report, and the
//! campaign binaries stop capture only after every worker has reported.

/// One begin or end edge of a named span.
///
/// Timestamps are nanoseconds since the capture anchor (the first
/// [`start_capture`] of the process), so events from all threads share
/// one monotonic timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span-site name, e.g. `"tvla.block"` or `"sched.repair"`.
    pub name: &'static str,
    /// Sequential recorder-assigned thread id (1 = first recording thread).
    pub tid: u32,
    /// Nanoseconds since the capture anchor.
    pub ts_ns: u64,
    /// `true` for the begin edge, `false` for the end edge.
    pub begin: bool,
}

/// Thread-local ring capacity (events) before a flush to the global store.
pub const THREAD_RING: usize = 4096;

/// Global store capacity; events beyond this are counted as dropped.
pub const MAX_EVENTS: usize = 1 << 22;

#[cfg(not(feature = "obs-off"))]
mod live {
    use super::{SpanEvent, MAX_EVENTS, THREAD_RING};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    static CAPTURING: AtomicBool = AtomicBool::new(false);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    static NEXT_TID: AtomicU32 = AtomicU32::new(1);

    fn anchor() -> Instant {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        *ANCHOR.get_or_init(Instant::now)
    }

    fn store() -> &'static Mutex<Vec<SpanEvent>> {
        static STORE: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
        STORE.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Append a thread's batch to the global store, respecting the
    /// [`MAX_EVENTS`] bound.
    fn flush_batch(events: &mut Vec<SpanEvent>) {
        if events.is_empty() {
            return;
        }
        let mut store = store().lock().unwrap();
        let room = MAX_EVENTS.saturating_sub(store.len());
        let take = events.len().min(room);
        store.extend_from_slice(&events[..take]);
        let dropped = (events.len() - take) as u64;
        if dropped > 0 {
            DROPPED.fetch_add(dropped, Ordering::Relaxed);
        }
        events.clear();
    }

    struct ThreadRing {
        tid: u32,
        events: Vec<SpanEvent>,
    }

    impl ThreadRing {
        fn new() -> Self {
            ThreadRing {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Vec::with_capacity(THREAD_RING),
            }
        }
    }

    impl Drop for ThreadRing {
        fn drop(&mut self) {
            flush_batch(&mut self.events);
        }
    }

    thread_local! {
        static RING: RefCell<ThreadRing> = RefCell::new(ThreadRing::new());
    }

    #[inline]
    fn record(name: &'static str, begin: bool) {
        let ts_ns = u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX);
        RING.with(|ring| {
            let mut ring = ring.borrow_mut();
            let tid = ring.tid;
            ring.events.push(SpanEvent { name, tid, ts_ns, begin });
            if ring.events.len() >= THREAD_RING {
                flush_batch(&mut ring.events);
            }
        });
    }

    /// RAII guard recording a begin edge now and the matching end edge on
    /// drop. Inert (records nothing) when capture is disarmed at entry.
    #[derive(Debug)]
    pub struct TraceSpan {
        name: &'static str,
        armed: bool,
    }

    impl Drop for TraceSpan {
        fn drop(&mut self) {
            // Re-check so a capture stopped mid-span cannot leak an
            // unmatched end edge into the next capture.
            if self.armed && CAPTURING.load(Ordering::Relaxed) {
                record(self.name, false);
            }
        }
    }

    /// Open a span named `name`. One relaxed load when capture is off.
    #[inline]
    pub fn span(name: &'static str) -> TraceSpan {
        let armed = CAPTURING.load(Ordering::Relaxed);
        if armed {
            record(name, true);
        }
        TraceSpan { name, armed }
    }

    /// `true` while span edges are being recorded.
    #[inline]
    pub fn capturing() -> bool {
        CAPTURING.load(Ordering::Relaxed)
    }

    /// Arm capture, clearing any events left from a previous capture.
    pub fn start_capture() {
        let _ = anchor();
        {
            let mut store = store().lock().unwrap();
            store.clear();
        }
        DROPPED.store(0, Ordering::Relaxed);
        CAPTURING.store(true, Ordering::SeqCst);
    }

    /// Flush the calling thread's ring into the global store now, rather
    /// than when the thread exits. Only one relaxed load while capture
    /// is disarmed, so an untraced campaign's workers never allocate a
    /// ring.
    pub fn flush_thread() {
        if capturing() {
            RING.with(|ring| flush_batch(&mut ring.borrow_mut().events));
        }
    }

    /// Disarm capture and return every event flushed to the global store
    /// (plus the calling thread's ring), ordered by flush batch.
    pub fn stop_capture() -> Vec<SpanEvent> {
        CAPTURING.store(false, Ordering::SeqCst);
        RING.with(|ring| flush_batch(&mut ring.borrow_mut().events));
        let mut store = store().lock().unwrap();
        std::mem::take(&mut *store)
    }

    /// Events discarded because the global store hit [`MAX_EVENTS`]
    /// during the current/last capture.
    pub fn dropped_events() -> u64 {
        DROPPED.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "obs-off")]
mod off {
    use super::SpanEvent;

    /// No-op `TraceSpan` mirror (`obs-off`). Deliberately not `Copy`:
    /// the live guard has a `Drop` impl, and callers that end a span
    /// early with `drop(span)` must compile warning-free either way.
    #[derive(Debug)]
    pub struct TraceSpan;

    /// No-op [`span`](super::span) mirror (`obs-off`).
    #[inline(always)]
    pub fn span(_name: &'static str) -> TraceSpan {
        TraceSpan
    }

    /// Always `false` under `obs-off`.
    #[inline(always)]
    pub fn capturing() -> bool {
        false
    }

    /// No-op under `obs-off`.
    #[inline(always)]
    pub fn start_capture() {}

    /// No-op under `obs-off`.
    #[inline(always)]
    pub fn flush_thread() {}

    /// Always empty under `obs-off`.
    #[inline(always)]
    pub fn stop_capture() -> Vec<SpanEvent> {
        Vec::new()
    }

    /// Always 0 under `obs-off`.
    #[inline(always)]
    pub fn dropped_events() -> u64 {
        0
    }
}

#[cfg(not(feature = "obs-off"))]
pub use live::{
    capturing, dropped_events, flush_thread, span, start_capture, stop_capture, TraceSpan,
};
#[cfg(feature = "obs-off")]
pub use off::{
    capturing, dropped_events, flush_thread, span, start_capture, stop_capture, TraceSpan,
};

/// Serialize recorded events as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form; load in `chrome://tracing` or
/// <https://ui.perfetto.dev>). Begin/end edges become `ph: "B"/"E"`
/// records; timestamps are microseconds with nanosecond decimals. The
/// top-level `dropped_events` member is [`dropped_events`] at the time of
/// the call, so a trace that lost spans at the [`MAX_EVENTS`] cap says so
/// in the file itself.
///
/// Always compiled so `--trace-out` plumbing works under `obs-off` too
/// (the file then just holds an empty `traceEvents` array).
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(96 + events.len() * 80);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"dropped_events\":");
    out.push_str(&dropped_events().to_string());
    out.push_str(",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        crate::escape_into(e.name, &mut out);
        out.push_str("\",\"cat\":\"glitchmask\",\"ph\":\"");
        out.push(if e.begin { 'B' } else { 'E' });
        out.push_str("\",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&format!("{}.{:03}", e.ts_ns / 1000, e.ts_ns % 1000));
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape() {
        let events = [
            SpanEvent { name: "tvla.block", tid: 1, ts_ns: 1_500, begin: true },
            SpanEvent { name: "tvla.block", tid: 1, ts_ns: 2_750_250, begin: false },
        ];
        let json = chrome_trace_json(&events);
        assert!(
            json.starts_with("{\"displayTimeUnit\":\"ms\",\"dropped_events\":0,\"traceEvents\":[")
        );
        assert!(json.contains("\"name\":\"tvla.block\",\"cat\":\"glitchmask\",\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2750.250"));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn chrome_json_empty_capture() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"dropped_events\":0,\"traceEvents\":[\n]}\n"
        );
    }

    #[cfg(not(feature = "obs-off"))]
    mod live {
        use super::*;
        use std::sync::Mutex;

        /// Capture state is process-global, so tests that arm it must
        /// not interleave.
        fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn disarmed_spans_record_nothing() {
            let _guard = capture_lock();
            {
                let _s = span("idle.site");
            }
            start_capture();
            let events = stop_capture();
            assert!(
                events.iter().all(|e| e.name != "idle.site"),
                "disarmed span leaked into the next capture: {events:?}"
            );
        }

        #[test]
        fn spans_nest_and_balance() {
            let _guard = capture_lock();
            start_capture();
            {
                let _outer = span("test.outer");
                let _inner = span("test.inner");
            }
            let events = stop_capture();
            let mine: Vec<_> = events.iter().filter(|e| e.name.starts_with("test.")).collect();
            assert_eq!(mine.len(), 4);
            // Strict LIFO: outer-B, inner-B, inner-E, outer-E.
            assert_eq!(mine[0].name, "test.outer");
            assert!(mine[0].begin);
            assert_eq!(mine[1].name, "test.inner");
            assert!(mine[1].begin);
            assert_eq!(mine[2].name, "test.inner");
            assert!(!mine[2].begin);
            assert_eq!(mine[3].name, "test.outer");
            assert!(!mine[3].begin);
            // Timestamps are monotone within the thread.
            for w in mine.windows(2) {
                assert!(w[0].ts_ns <= w[1].ts_ns);
            }
            assert_eq!(dropped_events(), 0);
        }

        #[test]
        fn worker_thread_rings_flush_on_exit() {
            let _guard = capture_lock();
            start_capture();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        {
                            let _s = span("test.worker");
                        }
                        flush_thread();
                    });
                }
            });
            let events = stop_capture();
            let workers: Vec<_> = events.iter().filter(|e| e.name == "test.worker").collect();
            assert_eq!(workers.len(), 6, "3 workers x B/E pairs: {events:?}");
            let tids: std::collections::BTreeSet<u32> = workers.iter().map(|e| e.tid).collect();
            assert_eq!(tids.len(), 3, "each worker gets its own tid");
        }

        #[test]
        fn restart_clears_previous_capture() {
            let _guard = capture_lock();
            start_capture();
            {
                let _s = span("test.stale");
            }
            let first = stop_capture();
            assert!(first.iter().any(|e| e.name == "test.stale"));
            start_capture();
            let second = stop_capture();
            assert!(second.iter().all(|e| e.name != "test.stale"));
        }
    }

    #[cfg(feature = "obs-off")]
    mod off {
        use super::*;

        /// The obs-off guarantee extends to the span recorder: the guard
        /// is a ZST and capture never arms.
        #[test]
        fn trace_span_is_zero_sized() {
            assert_eq!(core::mem::size_of::<TraceSpan>(), 0);
        }

        #[test]
        fn capture_is_inert() {
            start_capture();
            assert!(!capturing());
            {
                let _s = span("off.site");
            }
            flush_thread();
            assert!(stop_capture().is_empty());
            assert_eq!(dropped_events(), 0);
        }
    }
}
