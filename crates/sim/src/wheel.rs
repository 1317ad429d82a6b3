//! Bucketed calendar queue ("timing wheel") for the event engine.
//!
//! The simulator's pending-event set is tiny and strongly clustered in
//! time (transport delays of a few hundred ps around the current
//! instant), which a `BinaryHeap` serves with `O(log n)` comparisons and
//! poor locality. The wheel instead hashes each event's timestamp into
//! one of [`NUM_BUCKETS`] ring slots of `2^`[`BUCKET_SHIFT`] ps; only
//! the bucket currently being drained is kept sorted. Far-future events
//! beyond one ring revolution go to an overflow list that is folded back
//! into the ring as the cursor approaches.
//!
//! Events are ordered by `(time, seq)`. The engine assigns every event a
//! unique, monotonically increasing `seq`, so this key is a *total*
//! order — identical to a `BinaryHeap`'s, which is what the
//! `wheel_matches_heap_order` property test pins.

use gm_obs::{Counter, LogHist, Report};

/// log2 of the bucket width in ps (512 ps buckets: a few transport
/// delays per bucket for the calibrated gate library).
pub const BUCKET_SHIFT: u32 = 9;
/// Ring size in buckets (must be a power of two). Horizon =
/// `NUM_BUCKETS << BUCKET_SHIFT` = 131 ns, beyond one clock period of
/// every campaign in the workspace, so overflow is rare.
pub const NUM_BUCKETS: usize = 256;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
const OCC_WORDS: usize = NUM_BUCKETS / 64;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

/// A min-queue over `(time, seq)` keys with constant-time operation on
/// the simulator's clustered event distributions.
///
/// Invariants:
/// * `cur` is the bucket of the most recently popped key (0 initially),
///   and it advances **only** inside [`TimingWheel::pop`] — every push
///   must carry a time at or after the last popped key, which is exactly
///   the engine's causality guarantee (`schedule` refuses the past,
///   propagation always lands strictly later);
/// * `drain` holds exactly the events of bucket `cur`, sorted
///   *descending* by `(time, seq)` so the minimum pops from the back;
/// * `slots[b & MASK]` holds the events of bucket `b` for
///   `cur < b < cur + NUM_BUCKETS`, unsorted, with `occ` bit `b & MASK`
///   set iff the slot is non-empty;
/// * `overflow` holds everything at `>= cur + NUM_BUCKETS`, with
///   `overflow_min` caching its minimum bucket.
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    occ: [u64; OCC_WORDS],
    /// Bucket of the most recently popped key; owner of `drain`.
    cur: u64,
    drain: Vec<Entry<T>>,
    overflow: Vec<Entry<T>>,
    overflow_min: u64,
    len: usize,
    stats: WheelStats,
}

/// Lifetime operation counters of a [`TimingWheel`] (all zero and
/// zero-sized under `obs-off`). Survives [`TimingWheel::clear`], so a
/// recycled per-worker wheel accumulates whole-campaign totals.
#[derive(Debug, Clone, Default)]
pub struct WheelStats {
    /// Pushes landing in the sorted drain (current bucket).
    pub pushes_drain: Counter,
    /// Pushes landing in an unsorted ring slot.
    pub pushes_ring: Counter,
    /// Pushes beyond the ring horizon (overflow list).
    pub pushes_overflow: Counter,
    /// Overflow entries repatriated into the ring/drain as the cursor
    /// approached ("spills" folded back in).
    pub spills: Counter,
    /// Cursor advances (bucket drains started).
    pub advances: Counter,
    /// Drain occupancy (events sorted per advanced bucket).
    pub occupancy: LogHist,
}

impl WheelStats {
    /// Export all counters under `prefix` (e.g. `"wheel"`).
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.push_drain"), self.pushes_drain.get());
        r.set_nonzero(&format!("{prefix}.push_ring"), self.pushes_ring.get());
        r.set_nonzero(&format!("{prefix}.push_overflow"), self.pushes_overflow.get());
        r.set_nonzero(&format!("{prefix}.spills"), self.spills.get());
        r.set_nonzero(&format!("{prefix}.advances"), self.advances.get());
        r.set_hist(&format!("{prefix}.occupancy"), &self.occupancy);
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel positioned at time 0.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            cur: 0,
            drain: Vec::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Lifetime operation counters (zeros under `obs-off`).
    pub fn stats(&self) -> &WheelStats {
        &self.stats
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue an event. `seq` values must be unique, and `time` must be at
    /// or after the last popped key (the engine never schedules into the
    /// past). Pushes in between are free to arrive in any order.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        let b = time >> BUCKET_SHIFT;
        if self.len == 0 && b < self.cur {
            // Idle wheel rewound (fresh trace on a recycled core).
            self.cur = b;
            self.drain.clear();
        }
        debug_assert!(b >= self.cur, "event precedes the last popped bucket");
        let entry = Entry { time, seq, payload };
        if b == self.cur {
            // Insert into the sorted (descending) drain. New events land
            // at or after the last popped key, so the whole drain is a
            // valid insertion range.
            self.stats.pushes_drain.inc();
            let pos = self.drain.partition_point(|e| (e.time, e.seq) > (time, seq));
            self.drain.insert(pos, entry);
        } else if b < self.cur + NUM_BUCKETS as u64 {
            self.stats.pushes_ring.inc();
            let slot = (b & BUCKET_MASK) as usize;
            self.slots[slot].push(entry);
            self.occ[slot / 64] |= 1 << (slot % 64);
        } else {
            self.stats.pushes_overflow.inc();
            self.overflow.push(entry);
            self.overflow_min = self.overflow_min.min(b);
        }
        self.len += 1;
    }

    /// Timestamp of the earliest queued event. Read-only: the cursor does
    /// not move, so earlier (but post-`cur`) pushes remain legal after a
    /// peek — `run_until` peeks past its horizon, then the caller
    /// schedules the next cycle's stimuli before those events pop.
    pub fn peek_time(&self) -> Option<u64> {
        if let Some(e) = self.drain.last() {
            return Some(e.time);
        }
        if self.len == 0 {
            return None;
        }
        let (bucket, from_overflow) = self.front_bucket();
        let entries = if from_overflow {
            return self
                .overflow
                .iter()
                .filter(|e| e.time >> BUCKET_SHIFT == bucket)
                .map(|e| e.time)
                .min();
        } else {
            &self.slots[(bucket & BUCKET_MASK) as usize]
        };
        entries.iter().map(|e| e.time).min()
    }

    /// Remove and return the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.drain.is_empty() {
            if self.len == 0 {
                return None;
            }
            let (target, _) = self.front_bucket();
            self.advance_to(target);
        }
        let e = self.drain.pop()?;
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }

    /// Remove and return the earliest event iff its time is at most
    /// `t_max`. Equivalent to [`TimingWheel::peek_time`] followed by
    /// [`TimingWheel::pop`], but with a single front-bucket scan — and,
    /// like a bare peek, it does *not* commit the cursor when the front
    /// event lies beyond the horizon, so earlier (post-`cur`) pushes
    /// remain legal afterwards.
    pub fn pop_at_most(&mut self, t_max: u64) -> Option<(u64, u64, T)> {
        if let Some(e) = self.drain.last() {
            if e.time > t_max {
                return None;
            }
            let e = self.drain.pop().expect("drain non-empty");
            self.len -= 1;
            return Some((e.time, e.seq, e.payload));
        }
        if self.len == 0 {
            return None;
        }
        let (bucket, from_overflow) = self.front_bucket();
        let min = if from_overflow {
            self.overflow.iter().filter(|e| e.time >> BUCKET_SHIFT == bucket).map(|e| e.time).min()
        } else {
            self.slots[(bucket & BUCKET_MASK) as usize].iter().map(|e| e.time).min()
        };
        if min.is_none_or(|m| m > t_max) {
            return None;
        }
        self.advance_to(bucket);
        let e = self.drain.pop()?;
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }

    /// Drop all queued events and rewind to time 0.
    pub fn clear(&mut self) {
        if self.len != 0 {
            for w in 0..OCC_WORDS {
                let mut bits = self.occ[w];
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    self.slots[slot].clear();
                    bits &= bits - 1;
                }
            }
        }
        self.occ = [0; OCC_WORDS];
        self.drain.clear();
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.cur = 0;
        self.len = 0;
    }

    /// The next non-empty bucket after `cur` and whether it lives in the
    /// overflow list. Caller guarantees `len > 0` and an empty drain.
    fn front_bucket(&self) -> (u64, bool) {
        match self.next_ring_bucket() {
            Some(b) if b < self.overflow_min => (b, false),
            _ => (self.overflow_min, true),
        }
    }

    /// Commit the cursor to `target` (the next non-empty bucket, found by
    /// [`TimingWheel::front_bucket`]) and sort it into `drain`. Only
    /// called on the way to a pop, so the advanced `cur` is the bucket of
    /// the key about to be popped.
    fn advance_to(&mut self, target: u64) {
        debug_assert_ne!(target, u64::MAX, "len > 0 but no bucket found");
        self.stats.advances.inc();
        self.cur = target;
        // Fold overflow events that now fit the ring (or the new current
        // bucket) back in.
        if self.overflow_min < self.cur + NUM_BUCKETS as u64 {
            let mut new_min = u64::MAX;
            let mut i = 0;
            while i < self.overflow.len() {
                let b = self.overflow[i].time >> BUCKET_SHIFT;
                if b < self.cur + NUM_BUCKETS as u64 {
                    self.stats.spills.inc();
                    let entry = self.overflow.swap_remove(i);
                    if b == self.cur {
                        self.drain.push(entry);
                    } else {
                        let slot = (b & BUCKET_MASK) as usize;
                        self.slots[slot].push(entry);
                        self.occ[slot / 64] |= 1 << (slot % 64);
                    }
                } else {
                    new_min = new_min.min(b);
                    i += 1;
                }
            }
            self.overflow_min = new_min;
        }
        let slot = (self.cur & BUCKET_MASK) as usize;
        if self.drain.is_empty() {
            std::mem::swap(&mut self.drain, &mut self.slots[slot]);
        } else {
            self.drain.append(&mut self.slots[slot]);
        }
        self.occ[slot / 64] &= !(1 << (slot % 64));
        if self.drain.len() > 1 {
            self.drain.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
        self.stats.occupancy.record(self.drain.len() as u64);
    }

    /// Absolute index of the first occupied ring bucket after `cur`, if
    /// any (scans the occupancy bitmap one word at a time).
    fn next_ring_bucket(&self) -> Option<u64> {
        let start = ((self.cur + 1) & BUCKET_MASK) as usize;
        let bits = self.occ[start / 64] >> (start % 64);
        if bits != 0 {
            let slot = start + bits.trailing_zeros() as usize;
            return Some(self.abs_bucket(slot));
        }
        for step in 1..=OCC_WORDS {
            let word = (start / 64 + step) % OCC_WORDS;
            let bits = self.occ[word];
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                return Some(self.abs_bucket(slot));
            }
        }
        None
    }

    /// Map a ring slot back to its absolute bucket index, given that all
    /// live buckets lie in `(cur, cur + NUM_BUCKETS)`.
    fn abs_bucket(&self, slot: usize) -> u64 {
        let cur_slot = (self.cur & BUCKET_MASK) as usize;
        let dist = (slot + NUM_BUCKETS - cur_slot) as u64 & BUCKET_MASK;
        debug_assert_ne!(dist, 0, "current slot cannot be occupied");
        self.cur + dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_seq_order() {
        let mut w = TimingWheel::new();
        for (i, t) in [500u64, 100, 100, 90_000, 3, 700, 100].iter().enumerate() {
            w.push(*t, i as u64, i as u32);
        }
        let popped = drain_all(&mut w);
        let times: Vec<u64> = popped.iter().map(|e| e.0).collect();
        assert_eq!(times, vec![3, 100, 100, 100, 500, 700, 90_000]);
        // Equal times pop in seq order.
        let seqs: Vec<u64> = popped.iter().filter(|e| e.0 == 100).map(|e| e.1).collect();
        assert_eq!(seqs, vec![1, 2, 6]);
    }

    #[test]
    fn far_future_via_overflow() {
        let mut w = TimingWheel::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        w.push(5 * horizon, 0, 0);
        w.push(10, 1, 1);
        w.push(2 * horizon + 3, 2, 2);
        assert_eq!(w.peek_time(), Some(10));
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![10, 2 * horizon + 3, 5 * horizon]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimingWheel::new();
        w.push(1_000, 0, 0);
        assert_eq!(w.pop().unwrap().0, 1_000);
        // Push into the same (current) bucket after popping.
        w.push(1_001, 1, 1);
        w.push(1_005, 2, 2);
        w.push(1_003, 3, 3);
        assert_eq!(w.pop().unwrap().0, 1_001);
        w.push(1_004, 4, 4);
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![1_003, 1_004, 1_005]);
        assert!(w.is_empty());
    }

    /// A peek must not commit the cursor: after peeking a far-future
    /// event, pushes at earlier (still post-pop) times stay legal and pop
    /// first. This is `run_until`'s horizon pattern.
    #[test]
    fn peek_then_earlier_push() {
        let mut w = TimingWheel::new();
        w.push(200_000, 0, 0);
        assert_eq!(w.peek_time(), Some(200_000));
        w.push(1_500, 1, 1);
        w.push(300, 2, 2);
        assert_eq!(w.peek_time(), Some(300));
        let times: Vec<u64> = drain_all(&mut w).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![300, 1_500, 200_000]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = TimingWheel::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for i in 0..100u64 {
            w.push(i * 997, i, i as u32);
        }
        w.push(3 * horizon, 100, 100);
        w.pop();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(42, 0, 7);
        assert_eq!(w.pop(), Some((42, 0, 7)));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn stats_census_all_three_push_routes() {
        let mut w = TimingWheel::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        w.push(3, 0, 0); // current bucket -> drain
        w.push(1_000, 1, 1); // ring slot
        w.push(2 * horizon, 2, 2); // beyond horizon -> overflow
        drain_all(&mut w);
        let s = w.stats();
        assert_eq!(s.pushes_drain.get(), 1);
        assert_eq!(s.pushes_ring.get(), 1);
        assert_eq!(s.pushes_overflow.get(), 1);
        assert_eq!(s.spills.get(), 1, "overflow entry folded back on approach");
        assert_eq!(s.advances.get(), 2);
        assert_eq!(s.occupancy.count(), 2);
        w.clear();
        assert_eq!(w.stats().pushes_ring.get(), 1, "stats survive clear");

        let mut r = Report::new();
        w.stats().report_into("wheel", &mut r);
        assert_eq!(r.get("wheel.spills"), Some(1));
    }

    #[test]
    fn idle_wheel_repositions_backwards() {
        // After draining, an idle wheel may legally receive an event in an
        // earlier bucket than `cur` (sim time rebased / new trace).
        let mut w = TimingWheel::new();
        w.push(1_000_000, 0, 0);
        w.pop();
        w.push(5, 1, 1);
        assert_eq!(w.pop(), Some((5, 1, 1)));
    }
}
