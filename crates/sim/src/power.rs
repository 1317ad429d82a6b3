//! Switching-activity power model.
//!
//! Dynamic power of a CMOS circuit is dominated by `α · C · V² · f`; with
//! voltage and frequency fixed, the per-sample power is proportional to the
//! capacitance-weighted toggle count. [`PowerTrace`] bins weighted toggles
//! into fixed-width time windows, which corresponds to the oscilloscope
//! samples of the paper's measurement setup.

use crate::engine::PowerSink;
use gm_netlist::NetId;
use gm_obs::{Counter, Report, Stopwatch};

/// Time-binned, capacitance-weighted toggle counts — one power trace.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    bin_ps: u64,
    start_ps: u64,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// A trace with `num_bins` samples of `bin_ps` width starting at
    /// `start_ps`. Transitions outside the window are dropped.
    pub fn new(start_ps: u64, bin_ps: u64, num_bins: usize) -> Self {
        assert!(bin_ps > 0, "bin width must be positive");
        PowerTrace { bin_ps, start_ps, samples: vec![0.0; num_bins] }
    }

    /// Bin width in ps.
    pub fn bin_ps(&self) -> u64 {
        self.bin_ps
    }

    /// The accumulated samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consume the trace, returning its samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Reset all samples to zero for reuse (avoids reallocation per trace).
    pub fn clear(&mut self) {
        self.samples.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Add `weight` at absolute time `time_ps` (no-op outside the window).
    #[inline]
    pub fn add(&mut self, time_ps: u64, weight: f64) {
        if time_ps < self.start_ps {
            return;
        }
        let idx = ((time_ps - self.start_ps) / self.bin_ps) as usize;
        if let Some(s) = self.samples.get_mut(idx) {
            *s += weight;
        }
    }
}

impl PowerSink for PowerTrace {
    fn transition(&mut self, time_ps: u64, _net: NetId, _new_value: bool, weight: f64) {
        self.add(time_ps, weight);
    }
}

/// Counts raw transitions and total weighted activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    /// Number of applied transitions.
    pub count: u64,
    /// Sum of transition weights.
    pub weighted: f64,
}

impl PowerSink for CountingSink {
    fn transition(&mut self, _time_ps: u64, _net: NetId, _new_value: bool, weight: f64) {
        self.count += 1;
        self.weighted += weight;
    }
}

/// Discards all activity (functional-only simulation).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

/// Counts transitions per net — the instrument behind per-wire
/// glitch-extended probing analysis.
#[derive(Debug, Clone)]
pub struct NetToggleSink {
    /// Toggle count per net index.
    pub counts: Vec<u32>,
}

impl NetToggleSink {
    /// A sink for a netlist with `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        NetToggleSink { counts: vec![0; num_nets] }
    }

    /// Zero all counts for reuse.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

impl PowerSink for NetToggleSink {
    fn transition(&mut self, _time_ps: u64, net: NetId, _new_value: bool, _weight: f64) {
        self.counts[net.index()] += 1;
    }
}

/// Lane-parallel counterpart of [`PowerSink`] for the compiled-schedule
/// backend ([`crate::sched`]): one call delivers the same net transition
/// for up to 64 traces at once.
///
/// `applied` selects the lanes in which the transition actually fired;
/// `times[lane]` is its per-lane absolute time (jitter makes these
/// differ) and bit `lane` of `values` its new value. Implementations
/// must ignore lanes outside `applied`, whose entries are unspecified.
pub trait LaneSink {
    /// Deliver one net transition across lanes.
    fn transitions(&mut self, net: NetId, weight: f64, applied: u64, values: u64, times: &[u64]);
}

/// Per-lane [`CountingSink`]: raw and weighted toggle totals per trace.
#[derive(Debug, Clone)]
pub struct LaneCounting {
    /// Applied transitions per lane.
    pub count: [u64; 64],
    /// Weighted activity per lane.
    pub weighted: [f64; 64],
}

impl Default for LaneCounting {
    fn default() -> Self {
        LaneCounting { count: [0; 64], weighted: [0.0; 64] }
    }
}

impl LaneCounting {
    /// Zero all lanes for reuse.
    pub fn clear(&mut self) {
        self.count = [0; 64];
        self.weighted = [0.0; 64];
    }
}

impl LaneSink for LaneCounting {
    #[inline]
    fn transitions(
        &mut self,
        _net: NetId,
        weight: f64,
        applied: u64,
        _values: u64,
        _times: &[u64],
    ) {
        // Branchless across all 64 lanes: autovectorizes, and the masked
        // lanes contribute exact zeros.
        for l in 0..64 {
            let bit = applied >> l & 1;
            self.count[l] += bit;
            self.weighted[l] += weight * bit as f64;
        }
    }
}

/// Bit-planes per counter: per-pass toggle counts per (class, bin) stay
/// far below 2^16 (the compiled-schedule node cap is 2^14), and the
/// ripple-carry add touches only as many planes as the count's carry
/// chain reaches (~2 on average), so extra headroom costs nothing hot.
const PLANES: usize = 16;

/// Class tag of zero-weight nets: their transitions contribute exact
/// zeros either way, so the word-level sinks skip them outright.
const NO_CLASS: u16 = u16::MAX;

/// Dedup a per-net weight table into (class-of-net, class-weight)
/// form: the word-level sinks accumulate exact per-class toggle
/// *counts* and multiply by the class weight once per pass, instead of
/// scattering `weight × bit` per lane per transition.
fn weight_classes(weights: &[f64]) -> (Vec<u16>, Vec<f64>) {
    let mut class_w: Vec<f64> = Vec::new();
    let class_of = weights
        .iter()
        .map(|&w| {
            if w == 0.0 {
                return NO_CLASS;
            }
            match class_w.iter().position(|&c| c.to_bits() == w.to_bits()) {
                Some(i) => i as u16,
                None => {
                    class_w.push(w);
                    assert!(class_w.len() < NO_CLASS as usize, "weight table too diverse");
                    (class_w.len() - 1) as u16
                }
            }
        })
        .collect();
    (class_of, class_w)
}

/// Add a lane mask into a bit-plane counter (one `u64` per count bit):
/// a ripple-carry half-adder chain over as many planes as the carry
/// reaches. Indexing is bounds-checked, so a count overflowing the
/// plane budget panics instead of corrupting a neighbour counter.
#[inline]
fn ripple_add(planes: &mut [u64], mut mask: u64) {
    let mut p = 0usize;
    while mask != 0 {
        let x = planes[p];
        planes[p] = x ^ mask;
        mask &= x;
        p += 1;
    }
}

/// Counters of the word-level packing sinks ([`LaneEnergy`],
/// [`LaneBinTrace`]) — the `sim.pack.*` namespace. Zero-sized under
/// `obs-off`, like every gm-obs primitive.
#[derive(Debug, Default)]
pub struct PackStats {
    /// Pass conversions (bit-plane counts → f64) performed.
    pub conversions: Counter,
    /// Transitions accumulated word-level (one ripple add each).
    pub word_transitions: Counter,
    /// Transitions that fell off the word-level fast path (mixed time
    /// bins across lanes) and took the per-lane f64 spill.
    pub spill_transitions: Counter,
    /// Time inside the once-per-pass f64 conversion.
    pub ns: Stopwatch,
}

impl PackStats {
    /// Export under `<prefix>.*` (canonically `sim.pack.*`).
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.conversions"), self.conversions.get());
        r.set_nonzero(&format!("{prefix}.word_transitions"), self.word_transitions.get());
        r.set_nonzero(&format!("{prefix}.spill_transitions"), self.spill_transitions.get());
        r.set_nonzero(&format!("{prefix}.ns"), self.ns.ns());
    }
}

/// Word-level replacement for [`LaneCounting`]'s weighted total: one
/// bit-plane toggle counter per weight class, fed by a ripple-carry add
/// of the whole 64-lane mask (~2 word ops per transition instead of a
/// 64-iteration scalar loop), converted to per-lane f64 energies once
/// per pass. Counts are exact integers, so the conversion's few-term
/// `Σ weight_class × count` dot product reproduces the scalar
/// accumulation to well inside the campaign's 1e-9 agreement band.
#[derive(Debug)]
pub struct LaneEnergy {
    class_of: Vec<u16>,
    class_w: Vec<f64>,
    /// `[class][plane]` bit-plane counters, flattened.
    planes: Vec<u64>,
    /// Packing counters (`sim.pack.*`).
    pub stats: PackStats,
}

impl LaneEnergy {
    /// A sink for the given per-net weight table — the **same** table
    /// later passed to `run_pass` (the sink classifies by net and
    /// ignores the per-call weight except to cross-check it in debug
    /// builds).
    pub fn new(weights: &[f64]) -> Self {
        let (class_of, class_w) = weight_classes(weights);
        let planes = vec![0u64; class_w.len() * PLANES];
        LaneEnergy { class_of, class_w, planes, stats: PackStats::default() }
    }

    /// Zero all counters for the next pass.
    pub fn clear(&mut self) {
        self.planes.iter_mut().for_each(|p| *p = 0);
    }

    /// Convert the pass's counts into per-lane energies — the single
    /// per-pass f64 reduction that replaces the per-transition scatter.
    pub fn energies_into(&mut self, out: &mut [f64; 64]) {
        let _t = self.stats.ns.span();
        out.fill(0.0);
        for (c, &w) in self.class_w.iter().enumerate() {
            let planes = &self.planes[c * PLANES..(c + 1) * PLANES];
            // Per set plane bit, add `w × 2^p` (exact: a power-of-two
            // scale). The work tracks the population of the counters,
            // not classes × lanes × planes, and zero planes skip at the
            // word level.
            for (p, &word) in planes.iter().enumerate() {
                let mut b = word;
                if b == 0 {
                    continue;
                }
                let wp = w * (1u64 << p) as f64;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    b &= b - 1;
                    out[l] += wp;
                }
            }
        }
        self.stats.conversions.inc();
    }
}

impl LaneSink for LaneEnergy {
    #[inline]
    fn transitions(&mut self, net: NetId, weight: f64, applied: u64, _values: u64, _times: &[u64]) {
        let c = self.class_of[net.index()];
        if c == NO_CLASS {
            return;
        }
        debug_assert_eq!(weight.to_bits(), self.class_w[c as usize].to_bits());
        let base = c as usize * PLANES;
        ripple_add(&mut self.planes[base..base + PLANES], applied);
        self.stats.word_transitions.inc();
    }
}

/// Per-lane [`PowerTrace`] at word level: bit-plane toggle counters
/// per (weight class × time bin), with a per-lane f64 spill lane for
/// the rare transition whose jittered per-lane times straddle a bin
/// boundary. [`LaneBinTrace::finish_pass`] converts counts (plus the
/// spill) into the lane-major sample block (`samples[bin * 64 + lane]`)
/// once per pass; [`LaneBinTrace::lane_into`] then reads it out per
/// lane.
#[derive(Debug)]
pub struct LaneBinTrace {
    bin_ps: u64,
    start_ps: u64,
    num_bins: usize,
    class_of: Vec<u16>,
    class_w: Vec<f64>,
    /// `[class][bin][plane]` bit-plane counters, flattened.
    planes: Vec<u64>,
    /// Mixed-bin spill, lane-major like `samples`.
    spill: Vec<f64>,
    /// Converted samples (`samples[bin * 64 + lane]`), valid after
    /// [`LaneBinTrace::finish_pass`].
    samples: Vec<f64>,
    /// Packing counters (`sim.pack.*`).
    pub stats: PackStats,
}

impl LaneBinTrace {
    /// A 64-lane binned sink over the given weight table (same window
    /// convention as [`PowerTrace`]: transitions outside are dropped).
    pub fn new(start_ps: u64, bin_ps: u64, num_bins: usize, weights: &[f64]) -> Self {
        assert!(bin_ps > 0, "bin width must be positive");
        let (class_of, class_w) = weight_classes(weights);
        LaneBinTrace {
            bin_ps,
            start_ps,
            num_bins,
            planes: vec![0u64; class_w.len() * num_bins * PLANES],
            spill: vec![0.0; num_bins * 64],
            samples: vec![0.0; num_bins * 64],
            class_of,
            class_w,
            stats: PackStats::default(),
        }
    }

    /// Zero all counters and the spill for the next pass.
    pub fn clear(&mut self) {
        self.planes.iter_mut().for_each(|p| *p = 0);
        self.spill.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Bin index of an absolute time, or `None` outside the window.
    #[inline]
    fn bin_of(&self, t: u64) -> Option<usize> {
        if t < self.start_ps {
            return None;
        }
        let idx = ((t - self.start_ps) / self.bin_ps) as usize;
        (idx < self.num_bins).then_some(idx)
    }

    /// Convert the pass's counts + spill into the lane-major sample
    /// block — the single per-pass f64 reduction.
    pub fn finish_pass(&mut self) {
        let _t = self.stats.ns.span();
        self.samples.copy_from_slice(&self.spill);
        for (c, &w) in self.class_w.iter().enumerate() {
            for bin in 0..self.num_bins {
                let base = (c * self.num_bins + bin) * PLANES;
                let planes = &self.planes[base..base + PLANES];
                let row = &mut self.samples[bin * 64..(bin + 1) * 64];
                // Per set plane bit, add `w × 2^p` (exact power-of-two
                // scale); zero planes skip at the word level.
                for (p, &word) in planes.iter().enumerate() {
                    let mut b = word;
                    if b == 0 {
                        continue;
                    }
                    let wp = w * (1u64 << p) as f64;
                    while b != 0 {
                        let l = b.trailing_zeros() as usize;
                        b &= b - 1;
                        row[l] += wp;
                    }
                }
            }
        }
        self.stats.conversions.inc();
    }

    /// Copy one lane's binned samples into `out` (must hold `num_bins`);
    /// call [`LaneBinTrace::finish_pass`] first.
    pub fn lane_into(&self, lane: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_bins);
        for (b, o) in out.iter_mut().enumerate() {
            *o = self.samples[b * 64 + lane];
        }
    }

    /// Overwrite one lane's converted samples (`samples` must hold
    /// `num_bins`) — where a divergent lane's scalar rerun lands after
    /// [`LaneBinTrace::finish_pass`].
    pub fn set_lane(&mut self, lane: usize, samples: &[f64]) {
        assert_eq!(samples.len(), self.num_bins);
        for (b, &s) in samples.iter().enumerate() {
            self.samples[b * 64 + lane] = s;
        }
    }
}

impl LaneSink for LaneBinTrace {
    #[inline]
    fn transitions(&mut self, net: NetId, weight: f64, applied: u64, _values: u64, times: &[u64]) {
        let c = self.class_of[net.index()];
        if c == NO_CLASS || applied == 0 {
            return;
        }
        debug_assert_eq!(weight.to_bits(), self.class_w[c as usize].to_bits());
        // Fast path: every applied lane lands in one bin (jitter is tiny
        // against campaign bin widths, so this is the overwhelmingly
        // common case) — one ripple add for the whole mask.
        let first = applied.trailing_zeros() as usize;
        let b0 = self.bin_of(times[first]);
        let mut same = true;
        let mut m = applied & (applied - 1);
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.bin_of(times[l]) != b0 {
                same = false;
                break;
            }
        }
        if same {
            if let Some(bin) = b0 {
                let base = (c as usize * self.num_bins + bin) * PLANES;
                ripple_add(&mut self.planes[base..base + PLANES], applied);
                self.stats.word_transitions.inc();
            }
            // All lanes outside the window: dropped, like `PowerTrace`.
            return;
        }
        // Mixed bins: per-lane spill, same arithmetic as `PowerTrace`.
        let mut m = applied;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(bin) = self.bin_of(times[l]) {
                self.spill[bin * 64 + l] += weight;
            }
        }
        self.stats.spill_transitions.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate() {
        let mut t = PowerTrace::new(1_000, 500, 4);
        t.add(999, 1.0); // before window
        t.add(1_000, 1.0); // bin 0
        t.add(1_499, 2.0); // bin 0
        t.add(1_500, 3.0); // bin 1
        t.add(2_999, 4.0); // bin 3
        t.add(3_000, 5.0); // past the end
        assert_eq!(t.samples(), &[3.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    fn clear_resets() {
        let mut t = PowerTrace::new(0, 10, 2);
        t.add(5, 1.0);
        t.clear();
        assert_eq!(t.samples(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let _ = PowerTrace::new(0, 0, 1);
    }

    #[test]
    fn lane_counting_masks_lanes() {
        let mut s = LaneCounting::default();
        let times = [0u64; 64];
        s.transitions(NetId(0), 2.5, 0b101, 0b001, &times);
        s.transitions(NetId(1), 1.0, 0b100, 0b100, &times);
        assert_eq!(s.count[0], 1);
        assert_eq!(s.count[1], 0);
        assert_eq!(s.count[2], 2);
        assert_eq!(s.weighted[0], 2.5);
        assert_eq!(s.weighted[2], 3.5);
    }

    #[test]
    fn lane_energy_matches_lane_counting() {
        // Nets 0..3 with two distinct weights plus a zero-weight net.
        let weights = [2.5f64, 1.0, 2.5, 0.0];
        let mut word = LaneEnergy::new(&weights);
        let mut scalar = LaneCounting::default();
        let times = [0u64; 64];
        let cases = [(0u32, 0b1011u64), (1, !0u64), (2, 0b1101), (3, !0u64), (0, 1u64 << 63)];
        for &(net, mask) in &cases {
            word.transitions(NetId(net), weights[net as usize], mask, 0, &times);
            scalar.transitions(NetId(net), weights[net as usize], mask, 0, &times);
        }
        let mut e = [0.0f64; 64];
        word.energies_into(&mut e);
        for (l, &el) in e.iter().enumerate() {
            assert!(
                (el - scalar.weighted[l]).abs() <= 1e-12,
                "lane {l}: word {} vs scalar {}",
                el,
                scalar.weighted[l]
            );
        }
        // Clear really clears.
        word.clear();
        word.energies_into(&mut e);
        assert_eq!(e, [0.0; 64]);
    }

    /// Hand-picked cases against one scalar [`PowerTrace`] per lane: the
    /// same-bin fast path, a spill across bins and both window edges, an
    /// all-outside drop, and a lane overwritten after conversion.
    #[test]
    fn lane_bin_trace_matches_lane_trace() {
        let weights = [2.0f64, 0.5];
        let mut word = LaneBinTrace::new(1_000, 500, 4, &weights);
        let mut lanes: Vec<PowerTrace> = (0..64).map(|_| PowerTrace::new(1_000, 500, 4)).collect();
        let mut both = |net: u32, applied: u64, times: &[u64; 64]| {
            let w = weights[net as usize];
            word.transitions(NetId(net), w, applied, 0, times);
            for (l, lane) in lanes.iter_mut().enumerate() {
                if applied >> l & 1 != 0 {
                    lane.add(times[l], w);
                }
            }
        };
        let mut times = [1_100u64; 64];
        both(0, 0b111, &times);
        times[3] = 2_700; // bin 3
        times[5] = 900; // before the window
        times[6] = 3_000; // past the end
        both(1, 1 | 1 << 3 | 1 << 5 | 1 << 6, &times);
        both(0, 0b11, &[999; 64]);
        word.finish_pass();
        word.set_lane(2, &[1.0, 2.0, 3.0, 4.0]);
        lanes[2].clear();
        for (b, w) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            lanes[2].add(1_000 + 500 * b as u64, w);
        }
        let mut got = [0.0f64; 4];
        for l in [0usize, 1, 2, 3, 5, 6, 63] {
            word.lane_into(l, &mut got);
            assert_eq!(got, lanes[l].samples(), "lane {l}");
        }
        assert_eq!(lanes[3].samples(), &[0.0, 0.0, 0.0, 0.5]);
        assert_eq!(lanes[0].samples(), &[2.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn ripple_counter_counts_past_plane_one() {
        let weights = [1.0f64];
        let mut word = LaneEnergy::new(&weights);
        let times = [0u64; 64];
        for _ in 0..137 {
            word.transitions(NetId(0), 1.0, !0u64, 0, &times);
        }
        let mut e = [0.0f64; 64];
        word.energies_into(&mut e);
        assert!(e.iter().all(|&x| x == 137.0), "count must survive carry chains");
    }
}
