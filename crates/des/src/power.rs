//! Fast cycle-accurate power model for large TVLA campaigns.
//!
//! The gate-level event simulator (via [`crate::netlist_gen`]) is the
//! high-fidelity reference; this model trades wire-level detail for
//! ~100× speed while keeping the statistical structure that the paper's
//! leakage results rest on:
//!
//! * per cycle, power = Σ share-wise register/combinational toggles
//!   (Hamming distances of the actual share values). Linear in the
//!   shares ⇒ no first-order leakage from a sound sharing, but the
//!   variance of `HW(x₀) + HW(x₁)` depends on the unshared value ⇒ the
//!   strong **second-order** leakage of Fig. 14;
//! * with the PRNG off the shares degenerate and the same toggle terms
//!   expose values directly ⇒ Fig. 14a / 17d;
//! * the **glitch term**: each `secAND2` evaluation whose safe arrival
//!   order is violated (probability [`PdLeakModel::order_violation_prob`],
//!   a function of the DelayUnit size) adds toggles proportional to the
//!   unshared *y* operand (§II-B's exposed Hamming distance) ⇒ Fig. 15;
//! * the **coupling term**: crosstalk between the adjacent
//!   equally-delayed x₀/x₁ lines adds `ε`-weighted toggles proportional
//!   to the unshared *x* operand ⇒ the residual first-order leakage of
//!   Fig. 17.

use crate::masked::core_ff::CycleRecord;
use gm_core::bitslice::{SegLaneCounter, LANES};
use gm_sim::MeasurementModel;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Leakage mechanisms specific to the secAND2-PD core.
#[derive(Debug, Clone, Copy)]
pub struct PdLeakModel {
    /// Probability that one `secAND2-PD` evaluation sees its safe arrival
    /// order violated. See [`order_violation_prob`] for the mapping from
    /// DelayUnit size.
    pub order_violation_prob: f64,
    /// Extra toggles per violated gadget whose exposed `y` is 1.
    pub glitch_gain: f64,
    /// Crosstalk energy per gadget whose unshared `x` is 1 (the ε of the
    /// Miller-coupling between the x₀ and x₁ delay lines).
    pub coupling_eps: f64,
}

impl PdLeakModel {
    /// The paper's final configuration: DelayUnit = 10 LUTs (order
    /// violations negligible) but physical coupling present. ε = 0.048
    /// places the first-order onset near 120 k traces — the paper's
    /// "approximately 15 M" at the 400 k ≙ 50 M scale.
    pub fn optimal() -> Self {
        PdLeakModel {
            order_violation_prob: order_violation_prob(10),
            glitch_gain: 6.0,
            coupling_eps: 0.048,
        }
    }

    /// A DelayUnit-size sweep point with default gains (Fig. 15).
    pub fn with_unit_luts(unit_luts: usize) -> Self {
        PdLeakModel {
            order_violation_prob: order_violation_prob(unit_luts),
            glitch_gain: 6.0,
            coupling_eps: 0.048,
        }
    }
}

/// Probability that per-event jitter reorders two edges that a DelayUnit
/// of `unit_luts` LUTs is supposed to separate.
///
/// The nominal separation grows linearly with the unit size
/// (`unit_luts · d_LUT`) while the timing noise of the competing paths is
/// roughly constant. Routing-dominated FPGA jitter is heavy-tailed, so
/// we use a Laplace tail `½·e^{−u/λ}` rather than a Gaussian one.
/// λ = 1.75 calibrates the Fig. 15 → Fig. 17 progression at the
/// workspace's 400 k ≙ 50 M trace scale: 1–3 LUTs leak within the
/// 8 k-trace sweep budget, 5 LUTs flags at a few ×, 7 LUTs only at ~10×
/// (the paper's 5 M follow-up), and at 10 LUTs order violations are so
/// rare that the coupling term dominates the residual leakage.
pub fn order_violation_prob(unit_luts: usize) -> f64 {
    const LAMBDA: f64 = 1.75;
    0.5 * (-(unit_luts as f64) / LAMBDA).exp()
}

/// Mean (`n·p`) below which [`binomial`] uses exact CDF inversion.
///
/// Inversion walks the CDF from 0, so its expected cost is `O(n·p)` draws
/// of the probability recurrence — bounded by this constant. Above it the
/// Gaussian approximation is used; at `n·p ≥ 10` (with `p ≤ ½` after the
/// symmetry flip) the normal approximation's total-variation error is
/// below ~1%, far under the measurement noise it feeds into.
const BINV_MAX_MEAN: f64 = 10.0;

/// Draw `Binomial(n, p)` in O(1) expected time.
///
/// Replaces per-unit thinning (one uniform per glitch unit) on the
/// campaign hot path: exact CDF inversion while `n·p ≤` a documented
/// threshold (`BINV_MAX_MEAN`), Gaussian-tail approximation above it.
/// `p` is clamped to `[0, 1]`; `p ≥ 1` returns `n` exactly (the
/// deterministic case tests rely on).
pub fn binomial(rng: &mut SmallRng, n: u32, p: f64) -> u32 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Sample the rarer outcome and mirror, keeping q ≤ ½ so both branches
    // stay in their accurate/cheap regime.
    let flip = p > 0.5;
    let q = if flip { 1.0 - p } else { p };
    let x = if f64::from(n) * q <= BINV_MAX_MEAN {
        binomial_inversion(rng, n, q)
    } else {
        binomial_gaussian(rng, n, q)
    };
    if flip {
        n - x
    } else {
        x
    }
}

/// Exact inversion (the classic BINV walk): subtract pmf terms from one
/// uniform until it is exhausted. Expected iterations = `n·q`.
fn binomial_inversion(rng: &mut SmallRng, n: u32, q: f64) -> u32 {
    binv_walk(rng, n, q / (1.0 - q), pow_n(1.0 - q, n))
}

/// `base^n`, kept out of line: [`GlitchSampler`]'s table and
/// [`binomial_inversion`] must round every power identically, which a
/// call site that constant-folds `powi` would not guarantee.
#[inline(never)]
fn pow_n(base: f64, n: u32) -> f64 {
    base.powi(n as i32)
}

/// The BINV walk from `pr = (1 − q)^n` with odds ratio `s = q/(1 − q)`.
#[inline]
fn binv_walk(rng: &mut SmallRng, n: u32, s: f64, mut pr: f64) -> u32 {
    let mut u: f64 = rng.random();
    let mut x = 0u32;
    while u > pr {
        u -= pr;
        x += 1;
        if x > n {
            // Float round-off past the end of the support.
            return n;
        }
        pr *= s * f64::from(n - x + 1) / f64::from(x);
    }
    x
}

/// Gaussian approximation with continuity correction, clamped to `[0, n]`.
fn binomial_gaussian(rng: &mut SmallRng, n: u32, q: f64) -> u32 {
    let mean = f64::from(n) * q;
    let sd = (mean * (1.0 - q)).sqrt();
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + sd * g + 0.5).floor().clamp(0.0, f64::from(n)) as u32
}

/// Largest exposure count one PD clock cycle can hold: 8 S-boxes × 34
/// `secAND2` gadgets.
const MAX_CYCLE_EXPOSURES: usize = 272;

/// [`binomial`] for one fixed `p`, with its per-call set-up hoisted: the
/// symmetry flip, the odds ratio, the inversion/Gaussian cutoff and a
/// table of `(1 − q)^n` for every `n` up to [`MAX_CYCLE_EXPOSURES`] that
/// inversion serves. Every draw equals `binomial(rng, n, p)` and consumes
/// the same RNG words; counts the table does not cover, the Gaussian
/// branch and the degenerate `p` go to [`binomial`] itself.
#[derive(Debug, Clone)]
struct GlitchSampler {
    p: f64,
    flip: bool,
    s: f64,
    /// `pr0[n] = (1 − q)^n` for the counts `1..pr0.len()` that take the
    /// inversion branch (`pr0[0]` is unused: `n = 0` draws nothing).
    pr0: Vec<f64>,
}

impl GlitchSampler {
    /// The sampler for `Binomial(·, p)`.
    fn new(p: f64) -> Self {
        let flip = p > 0.5;
        let q = if flip { 1.0 - p } else { p };
        let len = if p > 0.0 && p < 1.0 {
            // `n·q ≤ BINV_MAX_MEAN` holds for a prefix of the counts.
            (0..=MAX_CYCLE_EXPOSURES as u32)
                .take_while(|&n| f64::from(n) * q <= BINV_MAX_MEAN)
                .count()
        } else {
            0
        };
        let pr0 = (0..len as u32).map(|n| pow_n(1.0 - q, n)).collect();
        GlitchSampler { p, flip, s: q / (1.0 - q), pr0 }
    }

    /// Draw `Binomial(n, p)`: the value and RNG state [`binomial`] gives.
    #[inline]
    fn draw(&self, rng: &mut SmallRng, n: u32) -> u32 {
        match self.pr0.get(n as usize) {
            Some(&pr) if n > 0 => {
                let x = binv_walk(rng, n, self.s, pr);
                if self.flip {
                    n - x
                } else {
                    x
                }
            }
            _ => binomial(rng, n, self.p),
        }
    }
}

/// Converts per-cycle [`CycleRecord`]s into a noisy power trace.
#[derive(Debug)]
pub struct PowerModel {
    /// Weight per register share toggle.
    pub reg_weight: f64,
    /// Weight per combinational share toggle.
    pub comb_weight: f64,
    /// PD-specific leak mechanisms; `None` for the FF core.
    pub pd: Option<PdLeakModel>,
    measurement: MeasurementModel,
    rng: SmallRng,
    /// The glitch sampler of [`Self::trace_group_into`], built by the
    /// first PD group (and rebuilt if `pd` changes its probability), so
    /// building a model stays cheap.
    glitch: Option<GlitchSampler>,
}

impl PowerModel {
    /// Model for the secAND2-FF core.
    pub fn ff(noise_sigma: f64, seed: u64) -> Self {
        PowerModel {
            reg_weight: 4.7,
            comb_weight: 1.6,
            pd: None,
            measurement: MeasurementModel::new(1.0, noise_sigma, 16, seed ^ 0x5f35),
            rng: SmallRng::seed_from_u64(seed ^ 0x1234_5678_9abc_def0),
            glitch: None,
        }
    }

    /// Model for the secAND2-PD core.
    pub fn pd(leak: PdLeakModel, noise_sigma: f64, seed: u64) -> Self {
        PowerModel { pd: Some(leak), ..Self::ff(noise_sigma, seed) }
    }

    /// Convert one encryption's cycle records into a power trace
    /// (one sample per cycle).
    pub fn trace(&mut self, cycles: &[CycleRecord]) -> Vec<f64> {
        let mut out = vec![0.0; cycles.len()];
        self.trace_into(cycles, &mut out);
        out
    }

    /// As [`Self::trace`], filling a caller-provided buffer — the
    /// allocation-free path TVLA campaigns run per trace.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != cycles.len()`.
    pub fn trace_into(&mut self, cycles: &[CycleRecord], out: &mut [f64]) {
        assert_eq!(cycles.len(), out.len(), "trace buffer length mismatch");
        if self.pd.is_none() {
            // FF path: the deterministic weighting vectorises once it is
            // separated from the serial noise/quantisation pass, which
            // consumes the measurement RNG in the same per-sample order
            // as the fused loop — the output is bit-identical.
            for (o, c) in out.iter_mut().zip(cycles) {
                *o = self.reg_weight * f64::from(c.reg_toggles)
                    + self.comb_weight * f64::from(c.comb_toggles);
            }
            self.measurement.apply(out);
            return;
        }
        for (o, c) in out.iter_mut().zip(cycles) {
            let mut p = self.reg_weight * f64::from(c.reg_toggles)
                + self.comb_weight * f64::from(c.comb_toggles);
            if let Some(pd) = self.pd {
                // Binomial thinning: each exposed-y gadget violates its
                // arrival order independently — drawn in one shot.
                if pd.order_violation_prob > 0.0 {
                    let violated = binomial(&mut self.rng, c.glitch_units, pd.order_violation_prob);
                    p += pd.glitch_gain * f64::from(violated);
                }
                p += pd.coupling_eps * f64::from(c.coupling_units);
            }
            *o = self.measurement.sample(p);
        }
    }

    /// Convert one ≤64-lane group's finished counters into per-lane power
    /// traces without ever building [`CycleRecord`]s — the lane-major tail
    /// of the bitsliced TVLA pipeline (DESIGN.md §2.13).
    ///
    /// Stage 1 computes the deterministic base energies for all 64 lanes
    /// at once, straight off the sample-major count planes (the counting
    /// is already done inside [`SegLaneCounter`]), eight cycles at a time
    /// through a stack tile into lane-major rows. Stage 2 prefills one
    /// measurement-noise tile for the whole group with a single bulk
    /// ziggurat fill. Stage 3 finishes each of the first `lanes` lanes in
    /// label order and hands the trace to `emit(lane, trace)`.
    ///
    /// Bit-identical to `lanes` successive [`CycleLaneCounters::lane_into`] +
    /// [`Self::trace_into`] calls on the same counters: every per-sample
    /// arithmetic expression is unchanged, and both RNG streams (the
    /// measurement ziggurat and the glitch binomial) are consumed in the
    /// same (lane, sample) order the scalar demux uses. The callers'
    /// golden-trace and campaign-identity tests pin this.
    ///
    /// # Panics
    ///
    /// Panics when `lanes > 64`.
    pub fn trace_group_into(
        &mut self,
        counters: &mut CycleLaneCounters,
        lanes: usize,
        scratch: &mut GroupScratch,
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        assert!(lanes <= LANES, "a bitsliced group has at most {LANES} lanes");
        let n = counters.num_cycles();
        let reg = counters.reg.finish();
        let comb = counters.comb.finish();
        let glitch = counters.glitch.finish();
        let coupling = counters.coupling.finish();

        // Stage 1: base energies for the full 64-lane width, eight cycles
        // at a time: a contiguous, autovectorised sweep over the
        // sample-major counts into a stack tile, then an 8×8-blocked
        // transpose of the tile into lane-major rows
        // (`et[lane * n + cycle]`). Idle lanes compute values that are
        // never read. The finishing loops below then stream unit-stride;
        // walking one lane through the sample-major layout would stride
        // 64 elements per sample, which defeated vectorisation and burned
        // one cache line per sample per lane.
        if scratch.et.len() != n * LANES {
            scratch.et.resize(n * LANES, 0.0);
        }
        let (rw, cw) = (self.reg_weight, self.comb_weight);
        let mut tile = [0.0f64; 8 * LANES];
        for cb in (0..n).step_by(8) {
            let rows = (n - cb).min(8);
            let tile = &mut tile[..rows * LANES];
            let counts = reg[cb * LANES..].iter().zip(&comb[cb * LANES..]);
            for (e, (&r, &c)) in tile.iter_mut().zip(counts) {
                *e = rw * f64::from(r) + cw * f64::from(c);
            }
            for lb in (0..LANES).step_by(8) {
                for c in 0..rows {
                    for l in lb..lb + 8 {
                        scratch.et[l * n + cb + c] = tile[c * LANES + l];
                    }
                }
            }
        }

        // Stage 2: one noise tile per group, lane-major
        // (`noise[lane * n + cycle]`) — exactly the (lane, sample) order
        // the per-lane scalar chain draws the ziggurat stream in.
        let sigma = self.measurement.noise_sigma;
        if sigma > 0.0 {
            if scratch.noise.len() != lanes * n {
                scratch.noise.resize(lanes * n, 0.0);
            }
            self.measurement.fill_gauss(&mut scratch.noise[..lanes * n]);
        }

        // Stage 3: per-lane finish in label order, in place over each
        // lane's `et` row. The glitch binomial stays serial here — it
        // consumes a data-dependent number of RNG words — but it runs on
        // count planes directly, no records, through the fixed-`p`
        // sampler's table; the FF combine is a pure element-wise sweep
        // over two unit-stride rows and vectorises.
        if let Some(pd) = self.pd {
            let p = pd.order_violation_prob;
            if self.glitch.as_ref().is_none_or(|g| g.p.to_bits() != p.to_bits()) {
                self.glitch = Some(GlitchSampler::new(p));
            }
        }
        let gain = self.measurement.gain;
        let fs = self.measurement.full_scale();
        for l in 0..lanes {
            let row = &mut scratch.et[l * n..][..n];
            let noise_row: &[f64] = if sigma > 0.0 { &scratch.noise[l * n..][..n] } else { &[] };
            if let (Some(pd), Some(sampler)) = (self.pd, &self.glitch) {
                for (c, e) in row.iter_mut().enumerate() {
                    let mut p = *e;
                    if pd.order_violation_prob > 0.0 {
                        let violated = sampler.draw(&mut self.rng, glitch[c * LANES + l]);
                        p += pd.glitch_gain * f64::from(violated);
                    }
                    p += pd.coupling_eps * f64::from(coupling[c * LANES + l]);
                    let mut v = p * gain;
                    if sigma > 0.0 {
                        v += noise_row[c] * sigma;
                    }
                    *e = v.round().clamp(-fs, fs - 1.0);
                }
            } else if sigma > 0.0 {
                for (e, &z) in row.iter_mut().zip(noise_row) {
                    let v = *e * gain + z * sigma;
                    *e = v.round().clamp(-fs, fs - 1.0);
                }
            } else {
                for e in row.iter_mut() {
                    *e = (*e * gain).round().clamp(-fs, fs - 1.0);
                }
            }
            emit(l, row);
        }
    }
}

/// Reusable workspace for [`PowerModel::trace_group_into`]: the group's
/// lane-major base energies (finished in place into the emitted traces)
/// and the lane-major noise tile.
#[derive(Debug, Default)]
pub struct GroupScratch {
    et: Vec<f64>,
    noise: Vec<f64>,
}

impl GroupScratch {
    /// An empty workspace; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Popcount-based per-cycle activity accumulator for the 64-lane
/// bitsliced cycle engines ([`crate::masked::bitslice`]).
///
/// The bitsliced cores push one *toggle word* per share bit per cycle
/// into the four [`SegLaneCounter`]s (bit `ℓ` of a word = lane `ℓ`'s
/// 0/1 contribution), which fold the words into the cycle's carry-save
/// count planes as they arrive. [`CycleLaneCounters::end_cycle`] closes
/// the cycle on all four counters, setting its planes aside; a full
/// buffer of 64 planes is transposed once into per-lane counts.
/// [`CycleLaneCounters::finish`] transposes the rest and materialises
/// the exact [`CycleRecord`]s for all lanes, stored lane-major so
/// [`CycleLaneCounters::lane_into`] is a straight copy.
#[derive(Debug, Default)]
pub struct CycleLaneCounters {
    /// Register-toggle (share-wise Hamming distance) words.
    pub reg: SegLaneCounter,
    /// Combinational-activity (share-wise Hamming weight) words.
    pub comb: SegLaneCounter,
    /// Glitch-exposure words: one push per `secAND2` gadget, bit `ℓ` =
    /// the gadget's unshared *y* in lane `ℓ`.
    pub glitch: SegLaneCounter,
    /// Coupling-exposure words: bit `ℓ` = the gadget's unshared *x*.
    pub coupling: SegLaneCounter,
    /// When set, [`Self::finish`] reduces the four count planes but skips
    /// materialising [`CycleRecord`]s — the lane-major pipeline reads the
    /// sample-major planes directly via [`PowerModel::trace_group_into`],
    /// so the 64-lane record transpose (~117 KB per group on the FF core)
    /// is pure waste there. Default `false` keeps the scalar demux path
    /// unchanged; [`Self::lane_into`] asserts the records exist.
    pub skip_records: bool,
    /// Lane-major records: `records[lane * num_cycles + cycle]`, valid
    /// after [`Self::finish`] (unless [`Self::skip_records`]).
    records: Vec<CycleRecord>,
    cycles: usize,
}

impl CycleLaneCounters {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all counters and close no cycles. Stored records stay
    /// allocated (they are fully overwritten by the next
    /// [`Self::finish`]).
    pub fn reset(&mut self) {
        self.reg.reset();
        self.comb.reset();
        self.glitch.reset();
        self.coupling.reset();
        self.cycles = 0;
    }

    /// Close the current clock cycle on all four counters.
    pub fn end_cycle(&mut self) {
        self.reg.mark();
        self.comb.mark();
        self.glitch.mark();
        self.coupling.mark();
    }

    /// Reduce everything pushed since [`Self::reset`] into per-lane
    /// [`CycleRecord`]s. The engines call this once per 64-lane group,
    /// after the last [`Self::end_cycle`].
    pub fn finish(&mut self) {
        let n = self.reg.num_segments();
        self.cycles = n;
        let reg = self.reg.finish();
        let comb = self.comb.finish();
        let glitch = self.glitch.finish();
        let coupling = self.coupling.finish();
        if self.skip_records {
            // The count planes above are reduced and stay readable
            // through the public counter fields; nothing else to do.
            return;
        }
        if self.records.len() != n * LANES {
            self.records.resize(n * LANES, CycleRecord::default());
        }
        // Cycle-outer: the four count slices are read sequentially and
        // the 64 scattered writes per cycle land in the same cache
        // lines for four consecutive cycles.
        for c in 0..n {
            let base = c * LANES;
            for l in 0..LANES {
                self.records[l * n + c] = CycleRecord {
                    reg_toggles: reg[base + l],
                    comb_toggles: comb[base + l],
                    glitch_units: glitch[base + l],
                    coupling_units: coupling[base + l],
                };
            }
        }
    }

    /// Number of closed cycles (valid after [`Self::finish`]).
    pub fn num_cycles(&self) -> usize {
        self.cycles
    }

    /// Copy one lane's cycle column into `out` (cleared first) — the
    /// demux step feeding each lane's records to the unchanged scalar
    /// [`PowerModel::trace_into`].
    pub fn lane_into(&self, lane: usize, out: &mut Vec<CycleRecord>) {
        assert!(lane < LANES);
        assert!(!self.skip_records, "records were skipped; lane demux unavailable");
        out.clear();
        out.extend_from_slice(&self.records[lane * self.cycles..][..self.cycles]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counters_roundtrip() {
        let mut c = CycleLaneCounters::new();
        // Cycle 0: lane 0 gets 2 reg toggles, lane 63 one comb toggle,
        // lane 5 one glitch and one coupling unit.
        c.reg.extend_from_slice(&[1, 1]);
        c.comb.extend_from_slice(&[1 << 63]);
        c.glitch.extend_from_slice(&[1 << 5]);
        c.coupling.extend_from_slice(&[1 << 5]);
        c.end_cycle();
        // Cycle 1: everything quiet except lane 1.
        c.reg.extend_from_slice(&[2]);
        c.end_cycle();
        c.finish();
        assert_eq!(c.num_cycles(), 2);

        let mut lane = Vec::new();
        c.lane_into(0, &mut lane);
        assert_eq!(lane[0], CycleRecord { reg_toggles: 2, ..Default::default() });
        assert_eq!(lane[1], CycleRecord::default());
        c.lane_into(5, &mut lane);
        assert_eq!(
            lane[0],
            CycleRecord { glitch_units: 1, coupling_units: 1, ..Default::default() }
        );
        c.lane_into(63, &mut lane);
        assert_eq!(lane[0], CycleRecord { comb_toggles: 1, ..Default::default() });
        c.lane_into(1, &mut lane);
        assert_eq!(lane[1], CycleRecord { reg_toggles: 1, ..Default::default() });

        c.reset();
        assert_eq!(c.num_cycles(), 0);
    }

    #[test]
    fn violation_prob_monotone_and_calibrated() {
        let p1 = order_violation_prob(1);
        let p3 = order_violation_prob(3);
        let p7 = order_violation_prob(7);
        let p10 = order_violation_prob(10);
        assert!(p1 > p3 && p3 > p7 && p7 > p10);
        assert!(p1 > 0.25 && p1 < 0.40, "1 LUT ≈ 30%: {p1}");
        assert!(p7 > 5.0 * p10, "clear gap between 7 and 10 LUTs");
        assert!(p10 < 0.01, "10 LUTs well below coupling floor: {p10}");
    }

    #[test]
    fn trace_scales_with_toggles() {
        let mut m = PowerModel::ff(0.0, 1);
        let quiet = CycleRecord::default();
        let busy = CycleRecord { reg_toggles: 10, comb_toggles: 20, ..Default::default() };
        let t = m.trace(&[quiet, busy]);
        assert!(t[1] > t[0] + 10.0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        for _ in 0..100 {
            assert!(binomial(&mut rng, 5, 0.5) <= 5);
        }
    }

    /// χ² goodness-of-fit for the exact-inversion regime (n·q ≤ 10):
    /// the sampled histogram must match the exact binomial pmf.
    #[test]
    fn binomial_inversion_chi_squared() {
        let (n, p) = (12u32, 0.3f64);
        let draws = 50_000usize;
        let mut rng = SmallRng::seed_from_u64(0x0b10_0b1e);
        let mut counts = [0u64; 13];
        for _ in 0..draws {
            counts[binomial(&mut rng, n, p) as usize] += 1;
        }
        // Exact pmf via the ratio recurrence.
        let mut pmf = [0.0f64; 13];
        pmf[0] = (1.0 - p).powi(n as i32);
        for k in 0..12usize {
            pmf[k + 1] = pmf[k] * ((n - k as u32) as f64) / ((k + 1) as f64) * p / (1.0 - p);
        }
        // Bins with expectation ≥ 5 (k = 0..=10 here, 10 dof);
        // χ²(10, 0.9999) ≈ 35.6 — anything near that flags a broken sampler.
        let mut chi2 = 0.0;
        for k in 0..13usize {
            let expect = pmf[k] * draws as f64;
            if expect >= 5.0 {
                let d = counts[k] as f64 - expect;
                chi2 += d * d / expect;
            }
        }
        assert!(chi2 < 40.0, "chi2 = {chi2}");
    }

    /// Gaussian-approximation regime (n·q > 10): mean and variance must
    /// track n·p and n·p·(1−p), and the p > 0.5 symmetry flip must hold.
    #[test]
    fn binomial_gaussian_moments() {
        let draws = 40_000usize;
        for p in [0.3f64, 0.7] {
            let n = 500u32;
            let mut rng = SmallRng::seed_from_u64(0x6a55_1a4d);
            let xs: Vec<f64> = (0..draws).map(|_| f64::from(binomial(&mut rng, n, p))).collect();
            let mean = xs.iter().sum::<f64>() / draws as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / draws as f64;
            let (want_mean, want_var) = (f64::from(n) * p, f64::from(n) * p * (1.0 - p));
            assert!((mean - want_mean).abs() < 0.5, "p={p}: mean {mean} vs {want_mean}");
            assert!((var / want_var - 1.0).abs() < 0.1, "p={p}: var {var} vs {want_var}");
            assert!(xs.iter().all(|&x| (0.0..=f64::from(n)).contains(&x)));
        }
    }

    /// The fixed-`p` sampler draws exactly what [`binomial`] draws and
    /// leaves the RNG in the same state: counts past the table end, every
    /// DelayUnit size's probability, both sides of the symmetry flip and
    /// the degenerate `p`.
    #[test]
    fn glitch_sampler_matches_binomial() {
        // At 10 LUTs every count a PD cycle can hold is tabulated.
        assert_eq!(GlitchSampler::new(order_violation_prob(10)).pr0.len(), MAX_CYCLE_EXPOSURES + 1);
        let ps = [0.0].into_iter().chain((1..=10).map(order_violation_prob));
        for p in ps.chain([0.4, 0.5, 0.7, 1.0]) {
            let sampler = GlitchSampler::new(p);
            for n in 0..=300u32 {
                let mut got = SmallRng::seed_from_u64(p.to_bits() ^ u64::from(n));
                let mut want = got.clone();
                for _ in 0..32 {
                    assert_eq!(sampler.draw(&mut got, n), binomial(&mut want, n, p), "p={p} n={n}");
                }
                assert_eq!(got, want, "RNG state after p={p} n={n}");
            }
        }
    }

    /// Counters of a synthetic group: per cycle a few register and
    /// combinational words, and `exposures[cycle]` glitch and coupling
    /// words. The glitch density cycles from a quarter of the lanes to
    /// all of them, so per-lane glitch counts run up to 272, the most one
    /// PD cycle holds.
    fn synthetic_counters(exposures: &[usize]) -> CycleLaneCounters {
        let mut c = CycleLaneCounters::new();
        let mut rng = SmallRng::seed_from_u64(0x9e37_79b9_7f4a_7c15);
        let mut words = |n: usize, density: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    let (x, y) = (rng.random::<u64>(), rng.random::<u64>());
                    [x & y, x, x | y, u64::MAX][density]
                })
                .collect()
        };
        for (cycle, &e) in exposures.iter().enumerate() {
            c.reg.extend_from_slice(&words(3 + cycle % 4, 1));
            c.comb.extend_from_slice(&words(3 + cycle % 4, 1));
            c.glitch.extend_from_slice(&words(e, cycle % 4));
            c.coupling.extend_from_slice(&words(e, 1));
            c.end_cycle();
        }
        c.finish();
        c
    }

    /// The lane-major group path must be BIT-identical to the per-lane
    /// record demux + scalar trace chain, for both cores, with noise, at
    /// glitch probabilities that take the table, the inversion walk far
    /// past x = 0, the Gaussian branch and the symmetry flip.
    #[test]
    fn trace_group_into_bit_identical_to_lane_demux() {
        let pd = |p: f64| {
            move || {
                PowerModel::pd(
                    PdLeakModel { order_violation_prob: p, glitch_gain: 6.0, coupling_eps: 0.048 },
                    3.0,
                    42,
                )
            }
        };
        let models: [&dyn Fn() -> PowerModel; 5] =
            [&|| PowerModel::ff(3.0, 42), &pd(0.0016), &pd(0.03), &pd(0.28), &pd(0.7)];
        // Eleven cycles: one energy tile of eight and a partial one.
        let exposures = [0, 3, 40, 272, 136, 271, 272, 17, 5, 200, 64];
        for (mi, make) in models.iter().enumerate() {
            for lanes in [1usize, 5, 64] {
                let mut counters = synthetic_counters(&exposures);
                let n = counters.num_cycles();

                let mut scalar = make();
                let mut records = Vec::new();
                let mut want = vec![0.0; lanes * n];
                for l in 0..lanes {
                    counters.lane_into(l, &mut records);
                    scalar.trace_into(&records, &mut want[l * n..][..n]);
                }

                let mut wide = make();
                let mut scratch = GroupScratch::new();
                let mut got = vec![0.0; lanes * n];
                wide.trace_group_into(&mut counters, lanes, &mut scratch, |l, trace| {
                    got[l * n..][..n].copy_from_slice(trace);
                });
                assert_eq!(got, want, "model {mi}, {lanes} lanes");
            }
        }
    }

    /// `skip_records` keeps the count planes valid (the wide path reads
    /// them) but makes the record demux unavailable.
    #[test]
    #[should_panic(expected = "records were skipped")]
    fn skip_records_blocks_lane_demux() {
        let mut c = CycleLaneCounters::new();
        c.skip_records = true;
        c.reg.extend_from_slice(&[1]);
        c.end_cycle();
        c.finish();
        assert_eq!(c.num_cycles(), 1);
        let mut lane = Vec::new();
        c.lane_into(0, &mut lane);
    }

    #[test]
    fn glitch_term_active_only_for_pd() {
        let cyc = CycleRecord { glitch_units: 100, ..Default::default() };
        let mut ff = PowerModel::ff(0.0, 2);
        assert_eq!(ff.trace(&[cyc])[0], 0.0);
        let mut pd = PowerModel::pd(
            PdLeakModel { order_violation_prob: 1.0, glitch_gain: 2.0, coupling_eps: 0.0 },
            0.0,
            2,
        );
        assert_eq!(pd.trace(&[cyc])[0], 200.0);
    }
}
