//! Per-instance gate delay model.
//!
//! Three layers, mirroring a real fabric:
//!
//! 1. **Nominal** delay per cell kind ([`gm_netlist::GateKind::nominal_delay_ps`]).
//! 2. **Process/placement variation**: a per-instance factor sampled once
//!    when the "device is manufactured" (i.e. when the model is built).
//!    On FPGA this captures routing-detour differences between LUTs.
//! 3. **Per-event jitter**: electrical noise, supply ripple and local
//!    temperature, sampled for every propagation. This is what makes two
//!    nominally-ordered edges occasionally swap — the effect that defeats
//!    undersized DelayUnits in Fig. 15.

use gm_netlist::{GateId, Netlist};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Inertial pulse-rejection width of every gate: pulses narrower than
/// this are annihilated rather than propagated. Physically the gate's
/// output switching (rise/fall) time — much shorter than its propagation
/// delay.
pub const PULSE_REJECT_PS: u64 = 200;

/// Delay model for one instantiated netlist.
///
/// The per-instance tables are precomputed when the "device" is built:
/// `base_fixed_ps` holds the already-clamped integer delay used on the
/// jitter-free fast path, so the event hot loop never recomputes it.
#[derive(Debug, Clone)]
pub struct DelayModel {
    base_ps: Vec<f64>,
    /// `max(base_ps, 1)` as integer ps: the whole sample when jitter is off.
    base_fixed_ps: Vec<u64>,
    jitter_sigma_ps: f64,
}

impl DelayModel {
    fn from_base(base_ps: Vec<f64>, jitter_sigma_ps: f64) -> Self {
        let base_fixed_ps = base_ps.iter().map(|&d| d.max(1.0) as u64).collect();
        DelayModel { base_ps, base_fixed_ps, jitter_sigma_ps }
    }

    /// Nominal delays only: no variation, no jitter. Deterministic; good
    /// for functional and directed glitch tests.
    pub fn nominal(n: &Netlist) -> Self {
        Self::from_base(n.gates().iter().map(|g| g.kind.nominal_delay_ps() as f64).collect(), 0.0)
    }

    /// Nominal delays scaled by a per-instance factor drawn uniformly from
    /// `[1 - spread, 1 + spread]`, plus per-event Gaussian jitter with the
    /// given sigma. `seed` fixes the "manufactured device".
    pub fn with_variation(n: &Netlist, spread: f64, jitter_sigma_ps: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let base_ps = n
            .gates()
            .iter()
            .map(|g| {
                let f = 1.0 + spread * (rng.random::<f64>() * 2.0 - 1.0);
                g.kind.nominal_delay_ps() as f64 * f
            })
            .collect();
        Self::from_base(base_ps, jitter_sigma_ps)
    }

    /// Per-event jitter sigma in ps.
    pub fn jitter_sigma_ps(&self) -> f64 {
        self.jitter_sigma_ps
    }

    /// Base (nominal × process) delay of a gate instance in ps.
    pub fn base_ps(&self, gate: GateId) -> f64 {
        self.base_ps[gate.index()]
    }

    /// Sample the delay of the `ordinal`-th *toggling* evaluation of
    /// `gate` within the trace salted by `salt`.
    ///
    /// **Order-invariant**: the draw depends only on `(gate, ordinal,
    /// salt)`, never on global event processing order. Two engines that
    /// evaluate the same gate the same number of times draw identical
    /// delays even when they interleave unrelated gates differently —
    /// the property the compiled-schedule backend's wheel≡schedule
    /// equivalence rests on (see `sched`). The event engine's hot loop
    /// calls this once per scheduled output change, and
    /// [`crate::ClockedCore`] once per FF launch (ordinal = clock edge),
    /// so every jitter draw in the crate is a counter hash plus one
    /// quantile-table lookup, with no rejection loop and no RNG state.
    /// Always at least 1 ps, so causality is preserved.
    #[inline]
    pub fn sample_event_ps(&self, gate: GateId, salt: u64, ordinal: u32) -> u64 {
        let gi = gate.index();
        if self.jitter_sigma_ps > 0.0 {
            let g = quantized_gaussian(event_hash(salt, gate.0, ordinal));
            (self.base_ps[gi] + g * self.jitter_sigma_ps).max(1.0) as u64
        } else {
            self.base_fixed_ps[gi]
        }
    }

    /// Jitter-free fixed delay of `gate` — the compile-time base the
    /// compiled schedule ([`crate::sched`]) orders its sweep by.
    pub(crate) fn base_fixed_of(&self, gate: GateId) -> u64 {
        self.base_fixed_ps[gate.index()]
    }

    /// Batched [`DelayModel::sample_event_ps`] over the first `n` keys
    /// of `tile` (one gate, per-draw `(salt, ordinal)` inputs): fills
    /// `tile.d[..n]` with the same `u64` picoseconds the scalar sampler
    /// draws for each `(gate, tile.salt[j], tile.ord[j])`.
    ///
    /// **Bit-identical** by construction: every arithmetic step either
    /// is the scalar op itself or provably computes the same value (see
    /// the stage comments). The work is split into flat stages over the
    /// tile so the hash and float pipelines autovectorize under the
    /// repo's x86-64-v3 baseline — the scalar chain's ~15-cycle serial
    /// tail is the hottest per-event cost in a glitch campaign.
    pub fn sample_event_tile(&self, gate: GateId, n: usize, tile: &mut JitterTile) {
        debug_assert!(n <= TILE);
        let gi = gate.index();
        if self.jitter_sigma_ps <= 0.0 {
            tile.d[..n].fill(self.base_fixed_ps[gi]);
            return;
        }
        // Stage 1 — hash, uniform conversion, knot index and fraction in
        // one element-wise loop (everything up to the table gather, so
        // the whole chain autovectorizes with values held in registers).
        //
        // The hash is `event_hash` verbatim. The u64→f64 conversion
        // splits the 53-bit value at 2^52: `v as f64` is exact for
        // v < 2^53, and so are both halves and their sum (all integers
        // under 2^53), so `lo + hi` equals the scalar's single
        // conversion bit-for-bit — AVX2 has no packed u64→f64, but the
        // split form vectorizes. `x as u32` truncates to the same
        // integer as the scalar's `x as usize` (x ∈ [0, 2047)).
        const EXP52: u64 = 0x4330_0000_0000_0000; // 2^52 as f64 bits
        const TWO52: f64 = 4_503_599_627_370_496.0;
        let gate_hi = (gate.0 as u64) << 32;
        // Lanes of one visit usually share the toggling-evaluation
        // ordinal (they advance in lockstep until glitch trains split
        // them), and the index stride depends only on `(gate, ordinal)`
        // — when all ordinals match, its 64-bit multiply hoists out of
        // the loop, leaving the salt mix as the only per-draw u64
        // multiplies. Identical arithmetic per element either way.
        let ord0 = tile.ord[0];
        let uniform = tile.ord[..n].iter().all(|&o| o == ord0);
        if uniform {
            let idx = (gate_hi | ord0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for j in 0..n {
                let mut z = tile.salt[j] ^ idx;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let v = (z ^ (z >> 31)) >> 11;
                let lo = f64::from_bits((v & (TWO52 as u64 - 1)) | EXP52) - TWO52;
                let hi = ((v >> 52) as u32 as f64) * TWO52;
                let u = (lo + hi) * (1.0 / (1u64 << 53) as f64);
                let x = u * (QUANT_KNOTS - 1) as f64;
                let i = x as u32;
                tile.knot[j] = i;
                tile.frac[j] = x - i as f64;
            }
        } else {
            for j in 0..n {
                let idx = (gate_hi | tile.ord[j] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut z = tile.salt[j] ^ idx;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let v = (z ^ (z >> 31)) >> 11;
                let lo = f64::from_bits((v & (TWO52 as u64 - 1)) | EXP52) - TWO52;
                let hi = ((v >> 52) as u32 as f64) * TWO52;
                let u = (lo + hi) * (1.0 / (1u64 << 53) as f64);
                let x = u * (QUANT_KNOTS - 1) as f64;
                let i = x as u32;
                tile.knot[j] = i;
                tile.frac[j] = x - i as f64;
            }
        }
        // Stage 2 — gathered lerp and the delay clamp. The masks are
        // no-ops (i ≤ 2046) that let the fixed-size table index without
        // bounds checks; `as i64 as u64` equals the scalar's `as u64`
        // for the clamped range [1, 2^63) and compiles to the bare
        // conversion instead of the unsigned fix-up sequence.
        let t = quant_table();
        let base = self.base_ps[gi];
        let sigma = self.jitter_sigma_ps;
        for j in 0..n {
            let i = tile.knot[j] as usize & (QUANT_KNOTS - 1);
            let t0 = t[i];
            let t1 = t[(i + 1) & (QUANT_KNOTS - 1)];
            let q = t0 + tile.frac[j] * (t1 - t0);
            tile.d[j] = (base + q * sigma).max(1.0) as i64 as u64;
        }
    }
}

/// Tile width of the staged batch sampler
/// ([`DelayModel::sample_event_tile`]): one draw per sweep lane.
pub const TILE: usize = 64;

/// Reusable stage buffers for [`DelayModel::sample_event_tile`]. Owned
/// by each sweep runner so the arrays stay cache-hot and are never
/// re-zeroed: every stage writes `..n` before anything reads it.
#[derive(Debug, Clone)]
pub struct JitterTile {
    /// Input: per-draw trace salt.
    pub salt: [u64; TILE],
    /// Input: per-draw toggling-evaluation ordinal.
    pub ord: [u32; TILE],
    /// Output: sampled delays in integer ps.
    pub d: [u64; TILE],
    frac: [f64; TILE],
    knot: [u32; TILE],
}

impl Default for JitterTile {
    fn default() -> Self {
        JitterTile {
            salt: [0; TILE],
            ord: [0; TILE],
            d: [0; TILE],
            frac: [0.0; TILE],
            knot: [0; TILE],
        }
    }
}

impl JitterTile {
    /// A fresh tile (buffers zeroed once; stages overwrite before use).
    pub fn new() -> Self {
        JitterTile::default()
    }
}

/// Mix `(salt, gate, ordinal)` into one uniform 64-bit word
/// (splitmix64 finalizer over a golden-ratio index stride).
#[inline]
pub(crate) fn event_hash(salt: u64, gate: u32, ordinal: u32) -> u64 {
    splitmix(salt ^ event_index(gate, ordinal))
}

/// The golden-ratio index stride of [`event_hash`], shared with the
/// wide variants so per-`(gate, ordinal)` work is hoisted out of lane
/// loops.
#[inline]
fn event_index(gate: u32, ordinal: u32) -> u64 {
    ((gate as u64) << 32 | ordinal as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// splitmix64 finalizer (the mixing tail of [`event_hash`]).
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Quantile knots of the piecewise-linear inverse normal CDF used for
/// per-event jitter. 2048 knots keep the table L1-resident (16 KiB);
/// the distribution is truncated at the outermost knots
/// (±Φ⁻¹(1/4096) ≈ ±3.54σ), a deliberate model simplification: a
/// jitter excursion beyond 3.5σ on a ~1 ns gate delay is electrically
/// implausible, and the truncation error is invisible to every
/// moment/quantile test at campaign scale.
const QUANT_KNOTS: usize = 2048;

fn quant_table() -> &'static [f64; QUANT_KNOTS] {
    static TBL: std::sync::OnceLock<[f64; QUANT_KNOTS]> = std::sync::OnceLock::new();
    TBL.get_or_init(|| {
        let mut t = [0.0f64; QUANT_KNOTS];
        for (i, v) in t.iter_mut().enumerate() {
            *v = inv_norm_cdf((i as f64 + 0.5) / QUANT_KNOTS as f64);
        }
        t
    })
}

/// Standard-normal draw from one uniform 64-bit word: piecewise-linear
/// interpolation between the [`quant_table`] quantile knots.
#[inline]
pub(crate) fn quantized_gaussian(h: u64) -> f64 {
    let t = quant_table();
    // Top 53 bits -> uniform in [0, 1), scaled to the knot index range.
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let x = u * (QUANT_KNOTS - 1) as f64;
    let i = x as usize;
    let f = x - i as f64;
    t[i] + f * (t[i + 1] - t[i])
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.2e-9). Only runs at table-build time.
fn inv_norm_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_norm_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_netlist::Netlist;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        let z = n.xor2(y, a);
        n.output("z", z);
        n
    }

    #[test]
    fn nominal_matches_library() {
        let n = tiny();
        let m = DelayModel::nominal(&n);
        assert_eq!(m.base_ps(GateId(0)), 350.0);
        assert_eq!(m.base_ps(GateId(1)), 450.0);
    }

    #[test]
    fn variation_is_bounded_and_deterministic() {
        let n = tiny();
        let m1 = DelayModel::with_variation(&n, 0.2, 0.0, 7);
        let m2 = DelayModel::with_variation(&n, 0.2, 0.0, 7);
        for g in [GateId(0), GateId(1)] {
            assert_eq!(m1.base_ps(g), m2.base_ps(g), "same seed, same device");
            let nom = n.gate(g).kind.nominal_delay_ps() as f64;
            assert!(m1.base_ps(g) >= nom * 0.8 && m1.base_ps(g) <= nom * 1.2);
        }
        let m3 = DelayModel::with_variation(&n, 0.2, 0.0, 8);
        assert_ne!(m1.base_ps(GateId(0)), m3.base_ps(GateId(0)), "different seed");
    }

    #[test]
    fn jitter_spreads_samples() {
        let n = tiny();
        let m = DelayModel::with_variation(&n, 0.0, 50.0, 1);
        let samples: Vec<u64> = (0..100).map(|o| m.sample_event_ps(GateId(0), 42, o)).collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() > 10, "jitter should vary the delay");
        assert!(samples.iter().all(|&d| d >= 1));
    }

    /// With jitter off the batched sampler fills the tile with the
    /// clamped fixed base, whatever the keys: the compiled sweep's
    /// jitter-free fast path, which the exact probing oracle's devices
    /// and the nominal golden train run.
    #[test]
    fn jitter_free_fast_path_matches_clamped_base() {
        let n = tiny();
        let m = DelayModel::with_variation(&n, 0.3, 0.0, 9);
        let mut tile = JitterTile::new();
        for j in 0..TILE {
            tile.salt[j] = j as u64 * 0x9e37_79b9;
            tile.ord[j] = j as u32;
        }
        for g in [GateId(0), GateId(1)] {
            m.sample_event_tile(g, TILE, &mut tile);
            assert!(tile.d.iter().all(|&d| d == m.base_ps(g).max(1.0) as u64));
        }
    }

    /// The per-event draw must depend only on `(gate, ordinal, salt)`:
    /// identical inputs give identical delays regardless of call order,
    /// and each coordinate decorrelates the stream.
    #[test]
    fn event_sampler_is_order_invariant() {
        let n = tiny();
        let m = DelayModel::with_variation(&n, 0.2, 50.0, 7);
        let fwd: Vec<u64> = (0..32).map(|o| m.sample_event_ps(GateId(0), 0xabcd, o)).collect();
        let rev: Vec<u64> =
            (0..32).rev().map(|o| m.sample_event_ps(GateId(0), 0xabcd, o)).collect();
        let mut rev = rev;
        rev.reverse();
        assert_eq!(fwd, rev, "draws must not depend on call order");
        let distinct: std::collections::HashSet<_> = fwd.iter().collect();
        assert!(distinct.len() > 25, "ordinal must vary the draw");
        assert_ne!(
            m.sample_event_ps(GateId(0), 0xabcd, 0),
            m.sample_event_ps(GateId(1), 0xabcd, 0),
            "gate must vary the draw"
        );
        assert_ne!(
            m.sample_event_ps(GateId(0), 0xabcd, 0),
            m.sample_event_ps(GateId(0), 0xabce, 0),
            "salt must vary the draw"
        );
        assert!(fwd.iter().all(|&d| d >= 1));
    }

    /// With jitter off the event sampler is the clamped fixed base.
    #[test]
    fn event_sampler_jitter_free_matches_base() {
        let n = tiny();
        let m = DelayModel::with_variation(&n, 0.3, 0.0, 9);
        for g in [GateId(0), GateId(1)] {
            assert_eq!(m.sample_event_ps(g, 1, 0), m.base_ps(g).max(1.0) as u64);
            assert_eq!(m.sample_event_ps(g, 2, 5), m.sample_event_ps(g, 3, 6));
        }
    }

    /// The staged tile sampler must be **bit-identical** to the scalar
    /// event sampler for every `(salt, gate, ordinal)` — the acceptance
    /// criterion the compiled≡wheel equivalence and the golden trains
    /// rest on. Covers full and partial tiles, adversarial salts
    /// (extreme hash values exercise the split conversion's high half
    /// and the table edges), and the jitter-free fast path.
    #[test]
    fn sample_event_tile_matches_scalar_sampler() {
        let n = tiny();
        for (sigma, salt_seed) in [(400.0, 0x5eed_u64), (50.0, 0xabcd), (0.0, 99)] {
            let m = DelayModel::with_variation(&n, 0.85, sigma, 7);
            let mut tile = JitterTile::new();
            for nt in [1usize, 7, 64] {
                for g in [GateId(0), GateId(1)] {
                    for j in 0..nt {
                        tile.salt[j] =
                            salt_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (j as u64 * 1729 + 5);
                        tile.ord[j] = (j * 3) as u32;
                    }
                    m.sample_event_tile(g, nt, &mut tile);
                    for j in 0..nt {
                        assert_eq!(
                            tile.d[j],
                            m.sample_event_ps(g, tile.salt[j], tile.ord[j]),
                            "sigma {sigma} tile {nt} gate {} draw {j}",
                            g.0
                        );
                    }
                }
            }
            // Adversarial keys: salts crafted so the hash lands near the
            // uniform extremes (sweep many salts; the table's first/last
            // knots and the 2^52 conversion boundary get hit by volume).
            let mut tile = JitterTile::new();
            for round in 0..64u64 {
                for j in 0..TILE {
                    tile.salt[j] = round.wrapping_mul(0x243f_6a88_85a3_08d3) ^ (j as u64) << 55;
                    tile.ord[j] = (round as u32) << 10 | j as u32;
                }
                m.sample_event_tile(GateId(1), TILE, &mut tile);
                for j in 0..TILE {
                    assert_eq!(tile.d[j], m.sample_event_ps(GateId(1), tile.salt[j], tile.ord[j]));
                }
            }
        }
    }

    /// The quantized inverse-CDF sampler must reproduce normal moments
    /// and quantiles within the table-truncation tolerance.
    #[test]
    fn quantized_gaussian_matches_normal() {
        let nsamp = 200_000usize;
        let mut mean = 0.0f64;
        let mut var = 0.0f64;
        let thresholds = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let phi = [0.02275, 0.15866, 0.5, 0.84134, 0.97725];
        let mut below = [0usize; 5];
        for i in 0..nsamp {
            let x = quantized_gaussian(event_hash(0x5eed, 0, i as u32));
            mean += x;
            var += x * x;
            for (c, &t) in below.iter_mut().zip(&thresholds) {
                *c += usize::from(x < t);
            }
            // Truncated at the outermost table knots.
            assert!(x.abs() < 3.6, "sample {x} outside truncation");
        }
        mean /= nsamp as f64;
        var = var / nsamp as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        for ((&c, &p), &t) in below.iter().zip(&phi).zip(&thresholds) {
            let emp = c as f64 / nsamp as f64;
            assert!((emp - p).abs() < 0.01, "CDF({t}) = {emp}, want {p}");
        }
    }
}
