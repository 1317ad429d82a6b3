//! Measurement-chain model: amplifier gain, additive Gaussian noise, and
//! ADC quantisation — turning ideal toggle-count traces into something that
//! looks like the "raw oscilloscope ADC output" of Fig. 13/16.
//!
//! The noise sigma is the lever that maps the paper's trace counts onto
//! tractable simulated campaigns: TVLA detection thresholds scale with
//! `noise² / N`, so dividing sigma by √k divides the traces-to-detection by
//! k. EXPERIMENTS.md records the scaling used for each figure.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::OnceLock;

/// Ziggurat layer count (Marsaglia–Tsang, standard normal).
const ZIG_LAYERS: usize = 256;
/// Rightmost layer boundary for 256 layers.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Per-layer area (the bottom layer's includes the tail mass).
const ZIG_V: f64 = 0.004_928_673_233_974_655;

/// Layer edges `x[i]` and densities `f[i] = exp(-x[i]²/2)`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// Tables are derived once from `(R, V)` by the standard downward
/// recursion and shared process-wide (they are a property of N(0,1),
/// not of any particular noise model instance).
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        // x[0] is the bottom layer's *effective* width: stretching the
        // strip to area V accounts for the tail beyond R.
        x[0] = ZIG_V / (-0.5 * ZIG_R * ZIG_R).exp();
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        for i in 0..=ZIG_LAYERS {
            f[i] = (-0.5 * x[i] * x[i]).exp();
        }
        ZigTables { x, f }
    })
}

/// A word source that serves a prefetched run of raw PRNG output before
/// falling through to the live generator.
///
/// [`MeasurementModel::fill_gauss`] prefetches one word per output
/// sample and resolves every fast-path acceptance straight from the
/// prefetched words. A word that fails the fast path re-enters
/// [`gauss_with`] through this source, positioned at that word: the
/// ziggurat re-reads it, and its wedge or tail draws take the words
/// after it. Each ziggurat sample consumes **at least** one word, so the
/// prefetch never outlives its fill call: draws that run past the
/// prefetched run fall through to the live generator, whose state
/// already sits past it — the consumed stream is position-for-position
/// the sequential one.
struct BufferedWords<'a> {
    buf: &'a [u64],
    pos: usize,
    rng: &'a mut SmallRng,
}

impl RngCore for BufferedWords<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self.buf.get(self.pos) {
            Some(&w) => {
                self.pos += 1;
                w
            }
            None => self.rng.next_u64(),
        }
    }
}

/// One raw word's layer index `i`, uniform `u` and fast-path candidate
/// `x = u·x[i]`, accepted when `|x| < x[i + 1]`. A pure function of the
/// word, so the bulk fill can evaluate it for a whole chunk up front.
#[inline(always)]
fn zig_candidate(bits: u64, t: &ZigTables) -> (usize, f64, f64) {
    let i = (bits & 0xff) as usize;
    // 53-bit uniform in [-1, 1) from the non-layer bits.
    let u = ((bits >> 11) as f64) * (2.0 / 9_007_199_254_740_992.0) - 1.0;
    (i, u, u * t.x[i])
}

/// Ziggurat core, generic over the RNG borrow so the hoisted-table bulk
/// fill and the one-shot path share one implementation. See
/// [`MeasurementModel::gauss`] for the algorithm notes.
fn gauss_with<R: RngCore>(rng: &mut R, t: &ZigTables) -> f64 {
    loop {
        let (i, u, x) = zig_candidate(rng.next_u64(), t);
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            // Tail beyond R: Marsaglia's exponential-majorant draw.
            loop {
                let a = rng.random::<f64>().max(f64::MIN_POSITIVE).ln() / ZIG_R;
                let b = rng.random::<f64>().max(f64::MIN_POSITIVE).ln();
                if -2.0 * b >= a * a {
                    return if u < 0.0 { a - ZIG_R } else { ZIG_R - a };
                }
            }
        }
        // Wedge: accept under the true density.
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.random::<f64>() < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Measurement chain applied to an ideal power trace.
#[derive(Debug, Clone)]
pub struct MeasurementModel {
    /// Multiplicative gain (ADC counts per unit of weighted toggle).
    pub gain: f64,
    /// Additive Gaussian noise sigma, in ADC counts, applied per sample.
    pub noise_sigma: f64,
    /// ADC resolution in bits; samples clamp to the signed full-scale range.
    pub adc_bits: u32,
    rng: SmallRng,
}

impl MeasurementModel {
    /// Build a measurement model with its own noise RNG.
    pub fn new(gain: f64, noise_sigma: f64, adc_bits: u32, seed: u64) -> Self {
        assert!((2..=24).contains(&adc_bits), "unrealistic ADC width");
        MeasurementModel {
            gain,
            noise_sigma,
            adc_bits,
            rng: SmallRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b),
        }
    }

    /// Standard normal deviate: 256-layer ziggurat (Marsaglia–Tsang).
    ///
    /// The noise draw sits on the campaign hot path — one per trace
    /// sample — and Box–Muller's `ln`/`sin_cos` pair dominated whole
    /// TVLA campaigns. The ziggurat needs one `u64` draw, a table
    /// lookup, and a multiply ~98.8% of the time; only wedge and tail
    /// rejections (the remaining ~1%) touch `exp`/`ln`. The sampled
    /// distribution is exactly N(0,1) either way.
    fn gauss(&mut self) -> f64 {
        gauss_with(&mut self.rng, zig_tables())
    }

    /// Fill `out` with standard-normal draws — the bulk form of the
    /// per-sample ziggurat, consuming the noise RNG stream in element
    /// order. `out[j]` is bit-identical to the `j`-th sequential
    /// `gauss()` on the same state; the lane-major trace sources prefill
    /// one tile per 64-trace group with this so the noise stage runs
    /// once per group instead of once per sample call.
    ///
    /// Two phases per 1 024-sample chunk. Phase 1 prefetches one raw
    /// word per sample (the xoshiro chain retires back-to-back) and
    /// computes every word's fast-path candidate and accept flag, a
    /// branch-free loop that vectorises. Phase 2 walks the words in
    /// stream order, copies each run of accepted candidates into `out`
    /// with one `copy_from_slice`, and hands each rejected word (~1.2 %)
    /// to `gauss_with` through `BufferedWords`, which resolves the
    /// wedge or tail exactly as the sequential draw does.
    pub fn fill_gauss(&mut self, out: &mut [f64]) {
        let t = zig_tables();
        const CHUNK: usize = 1024;
        let mut words = [0u64; CHUNK];
        let mut cand = [0.0f64; CHUNK];
        let mut rejected = [false; CHUNK];
        for block in out.chunks_mut(CHUNK) {
            let n = block.len();
            let (words, cand, rejected) = (&mut words[..n], &mut cand[..n], &mut rejected[..n]);
            for w in words.iter_mut() {
                *w = self.rng.next_u64();
            }
            for ((&w, c), r) in words.iter().zip(cand.iter_mut()).zip(rejected.iter_mut()) {
                let (i, _, x) = zig_candidate(w, t);
                *c = x;
                *r = x.abs() >= t.x[i + 1];
            }
            // Every sample consumes at least one word, so `o <= src.pos`
            // and a run of accepted words always fits in `block`.
            let mut src = BufferedWords { buf: words, pos: 0, rng: &mut self.rng };
            let mut o = 0;
            while o < n {
                let pos = src.pos.min(n);
                let run = rejected[pos..].iter().position(|&r| r).unwrap_or(n - pos);
                block[o..o + run].copy_from_slice(&cand[pos..pos + run]);
                o += run;
                src.pos = pos + run;
                if o < n {
                    block[o] = gauss_with(&mut src, t);
                    o += 1;
                }
            }
        }
    }

    /// Noise-free unquantised chain (for calibration and debugging).
    pub fn ideal() -> Self {
        MeasurementModel::new(1.0, 0.0, 24, 0)
    }

    /// ADC full scale (half range, signed).
    pub fn full_scale(&self) -> f64 {
        f64::from(1u32 << (self.adc_bits - 1))
    }

    /// Apply gain, noise, and quantisation to one sample.
    pub fn sample(&mut self, ideal: f64) -> f64 {
        let mut v = ideal * self.gain;
        if self.noise_sigma > 0.0 {
            v += self.gauss() * self.noise_sigma;
        }
        let fs = self.full_scale();
        v.round().clamp(-fs, fs - 1.0)
    }

    /// Apply the chain to a whole trace in place — batched form of
    /// [`MeasurementModel::sample`], bit-identical per element.
    ///
    /// The chain splits into three element-wise loops — gain, noise
    /// draws, round/clamp — so the gain and quantisation stages
    /// autovectorize. The noise stage stays sequential: the ziggurat
    /// consumes a variable number of RNG words per draw and the stream
    /// order is pinned by the golden traces. Every element still sees
    /// exactly `sample`'s arithmetic in `sample`'s order, so `sample` is
    /// this loop's oracle.
    pub fn apply(&mut self, trace: &mut [f64]) {
        for s in trace.iter_mut() {
            *s *= self.gain;
        }
        if self.noise_sigma > 0.0 {
            for s in trace.iter_mut() {
                *s += self.gauss() * self.noise_sigma;
            }
        }
        let fs = self.full_scale();
        for s in trace.iter_mut() {
            *s = s.round().clamp(-fs, fs - 1.0);
        }
    }

    /// Run `ideal` through the chain into `out` (up to the shorter of
    /// the two slices): the out-of-place batched form campaign trace
    /// sources use to turn binned toggle energy into ADC samples.
    pub fn sample_into(&mut self, ideal: &[f64], out: &mut [f64]) {
        let n = ideal.len().min(out.len());
        out[..n].copy_from_slice(&ideal[..n]);
        self.apply(&mut out[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_chain_rounds_only() {
        let mut m = MeasurementModel::ideal();
        assert_eq!(m.sample(3.4), 3.0);
        assert_eq!(m.sample(3.6), 4.0);
    }

    #[test]
    fn clamps_to_adc_range() {
        let mut m = MeasurementModel::new(1.0, 0.0, 8, 0);
        assert_eq!(m.sample(1e9), 127.0);
        assert_eq!(m.sample(-1e9), -128.0);
    }

    #[test]
    fn noise_statistics() {
        let mut m = MeasurementModel::new(1.0, 10.0, 16, 1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| m.sample(100.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        // Quantisation adds 1/12 variance.
        assert!((var - 100.0).abs() < 5.0, "var {var}");
    }

    /// The split-loop batched chain must consume the RNG stream exactly
    /// like the per-sample oracle [`MeasurementModel::sample`]: same seed,
    /// same ADC counts, via both entry points.
    #[test]
    fn batched_chain_matches_per_sample() {
        let ideal: Vec<f64> = (0..257).map(|i| (i as f64 * 13.7).sin() * 900.0).collect();
        let mut want = Vec::new();
        {
            let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
            for &s in &ideal {
                want.push(m.sample(s));
            }
        }
        let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
        let mut got = ideal.clone();
        m.apply(&mut got);
        assert_eq!(got, want, "apply");
        let mut m = MeasurementModel::new(1.3, 6.0, 12, 77);
        let mut got = vec![0.0; ideal.len()];
        m.sample_into(&ideal, &mut got);
        assert_eq!(got, want, "sample_into");
    }

    /// Raw-word log of the sequential oracle, for classifying draws.
    struct Logged {
        rng: SmallRng,
        words: Vec<u64>,
    }

    impl RngCore for Logged {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let w = self.rng.next_u64();
            self.words.push(w);
            w
        }
    }

    /// Which slow paths a run of `fills` (consecutive `fill_gauss`
    /// lengths) takes from `seed`: wedge rejections, `i == 0` tail draws,
    /// and rejections on a chunk's last prefetched word, whose slow path
    /// then draws from the live generator.
    fn slow_paths(seed: u64, fills: &[usize]) -> [usize; 3] {
        let t = zig_tables();
        let m = MeasurementModel::new(1.0, 1.0, 12, seed);
        let mut log = Logged { rng: m.rng, words: Vec::new() };
        let mut hits = [0; 3];
        for &len in fills {
            let mut left = len;
            while left > 0 {
                let n = left.min(1024);
                let last_prefetched = log.words.len() + n - 1;
                for _ in 0..n {
                    let start = log.words.len();
                    gauss_with(&mut log, t);
                    let (i, _, x) = zig_candidate(log.words[start], t);
                    if x.abs() < t.x[i + 1] {
                        continue;
                    }
                    hits[if i == 0 { 1 } else { 0 }] += 1;
                    hits[2] += usize::from(start == last_prefetched);
                }
                left -= n;
            }
        }
        hits
    }

    /// The bulk fill is the sequential `gauss()` stream, bit for bit,
    /// across chunk boundaries and split fills, and leaves the generator
    /// where the sequential draws leave it. The seeds are chosen so the
    /// runs take every slow path: wedge, tail, and a rejection on a
    /// chunk's last prefetched word.
    #[test]
    fn fill_gauss_matches_sequential_draws() {
        let fills: &[&[usize]] = &[
            &[0],
            &[1],
            &[1023],
            &[1024],
            &[1025],
            &[64 * 34],
            &[64 * 115],
            &[300, 700],
            &[1, 1023, 1025, 0, 7],
            &[64 * 34, 64 * 34, 64 * 34],
            &[64 * 115, 64 * 115],
        ];
        let mut hits = [0; 3];
        // Seed 5 supplies the chunk-last rejections; see the assert below.
        for seed in [123, 5] {
            for fill in fills {
                let total: usize = fill.iter().sum();
                let mut seq = MeasurementModel::new(1.0, 1.0, 12, seed);
                let want: Vec<u64> = (0..total).map(|_| seq.gauss().to_bits()).collect();
                let mut bulk = MeasurementModel::new(1.0, 1.0, 12, seed);
                let mut got = Vec::new();
                for &len in *fill {
                    let mut out = vec![0.0; len];
                    bulk.fill_gauss(&mut out);
                    got.extend(out.iter().map(|x| x.to_bits()));
                }
                assert!(got == want, "seed {seed}, fills {fill:?}: values differ");
                assert_eq!(
                    bulk.gauss().to_bits(),
                    seq.gauss().to_bits(),
                    "seed {seed}, fills {fill:?}: generator state differs"
                );
                for (h, n) in hits.iter_mut().zip(slow_paths(seed, fill)) {
                    *h += n;
                }
            }
        }
        let [wedge, tail, spill] = hits;
        assert!(wedge > 0 && tail > 0 && spill > 0, "slow paths hit: {hits:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MeasurementModel::new(1.0, 5.0, 12, 9);
        let mut b = MeasurementModel::new(1.0, 5.0, 12, 9);
        for _ in 0..100 {
            assert_eq!(a.sample(7.0), b.sample(7.0));
        }
    }
}
