//! One-pass central-moment accumulation per trace sample point.
//!
//! Higher-order univariate t-tests need central moments up to order `2d`;
//! we track orders 2–6, which covers third-order tests. Updates and merges
//! use Pébay's numerically-stable formulas, so campaigns can stream
//! millions of traces across many threads without a second pass.
//!
//! Campaigns fold whole row-major trace blocks with
//! [`TraceMoments::add_block`]: two plain passes and one Pébay two-set
//! fold. Per-trace [`TraceMoments::add`] is its oracle (see DESIGN.md
//! §2.13).

/// Binomial coefficients C(p, k) for p ≤ 6.
const BINOM: [[f64; 7]; 7] = [
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0],
    [1.0, 4.0, 6.0, 4.0, 1.0, 0.0, 0.0],
    [1.0, 5.0, 10.0, 10.0, 5.0, 1.0, 0.0],
    [1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0],
];

/// Streaming central moments (orders 1–6) for every sample point of a
/// fixed-length trace.
///
/// `central_sum(p)[i]` holds `Σ_j (x_j[i] - mean[i])^p`.
///
/// # Examples
///
/// ```
/// use gm_leakage::TraceMoments;
///
/// let mut m = TraceMoments::new(1);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.add(&[x]);
/// }
/// assert_eq!(m.count(), 4);
/// assert!((m.mean()[0] - 2.5).abs() < 1e-12);
/// assert!((m.variance(0) - 1.25).abs() < 1e-12); // population variance
/// ```
#[derive(Debug, Clone)]
pub struct TraceMoments {
    n: u64,
    mean: Vec<f64>,
    /// m[p-2][i] = central sum of order p at sample i, for p = 2..=6.
    m: [Vec<f64>; 5],
}

impl TraceMoments {
    /// Accumulator for traces of `len` samples.
    pub fn new(len: usize) -> Self {
        TraceMoments { n: 0, mean: vec![0.0; len], m: std::array::from_fn(|_| vec![0.0; len]) }
    }

    /// Number of traces accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Trace length.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// True when no traces have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Per-sample means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Central sum `Σ (x - mean)^p` at sample `i`, for `p` in `2..=6`.
    pub fn central_sum(&self, p: usize, i: usize) -> f64 {
        assert!((2..=6).contains(&p), "central sums tracked for p in 2..=6");
        self.m[p - 2][i]
    }

    /// Central moment `CM_p = central_sum(p) / n` at sample `i`.
    pub fn central_moment(&self, p: usize, i: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.central_sum(p, i) / self.n as f64
    }

    /// Population variance at sample `i`.
    pub fn variance(&self, i: usize) -> f64 {
        self.central_moment(2, i)
    }

    /// Accumulate one trace.
    ///
    /// # Panics
    ///
    /// Panics when `trace.len() != self.len()`.
    // Index loops: `i` strides four parallel arrays and `k` walks a
    // triangular slice of BINOM — iterator chains obscure the recurrence.
    #[allow(clippy::needless_range_loop)]
    pub fn add(&mut self, trace: &[f64]) {
        assert_eq!(trace.len(), self.len(), "trace length mismatch");
        self.n += 1;
        let n = self.n as f64;
        if self.n == 1 {
            self.mean.copy_from_slice(trace);
            return;
        }
        let nm1 = n - 1.0;
        for i in 0..trace.len() {
            let delta = trace[i] - self.mean[i];
            let dn = delta / n;
            // A = delta * (n-1)/n ; A^p terms use the "single new point"
            // specialisation of Pébay's formula.
            let a = delta * nm1 / n;
            // Update from highest order down so lower-order sums are still
            // the "old" values when used.
            let neg_inv_nm1 = -1.0 / nm1;
            for p in (2..=6usize).rev() {
                let mut acc = 0.0;
                // Σ_{k=1}^{p-2} C(p,k) · M_{p-k} · (-dn)^k
                let mut ndk = 1.0; // (-dn)^k
                for k in 1..=(p - 2) {
                    ndk *= -dn;
                    acc += BINOM[p][k] * self.m[p - k - 2][i] * ndk;
                }
                // + A^p · (1 - (-1/(n-1))^{p-1})
                let tail = a.powi(p as i32) * (1.0 - neg_inv_nm1.powi(p as i32 - 1));
                self.m[p - 2][i] += acc + tail;
            }
            self.mean[i] += dn;
        }
    }

    /// Merge another accumulator (e.g. from a worker thread).
    ///
    /// # Panics
    ///
    /// Panics on trace-length mismatch.
    pub fn merge(&mut self, other: &TraceMoments) {
        assert_eq!(self.len(), other.len(), "trace length mismatch");
        self.merge_parts(other.n, &other.mean, &other.m);
    }

    /// Overwrite `self` with `src`, reusing existing allocations. The
    /// streaming snapshot publish path calls this once per acquisition
    /// block, so it must not allocate in steady state.
    pub fn copy_from(&mut self, src: &TraceMoments) {
        self.n = src.n;
        self.mean.clone_from(&src.mean);
        for (dst, s) in self.m.iter_mut().zip(src.m.iter()) {
            dst.clone_from(s);
        }
    }

    /// The Pébay two-set combination over raw parts: fold a set of `nb`
    /// traces with per-sample means `mean_b` and central sums `m_b` into
    /// `self`. Shared by [`Self::merge`] and [`Self::add_block`].
    ///
    /// Runs per tile of [`MERGE_TILE`] samples: one pass derives each
    /// sample's `δ`-scaled factors into stack tiles, then one elementwise
    /// sweep per order, highest first, updates that order in place — an
    /// order reads only its own old sum and those of lower orders, which
    /// the sweeps below it have not yet touched. Every element sees
    /// exactly the per-sample two-set formula, in the same operation
    /// order, so the state is bit-identical to the scalar per-sample
    /// merge kept in the tests as its oracle.
    fn merge_parts(&mut self, nb_traces: u64, mean_b: &[f64], m_b: &[Vec<f64>; 5]) {
        if nb_traces == 0 {
            return;
        }
        if self.n == 0 {
            self.n = nb_traces;
            self.mean.copy_from_slice(mean_b);
            for (dst, src) in self.m.iter_mut().zip(m_b) {
                dst.copy_from_slice(src);
            }
            return;
        }
        let na = self.n as f64;
        let nb = nb_traces as f64;
        let n = na + nb;
        let na_nb = na * nb;
        // (1/nb^(p-1) − (−1/na)^(p-1)), the order-p lead coefficient.
        let tail: [f64; 5] = std::array::from_fn(|q| {
            let p = q as i32 + 2;
            1.0 / nb.powi(p - 1) - (-1.0 / na).powi(p - 1)
        });
        let mut f = MergeFactors {
            delta: [0.0; MERGE_TILE],
            a: [0.0; MERGE_TILE],
            b: [0.0; MERGE_TILE],
            lead: [0.0; MERGE_TILE],
        };
        for c in (0..self.len()).step_by(MERGE_TILE) {
            let w = (self.len() - c).min(MERGE_TILE);
            let mean_a = &self.mean[c..c + w];
            for (j, (&ma, &mb)) in mean_a.iter().zip(&mean_b[c..c + w]).enumerate() {
                let delta = mb - ma;
                f.delta[j] = delta;
                f.a[j] = -nb * delta / n;
                f.b[j] = na * delta / n;
                f.lead[j] = na_nb * delta / n;
            }
            let (ma, mb) = (&mut self.m, m_b);
            merge_order::<6>(ma, mb, c, w, &f, tail[4]);
            merge_order::<5>(ma, mb, c, w, &f, tail[3]);
            merge_order::<4>(ma, mb, c, w, &f, tail[2]);
            merge_order::<3>(ma, mb, c, w, &f, tail[1]);
            merge_order::<2>(ma, mb, c, w, &f, tail[0]);
            for (m, &delta) in self.mean[c..c + w].iter_mut().zip(&f.delta) {
                *m += nb * delta / n;
            }
        }
        self.n += nb_traces;
    }

    /// Accumulate a block of traces stored contiguously (`block.len()`
    /// must be a multiple of [`Self::len`]).
    ///
    /// Two plain passes over the block — per-sample means, then central
    /// power sums around the block mean — followed by one Pébay two-set
    /// fold ([`Self::merge`]'s math). Unlike per-trace [`Self::add`],
    /// whose order-2–6 update chains through every trace, the passes
    /// carry no dependency across samples: they run over register-held
    /// columns of up to 8 samples, rows inside, so each sample's sums
    /// still add the rows in row order. `scratch` makes the path
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `block.len()` is not a multiple of the trace length or
    /// the scratch was built for a different trace length.
    pub fn add_block(&mut self, block: &[f64], scratch: &mut BlockScratch) {
        let len = self.len();
        assert_eq!(scratch.mean.len(), len, "scratch length mismatch");
        assert_eq!(block.len() % len.max(1), 0, "block is not whole traces");
        if len == 0 || block.is_empty() {
            return;
        }
        let k = block.len() / len;
        if k == 1 {
            // A single trace has zero central sums around its own mean.
            scratch.mean.copy_from_slice(block);
            for m in &mut scratch.m {
                m.fill(0.0);
            }
            self.merge_parts(1, &scratch.mean, &scratch.m);
            return;
        }
        let inv_k = 1.0 / k as f64;
        let mut c = 0;
        while len - c >= 8 {
            fold_columns::<8>(block, len, c, inv_k, scratch);
            c += 8;
        }
        if len - c >= 4 {
            fold_columns::<4>(block, len, c, inv_k, scratch);
            c += 4;
        }
        if len - c >= 2 {
            fold_columns::<2>(block, len, c, inv_k, scratch);
            c += 2;
        }
        if len - c == 1 {
            fold_columns::<1>(block, len, c, inv_k, scratch);
        }
        self.merge_parts(k as u64, &scratch.mean, &scratch.m);
    }
}

/// Samples per [`TraceMoments::merge_parts`] tile.
const MERGE_TILE: usize = 64;

/// Per-sample factors of one merge tile: `δ = mean_b − mean_a`,
/// `−nb·δ/n`, `na·δ/n` and `na·nb·δ/n`.
struct MergeFactors {
    delta: [f64; MERGE_TILE],
    a: [f64; MERGE_TILE],
    b: [f64; MERGE_TILE],
    lead: [f64; MERGE_TILE],
}

/// One order-`P` sweep of the Pébay two-set merge over samples
/// `c..c + w`, in place: `M_P ← M_P,a + M_P,b + Σ_k C(P,k)·(a^k·M_{P−k},a
/// + b^k·M_{P−k},b) + lead^P·tail`. Reads orders below `P` only, so
/// sweeping `P = 6, 5, …, 2` sees every order's old sums.
#[inline(always)]
fn merge_order<const P: usize>(
    ma: &mut [Vec<f64>; 5],
    mb: &[Vec<f64>; 5],
    c: usize,
    w: usize,
    f: &MergeFactors,
    tail: f64,
) {
    let (lower, upper) = ma.split_at_mut(P - 2);
    // Orders 2..P of `a` (slots from P − 2 on stay empty) and all of `b`.
    let lower: [&[f64]; 5] =
        std::array::from_fn(|q| lower.get(q).map_or(&[][..], |v| &v[c..c + w]));
    let lower_b: [&[f64]; 5] = std::array::from_fn(|q| &mb[q][c..c + w]);
    let dst = &mut upper[0][c..c + w];
    for j in 0..w {
        let mut acc = dst[j] + lower_b[P - 2][j];
        let mut term_a = 1.0;
        let mut term_b = 1.0;
        for k in 1..=(P - 2) {
            term_a *= f.a[j];
            term_b *= f.b[j];
            acc += BINOM[P][k] * (term_a * lower[P - k - 2][j] + term_b * lower_b[P - k - 2][j]);
        }
        dst[j] = acc + f.lead[j].powi(P as i32) * tail;
    }
}

/// Both block passes for the `W` sample columns starting at `c`: the
/// column means (row-order sums times `1/k`), then the central power
/// sums of orders 2–6 around them, all held in registers across the
/// rows and written to `scratch` once.
#[inline(always)]
fn fold_columns<const W: usize>(
    block: &[f64],
    len: usize,
    c: usize,
    inv_k: f64,
    scratch: &mut BlockScratch,
) {
    let rows = || {
        block.chunks_exact(len).map(|row| -> &[f64; W] {
            row[c..c + W].try_into().expect("column tile inside the row")
        })
    };
    let mut mean = [0.0f64; W];
    for x in rows() {
        for j in 0..W {
            mean[j] += x[j];
        }
    }
    for m in &mut mean {
        *m *= inv_k;
    }
    let mut s = [[0.0f64; W]; 5];
    for x in rows() {
        for j in 0..W {
            let d = x[j] - mean[j];
            let d2 = d * d;
            let d3 = d2 * d;
            s[0][j] += d2;
            s[1][j] += d3;
            s[2][j] += d2 * d2;
            s[3][j] += d2 * d3;
            s[4][j] += d3 * d3;
        }
    }
    scratch.mean[c..c + W].copy_from_slice(&mean);
    for (dst, s) in scratch.m.iter_mut().zip(&s) {
        dst[c..c + W].copy_from_slice(s);
    }
}

/// Reusable per-block workspace for [`TraceMoments::add_block`]: the
/// block's per-sample means and central power sums.
#[derive(Debug, Clone)]
pub struct BlockScratch {
    mean: Vec<f64>,
    m: [Vec<f64>; 5],
}

impl BlockScratch {
    /// Workspace for traces of `len` samples.
    pub fn new(len: usize) -> Self {
        BlockScratch { mean: vec![0.0; len], m: std::array::from_fn(|_| vec![0.0; len]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, [f64; 5]) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let mut sums = [0.0; 5];
        for p in 2..=6usize {
            sums[p - 2] = xs.iter().map(|x| (x - mean).powi(p as i32)).sum();
        }
        (mean, sums)
    }

    fn check_against_naive(xs: &[f64], m: &TraceMoments, tol: f64) {
        let (mean, sums) = naive(xs);
        assert!((m.mean()[0] - mean).abs() < tol, "mean {} vs {}", m.mean()[0], mean);
        for p in 2..=6 {
            let got = m.central_sum(p, 0);
            let want = sums[p - 2];
            let scale = want.abs().max(1.0);
            assert!((got - want).abs() / scale < tol, "order {p}: streaming {got} vs naive {want}");
        }
    }

    #[test]
    fn streaming_matches_naive() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37 + 11) % 97) as f64 * 0.31 - 7.0).collect();
        let mut m = TraceMoments::new(1);
        for &x in &xs {
            m.add(&[x]);
        }
        check_against_naive(&xs, &m, 1e-9);
    }

    #[test]
    fn merge_matches_single_stream() {
        let xs: Vec<f64> = (0..301).map(|i| ((i * 53 + 5) % 101) as f64 - 50.0).collect();
        let (left, right) = xs.split_at(120);
        let mut a = TraceMoments::new(1);
        let mut b = TraceMoments::new(1);
        left.iter().for_each(|&x| a.add(&[x]));
        right.iter().for_each(|&x| b.add(&[x]));
        a.merge(&b);
        assert_eq!(a.count(), 301);
        check_against_naive(&xs, &a, 1e-9);
    }

    #[test]
    fn merge_into_empty() {
        let mut a = TraceMoments::new(2);
        let mut b = TraceMoments::new(2);
        b.add(&[1.0, 2.0]);
        b.add(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), &[2.0, 3.0]);
    }

    #[test]
    fn multi_sample_points_independent() {
        let mut m = TraceMoments::new(3);
        m.add(&[1.0, 10.0, 100.0]);
        m.add(&[3.0, 10.0, 200.0]);
        assert_eq!(m.mean(), &[2.0, 10.0, 150.0]);
        assert!(m.variance(1).abs() < 1e-12);
        assert!((m.variance(0) - 1.0).abs() < 1e-12);
        assert!((m.variance(2) - 2500.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut m = TraceMoments::new(2);
        m.add(&[1.0]);
    }

    /// Deterministic pseudo-random trace block (no RNG dependency).
    fn toy_block(traces: usize, len: usize, salt: u64) -> Vec<f64> {
        (0..traces * len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn add_block_matches_scalar_adds() {
        let len = 7;
        for traces in [1usize, 2, 5, 64, 257] {
            let block = toy_block(traces, len, 3);
            let mut scalar = TraceMoments::new(len);
            for row in block.chunks_exact(len) {
                scalar.add(row);
            }
            let mut blocked = TraceMoments::new(len);
            let mut scratch = BlockScratch::new(len);
            blocked.add_block(&block, &mut scratch);
            assert_eq!(blocked.count(), scalar.count());
            for i in 0..len {
                assert!((blocked.mean()[i] - scalar.mean()[i]).abs() < 1e-9);
                for p in 2..=6 {
                    let (a, b) = (blocked.central_sum(p, i), scalar.central_sum(p, i));
                    let scale = b.abs().max(1.0);
                    assert!(
                        ((a - b) / scale).abs() < 1e-9,
                        "{traces} traces, order {p}, sample {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_block_folds_into_running_state() {
        let len = 3;
        let block = toy_block(40, len, 9);
        let (head, tail) = block.split_at(15 * len);
        let mut scalar = TraceMoments::new(len);
        for row in block.chunks_exact(len) {
            scalar.add(row);
        }
        // Mixed scalar + blocked accumulation over the same traces.
        let mut mixed = TraceMoments::new(len);
        let mut scratch = BlockScratch::new(len);
        for row in head.chunks_exact(len) {
            mixed.add(row);
        }
        mixed.add_block(tail, &mut scratch);
        for i in 0..len {
            for p in 2..=6 {
                let (a, b) = (mixed.central_sum(p, i), scalar.central_sum(p, i));
                assert!(((a - b) / b.abs().max(1.0)).abs() < 1e-9, "order {p} sample {i}");
            }
        }
    }

    /// The row-at-a-time `add_block` passes and scalar per-sample
    /// `merge_parts` that the blocked kernels replaced, kept verbatim as
    /// their bit-level oracle.
    fn reference_merge_parts(
        s: &mut TraceMoments,
        nb_traces: u64,
        mean_b: &[f64],
        m_b: &[Vec<f64>; 5],
    ) {
        if nb_traces == 0 {
            return;
        }
        if s.n == 0 {
            s.n = nb_traces;
            s.mean.copy_from_slice(mean_b);
            for (dst, src) in s.m.iter_mut().zip(m_b) {
                dst.copy_from_slice(src);
            }
            return;
        }
        let na = s.n as f64;
        let nb = nb_traces as f64;
        let n = na + nb;
        for i in 0..s.len() {
            let delta = mean_b[i] - s.mean[i];
            let mut new_m = [0.0f64; 5];
            for p in 2..=6usize {
                let mut acc = s.m[p - 2][i] + m_b[p - 2][i];
                let mut term_a = 1.0;
                let mut term_b = 1.0;
                for k in 1..=(p - 2) {
                    term_a *= -nb * delta / n;
                    term_b *= na * delta / n;
                    acc += BINOM[p][k] * (term_a * s.m[p - k - 2][i] + term_b * m_b[p - k - 2][i]);
                }
                let lead = (na * nb * delta / n).powi(p as i32);
                let tail = lead * (1.0 / nb.powi(p as i32 - 1) - (-1.0 / na).powi(p as i32 - 1));
                new_m[p - 2] = acc + tail;
            }
            s.m.iter_mut().zip(new_m).for_each(|(m, v)| m[i] = v);
            s.mean[i] += nb * delta / n;
        }
        s.n += nb_traces;
    }

    fn reference_add_block(s: &mut TraceMoments, block: &[f64]) {
        let len = s.len();
        let k = block.len() / len;
        let mut mean = vec![0.0; len];
        let mut m: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; len]);
        if k == 1 {
            mean.copy_from_slice(block);
            return reference_merge_parts(s, 1, &mean, &m);
        }
        for row in block.chunks_exact(len) {
            for (acc, &x) in mean.iter_mut().zip(row) {
                *acc += x;
            }
        }
        let inv_k = 1.0 / k as f64;
        for acc in &mut mean {
            *acc *= inv_k;
        }
        let [m2, m3, m4, m5, m6] = &mut m;
        for row in block.chunks_exact(len) {
            for i in 0..len {
                let d = row[i] - mean[i];
                let d2 = d * d;
                let d3 = d2 * d;
                m2[i] += d2;
                m3[i] += d3;
                m4[i] += d2 * d2;
                m5[i] += d2 * d3;
                m6[i] += d3 * d3;
            }
        }
        reference_merge_parts(s, k as u64, &mean, &m);
    }

    /// Every bit of the moment state: count, means, central sums.
    fn state_bits(m: &TraceMoments) -> Vec<u64> {
        let sums = m.m.iter().flatten();
        std::iter::once(m.n).chain(m.mean.iter().chain(sums).map(|x| x.to_bits())).collect()
    }

    /// Trace lengths and block sizes the blocked kernels must handle:
    /// column tails of every width, the campaign shapes (Table I has 4
    /// samples, Fig. 15 one, the PD core 34, the FF core 115).
    const LENS: [usize; 8] = [1, 4, 7, 8, 9, 34, 115, 117];
    const KS: [usize; 5] = [1, 2, 63, 128, 256];

    /// Blocked `add_block` is bit-identical to the row-at-a-time oracle,
    /// folding into an empty accumulator, a small one, and one far
    /// larger than the block (`na ≫ nb`).
    #[test]
    fn add_block_bit_identical_to_reference() {
        for len in LENS {
            let mut scratch = BlockScratch::new(len);
            for (salt, k) in KS.into_iter().enumerate() {
                let block = toy_block(k, len, salt as u64);
                for prior in [0usize, 3, 2_000] {
                    let mut want = TraceMoments::new(len);
                    let mut got = TraceMoments::new(len);
                    if prior > 0 {
                        let head = toy_block(prior, len, 99 + salt as u64);
                        reference_add_block(&mut want, &head);
                        reference_add_block(&mut got, &head);
                    }
                    reference_add_block(&mut want, &block);
                    got.add_block(&block, &mut scratch);
                    let case = format!("len {len}, k {k}, prior {prior}");
                    assert!(state_bits(&got) == state_bits(&want), "{case}");
                }
            }
        }
    }

    /// Tiled `merge` is bit-identical to the scalar oracle: into an empty
    /// accumulator, from an empty one, and at both extremes of
    /// `na / nb`.
    #[test]
    fn merge_bit_identical_to_reference() {
        for len in LENS {
            let state = |traces: usize, salt: u64| {
                let mut m = TraceMoments::new(len);
                if traces > 0 {
                    reference_add_block(&mut m, &toy_block(traces, len, salt));
                }
                m
            };
            for (na, nb) in [(0, 5), (5, 0), (1, 1), (2, 63), (128, 128), (5_000, 1), (1, 5_000)] {
                let (a, b) = (state(na, 7), state(nb, 8));
                let mut want = a.clone();
                reference_merge_parts(&mut want, b.n, &b.mean, &b.m);
                let mut got = a;
                got.merge(&b);
                assert!(state_bits(&got) == state_bits(&want), "len {len}, na {na}, nb {nb}");
            }
        }
    }

    #[test]
    fn add_block_empty_is_noop() {
        let mut m = TraceMoments::new(4);
        let mut scratch = BlockScratch::new(4);
        m.add_block(&[], &mut scratch);
        assert_eq!(m.count(), 0);
    }

    #[test]
    #[should_panic(expected = "whole traces")]
    fn add_block_partial_trace_panics() {
        let mut m = TraceMoments::new(4);
        let mut scratch = BlockScratch::new(4);
        m.add_block(&[1.0; 6], &mut scratch);
    }
}
