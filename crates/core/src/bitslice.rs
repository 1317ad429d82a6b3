//! Lane-parallel (64-way bitsliced) primitives: the lane word, the
//! two-share masking algebra over it, and the per-lane popcount of toggle
//! words.
//!
//! Each value is a `u64` whose bit `ℓ` is its value in *lane* `ℓ`, so one
//! word operation advances 64 independent evaluations. The cycle-model
//! sources pack 64 traces per block into the lanes (`gm-des`'s ANF
//! word-form DES engine, `gm_des::masked::bitslice`).
//!
//! * [`LaneBit`] is the transposed counterpart of [`crate::MaskedBit`]:
//!   each share is a lane word. The share algebra (XOR, NOT-on-one-share,
//!   refresh, `secAND2`) is bitwise, hence identical formulas
//!   lane-parallel.
//! * [`transpose64`] and [`lanes_to_bits`] bridge lane-major data (one
//!   word per trace) and bit-major data (one word per bit position).
//! * [`SegLaneCounter`] turns streams of toggle words into per-lane,
//!   per-cycle Hamming weights, the cycle model's power terms.
//!
//! Glitch-aware campaigns do not use these: glitches are *timing*
//! artefacts, erased by zero-delay semantics. They run on `gm-sim`'s
//! event engines, whose compiled schedule (`gm_sim::sched`) carries
//! per-lane event times alongside its own lane words.

use gm_obs::Counter;

/// Number of lanes packed into one word.
pub const LANES: usize = 64;

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3, widened):
/// afterwards `a[i]` bit `j` holds the former `a[j]` bit `i`.
///
/// This is the bridge between *lane-major* data (one word per trace) and
/// *bit-major* data (one word per bit position, as the lanes hold it).
pub fn transpose64(a: &mut [u64; 64]) {
    // Contiguous runs of `j` row pairs per block: the inner loop indexes
    // disjoint slices with unit stride, which the autovectorizer turns
    // into 4-wide AVX2 code for j >= 4 — this routine is the campaign
    // engines' single hottest kernel, so its shape matters.
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut base = 0usize;
        while base < 64 {
            let (lo, hi) = a[base..base + 2 * j].split_at_mut(j);
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                let t = (*h ^ (*l >> j)) & m;
                *h ^= t;
                *l ^= t << j;
            }
            base += 2 * j;
        }
        j >>= 1;
        if j != 0 {
            m ^= m << j;
        }
    }
}

/// Broadcast a boolean to all 64 lanes.
#[inline]
pub fn splat(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

/// One sensitive bit in two Boolean shares, across 64 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneBit {
    /// Share 0, one bit per lane.
    pub s0: u64,
    /// Share 1 (`value ⊕ s0`), one bit per lane.
    pub s1: u64,
}

impl LaneBit {
    /// A public constant, identical in every lane: `(c, 0)`.
    #[inline]
    pub fn constant(c: bool) -> Self {
        LaneBit { s0: splat(c), s1: 0 }
    }

    /// Share `values` (one bit per lane) under per-lane masks `m`.
    #[inline]
    pub fn mask_words(values: u64, m: u64) -> Self {
        LaneBit { s0: m, s1: values ^ m }
    }

    /// The unshared per-lane values (insecure on a device, fine in a
    /// simulator's power model).
    #[inline]
    pub fn unmask(self) -> u64 {
        self.s0 ^ self.s1
    }

    /// Share-wise XOR (linear, always safe).
    #[inline]
    pub fn xor(self, other: LaneBit) -> Self {
        LaneBit { s0: self.s0 ^ other.s0, s1: self.s1 ^ other.s1 }
    }

    /// XOR with a public constant (flips one share in every lane).
    #[inline]
    pub fn xor_const(self, c: bool) -> Self {
        LaneBit { s0: self.s0 ^ splat(c), s1: self.s1 }
    }

    /// Masked NOT (flips one share in every lane).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Self {
        self.xor_const(true)
    }

    /// Re-mask with per-lane fresh bits `m` (the refresh gadget of
    /// Fig. 7, lane-parallel).
    #[inline]
    pub fn refresh_with(self, m: u64) -> Self {
        LaneBit { s0: self.s0 ^ m, s1: self.s1 ^ m }
    }
}

/// Lane-parallel `secAND2` (Fig. 2): the same share formulas as
/// [`crate::gadgets::sec_and2()`], word-wide —
/// `z₀ = (x₀·y₀) ⊕ (x₀ + ¬y₁)`, `z₁ = (x₁·y₀) ⊕ (x₁ + ¬y₁)`.
#[inline]
pub fn sec_and2_lanes(x: LaneBit, y: LaneBit) -> LaneBit {
    let ny1 = !y.s1;
    LaneBit { s0: (x.s0 & y.s0) ^ (x.s0 | ny1), s1: (x.s1 & y.s0) ^ (x.s1 | ny1) }
}

/// Transpose 64 lane-major words (`src[lane]` = a trace's bits) into
/// bit-major words (`out[bit]` = that bit across lanes). `src` may hold
/// fewer than 64 lanes; missing lanes read as 0.
pub fn lanes_to_bits(src: &[u64], out: &mut [u64; 64]) {
    assert!(src.len() <= 64, "at most 64 lanes");
    out[..src.len()].copy_from_slice(src);
    out[src.len()..].fill(0);
    transpose64(out);
}

/// Four words side by side: one 256-bit vector of the counter's 4-way
/// carry-save trees.
type Quad = [u64; 4];

/// Carry-save add of `x + y` into plane `p`, four words at a time: `p`
/// keeps the sum bits and the carries (one weight up) are returned — one
/// full adder per bit. LLVM lowers the elementwise loop to 256-bit
/// vector operations.
#[inline(always)]
fn csa(p: &mut Quad, x: Quad, y: Quad) -> Quad {
    let mut carry = [0; 4];
    for j in 0..4 {
        let u = p[j] ^ x[j];
        carry[j] = (p[j] & x[j]) | (u & y[j]);
        p[j] = u ^ y[j];
    }
    carry
}

/// Per-lane population counts over a stream of toggle words, partitioned
/// into consecutive *segments* (one per clock cycle in the cycle engines).
///
/// Hamming weights/distances of share words are the cycle model's power
/// terms; per lane they are `count_ones` over the *columns* of the fed
/// words. The counter never transposes the toggle words themselves: it
/// keeps the open segment's per-lane counts as a carry-save positional
/// popcount, where plane `i` bit `ℓ` is bit `i` of lane `ℓ`'s running
/// count. Words are folded 64 at a time by four interleaved Harley–Seal
/// trees of carry-save adders, one per word position mod 4, which run as
/// one tree over 256-bit vectors. Each tree keeps its own planes of
/// weight 1, 2, 4 and 8; its weight-16 carry ripples into the planes
/// above. That is about 1.2 vector operations per word.
///
/// [`Self::extend_from_slice`] is the only feed. It folds whole blocks
/// straight from the caller's slice and the rest as one zero-padded
/// block. [`Self::mark`] adds the four trees' planes with a ripple adder
/// into the segment's `k = bit_length(words in segment)` count planes,
/// which go to a 64-plane buffer (a segment with no words adds none).
/// Only when the buffer fills, and at [`Self::finish`], is it
/// transposed, once: lane `ℓ`'s count for a segment is then the plain
/// `k`-bit field of column `ℓ` at the segment's plane offset. A
/// 115-cycle FF group pays a few transposes per counter, not one per 64
/// words.
#[derive(Debug, Default)]
pub struct SegLaneCounter {
    /// Plane buffers, allocated by the first word. Boxed so that
    /// building a counter stays a handful of stores: a cycle source holds
    /// four, and a campaign builds one source per worker.
    st: Option<Box<Planes>>,
    /// Index of the open segment.
    open: u32,
    counts: Counts,
    words: Counter,
    transposes: Counter,
    segments: Counter,
}

/// The plane buffers of a [`SegLaneCounter`].
#[derive(Debug)]
struct Planes {
    /// The open segment's four partial counts: `acc[i][j]` is plane `i`
    /// (weight `2^i`) of the tree over words `≡ j (mod 4)`. Counts are
    /// `u32`, so a segment holds fewer than `2^32` words.
    acc: [Quad; 32],
    /// Planes of `acc` in use: the tree's four, and those above weight 8
    /// that its carries have reached.
    np: usize,
    /// Words fed to the open segment.
    seg_words: u64,
    /// Count planes of closed segments awaiting the transpose:
    /// `planes[..used]`.
    planes: [u64; 64],
    used: usize,
    /// The closed non-empty segments in `planes`, in order: segment
    /// index, first plane, and plane count.
    pend: [(u32, u8, u8); 64],
    npend: usize,
}

/// Segment-major per-lane counts, `v[seg * 64 + lane]`, written for the
/// segments `..written`. Counts past segment `dirty` are all zero.
#[derive(Debug, Default)]
struct Counts {
    v: Vec<u32>,
    written: usize,
    dirty: usize,
}

impl Counts {
    /// Make room for `segs` segments. The storage grows to exactly the
    /// segments seen, so a campaign allocates it in its first group only.
    fn grow(&mut self, segs: usize) {
        let need = segs * 64;
        if self.v.len() < need {
            self.v.reserve_exact(need - self.v.len());
            self.v.resize(need, 0);
        }
    }

    /// Zero the counts of segments `written..seg`: no word reached them.
    /// A counter that never sees a word (the FF core's exposure counters)
    /// thus never rewrites its zeros.
    fn zero_to(&mut self, seg: usize) {
        if self.written < self.dirty {
            self.v[self.written * 64..seg.min(self.dirty) * 64].fill(0);
        }
        self.written = seg;
    }
}

impl Planes {
    fn new() -> Self {
        Planes {
            acc: [[0; 4]; 32],
            np: 4,
            seg_words: 0,
            planes: [0; 64],
            used: 0,
            pend: [(0, 0, 0); 64],
            npend: 0,
        }
    }

    /// Add every word of `words` to the open segment: whole blocks fold
    /// straight from the slice, the rest as a zero-padded block (zero
    /// words count nothing).
    fn extend(&mut self, words: &[u64]) {
        self.seg_words += words.len() as u64;
        let mut blocks = words.chunks_exact(64);
        for b in &mut blocks {
            fold(&mut self.acc, &mut self.np, b.try_into().expect("64-word block"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut b = [0; 64];
            b[..rest.len()].copy_from_slice(rest);
            fold(&mut self.acc, &mut self.np, &b);
        }
    }

    /// Count planes the open segment needs: `bit_length(words)`.
    fn planes_needed(&self) -> usize {
        (u64::BITS - self.seg_words.leading_zeros()) as usize
    }

    /// Close the open segment `seg`, which needs `k > 0` planes and has
    /// room for them in the plane buffer: add its four partial counts
    /// into its count planes, and open an empty segment.
    fn close(&mut self, seg: u32, k: usize) {
        // Two ripple adders in one pass: words 0 + 2 and 1 + 3 side by
        // side, then the two sums. Every partial and both sums are at
        // most the segment's word count, so `k` planes hold them all.
        let (mut c2, mut c) = ([0u64; 2], 0u64);
        for (i, out) in self.planes[self.used..][..k].iter_mut().enumerate() {
            let a = self.acc[i];
            let mut s = [0u64; 2];
            for j in 0..2 {
                let (x, y) = (a[j], a[j + 2]);
                s[j] = x ^ y ^ c2[j];
                c2[j] = (x & y) | (c2[j] & (x ^ y));
            }
            *out = s[0] ^ s[1] ^ c;
            c = (s[0] & s[1]) | (c & (s[0] ^ s[1]));
        }
        debug_assert_eq!((c2, c), ([0; 2], 0), "a count overflowed its k planes");
        self.acc[..self.np].fill([0; 4]);
        self.np = 4;
        self.seg_words = 0;
        self.pend[self.npend] = (seg, self.used as u8, k as u8);
        self.npend += 1;
        self.used += k;
    }

    /// Transpose the plane buffer and write out the counts of the
    /// segments it holds; the buffer is empty afterwards.
    fn transpose_into(&mut self, counts: &mut Counts) {
        self.planes[self.used..].fill(0);
        transpose64(&mut self.planes);
        counts.grow(self.pend[self.npend - 1].0 as usize + 1);
        for &(seg, start, k) in &self.pend[..self.npend] {
            let seg = seg as usize;
            let mask = (1u64 << k) - 1;
            counts.zero_to(seg);
            for (c, &col) in counts.v[seg * 64..][..64].iter_mut().zip(&self.planes) {
                *c = ((col >> start) & mask) as u32;
            }
            counts.written = seg + 1;
            counts.dirty = counts.dirty.max(seg + 1);
        }
        self.npend = 0;
        self.used = 0;
    }
}

/// Fold one 64-word block into the four partial counts `acc[..np]`:
/// sixteen quads of words through one Harley–Seal tree, the weight-16
/// carry rippled into the planes above weight 8.
#[inline]
fn fold(acc: &mut [Quad; 32], np: &mut usize, b: &[u64; 64]) {
    let q = |i: usize| -> Quad { [b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]] };
    let [ones, twos, fours, eights, high @ ..] = acc;
    let mut e = [[0; 4]; 2];
    for (h, e) in e.iter_mut().enumerate() {
        let mut f = [[0; 4]; 2];
        for (g, f) in f.iter_mut().enumerate() {
            let i = 8 * h + 4 * g;
            let ta = csa(ones, q(i), q(i + 1));
            let tb = csa(ones, q(i + 2), q(i + 3));
            *f = csa(twos, ta, tb);
        }
        *e = csa(fours, f[0], f[1]);
    }
    let mut carry = csa(eights, e[0], e[1]);
    for p in &mut high[..*np - 4] {
        let mut c = [0; 4];
        for j in 0..4 {
            c[j] = p[j] & carry[j];
            p[j] ^= carry[j];
        }
        carry = c;
    }
    if carry != [0; 4] {
        high[*np - 4] = carry;
        *np += 1;
    }
}

impl SegLaneCounter {
    /// An empty counter with no closed segments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime count of fed toggle words (0 under `obs-off`). Survives
    /// [`Self::reset`]: campaign engines reset per trace group but
    /// report per campaign.
    pub fn obs_words(&self) -> u64 {
        self.words.get()
    }

    /// Lifetime count of 64×64 transposes performed (0 under `obs-off`).
    pub fn obs_transposes(&self) -> u64 {
        self.transposes.get()
    }

    /// Lifetime count of segment boundaries marked (0 under `obs-off`).
    pub fn obs_segments(&self) -> u64 {
        self.segments.get()
    }

    /// Forget all words, marks, and counts. The buffers stay allocated
    /// for the next group.
    pub fn reset(&mut self) {
        if let Some(st) = self.st.as_deref_mut() {
            *st = Planes::new();
        }
        self.open = 0;
        self.counts.written = 0;
    }

    /// Add toggle words to the open segment: word `w` adds `(w >> ℓ) & 1`
    /// to lane `ℓ`'s count. Only which words a segment gets matters, not
    /// their order or how they are split across calls.
    ///
    /// A call's last words fold as a zero-padded 64-word block, so a
    /// segment costs least when fed in one slice: the bitsliced cycle
    /// engines feed each cycle's hundreds of words per counter in one
    /// call.
    #[inline]
    pub fn extend_from_slice(&mut self, words: &[u64]) {
        if words.is_empty() {
            return;
        }
        self.words.add(words.len() as u64);
        self.st.get_or_insert_with(|| Box::new(Planes::new())).extend(words);
    }

    /// Close the open segment at the current position and open the next.
    #[inline]
    pub fn mark(&mut self) {
        self.segments.inc();
        if let Some(st) = self.st.as_deref_mut() {
            let k = st.planes_needed();
            if k > 0 {
                if st.used + k > 64 {
                    self.transposes.inc();
                    st.transpose_into(&mut self.counts);
                }
                st.close(self.open, k);
            }
        }
        self.open += 1;
    }

    /// Number of closed segments.
    pub fn num_segments(&self) -> usize {
        self.open as usize
    }

    /// Return the per-lane counts of every *closed* segment,
    /// segment-major (`counts[seg * 64 + lane]`). Words fed after the
    /// last [`Self::mark`] keep accumulating in the open segment and are
    /// not part of the returned view.
    pub fn finish(&mut self) -> &[u32] {
        if let Some(st) = self.st.as_deref_mut() {
            if st.used > 0 {
                self.transposes.inc();
                st.transpose_into(&mut self.counts);
            }
        }
        let open = self.open as usize;
        self.counts.grow(open);
        self.counts.zero_to(open);
        &self.counts.v[..open * 64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::sec_and2;
    use crate::{MaskRng, MaskedBit};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn transpose_matches_naive() {
        // A full-period LCG fills an asymmetric matrix.
        let mut a = [0u64; 64];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for w in &mut a {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *w = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (i, row) in a.iter().enumerate() {
            for (j, col) in orig.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "({i},{j})");
            }
        }
        // Involution.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    /// The scalar oracle: per closed segment and lane, the number of the
    /// segment's words with that lane's bit set, segment-major.
    fn naive_counts(segments: &[Vec<u64>]) -> Vec<u32> {
        segments
            .iter()
            .flat_map(|s| (0..LANES).map(move |l| s.iter().filter(|&&w| (w >> l) & 1 == 1).count()))
            .map(|c| c as u32)
            .collect()
    }

    #[test]
    fn seg_counter_segments_independent() {
        let mut c = SegLaneCounter::new();
        // Segment 0: three words, lane 0 always set, lane 5 once.
        c.extend_from_slice(&[1]);
        c.extend_from_slice(&[1 | (1 << 5), 1]);
        c.mark();
        // Segment 1: two words, lane 0 clear, lane 63 both times.
        c.extend_from_slice(&[1 << 63, 1 << 63]);
        c.mark();
        // Segment 2: empty (a cycle in which a counter saw no words).
        c.extend_from_slice(&[]);
        c.mark();
        assert_eq!(c.num_segments(), 3);
        let counts = c.finish();
        assert_eq!(counts.len(), 3 * LANES);
        assert_eq!(counts[0], 3); // seg 0, lane 0
        assert_eq!(counts[5], 1); // seg 0, lane 5
        assert_eq!(counts[LANES + 63], 2); // seg 1, lane 63
        assert_eq!(counts[LANES], 0); // seg 1, lane 0
        assert!(counts[2 * LANES..].iter().all(|&c| c == 0), "empty segment");
    }

    /// Segment sizes around the 64-word block and the 64-plane buffer,
    /// and one long enough to carry into the planes above weight 128.
    const SEG_SIZES: [usize; 13] = [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 700, 1100];

    /// One word of density class `d`: a single set lane, an eighth, a
    /// half, seven eighths, or every lane.
    fn word(d: u8, x: u64, y: u64, z: u64) -> u64 {
        match d {
            0 => 1 << (x % 64),
            1 => x & y & z,
            2 => x,
            3 => x | y | z,
            _ => u64::MAX,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The counter equals the naive per-bit count over random streams:
        /// every segment size class, sparse and dense words, each segment
        /// fed in one slice, one word at a time, or split at random
        /// points, `finish` with words in the open segment and again after
        /// more marks, and `reset`.
        #[test]
        fn counter_matches_naive_oracle(
            plan in proptest::collection::vec(
                (0usize..SEG_SIZES.len(), 0u8..5, 0u8..3, 0u8..8, proptest::any::<u64>()),
                1..24,
            ),
        ) {
            let mut c = SegLaneCounter::new();
            let mut closed: Vec<Vec<u64>> = Vec::new();
            for &(size, density, how, event, seed) in &plan {
                let mut rng = SmallRng::seed_from_u64(seed);
                let words: Vec<u64> = (0..SEG_SIZES[size])
                    .map(|_| word(density, rng.random(), rng.random(), rng.random()))
                    .collect();
                match how {
                    0 => c.extend_from_slice(&words),
                    1 => words.chunks(1).for_each(|w| c.extend_from_slice(w)),
                    _ => {
                        let mut rest = &words[..];
                        while !rest.is_empty() {
                            let cut = rng.random::<u64>() % (rest.len() as u64 + 1);
                            let (head, tail) = rest.split_at(cut as usize);
                            c.extend_from_slice(head);
                            rest = tail;
                        }
                    }
                }
                if event == 0 {
                    // Words of the open segment stay out of the view.
                    let want = naive_counts(&closed);
                    proptest::prop_assert_eq!(c.finish(), &want[..]);
                }
                c.mark();
                closed.push(words);
                match event {
                    1 => {
                        let want = naive_counts(&closed);
                        proptest::prop_assert_eq!(c.finish(), &want[..]);
                    }
                    2 => {
                        c.reset();
                        closed.clear();
                    }
                    _ => {}
                }
            }
            proptest::prop_assert_eq!(c.num_segments(), closed.len());
            let want = naive_counts(&closed);
            proptest::prop_assert_eq!(c.finish(), &want[..]);
            // A repeated finish transposes nothing and returns the same view.
            proptest::prop_assert_eq!(c.finish(), &want[..]);
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn obs_counters_track_words_and_transposes() {
        let mut s = SegLaneCounter::new();
        // Ten 100-word segments of 7 planes each: nine fill 63 planes,
        // the tenth forces a transpose, `finish` pays the second.
        for _ in 0..10 {
            s.extend_from_slice(&[1u64; 100]);
            s.mark();
        }
        s.mark(); // empty: no planes
        let _ = s.finish();
        let _ = s.finish();
        assert_eq!(s.obs_words(), 1000);
        assert_eq!(s.obs_segments(), 11);
        assert_eq!(s.obs_transposes(), 2);
    }

    /// The lane gadget agrees with the scalar gadget in every lane, for
    /// random sharings.
    #[test]
    fn sec_and2_lanes_matches_scalar() {
        let mut rng = MaskRng::new(0x1a7e);
        for _ in 0..16 {
            let (x0, x1, y0, y1) = (rng.bits(64), rng.bits(64), rng.bits(64), rng.bits(64));
            let x = LaneBit { s0: x0, s1: x1 };
            let y = LaneBit { s0: y0, s1: y1 };
            let z = sec_and2_lanes(x, y);
            for lane in 0..64 {
                let pick = |w: u64| (w >> lane) & 1 == 1;
                let zs = sec_and2(
                    MaskedBit { s0: pick(x0), s1: pick(x1) },
                    MaskedBit { s0: pick(y0), s1: pick(y1) },
                );
                assert_eq!((pick(z.s0), pick(z.s1)), (zs.s0, zs.s1), "lane {lane}");
            }
            assert_eq!(z.unmask(), (x0 ^ x1) & (y0 ^ y1), "functional AND");
        }
    }

    #[test]
    fn lane_bit_algebra() {
        let mut rng = MaskRng::new(9);
        let v = rng.bits(64);
        let m = rng.bits(64);
        let b = LaneBit::mask_words(v, m);
        assert_eq!(b.unmask(), v);
        assert_eq!(b.not().unmask(), !v);
        assert_eq!(b.refresh_with(rng.bits(64)).unmask(), v);
        assert_eq!(b.xor(LaneBit::constant(true)).unmask(), !v);
        assert_eq!(LaneBit::constant(false).unmask(), 0);
        assert_eq!(LaneBit::constant(true).unmask(), u64::MAX);
    }

    #[test]
    fn lanes_to_bits_partial_tail() {
        let src = [0b101u64, 0b011];
        let mut out = [u64::MAX; 64];
        lanes_to_bits(&src, &mut out);
        assert_eq!(out[0] & 0b11, 0b11); // bit 0: both lanes 1
        assert_eq!(out[1] & 0b11, 0b10); // bit 1: lane 1 only
        assert_eq!(out[2] & 0b11, 0b01); // bit 2: lane 0 only
        assert_eq!(out[3], 0);
        assert_eq!(out[0] >> 2, 0, "absent lanes read as 0");
    }
}
