//! Lane-parallel (256-way bitsliced) primitives: the lane word, the
//! two-share masking algebra over it, and the per-lane popcount of toggle
//! words.
//!
//! Each value is a [`LaneWord`]: four `u64` *elements*, where bit `j` of
//! element `e` is the value in *lane* `64e + j`, so one word operation
//! advances 256 independent evaluations. Element-wise operations on
//! `[u64; 4]` lower to 256-bit vector instructions. The cycle-model
//! sources pack a campaign block of 256 traces into the lanes (`gm-des`'s
//! ANF word-form DES engine, `gm_des::masked::bitslice`).
//!
//! * [`LaneBit`] is the transposed counterpart of [`crate::MaskedBit`]:
//!   each share is a lane word. The share algebra (XOR, NOT-on-one-share,
//!   refresh, `secAND2`) is bitwise, hence identical formulas
//!   lane-parallel.
//! * [`lanes_to_bits`] and [`bits_to_lanes`] bridge lane-major data (one
//!   `u64` per trace) and bit-major data (one lane word per bit
//!   position), one [`transpose64`] per element.
//! * [`SegLaneCounter`] turns streams of toggle words into per-lane,
//!   per-cycle Hamming weights, the cycle model's power terms.
//!
//! Glitch-aware campaigns do not use these: glitches are *timing*
//! artefacts, erased by zero-delay semantics. They run on `gm-sim`'s
//! event engines, whose compiled schedule (`gm_sim::sched`) carries
//! per-lane event times alongside its own lane words.

use gm_obs::Counter;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Number of lanes packed into one [`LaneWord`].
pub const LANES: usize = 256;

/// `u64` elements of one [`LaneWord`].
const ELEMS: usize = LANES / 64;

/// One bit in each of 256 lanes: element `e` bit `j` is lane `64e + j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneWord(pub [u64; ELEMS]);

impl LaneWord {
    /// Every lane 0.
    pub const ZERO: LaneWord = LaneWord([0; ELEMS]);

    /// Broadcast a boolean to all lanes.
    #[inline]
    pub fn splat(b: bool) -> Self {
        LaneWord([if b { u64::MAX } else { 0 }; ELEMS])
    }

    /// The bit of lane `lane`.
    #[inline]
    pub fn lane(self, lane: usize) -> bool {
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }
}

/// Element-wise binary operators.
macro_rules! lane_op {
    ($Op:ident $op:ident $t:tt) => {
        impl $Op for LaneWord {
            type Output = LaneWord;
            #[inline(always)]
            fn $op(self, r: LaneWord) -> LaneWord {
                let (a, b) = (self.0, r.0);
                LaneWord([a[0] $t b[0], a[1] $t b[1], a[2] $t b[2], a[3] $t b[3]])
            }
        }
    };
}
lane_op!(BitAnd bitand &);
lane_op!(BitOr bitor |);
lane_op!(BitXor bitxor ^);

impl Not for LaneWord {
    type Output = LaneWord;
    #[inline(always)]
    fn not(self) -> LaneWord {
        let a = self.0;
        LaneWord([!a[0], !a[1], !a[2], !a[3]])
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3, widened):
/// afterwards `a[i]` bit `j` holds the former `a[j]` bit `i`.
///
/// This is the bridge between *lane-major* data (one word per trace) and
/// *bit-major* data (one word per bit position, as the lanes hold it),
/// applied to one [`LaneWord`] element at a time.
pub fn transpose64(a: &mut [u64; 64]) {
    /// Swap the off-diagonal `J`-bit blocks of every `2J`-row block.
    /// `J` and the mask are constants, so every shift is an immediate
    /// and the unit-stride inner loop vectorises: this is the campaign
    /// engines' hottest shuffle.
    #[inline(always)]
    fn stage<const J: usize>(a: &mut [u64; 64], m: u64) {
        for block in a.chunks_exact_mut(2 * J) {
            let (lo, hi) = block.split_at_mut(J);
            for (l, h) in lo.iter_mut().zip(hi) {
                let t = (*h ^ (*l >> J)) & m;
                *h ^= t;
                *l ^= t << J;
            }
        }
    }
    stage::<32>(a, 0x0000_0000_FFFF_FFFF);
    stage::<16>(a, 0x0000_FFFF_0000_FFFF);
    stage::<8>(a, 0x00FF_00FF_00FF_00FF);
    stage::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    stage::<2>(a, 0x3333_3333_3333_3333);
    stage::<1>(a, 0x5555_5555_5555_5555);
}

/// One sensitive bit in two Boolean shares, across 256 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneBit {
    /// Share 0, one bit per lane.
    pub s0: LaneWord,
    /// Share 1 (`value ⊕ s0`), one bit per lane.
    pub s1: LaneWord,
}

impl LaneBit {
    /// A public constant, identical in every lane: `(c, 0)`.
    #[inline]
    pub fn constant(c: bool) -> Self {
        LaneBit { s0: LaneWord::splat(c), s1: LaneWord::ZERO }
    }

    /// Share `values` (one bit per lane) under per-lane masks `m`.
    #[inline]
    pub fn mask_words(values: LaneWord, m: LaneWord) -> Self {
        LaneBit { s0: m, s1: values ^ m }
    }

    /// The unshared per-lane values (insecure on a device, fine in a
    /// simulator's power model).
    #[inline]
    pub fn unmask(self) -> LaneWord {
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
        LaneBit { s0: self.s0 ^ LaneWord::splat(c), s1: self.s1 }
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
    pub fn refresh_with(self, m: LaneWord) -> Self {
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

/// Transpose up to 256 lane-major words (`src[lane]` = a trace's 64 bits)
/// into bit-major lane words (`out[bit]` = that bit across lanes), one
/// 64×64 transpose per element that holds a lane. Missing lanes read as 0.
pub fn lanes_to_bits(src: &[u64], out: &mut [LaneWord; 64]) {
    assert!(src.len() <= LANES, "at most {LANES} lanes");
    out.fill(LaneWord::ZERO);
    for (e, chunk) in src.chunks(64).enumerate() {
        let mut t = [0u64; 64];
        t[..chunk.len()].copy_from_slice(chunk);
        transpose64(&mut t);
        for (w, b) in out.iter_mut().zip(t) {
            w.0[e] = b;
        }
    }
}

/// The inverse of [`lanes_to_bits`]: `bits[b]` bit-major across all 256
/// lanes to one lane-major `u64` per lane.
pub fn bits_to_lanes(bits: &[LaneWord; 64]) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    for (e, lanes) in out.chunks_exact_mut(64).enumerate() {
        let t: &mut [u64; 64] = lanes.try_into().expect("64 lanes per element");
        for (w, b) in t.iter_mut().zip(bits) {
            *w = b.0[e];
        }
        transpose64(t);
    }
    out
}

/// Carry-save add of `x + y` into plane `p`: `p` keeps the sum bits and
/// the carries (one weight up) are returned — one full adder per lane.
#[inline(always)]
fn csa(p: &mut LaneWord, x: LaneWord, y: LaneWord) -> LaneWord {
    let u = *p ^ x;
    let carry = (*p & x) | (u & y);
    *p = u ^ y;
    carry
}

/// Words folded per Harley–Seal block.
const FOLD: usize = 16;

/// Per-lane population counts over a stream of toggle words, partitioned
/// into consecutive *segments* (one per clock cycle in the cycle engines).
///
/// Hamming weights/distances of share words are the cycle model's power
/// terms; per lane they are `count_ones` over the *columns* of the fed
/// words. The counter never transposes the toggle words themselves: it
/// keeps the open segment's per-lane counts as a carry-save positional
/// popcount, where plane `i` lane `ℓ` is bit `i` of lane `ℓ`'s running
/// count. Words are folded 16 at a time by one Harley–Seal tree of
/// carry-save adders over the 256-bit lane words, with planes of weight
/// 1, 2, 4 and 8; its weight-16 carry ripples into the planes above.
/// That is about one vector full adder per word.
///
/// [`Self::extend_from_slice`] is the only feed. It folds whole blocks
/// straight from the caller's slice and the rest as one zero-padded
/// block. [`Self::mark`] copies the tree's planes, which already are the
/// segment's `k = bit_length(words in segment)` count planes, into a
/// 64-plane buffer (a segment with no words adds none). Only when the
/// buffer fills, and at [`Self::finish`], is it transposed, once per
/// element: lane `ℓ`'s count for a segment is then the `k`-bit field at
/// the segment's plane offset in the buffer's word for lane `ℓ`. The
/// counts stay in those packed fields; [`LaneCounts`] reads them. A
/// 115-cycle FF group fills a few buffers per counter.
#[derive(Debug, Default)]
pub struct SegLaneCounter {
    /// The open segment's tree planes, allocated by the first word.
    /// Boxed so that building a counter stays a handful of stores: a
    /// cycle source holds four, and a campaign builds one source per
    /// worker.
    acc: Option<Box<Tree>>,
    /// Plane buffers, `bufs[..nbufs]` in use. While `used > 0` the last
    /// one is open: its element `e` is `buf[64e..][..64]`, plane `i` of
    /// element `e` at `buf[64e + i]`. Closed buffers are transposed:
    /// `buf[lane]` holds that lane's packed count fields. Buffers stay
    /// allocated across [`Self::reset`].
    bufs: Vec<[u64; LANES]>,
    nbufs: usize,
    /// Planes filled in the open buffer.
    used: usize,
    /// Count fields of the closed segments `..segs.len()`; the closed
    /// segments after them have no words.
    segs: Vec<Field>,
    /// Index of the open segment.
    open: u32,
    words: Counter,
    transposes: Counter,
    segments: Counter,
}

/// The carry-save tree of the open segment.
#[derive(Debug)]
struct Tree {
    /// `planes[i]` is the plane of weight `2^i`. Counts are `u32`, so a
    /// segment holds fewer than `2^32` words.
    planes: [LaneWord; 32],
    /// Planes in use: the tree's four, and those above weight 8 that its
    /// carries have reached.
    np: usize,
    /// Words fed to the open segment.
    words: u64,
}

/// Where one closed segment's counts sit: buffer, first plane, planes
/// (`k = 0`: the segment has no words).
#[derive(Debug, Clone, Copy, Default)]
struct Field {
    buf: u32,
    shift: u8,
    k: u8,
}

impl Tree {
    fn new() -> Self {
        Tree { planes: [LaneWord::ZERO; 32], np: 4, words: 0 }
    }

    /// Add every word of `words` to the open segment: whole blocks fold
    /// straight from the slice, the rest as a zero-padded block (zero
    /// words count nothing).
    fn extend(&mut self, words: &[LaneWord]) {
        self.words += words.len() as u64;
        let mut blocks = words.chunks_exact(FOLD);
        for b in &mut blocks {
            self.fold(b.try_into().expect("one fold block"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut b = [LaneWord::ZERO; FOLD];
            b[..rest.len()].copy_from_slice(rest);
            self.fold(&b);
        }
    }

    /// Fold one block through the Harley–Seal tree, the weight-16 carry
    /// rippled into the planes above weight 8.
    #[inline]
    fn fold(&mut self, b: &[LaneWord; FOLD]) {
        let [ones, twos, fours, eights, high @ ..] = &mut self.planes;
        let mut e = [LaneWord::ZERO; 2];
        for (h, e) in e.iter_mut().enumerate() {
            let mut f = [LaneWord::ZERO; 2];
            for (g, f) in f.iter_mut().enumerate() {
                let i = 8 * h + 4 * g;
                let ta = csa(ones, b[i], b[i + 1]);
                let tb = csa(ones, b[i + 2], b[i + 3]);
                *f = csa(twos, ta, tb);
            }
            *e = csa(fours, f[0], f[1]);
        }
        // The weight-16 carry ripples only as far as it has bits left,
        // with the test on the whole vector.
        let mut carry = csa(eights, e[0], e[1]);
        let mut i = 0;
        while carry != LaneWord::ZERO {
            (high[i], carry) = (high[i] ^ carry, high[i] & carry);
            i += 1;
        }
        self.np = self.np.max(4 + i);
    }

    /// Count planes the open segment needs: `bit_length(words)`. Every
    /// lane's count is at most the word count, so planes `k..` are zero.
    fn planes_needed(&self) -> usize {
        (u64::BITS - self.words.leading_zeros()) as usize
    }

    /// Empty the tree for the next segment.
    fn clear(&mut self) {
        self.planes[..self.np].fill(LaneWord::ZERO);
        self.np = 4;
        self.words = 0;
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

    /// Lifetime count of 64×64 transposes performed, one per element of
    /// each plane buffer (0 under `obs-off`).
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
        if let Some(t) = self.acc.as_deref_mut() {
            t.clear();
        }
        self.nbufs = 0;
        self.used = 0;
        self.segs.clear();
        self.open = 0;
    }

    /// Add toggle words to the open segment: word `w` adds `w.lane(ℓ)`
    /// to lane `ℓ`'s count. Only which words a segment gets matters, not
    /// their order or how they are split across calls.
    ///
    /// A call's last words fold as a zero-padded 16-word block, so a
    /// segment costs least when fed in one slice: the bitsliced cycle
    /// engines feed each cycle's hundreds of words per counter in one
    /// call.
    #[inline]
    pub fn extend_from_slice(&mut self, words: &[LaneWord]) {
        if words.is_empty() {
            return;
        }
        self.words.add(words.len() as u64);
        self.acc.get_or_insert_with(|| Box::new(Tree::new())).extend(words);
    }

    /// Close the open segment at the current position and open the next.
    #[inline]
    pub fn mark(&mut self) {
        self.segments.inc();
        let k = self.acc.as_deref().map_or(0, Tree::planes_needed);
        if k > 0 {
            if self.used == 0 || self.used + k > 64 {
                self.close_buf();
                if self.nbufs == self.bufs.len() {
                    // One buffer at a time: a campaign's first group sizes
                    // the storage exactly, and later groups reuse it.
                    self.bufs.reserve_exact(1);
                    self.bufs.push([0; LANES]);
                }
                self.nbufs += 1;
            }
            let tree = self.acc.as_deref_mut().expect("a segment with words has a tree");
            debug_assert!(tree.planes[k..].iter().all(|&p| p == LaneWord::ZERO), "count past k");
            let buf = &mut self.bufs[self.nbufs - 1];
            for (i, p) in tree.planes[..k].iter().enumerate() {
                for (e, &w) in p.0.iter().enumerate() {
                    buf[64 * e + self.used + i] = w;
                }
            }
            tree.clear();
            self.segs.resize(self.open as usize, Field::default());
            self.segs.push(Field {
                buf: self.nbufs as u32 - 1,
                shift: self.used as u8,
                k: k as u8,
            });
            self.used += k;
        }
        self.open += 1;
    }

    /// Transpose the open plane buffer, if any, and close it.
    fn close_buf(&mut self) {
        if self.used == 0 {
            return;
        }
        self.transposes.add(ELEMS as u64);
        for el in self.bufs[self.nbufs - 1].chunks_exact_mut(64) {
            transpose64(el.try_into().expect("64 planes per element"));
        }
        self.used = 0;
    }

    /// Number of closed segments.
    pub fn num_segments(&self) -> usize {
        self.open as usize
    }

    /// Transpose the closed segments' planes and return the per-lane
    /// counts of every *closed* segment. Words fed after the last
    /// [`Self::mark`] keep accumulating in the open segment and are not
    /// part of the returned view.
    pub fn finish(&mut self) -> LaneCounts<'_> {
        self.close_buf();
        self.counts()
    }

    /// The view [`Self::finish`] returned, again.
    ///
    /// # Panics
    ///
    /// Panics when a segment closed since the last [`Self::finish`].
    pub fn counts(&self) -> LaneCounts<'_> {
        assert_eq!(self.used, 0, "finish the counter before reading its counts");
        LaneCounts { bufs: &self.bufs[..self.nbufs], segs: &self.segs, len: self.open as usize }
    }
}

/// Lanes of a segment that no word reached.
static NO_COUNTS: [u64; LANES] = [0; LANES];

/// The per-lane counts of a [`SegLaneCounter`]'s closed segments, read
/// from the packed fields of its transposed plane buffers.
#[derive(Debug, Clone, Copy)]
pub struct LaneCounts<'a> {
    bufs: &'a [[u64; LANES]],
    segs: &'a [Field],
    len: usize,
}

impl<'a> LaneCounts<'a> {
    /// Number of closed segments.
    pub fn num_segments(&self) -> usize {
        self.len
    }

    /// The counts of closed segment `seg` in the 64 lanes of element `e`
    /// (lanes `64e..64e + 64`).
    #[inline]
    pub fn element(&self, seg: usize, e: usize) -> ElementCounts<'a> {
        assert!(seg < self.len, "segment {seg} is not closed");
        let (words, f) = match self.segs.get(seg) {
            Some(&f) if f.k > 0 => (&self.bufs[f.buf as usize], f),
            _ => (&NO_COUNTS, Field::default()),
        };
        ElementCounts {
            words: words[64 * e..][..64].try_into().expect("64 lanes per element"),
            shift: u32::from(f.shift),
            mask: (1u64 << f.k) - 1,
        }
    }

    /// Lane `lane`'s count in closed segment `seg`.
    #[inline]
    pub fn get(&self, seg: usize, lane: usize) -> u32 {
        self.element(seg, lane / 64).get(lane % 64) as u32
    }
}

/// The counts of one closed segment in the 64 lanes of one element, as
/// plain data so that a loop over the lanes vectorises.
#[derive(Debug, Clone, Copy)]
pub struct ElementCounts<'a> {
    words: &'a [u64; 64],
    shift: u32,
    mask: u64,
}

impl ElementCounts<'_> {
    /// The count of the element's lane `l`.
    #[inline(always)]
    pub fn get(&self, l: usize) -> u64 {
        (self.words[l] >> self.shift) & self.mask
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

    /// A lane word of four independently drawn elements.
    fn random_word(rng: &mut MaskRng) -> LaneWord {
        LaneWord(std::array::from_fn(|_| rng.bits(64)))
    }

    /// The scalar oracle: per closed segment and lane, the number of the
    /// segment's words with that lane's bit set, segment-major.
    fn naive_counts(segments: &[Vec<LaneWord>]) -> Vec<u32> {
        segments
            .iter()
            .flat_map(|s| (0..LANES).map(move |l| s.iter().filter(|w| w.lane(l)).count()))
            .map(|c| c as u32)
            .collect()
    }

    /// Every closed segment's counts, segment-major.
    fn view(c: LaneCounts<'_>) -> Vec<u32> {
        let mut v = Vec::new();
        for seg in 0..c.num_segments() {
            v.extend((0..LANES).map(|l| c.get(seg, l)));
        }
        v
    }

    #[test]
    fn seg_counter_segments_independent() {
        let lanes = |ls: &[usize]| {
            let mut w = LaneWord::ZERO;
            for &l in ls {
                w.0[l / 64] |= 1 << (l % 64);
            }
            w
        };
        let mut c = SegLaneCounter::new();
        // Segment 0: three words, lane 0 always set, lanes 5 and 64 once.
        c.extend_from_slice(&[lanes(&[0])]);
        c.extend_from_slice(&[lanes(&[0, 5, 64]), lanes(&[0])]);
        c.mark();
        // Segment 1: two words, lane 0 clear, lane 255 both times.
        c.extend_from_slice(&[lanes(&[255]), lanes(&[63, 255])]);
        c.mark();
        // Segment 2: empty (a cycle in which a counter saw no words).
        c.extend_from_slice(&[]);
        c.mark();
        assert_eq!(c.num_segments(), 3);
        let counts = c.finish();
        assert_eq!(counts.num_segments(), 3);
        assert_eq!(counts.get(0, 0), 3);
        assert_eq!(counts.get(0, 5), 1);
        assert_eq!(counts.get(0, 64), 1);
        assert_eq!(counts.get(0, 63), 0);
        assert_eq!(counts.get(1, 255), 2);
        assert_eq!(counts.get(1, 63), 1);
        assert_eq!(counts.get(1, 0), 0);
        assert!((0..LANES).all(|l| counts.get(2, l) == 0), "empty segment");
    }

    /// Segment sizes around the 16-word fold block and the 64-plane
    /// buffer, and one long enough to carry into the planes above
    /// weight 128.
    const SEG_SIZES: [usize; 16] = [0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 300, 1100];

    /// One 64-lane element of density class `d`: a single set lane, an
    /// eighth, a half, seven eighths, or every lane.
    fn element(d: u8, x: u64, y: u64, z: u64) -> u64 {
        match d % 5 {
            0 => 1 << (x % 64),
            1 => x & y & z,
            2 => x,
            3 => x | y | z,
            _ => u64::MAX,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The counter equals the naive per-bit count in all 256 lanes
        /// over random streams: every segment size class, words whose four
        /// elements take different densities (a swapped element or a carry
        /// across elements fails), each segment fed in one slice, one word
        /// at a time, or split at random points, `finish` with words in
        /// the open segment and again after more marks, and `reset`.
        #[test]
        fn counter_matches_naive_oracle(
            plan in proptest::collection::vec(
                (0usize..SEG_SIZES.len(), 0u8..5, 0u8..3, 0u8..8, proptest::any::<u64>()),
                1..24,
            ),
        ) {
            let mut c = SegLaneCounter::new();
            let mut closed: Vec<Vec<LaneWord>> = Vec::new();
            for &(size, density, how, event, seed) in &plan {
                let mut rng = SmallRng::seed_from_u64(seed);
                let words: Vec<LaneWord> = (0..SEG_SIZES[size])
                    .map(|_| {
                        LaneWord(std::array::from_fn(|e| {
                            element(density + e as u8, rng.random(), rng.random(), rng.random())
                        }))
                    })
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
                    proptest::prop_assert_eq!(view(c.finish()), want);
                }
                c.mark();
                closed.push(words);
                match event {
                    1 => {
                        let want = naive_counts(&closed);
                        proptest::prop_assert_eq!(view(c.finish()), want);
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
            proptest::prop_assert_eq!(view(c.finish()), want.clone());
            // A repeated finish transposes nothing and returns the same view.
            proptest::prop_assert_eq!(view(c.finish()), want);
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn obs_counters_track_words_and_transposes() {
        let mut s = SegLaneCounter::new();
        // Ten 100-word segments of 7 planes each: nine fill 63 planes,
        // the tenth forces a buffer transpose, `finish` pays the second;
        // each buffer transpose is four 64×64 ones, one per element.
        for _ in 0..10 {
            s.extend_from_slice(&[LaneWord([1, 0, 0, 1 << 63]); 100]);
            s.mark();
        }
        s.mark(); // empty: no planes
        let _ = s.finish();
        let _ = s.finish();
        assert_eq!(s.obs_words(), 1000);
        assert_eq!(s.obs_segments(), 11);
        assert_eq!(s.obs_transposes(), 2 * 4);
    }

    /// A counter that only sees marks allocates nothing.
    #[test]
    fn wordless_counter_allocates_nothing() {
        let mut s = SegLaneCounter::new();
        for _ in 0..115 {
            s.extend_from_slice(&[]);
            s.mark();
        }
        assert_eq!(s.finish().get(114, 255), 0);
        assert!(s.acc.is_none() && s.bufs.capacity() == 0 && s.segs.capacity() == 0);
    }

    /// The lane gadget agrees with the scalar gadget in every lane, for
    /// random sharings.
    #[test]
    fn sec_and2_lanes_matches_scalar() {
        let mut rng = MaskRng::new(0x1a7e);
        for _ in 0..16 {
            let x = LaneBit { s0: random_word(&mut rng), s1: random_word(&mut rng) };
            let y = LaneBit { s0: random_word(&mut rng), s1: random_word(&mut rng) };
            let z = sec_and2_lanes(x, y);
            for lane in 0..LANES {
                let pick = |b: LaneBit| MaskedBit { s0: b.s0.lane(lane), s1: b.s1.lane(lane) };
                let zs = sec_and2(pick(x), pick(y));
                assert_eq!((z.s0.lane(lane), z.s1.lane(lane)), (zs.s0, zs.s1), "lane {lane}");
            }
            assert_eq!(z.unmask(), x.unmask() & y.unmask(), "functional AND");
        }
    }

    #[test]
    fn lane_bit_algebra() {
        let mut rng = MaskRng::new(9);
        let v = random_word(&mut rng);
        let m = random_word(&mut rng);
        let b = LaneBit::mask_words(v, m);
        assert_eq!(b.unmask(), v);
        assert_eq!(b.not().unmask(), !v);
        assert_eq!(b.refresh_with(random_word(&mut rng)).unmask(), v);
        assert_eq!(b.xor(LaneBit::constant(true)).unmask(), !v);
        assert_eq!(LaneBit::constant(false).unmask(), LaneWord::ZERO);
        assert_eq!(LaneBit::constant(true).unmask(), LaneWord::splat(true));
    }

    #[test]
    fn lanes_to_bits_partial_tail() {
        // Lanes 0, 1 and 65: lane 65 lands in element 1.
        let mut src = [0u64; 66];
        src[0] = 0b101;
        src[1] = 0b011;
        src[65] = 0b110;
        let mut out = [LaneWord::splat(true); 64];
        lanes_to_bits(&src, &mut out);
        assert_eq!(out[0].0, [0b11, 0, 0, 0]); // bit 0: lanes 0 and 1
        assert_eq!(out[1].0, [0b10, 1 << 1, 0, 0]); // bit 1: lanes 1 and 65
        assert_eq!(out[2].0, [0b01, 1 << 1, 0, 0]); // bit 2: lanes 0 and 65
        assert_eq!(out[3], LaneWord::ZERO, "absent lanes read as 0");
        assert_eq!(bits_to_lanes(&out)[..66], src);
        assert!(bits_to_lanes(&out)[66..].iter().all(|&w| w == 0));
    }

    #[test]
    fn bits_to_lanes_inverts_lanes_to_bits() {
        let mut rng = MaskRng::new(0xb175);
        let src: Vec<u64> = (0..LANES).map(|_| rng.bits(64)).collect();
        let mut bits = [LaneWord::ZERO; 64];
        lanes_to_bits(&src, &mut bits);
        for (b, w) in bits.iter().enumerate() {
            for (l, &lane) in src.iter().enumerate() {
                assert_eq!(w.lane(l), (lane >> b) & 1 == 1, "bit {b} lane {l}");
            }
        }
        assert_eq!(bits_to_lanes(&bits)[..], src[..]);
    }
}
