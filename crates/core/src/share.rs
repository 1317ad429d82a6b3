//! Two-share Boolean masking of bits and words.
//!
//! First-order Boolean masking splits every sensitive value `x` into
//! `x = x₀ ⊕ x₁` with `x₀` uniform. Linear operations act share-wise;
//! non-linear operations need the gadgets in [`crate::gadgets`].

use crate::rng::MaskRng;

/// A sensitive bit split into two Boolean shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskedBit {
    /// Share 0 (the uniformly random mask under fresh sharing).
    pub s0: bool,
    /// Share 1 (`value ⊕ s0`).
    pub s1: bool,
}

impl MaskedBit {
    /// Freshly share `value` with a random mask.
    pub fn mask(value: bool, rng: &mut MaskRng) -> Self {
        let m = rng.bit();
        MaskedBit { s0: m, s1: value ^ m }
    }

    /// The (insecure to compute on a device!) unshared value.
    pub fn unmask(self) -> bool {
        self.s0 ^ self.s1
    }

    /// A trivially-shared constant `(c, 0)` — fine for public values.
    pub fn constant(c: bool) -> Self {
        MaskedBit { s0: c, s1: false }
    }

    /// Share-wise XOR (linear, always safe).
    pub fn xor(self, other: MaskedBit) -> Self {
        MaskedBit { s0: self.s0 ^ other.s0, s1: self.s1 ^ other.s1 }
    }

    /// XOR with a public constant (flips one share).
    pub fn xor_const(self, c: bool) -> Self {
        MaskedBit { s0: self.s0 ^ c, s1: self.s1 }
    }

    /// Masked NOT (flips one share).
    // Named after the gate, not the trait; `MaskedBit` deliberately does
    // not implement `std::ops::Not` (no operator sugar on shares).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        self.xor_const(true)
    }

    /// Re-mask with the fresh bit `m` (the refresh gadget of Fig. 7).
    /// Callers supply the bit so that designs can budget and recycle
    /// their randomness, like the paper's 14-bit per-round pool.
    pub fn refresh_with(self, m: bool) -> Self {
        MaskedBit { s0: self.s0 ^ m, s1: self.s1 ^ m }
    }
}

/// A `width`-bit word split into two shares, stored bitwise in `u64`s.
/// Linear DES operations (permutations, expansions, XORs) act on whole
/// words per share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskedWord {
    /// Share 0.
    pub s0: u64,
    /// Share 1.
    pub s1: u64,
    /// Number of significant low bits.
    pub width: u32,
}

impl MaskedWord {
    /// Freshly share `value` (low `width` bits) with a random mask.
    pub fn mask(value: u64, width: u32, rng: &mut MaskRng) -> Self {
        assert!(width <= 64, "width at most 64");
        let m = rng.bits(width);
        MaskedWord { s0: m, s1: (value ^ m) & mask_of(width), width }
    }

    /// A trivially-shared public constant.
    pub fn constant(value: u64, width: u32) -> Self {
        assert!(width <= 64, "width at most 64");
        MaskedWord { s0: value & mask_of(width), s1: 0, width }
    }

    /// The unshared value.
    pub fn unmask(self) -> u64 {
        (self.s0 ^ self.s1) & mask_of(self.width)
    }

    /// Share-wise XOR.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn xor(self, other: MaskedWord) -> Self {
        assert_eq!(self.width, other.width, "width mismatch");
        MaskedWord { s0: self.s0 ^ other.s0, s1: self.s1 ^ other.s1, width: self.width }
    }

    /// Extract bit `i` as a [`MaskedBit`].
    pub fn bit(self, i: u32) -> MaskedBit {
        assert!(i < self.width, "bit index {i} out of width {}", self.width);
        MaskedBit { s0: (self.s0 >> i) & 1 == 1, s1: (self.s1 >> i) & 1 == 1 }
    }

    /// Build a word from per-bit shares, bit 0 first.
    pub fn from_bits(bits: &[MaskedBit]) -> Self {
        assert!(bits.len() <= 64, "at most 64 bits");
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        for (i, b) in bits.iter().enumerate() {
            s0 |= (b.s0 as u64) << i;
            s1 |= (b.s1 as u64) << i;
        }
        MaskedWord { s0, s1, width: bits.len() as u32 }
    }

    /// Apply the same bit permutation to both shares:
    /// `out[i] = in[table[i]]` (0-based positions).
    pub fn permute(self, table: &[u32], out_width: u32) -> Self {
        assert_eq!(table.len() as u32, out_width, "table length must equal output width");
        let pick = |s: u64| -> u64 {
            table.iter().enumerate().fold(0u64, |acc, (i, &src)| acc | (((s >> src) & 1) << i))
        };
        MaskedWord { s0: pick(self.s0), s1: pick(self.s1), width: out_width }
    }

    /// Re-mask every bit with fresh randomness.
    pub fn refresh(self, rng: &mut MaskRng) -> Self {
        let m = rng.bits(self.width);
        MaskedWord { s0: self.s0 ^ m, s1: self.s1 ^ m, width: self.width }
    }
}

#[inline]
fn mask_of(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_unmask_roundtrip() {
        let mut rng = MaskRng::new(3);
        for v in [false, true] {
            for _ in 0..32 {
                assert_eq!(MaskedBit::mask(v, &mut rng).unmask(), v);
            }
        }
    }

    #[test]
    fn shares_are_balanced() {
        let mut rng = MaskRng::new(4);
        let ones = (0..10_000).filter(|_| MaskedBit::mask(true, &mut rng).s0).count();
        assert!((4_500..5_500).contains(&ones), "share 0 must be uniform: {ones}");
    }

    #[test]
    fn disabled_rng_degenerates() {
        let mut rng = MaskRng::disabled();
        let b = MaskedBit::mask(true, &mut rng);
        assert_eq!((b.s0, b.s1), (false, true), "PRNG off => (0, value)");
    }

    #[test]
    fn xor_and_not() {
        let mut rng = MaskRng::new(5);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let mx = MaskedBit::mask(x, &mut rng);
            let my = MaskedBit::mask(y, &mut rng);
            assert_eq!(mx.xor(my).unmask(), x ^ y);
            assert_eq!(mx.not().unmask(), !x);
            assert_eq!(mx.xor_const(true).unmask(), !x);
        }
    }

    #[test]
    fn refresh_preserves_value_changes_shares() {
        let mut rng = MaskRng::new(6);
        let b = MaskedBit::mask(true, &mut rng);
        let mut changed = false;
        let mut cur = b;
        for _ in 0..64 {
            cur = cur.refresh_with(rng.bit());
            assert!(cur.unmask());
            changed |= cur.s0 != b.s0;
        }
        assert!(changed, "refresh must actually re-randomise");
    }

    #[test]
    fn word_roundtrip_and_bits() {
        let mut rng = MaskRng::new(7);
        let w = MaskedWord::mask(0b101101, 6, &mut rng);
        assert_eq!(w.unmask(), 0b101101);
        assert!(w.bit(0).unmask());
        assert!(!w.bit(1).unmask());
        assert!(w.bit(5).unmask());
        let bits: Vec<MaskedBit> = (0..6).map(|i| w.bit(i)).collect();
        assert_eq!(MaskedWord::from_bits(&bits).unmask(), 0b101101);
    }

    #[test]
    fn word_permute() {
        let w = MaskedWord::constant(0b0110, 4);
        // Reverse the bits.
        let p = w.permute(&[3, 2, 1, 0], 4);
        assert_eq!(p.unmask(), 0b0110u64.reverse_bits() >> 60);
    }

    #[test]
    fn word_xor_and_refresh() {
        let mut rng = MaskRng::new(8);
        let a = MaskedWord::mask(0xF0F0, 16, &mut rng);
        let b = MaskedWord::mask(0x1234, 16, &mut rng);
        assert_eq!(a.xor(b).unmask(), 0xF0F0 ^ 0x1234);
        assert_eq!(a.refresh(&mut rng).unmask(), 0xF0F0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let a = MaskedWord::constant(1, 4);
        let b = MaskedWord::constant(1, 5);
        let _ = a.xor(b);
    }
}
