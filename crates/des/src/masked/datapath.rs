//! The shared value-level masked DES round function and a full masked
//! encryption model.
//!
//! [`MaskedDes`] is the *functional* core both cycle-accurate engines
//! wrap: IP per share, sixteen Feistel rounds whose S-box layer runs
//! through [`crate::sbox::masked_sbox`] with 14 fresh bits per round
//! (recycled across the eight S-boxes), swap, FP per share.

use crate::sbox::masked::{masked_sbox_trace, SboxTrace};
use crate::sbox::SboxRandomness;
use crate::tables::{permute, E, FP, IP, P};
use gm_core::{MaskRng, MaskedBit, MaskedWord};

/// Value-level masked DES engine.
#[derive(Debug, Clone)]
pub struct MaskedDes {
    key: u64,
    /// When false, the paper's "no randomness recycling" alternative is
    /// modelled: 112 fresh bits per round (8 × 14) instead of 14.
    pub recycle_randomness: bool,
}

/// Masked expansion and key mix: `E(R) ⊕ K` — the value the FF core's
/// S-box input register captures.
pub fn expand_and_mix(r: MaskedWord, round_key: MaskedWord) -> MaskedWord {
    assert_eq!(r.width, 32);
    assert_eq!(round_key.width, 48);
    let expanded = MaskedWord { s0: permute(r.s0, 32, &E), s1: permute(r.s1, 32, &E), width: 48 };
    expanded.xor(round_key)
}

/// The masked S-box layer on a mixed 48-bit word, returning all eight
/// [`SboxTrace`]s and the assembled 32-bit output (before P).
pub fn sbox_layer_traced(
    mixed: MaskedWord,
    rnd: &[SboxRandomness],
) -> (Vec<SboxTrace>, MaskedWord) {
    let mut traces = [SboxTrace::default(); 8];
    let out = sbox_layer_into(mixed, rnd, &mut traces);
    (traces.to_vec(), out)
}

/// As [`sbox_layer_traced`], writing the eight traces into a
/// caller-provided buffer — the allocation-free path the cycle-accurate
/// cores run per round.
pub fn sbox_layer_into(
    mixed: MaskedWord,
    rnd: &[SboxRandomness],
    traces: &mut [SboxTrace; 8],
) -> MaskedWord {
    assert_eq!(mixed.width, 48);
    assert!(rnd.len() == 1 || rnd.len() == 8, "one shared pool or one per S-box");
    let mut out = MaskedWord::constant(0, 32);
    for s in 0..8 {
        // Six input bits of S-box s, MSB-first.
        let bits: [MaskedBit; 6] = std::array::from_fn(|i| mixed.bit(47 - (6 * s + i) as u32));
        let pool = if rnd.len() == 1 { &rnd[0] } else { &rnd[s] };
        let t = masked_sbox_trace(s, &bits, pool);
        for (j, b) in t.out.iter().enumerate() {
            let pos = 31 - (4 * s + j) as u32;
            out.s0 |= (b.s0 as u64) << pos;
            out.s1 |= (b.s1 as u64) << pos;
        }
        traces[s] = t;
    }
    out
}

/// The round permutation P applied per share.
pub fn permute_p(w: MaskedWord) -> MaskedWord {
    assert_eq!(w.width, 32);
    MaskedWord { s0: permute(w.s0, 32, &P), s1: permute(w.s1, 32, &P), width: 32 }
}

/// The masked f-function: expansion, key mix, S-boxes, P.
///
/// All eight S-boxes consume the same `rnd` pool when recycling (the
/// paper's default); otherwise the caller provides eight pools.
pub fn masked_f(r: MaskedWord, round_key: MaskedWord, rnd: &[SboxRandomness]) -> MaskedWord {
    let mixed = expand_and_mix(r, round_key);
    let (_, out) = sbox_layer_traced(mixed, rnd);
    permute_p(out)
}

/// Masked IP: split a freshly-shared plaintext into the (L, R) halves.
pub fn initial_permutation(pt: MaskedWord) -> (MaskedWord, MaskedWord) {
    assert_eq!(pt.width, 64);
    let ip0 = permute(pt.s0, 64, &IP);
    let ip1 = permute(pt.s1, 64, &IP);
    (
        MaskedWord { s0: ip0 >> 32, s1: ip1 >> 32, width: 32 },
        MaskedWord { s0: ip0 & 0xFFFF_FFFF, s1: ip1 & 0xFFFF_FFFF, width: 32 },
    )
}

/// Masked FP on the pre-output `(L16, R16)` and recombination.
pub fn final_permutation(l: MaskedWord, r: MaskedWord) -> MaskedWord {
    let pre0 = (r.s0 << 32) | l.s0;
    let pre1 = (r.s1 << 32) | l.s1;
    MaskedWord { s0: permute(pre0, 64, &FP), s1: permute(pre1, 64, &FP), width: 64 }
}

impl MaskedDes {
    /// A masked DES engine for a fixed key. The key is re-masked with
    /// fresh randomness at the start of every encryption, as in the
    /// paper's evaluation setup.
    pub fn new(key: u64) -> Self {
        MaskedDes { key, recycle_randomness: true }
    }

    /// Encrypt one block in the masked domain; `rng` supplies the initial
    /// masks and the per-round refresh bits.
    pub fn encrypt_block(&self, plaintext: u64, rng: &mut MaskRng) -> u64 {
        self.encrypt_traced(plaintext, rng, |_, _, _| {})
    }

    /// Encrypt while observing each round: the callback receives
    /// `(round, L, R)` *after* the round's Feistel update — the hook the
    /// cycle-accurate engines and power models build on.
    pub fn encrypt_traced(
        &self,
        plaintext: u64,
        rng: &mut MaskRng,
        mut observe: impl FnMut(usize, MaskedWord, MaskedWord),
    ) -> u64 {
        let pt = MaskedWord::mask(plaintext, 64, rng);
        let mut ks = super::key_schedule::MaskedKeySchedule::new(self.key, rng);
        let (mut l, mut r) = initial_permutation(pt);

        for round in 0..16 {
            let rk = ks.next_round_key();
            let pools = self.draw_pools(rng);
            let fr = masked_f(r, rk, &pools);
            let new_r = l.xor(fr);
            l = r;
            r = new_r;
            observe(round, l, r);
        }

        final_permutation(l, r).unmask()
    }

    /// Draw the round's fresh-randomness pools (1 when recycling, 8
    /// otherwise).
    fn draw_pools(&self, rng: &mut MaskRng) -> Vec<SboxRandomness> {
        if self.recycle_randomness {
            vec![SboxRandomness::draw(rng)]
        } else {
            (0..8).map(|_| SboxRandomness::draw(rng)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Des;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn matches_reference_des() {
        let mut seed_rng = SmallRng::seed_from_u64(5);
        let mut rng = MaskRng::new(121);
        for _ in 0..24 {
            let key: u64 = seed_rng.random();
            let pt: u64 = seed_rng.random();
            let masked = MaskedDes::new(key);
            assert_eq!(
                masked.encrypt_block(pt, &mut rng),
                Des::new(key).encrypt_block(pt),
                "key {key:016x} pt {pt:016x}"
            );
        }
    }

    #[test]
    fn textbook_vector_masked() {
        let mut rng = MaskRng::new(122);
        let masked = MaskedDes::new(0x133457799BBCDFF1);
        assert_eq!(masked.encrypt_block(0x0123456789ABCDEF, &mut rng), 0x85E813540F0AB405);
    }

    #[test]
    fn prng_off_still_functional() {
        let mut rng = MaskRng::disabled();
        let masked = MaskedDes::new(0x133457799BBCDFF1);
        assert_eq!(masked.encrypt_block(0x0123456789ABCDEF, &mut rng), 0x85E813540F0AB405);
    }

    #[test]
    fn no_recycling_matches_too() {
        let mut rng = MaskRng::new(123);
        let mut masked = MaskedDes::new(0x0E329232EA6D0D73);
        masked.recycle_randomness = false;
        assert_eq!(masked.encrypt_block(0x8787878787878787, &mut rng), 0);
    }

    /// The masked f-function equals the reference f on random inputs.
    #[test]
    fn masked_f_matches_reference_f() {
        use crate::reference::f;
        let mut seeds = SmallRng::seed_from_u64(77);
        let mut rng = MaskRng::new(177);
        for _ in 0..64 {
            let r: u32 = seeds.random();
            let k: u64 = seeds.random::<u64>() & ((1 << 48) - 1);
            let mr = MaskedWord::mask(u64::from(r), 32, &mut rng);
            let mk = MaskedWord::mask(k, 48, &mut rng);
            let pool = vec![crate::sbox::SboxRandomness::draw(&mut rng)];
            assert_eq!(masked_f(mr, mk, &pool).unmask() as u32, f(r, k));
        }
    }

    /// Per-S-box pools (no recycling) compute the same values.
    #[test]
    fn eight_pools_equal_one_pool_in_value() {
        use crate::reference::f;
        let mut rng = MaskRng::new(178);
        let r: u32 = 0xCAFE_BABE;
        let k: u64 = 0x0123_4567_89AB & ((1 << 48) - 1);
        let mr = MaskedWord::mask(u64::from(r), 32, &mut rng);
        let mk = MaskedWord::mask(k, 48, &mut rng);
        let pools: Vec<_> = (0..8).map(|_| crate::sbox::SboxRandomness::draw(&mut rng)).collect();
        assert_eq!(masked_f(mr, mk, &pools).unmask() as u32, f(r, k));
    }

    #[test]
    fn observe_sees_sixteen_rounds_masked() {
        let mut rng = MaskRng::new(124);
        let masked = MaskedDes::new(0x133457799BBCDFF1);
        let mut rounds = Vec::new();
        let _ = masked.encrypt_traced(0x0123456789ABCDEF, &mut rng, |r, l, _| {
            rounds.push(r);
            // Shares must be non-degenerate with PRNG on.
            assert_ne!(l.s0, l.unmask());
        });
        assert_eq!(rounds, (0..16).collect::<Vec<_>>());
    }
}
