//! Masked DES key schedule.
//!
//! Every step (PC1, the per-round rotations of the C/D halves, PC2) is
//! linear over GF(2), so it is applied to each share independently. The
//! key is re-masked before every DES operation (the paper masks the fixed
//! key afresh per encryption), and the schedule runs in parallel with the
//! datapath — it contributes ~900 GE to the FF core's area (§VI-A).

use crate::tables::{permute, rotl, PC1, PC2, SHIFTS};
use gm_core::{MaskRng, MaskedWord};

/// Masked key-schedule state: the shared C and D halves.
#[derive(Debug, Clone)]
pub struct MaskedKeySchedule {
    c: MaskedWord,
    d: MaskedWord,
    round: usize,
}

impl MaskedKeySchedule {
    /// Mask `key` with fresh randomness and apply PC1.
    pub fn new(key: u64, rng: &mut MaskRng) -> Self {
        let masked = MaskedWord::mask(key, 64, rng);
        Self::from_shares(masked)
    }

    /// Start from an already-shared key.
    pub fn from_shares(key: MaskedWord) -> Self {
        assert_eq!(key.width, 64, "DES key is 64 bits");
        let pc1_0 = permute(key.s0, 64, &PC1);
        let pc1_1 = permute(key.s1, 64, &PC1);
        MaskedKeySchedule {
            c: MaskedWord { s0: pc1_0 >> 28, s1: pc1_1 >> 28, width: 28 },
            d: MaskedWord { s0: pc1_0 & 0x0FFF_FFFF, s1: pc1_1 & 0x0FFF_FFFF, width: 28 },
            round: 0,
        }
    }

    /// Rounds already emitted.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current C/D register shares (for power modelling).
    pub fn state(&self) -> (MaskedWord, MaskedWord) {
        (self.c, self.d)
    }

    /// Rotate and emit the next masked 48-bit round key.
    ///
    /// # Panics
    ///
    /// Panics after 16 rounds.
    pub fn next_round_key(&mut self) -> MaskedWord {
        assert!(self.round < 16, "DES has 16 rounds");
        let s = u32::from(SHIFTS[self.round]);
        self.c = MaskedWord { s0: rotl(self.c.s0, 28, s), s1: rotl(self.c.s1, 28, s), width: 28 };
        self.d = MaskedWord { s0: rotl(self.d.s0, 28, s), s1: rotl(self.d.s1, 28, s), width: 28 };
        self.round += 1;
        self.emit()
    }

    fn emit(&self) -> MaskedWord {
        let cd0 = (self.c.s0 << 28) | self.d.s0;
        let cd1 = (self.c.s1 << 28) | self.d.s1;
        MaskedWord { s0: permute(cd0, 56, &PC2), s1: permute(cd1, 56, &PC2), width: 48 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::round_keys;

    #[test]
    fn matches_reference_schedule() {
        let mut rng = MaskRng::new(111);
        for key in [0x133457799BBCDFF1u64, 0x0E329232EA6D0D73, 0xFFFFFFFFFFFFFFFF, 0] {
            let want = round_keys(key);
            let mut ks = MaskedKeySchedule::new(key, &mut rng);
            for (r, w) in want.iter().enumerate() {
                let got = ks.next_round_key();
                assert_eq!(got.unmask(), *w, "key {key:016x} round {r}");
                assert_eq!(got.width, 48);
            }
        }
    }

    #[test]
    fn shares_stay_masked() {
        let mut rng = MaskRng::new(112);
        let mut ks = MaskedKeySchedule::new(0x133457799BBCDFF1, &mut rng);
        let k1 = ks.next_round_key();
        // With randomness on, share 0 should essentially never equal the
        // unshared round key (probability 2^-48).
        assert_ne!(k1.s0, k1.unmask());
    }

    #[test]
    fn prng_off_degenerates() {
        let mut rng = MaskRng::disabled();
        let mut ks = MaskedKeySchedule::new(0x133457799BBCDFF1, &mut rng);
        let k1 = ks.next_round_key();
        assert_eq!(k1.s0, 0, "PRNG off: the mask share is all-zero");
        assert_eq!(k1.s1, round_keys(0x133457799BBCDFF1)[0]);
    }

    #[test]
    #[should_panic(expected = "16 rounds")]
    fn seventeenth_round_panics() {
        let mut rng = MaskRng::new(113);
        let mut ks = MaskedKeySchedule::new(0, &mut rng);
        for _ in 0..17 {
            let _ = ks.next_round_key();
        }
    }
}
