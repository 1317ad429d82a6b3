//! The secAND2-PD DES core (Fig. 9): 2 cycles per round.
//!
//! All AND stages evaluate combinationally within a cycle thanks to the
//! path-delayed input sequencing; the S-box output feeds the input
//! register directly (not through the state register), which is how the
//! round fits in two cycles:
//!
//! | cycle | activity |
//! |---|---|
//! | 0 | input register loads `E(R) ⊕ K`; mini AND + XOR stage and MUX stage 1 (+ refresh) evaluate; mid register captures |
//! | 1 | MUX stages 2/3, P, Feistel combine; state registers update; key rotates |
//!
//! Unlike the FF core, every `secAND2` evaluation here relies on the
//! DelayUnit ordering, so each cycle-0 record carries the glitch and
//! coupling exposure of all eight S-boxes — the handles for the Fig. 15
//! sweep and the Fig. 17 residual-coupling leakage.

use super::core_ff::{share_hd, share_hw, traces_exposures, traces_product_hw, CycleRecord};
use super::datapath::{
    expand_and_mix, final_permutation, initial_permutation, permute_p, sbox_layer_into,
};
use super::key_schedule::MaskedKeySchedule;
use crate::sbox::masked::SboxTrace;
use crate::sbox::SboxRandomness;
use gm_core::{MaskRng, MaskedWord};

/// The secAND2-PD masked DES core.
#[derive(Debug, Clone)]
pub struct MaskedDesPd {
    key: u64,
    /// DelayUnit size in LUTs (10 = the paper's optimum).
    pub unit_luts: usize,
    /// When false, the 14-bit refresh layer is skipped (§III-C ablation).
    pub refresh_enabled: bool,
}

impl MaskedDesPd {
    /// Cycles per round (Table III).
    pub const CYCLES_PER_ROUND: usize = 2;
    /// Cycles per block: 2 lead-in + 16 × 2.
    pub const TOTAL_CYCLES: usize = 2 + 16 * Self::CYCLES_PER_ROUND;
    /// Fresh random bits per round (same budget as the FF core).
    pub const FRESH_BITS_PER_ROUND: usize = SboxRandomness::BITS;

    /// A core with the paper's optimal DelayUnit size.
    pub fn new(key: u64) -> Self {
        MaskedDesPd { key, unit_luts: 10, refresh_enabled: true }
    }

    /// A core with an explicit DelayUnit size (the Fig. 15 sweep).
    pub fn with_unit_luts(key: u64, unit_luts: usize) -> Self {
        MaskedDesPd { key, unit_luts, refresh_enabled: true }
    }

    /// Encrypt one block, returning the ciphertext and one
    /// [`CycleRecord`] per clock cycle.
    pub fn encrypt_with_cycles(
        &self,
        plaintext: u64,
        rng: &mut MaskRng,
    ) -> (u64, Vec<CycleRecord>) {
        let mut cycles = Vec::with_capacity(Self::TOTAL_CYCLES);
        let ct = self.encrypt_with_cycles_into(plaintext, rng, &mut cycles);
        (ct, cycles)
    }

    /// As [`Self::encrypt_with_cycles`], reusing a caller-provided cycle
    /// buffer (cleared first) — the allocation-free path large TVLA
    /// campaigns run per trace.
    pub fn encrypt_with_cycles_into(
        &self,
        plaintext: u64,
        rng: &mut MaskRng,
        cycles: &mut Vec<CycleRecord>,
    ) -> u64 {
        cycles.clear();
        cycles.reserve(Self::TOTAL_CYCLES);

        // Lead-in cycle 0: key masking + load.
        let mut ks = MaskedKeySchedule::new(self.key, rng);
        let (c_reg, d_reg) = ks.state();
        cycles.push(CycleRecord {
            reg_toggles: share_hw(c_reg) + share_hw(d_reg),
            ..Default::default()
        });

        // Lead-in cycle 1: plaintext masking, IP, initial L/R load.
        let pt = MaskedWord::mask(plaintext, 64, rng);
        let (mut l, mut r) = initial_permutation(pt);
        cycles.push(CycleRecord {
            reg_toggles: share_hw(l) + share_hw(r),
            comb_toggles: share_hw(pt),
            ..Default::default()
        });

        let mut ir = MaskedWord::constant(0, 48);
        // Previous mid-register contents (4 selects + 16 mini outputs per
        // S-box) for an exact share-wise Hamming distance.
        let mut mid_prev = [gm_core::MaskedBit::constant(false); 8 * 20];
        let mut traces = [SboxTrace::default(); 8];

        for _round in 0..16 {
            let rk = ks.next_round_key();
            let pool = if self.refresh_enabled {
                SboxRandomness::draw(rng)
            } else {
                SboxRandomness::default()
            };

            // Cycle 0: IR load; AND/XOR/MUX-1 evaluate combinationally.
            let mixed = expand_and_mix(r, rk);
            let ir_hd = share_hd(ir, mixed);
            ir = mixed;
            let sout_raw = sbox_layer_into(ir, &[pool], &mut traces);
            let (glitch_units, coupling_units) = traces_exposures(&traces);
            let mut mid_hd = 0u32;
            let mut mid_hw = 0u32;
            for (s, t) in traces.iter().enumerate() {
                let mids = t.sel.iter().chain(t.mini_out.iter().flatten());
                for (j, b) in mids.enumerate() {
                    let old = &mut mid_prev[20 * s + j];
                    mid_hd += u32::from(old.s0 != b.s0) + u32::from(old.s1 != b.s1);
                    mid_hw += u32::from(b.s0) + u32::from(b.s1);
                    *old = *b;
                }
            }
            cycles.push(CycleRecord {
                reg_toggles: ir_hd + mid_hd,
                comb_toggles: traces_product_hw(&traces, 0..10) + mid_hw,
                glitch_units,
                coupling_units,
            });

            // Cycle 1: MUX stage 2/3, P, combine; state + key registers.
            let (c_old, d_old) = ks.state();
            let fr = permute_p(sout_raw);
            let new_r = l.xor(fr);
            let state_hd = share_hd(l, r) + share_hd(r, new_r);
            l = r;
            r = new_r;
            let (c_new, d_new) = ks.state();
            cycles.push(CycleRecord {
                reg_toggles: state_hd + share_hd(c_old, c_new) + share_hd(d_old, d_new),
                comb_toggles: share_hw(sout_raw) + share_hw(fr),
                ..Default::default()
            });
        }

        debug_assert_eq!(cycles.len(), Self::TOTAL_CYCLES);
        final_permutation(l, r).unmask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Des;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn cycle_counts_match_paper() {
        assert_eq!(MaskedDesPd::CYCLES_PER_ROUND, 2);
        assert_eq!(MaskedDesPd::TOTAL_CYCLES, 34);
        assert!(MaskedDesPd::TOTAL_CYCLES < MaskedDesFfTotal::get());
    }

    struct MaskedDesFfTotal;
    impl MaskedDesFfTotal {
        fn get() -> usize {
            super::super::core_ff::MaskedDesFf::TOTAL_CYCLES
        }
    }

    #[test]
    fn functional_equivalence_with_reference() {
        let mut seeds = SmallRng::seed_from_u64(8);
        let mut rng = MaskRng::new(141);
        for _ in 0..12 {
            let key: u64 = seeds.random();
            let pt: u64 = seeds.random();
            let core = MaskedDesPd::new(key);
            let (ct, cycles) = core.encrypt_with_cycles(pt, &mut rng);
            assert_eq!(ct, Des::new(key).encrypt_block(pt));
            assert_eq!(cycles.len(), 34);
        }
    }

    #[test]
    fn pd_cycles_carry_exposures() {
        let mut rng = MaskRng::new(142);
        let core = MaskedDesPd::new(0x133457799BBCDFF1);
        let (_, cycles) = core.encrypt_with_cycles(0x0123456789ABCDEF, &mut rng);
        let glitch: u32 = cycles.iter().map(|c| c.glitch_units).sum();
        let coupling: u32 = cycles.iter().map(|c| c.coupling_units).sum();
        assert!(glitch > 100, "AND-stage exposure expected: {glitch}");
        assert!(coupling > 100, "coupling exposure expected: {coupling}");
        // Only the S-box evaluation cycles carry exposure.
        for round in 0..16 {
            assert_eq!(cycles[2 + round * 2 + 1].glitch_units, 0, "round {round} cycle 1");
        }
    }

    #[test]
    fn unit_luts_is_configuration_only() {
        // The DelayUnit size never changes values — only timing/leakage.
        let mut a = MaskRng::new(10);
        let mut b = MaskRng::new(10);
        let c1 = MaskedDesPd::with_unit_luts(1, 1).encrypt_with_cycles(99, &mut a);
        let c10 = MaskedDesPd::with_unit_luts(1, 10).encrypt_with_cycles(99, &mut b);
        assert_eq!(c1.0, c10.0);
        assert_eq!(c1.1, c10.1);
    }
}
