//! The secAND2-FF DES core (Fig. 8): 7 cycles per round, 115 per block.
//!
//! Cycle budget per round, matching the paper's schedule:
//!
//! | cycle | activity |
//! |---|---|
//! | 0 | key halves rotate; S-box input register loads `E(R) ⊕ K` |
//! | 1 | mini S-box AND stage, layer 1 (pair products) |
//! | 2 | AND stage layer 2 (triple products); MUX stage-1 register loads |
//! | 3 | AND stage settle (secAND2-FF y₁ captures) |
//! | 4 | XOR stage + product refresh |
//! | 5 | MUX stage 2/3; S-box output register loads |
//! | 6 | state registers L/R update (Feistel combine) |
//!
//! Three lead-in cycles (key masking + load, plaintext masking + IP,
//! initial L/R load) complete the paper's 115-cycle total.
//!
//! The engine is value-level but cycle-accurate: every cycle yields a
//! [`CycleRecord`] with the share-wise register and combinational toggle
//! counts the fast power model consumes. The FF gadget guarantees the
//! safe arrival order, so its records never carry glitch exposure.

use super::datapath::{
    expand_and_mix, final_permutation, initial_permutation, permute_p, sbox_layer_into,
};
use super::key_schedule::MaskedKeySchedule;
use crate::sbox::masked::SboxTrace;
use crate::sbox::SboxRandomness;
use gm_core::{MaskRng, MaskedBit, MaskedWord};

/// Share-level activity of one clock cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Register share bits that toggled this cycle (Hamming distance).
    pub reg_toggles: u32,
    /// Combinational share activity (Hamming weight / distance proxy).
    pub comb_toggles: u32,
    /// Glitch-exposure units: Σ over AND gadgets evaluated this cycle of
    /// the unshared `y` operand (only realised as power when the arrival
    /// order is violated — see `gm_des::power`).
    pub glitch_units: u32,
    /// Coupling-exposure units: Σ of the unshared `x` operands (realised
    /// with the crosstalk ε).
    pub coupling_units: u32,
}

/// Share-wise Hamming distance between two masked words.
pub(crate) fn share_hd(a: MaskedWord, b: MaskedWord) -> u32 {
    (a.s0 ^ b.s0).count_ones() + (a.s1 ^ b.s1).count_ones()
}

/// Share-wise Hamming weight of a masked word.
pub(crate) fn share_hw(w: MaskedWord) -> u32 {
    w.s0.count_ones() + w.s1.count_ones()
}

pub(crate) fn bit_hw(bits: &[MaskedBit]) -> u32 {
    bits.iter().map(|b| u32::from(b.s0) + u32::from(b.s1)).sum()
}

pub(crate) fn traces_product_hw(traces: &[SboxTrace], range: std::ops::Range<usize>) -> u32 {
    traces.iter().map(|t| bit_hw(&t.products[range.clone()])).sum()
}

pub(crate) fn traces_exposures(traces: &[SboxTrace]) -> (u32, u32) {
    traces.iter().fold((0, 0), |(g, c), t| (g + t.glitch_y_units, c + t.coupling_x_units))
}

/// The secAND2-FF masked DES core.
#[derive(Debug, Clone)]
pub struct MaskedDesFf {
    key: u64,
    /// When false, the 14-bit refresh layer is skipped (§III-C ablation:
    /// the XOR stage then recombines dependent sharings and the core
    /// leaks in first order).
    pub refresh_enabled: bool,
}

impl MaskedDesFf {
    /// Cycles per round (Table III).
    pub const CYCLES_PER_ROUND: usize = 7;
    /// Cycles per block: 3 lead-in + 16 × 7 (the paper's "115 clock
    /// cycles compared to 84" trade-off, §VIII).
    pub const TOTAL_CYCLES: usize = 3 + 16 * Self::CYCLES_PER_ROUND;
    /// Fresh random bits per round.
    pub const FRESH_BITS_PER_ROUND: usize = SboxRandomness::BITS;

    /// A core for a fixed key (re-masked per encryption).
    pub fn new(key: u64) -> Self {
        MaskedDesFf { key, refresh_enabled: true }
    }

    /// The §III-C ablation: refresh disabled (functionally identical,
    /// first-order insecure).
    pub fn without_refresh(key: u64) -> Self {
        MaskedDesFf { key, refresh_enabled: false }
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

        // Lead-in cycle 0: key masking + key register load.
        let mut ks = MaskedKeySchedule::new(self.key, rng);
        let (c_reg, d_reg) = ks.state();
        cycles.push(CycleRecord {
            reg_toggles: share_hw(c_reg) + share_hw(d_reg),
            ..Default::default()
        });

        // Lead-in cycle 1: plaintext masking + IP (wiring only).
        let pt = MaskedWord::mask(plaintext, 64, rng);
        cycles.push(CycleRecord { comb_toggles: share_hw(pt), ..Default::default() });

        // Lead-in cycle 2: initial L/R load.
        let (mut l, mut r) = initial_permutation(pt);
        cycles.push(CycleRecord { reg_toggles: share_hw(l) + share_hw(r), ..Default::default() });

        // Architectural registers that persist across rounds.
        let mut ir = MaskedWord::constant(0, 48); // S-box input register
        let mut sel_regs = [MaskedBit::constant(false); 32];
        let mut sbox_out_reg = MaskedWord::constant(0, 32);
        let mut traces = [SboxTrace::default(); 8];

        for _round in 0..16 {
            let (c_old, d_old) = ks.state();
            let rk = ks.next_round_key();
            let (c_new, d_new) = ks.state();
            let key_hd = share_hd(c_old, c_new) + share_hd(d_old, d_new);

            // Cycle 0: IR load + key rotation.
            let mixed = expand_and_mix(r, rk);
            cycles.push(CycleRecord {
                reg_toggles: share_hd(ir, mixed) + key_hd,
                comb_toggles: share_hw(mixed),
                ..Default::default()
            });
            ir = mixed;

            let pool = if self.refresh_enabled {
                SboxRandomness::draw(rng)
            } else {
                SboxRandomness::default()
            };
            let sout_raw = sbox_layer_into(ir, &[pool], &mut traces);

            // Cycle 1: AND stage layer 1 (the six pair products).
            cycles.push(CycleRecord {
                comb_toggles: traces_product_hw(&traces, 0..6),
                // The FF gadget enforces the safe order: glitch exposure
                // never becomes power. Recorded as zero by construction.
                glitch_units: 0,
                coupling_units: 0,
                ..Default::default()
            });

            // Cycle 2: AND stage layer 2 (triples) + MUX stage-1 register.
            let mut sel_hd = 0u32;
            for (s, t) in traces.iter().enumerate() {
                for (j, b) in t.sel.iter().enumerate() {
                    let old = &mut sel_regs[4 * s + j];
                    sel_hd += u32::from(old.s0 != b.s0) + u32::from(old.s1 != b.s1);
                    *old = *b;
                }
            }
            cycles.push(CycleRecord {
                reg_toggles: sel_hd,
                comb_toggles: traces_product_hw(&traces, 6..10),
                ..Default::default()
            });

            // Cycle 3: AND-stage settle (y1 FF captures).
            cycles.push(CycleRecord {
                comb_toggles: traces_product_hw(&traces, 0..10),
                ..Default::default()
            });

            // Cycle 4: XOR stage (mini S-box outputs).
            let mini_hw: u32 =
                traces.iter().map(|t| t.mini_out.iter().map(|row| bit_hw(row)).sum::<u32>()).sum();
            cycles.push(CycleRecord { comb_toggles: mini_hw, ..Default::default() });

            // Cycle 5: MUX stages 2/3 + S-box output register. The FF
            // gadget enforces the safe order and keeps wires short, so no
            // glitch or coupling exposure is ever realised.
            cycles.push(CycleRecord {
                reg_toggles: share_hd(sbox_out_reg, sout_raw),
                comb_toggles: share_hw(sout_raw),
                ..Default::default()
            });
            sbox_out_reg = sout_raw;

            // Cycle 6: Feistel combine + state registers.
            let fr = permute_p(sbox_out_reg);
            let new_r = l.xor(fr);
            let state_hd = share_hd(l, r) + share_hd(r, new_r);
            l = r;
            r = new_r;
            cycles.push(CycleRecord {
                reg_toggles: state_hd,
                comb_toggles: share_hw(fr),
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
    fn cycle_count_matches_paper() {
        assert_eq!(MaskedDesFf::CYCLES_PER_ROUND, 7);
        assert_eq!(MaskedDesFf::TOTAL_CYCLES, 115);
    }

    #[test]
    fn functional_equivalence_with_reference() {
        let mut seeds = SmallRng::seed_from_u64(7);
        let mut rng = MaskRng::new(131);
        for _ in 0..12 {
            let key: u64 = seeds.random();
            let pt: u64 = seeds.random();
            let core = MaskedDesFf::new(key);
            let (ct, cycles) = core.encrypt_with_cycles(pt, &mut rng);
            assert_eq!(ct, Des::new(key).encrypt_block(pt));
            assert_eq!(cycles.len(), 115);
        }
    }

    #[test]
    fn ff_core_never_carries_glitch_exposure_as_power() {
        let mut rng = MaskRng::new(132);
        let core = MaskedDesFf::new(0x133457799BBCDFF1);
        let (_, cycles) = core.encrypt_with_cycles(0x0123456789ABCDEF, &mut rng);
        // Exposure units recorded only where the PD model would use them;
        // for the FF core the AND-stage cycles carry none.
        let and_stage_glitches: u32 =
            cycles.iter().skip(3).step_by(7).map(|c| c.glitch_units).sum();
        assert_eq!(and_stage_glitches, 0);
    }

    #[test]
    fn cycles_have_activity() {
        let mut rng = MaskRng::new(133);
        let core = MaskedDesFf::new(0x0123456789ABCDEF);
        let (_, cycles) = core.encrypt_with_cycles(0x5555AAAA5555AAAA, &mut rng);
        let total: u32 = cycles.iter().map(|c| c.reg_toggles + c.comb_toggles).sum();
        assert!(total > 1_000, "a full DES must toggle a lot: {total}");
        // Every round's state-update cycle moves registers.
        for round in 0..16 {
            let c = cycles[3 + round * 7 + 6];
            assert!(c.reg_toggles > 0, "round {round} state update");
        }
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let core = MaskedDesFf::new(0xDEADBEEFCAFEBABE);
        let mut a = MaskRng::new(9);
        let mut b = MaskRng::new(9);
        let (ca, ta) = core.encrypt_with_cycles(1, &mut a);
        let (cb, tb) = core.encrypt_with_cycles(1, &mut b);
        assert_eq!(ca, cb);
        assert_eq!(ta, tb);
    }
}
