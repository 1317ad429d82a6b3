//! Trichina's masked AND (baseline, Eq. 1 of the paper):
//!
//! ```text
//! z₀ = r ⊕ (x₀·y₀) ⊕ (x₀·y₁) ⊕ (x₁·y₁) ⊕ (x₁·y₀)
//! z₁ = r
//! ```
//!
//! Secure only when evaluated strictly left-to-right — software can
//! guarantee that, hardware cannot (glitches), which is the paper's
//! starting observation. Costs one fresh random bit per AND; the gadget
//! also needs more cells than `secAND2` (4 AND + 4 XOR vs 2 AND + 2 OR +
//! 2 XOR + 1 INV), which is `secAND2`'s other advantage.

use super::{AndInputs, AndOutputs};
use crate::rng::MaskRng;
use crate::share::MaskedBit;
use gm_netlist::{NetId, Netlist};

/// Software model with the mandated left-to-right evaluation order.
pub fn trichina_and(x: MaskedBit, y: MaskedBit, rng: &mut MaskRng) -> MaskedBit {
    let r = rng.bit();
    // Parenthesised exactly as the secure order demands.
    let z0 = ((((r ^ (x.s0 & y.s0)) ^ (x.s0 & y.s1)) ^ (x.s1 & y.s1)) ^ (x.s1 & y.s0),);
    MaskedBit { s0: z0.0, s1: r }
}

/// Netlist generator. `r` is the fresh-randomness input net. The XOR
/// chain is emitted in the secure order, but **glitches make the
/// hardware order undefined** — this netlist exists as the negative
/// control / baseline for area and leakage comparisons.
pub fn build_trichina_and(n: &mut Netlist, io: AndInputs, r: NetId) -> AndOutputs {
    let p00 = n.and2(io.x0, io.y0);
    let p01 = n.and2(io.x0, io.y1);
    let p11 = n.and2(io.x1, io.y1);
    let p10 = n.and2(io.x1, io.y0);
    let t1 = n.xor2(r, p00);
    let t2 = n.xor2(t1, p01);
    let t3 = n.xor2(t2, p11);
    let z0 = n.xor2(t3, p10);
    AndOutputs { z0, z1: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_netlist::Evaluator;

    #[test]
    fn correct_for_all_sharings() {
        let mut rng = MaskRng::new(51);
        for bits in 0..16u8 {
            let x = MaskedBit { s0: bits & 1 != 0, s1: bits & 2 != 0 };
            let y = MaskedBit { s0: bits & 4 != 0, s1: bits & 8 != 0 };
            assert_eq!(trichina_and(x, y, &mut rng).unmask(), x.unmask() & y.unmask());
        }
    }

    #[test]
    fn output_mask_is_the_fresh_bit() {
        // With the PRNG disabled, z1 must be 0 and z0 the plain product of
        // recombined shares.
        let mut rng = MaskRng::disabled();
        let x = MaskedBit { s0: true, s1: true }; // x = 0
        let y = MaskedBit { s0: true, s1: false }; // y = 1
        let z = trichina_and(x, y, &mut rng);
        assert!(!z.s1);
        assert!(!z.unmask());
    }

    #[test]
    fn netlist_matches_model() {
        let mut n = Netlist::new("trichina");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let r = n.input("r");
        let out = build_trichina_and(&mut n, io, r);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        n.validate().unwrap();
        assert_eq!(n.num_gates(), 8, "4 AND + 4 XOR");

        let mut ev = Evaluator::new(&n).unwrap();
        for bits in 0..32u8 {
            let outs = ev.run_combinational(
                &n,
                &[
                    (io.x0, bits & 1 != 0),
                    (io.x1, bits & 2 != 0),
                    (io.y0, bits & 4 != 0),
                    (io.y1, bits & 8 != 0),
                    (r, bits & 16 != 0),
                ],
            );
            let x = (bits & 1 != 0) ^ (bits & 2 != 0);
            let y = (bits & 4 != 0) ^ (bits & 8 != 0);
            assert_eq!(outs[0] ^ outs[1], x & y, "bits {bits:05b}");
        }
    }
}
