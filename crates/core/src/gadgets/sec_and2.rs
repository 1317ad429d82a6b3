//! The `secAND2` gadget (Biryukov et al., adopted by the paper as Eq. 2):
//!
//! ```text
//! z₀ = (x₀ · y₀) ⊕ (x₀ + ¬y₁)
//! z₁ = (x₁ · y₀) ⊕ (x₁ + ¬y₁)
//! ```
//!
//! (`·` AND, `⊕` XOR, `+` OR). It computes `z = x·y` on two-share inputs
//! **without fresh randomness**. Two caveats drive the rest of the paper:
//!
//! * a naive combinational implementation leaks through glitches — the
//!   hardened variants are [`crate::gadgets::sec_and2_ff`] and
//!   [`crate::gadgets::sec_and2_pd`];
//! * the output sharing is **not independent of the inputs**, so
//!   compositions that recombine dependent terms must refresh (§III-C;
//!   the masked DES S-box refreshes its ten products for this reason).

use super::{AndInputs, AndOutputs};
use crate::share::MaskedBit;
use gm_netlist::Netlist;

/// Software model of `secAND2`: returns the masked product `x·y`.
///
/// # Examples
///
/// ```
/// use gm_core::{MaskedBit, MaskRng};
/// use gm_core::gadgets::sec_and2;
///
/// let mut rng = MaskRng::new(1);
/// let x = MaskedBit::mask(true, &mut rng);
/// let y = MaskedBit::mask(true, &mut rng);
/// assert!(sec_and2(x, y).unmask());
/// ```
pub fn sec_and2(x: MaskedBit, y: MaskedBit) -> MaskedBit {
    let z0 = (x.s0 & y.s0) ^ (x.s0 | !y.s1);
    let z1 = (x.s1 & y.s0) ^ (x.s1 | !y.s1);
    MaskedBit { s0: z0, s1: z1 }
}

/// Netlist generator for the plain combinational `secAND2` (Fig. 1):
/// seven gates (2×AND2, 2×OR2, 2×XOR2, 1×INV), no registers.
pub fn build_sec_and2(n: &mut Netlist, io: AndInputs) -> AndOutputs {
    let ny1 = n.inv(io.y1);
    let a0 = n.and2(io.x0, io.y0);
    let o0 = n.or2(io.x0, ny1);
    let z0 = n.xor2(a0, o0);
    let a1 = n.and2(io.x1, io.y0);
    let o1 = n.or2(io.x1, ny1);
    let z1 = n.xor2(a1, o1);
    AndOutputs { z0, z1 }
}

/// The *insecure* classical masked AND the paper opens with
/// (`z₀ = x₀y₀ ⊕ x₀y₁`, `z₁ = x₁y₀ ⊕ x₁y₁`): `z₀` equals `x₀·y`, i.e. it
/// depends on the **unshared** `y`. Kept as a negative control for the
/// probing oracle.
pub fn build_insecure_and2(n: &mut Netlist, io: AndInputs) -> AndOutputs {
    let a = n.and2(io.x0, io.y0);
    let b = n.and2(io.x0, io.y1);
    let z0 = n.xor2(a, b);
    let c = n.and2(io.x1, io.y0);
    let d = n.and2(io.x1, io.y1);
    let z1 = n.xor2(c, d);
    AndOutputs { z0, z1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_netlist::Evaluator;

    /// Exhaustive functional correctness over all 16 share assignments.
    #[test]
    fn correct_for_all_sharings() {
        for bits in 0..16u8 {
            let x = MaskedBit { s0: bits & 1 != 0, s1: bits & 2 != 0 };
            let y = MaskedBit { s0: bits & 4 != 0, s1: bits & 8 != 0 };
            assert_eq!(sec_and2(x, y).unmask(), x.unmask() & y.unmask(), "sharing {bits:04b}");
        }
    }

    /// The netlist computes the same function as the software model.
    #[test]
    fn netlist_matches_model() {
        let mut n = Netlist::new("secand2");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let out = build_sec_and2(&mut n, io);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        n.validate().unwrap();
        assert_eq!(n.num_gates(), 7, "Fig. 1 has seven gates");

        let mut ev = Evaluator::new(&n).unwrap();
        for bits in 0..16u8 {
            let x = MaskedBit { s0: bits & 1 != 0, s1: bits & 2 != 0 };
            let y = MaskedBit { s0: bits & 4 != 0, s1: bits & 8 != 0 };
            let outs = ev.run_combinational(
                &n,
                &[(io.x0, x.s0), (io.x1, x.s1), (io.y0, y.s0), (io.y1, y.s1)],
            );
            let want = sec_and2(x, y);
            assert_eq!((outs[0], outs[1]), (want.s0, want.s1), "sharing {bits:04b}");
        }
    }

    /// Output shares are *not* independent of inputs (the paper's caveat).
    /// Exact witness: for x = 0, y = 1 (so x₁ = x₀, y₁ = ¬y₀), both output
    /// shares collapse to the deterministic function x₀ ⊕ y₀ of the input
    /// sharing — this is why composition needs refresh (§III-C).
    #[test]
    fn output_sharing_depends_on_inputs() {
        for x0 in [false, true] {
            for y0 in [false, true] {
                let x = MaskedBit { s0: x0, s1: x0 }; // x = 0
                let y = MaskedBit { s0: y0, s1: !y0 }; // y = 1
                let z = sec_and2(x, y);
                assert_eq!(z.s0, x0 ^ y0, "z0 is a deterministic share function");
                assert_eq!(z.s1, x0 ^ y0, "z1 likewise");
                assert!(!z.unmask(), "0 · 1 = 0");
            }
        }
    }
}
