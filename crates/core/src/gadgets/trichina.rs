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
use gm_netlist::{NetId, Netlist};

/// Netlist generator. `r` is the fresh-randomness input net. The XOR
/// chain is emitted in the secure order, but **glitches make the
/// hardware order undefined** — this netlist is a fixture of the probing
/// oracle's tests.
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

    fn build() -> (Netlist, AndInputs, NetId, AndOutputs) {
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
        (n, io, r, out)
    }

    #[test]
    fn netlist_matches_model() {
        // Both output shares equal Eq. 1 evaluated bit by bit.
        let (n, io, r, _) = build();
        assert_eq!(n.num_gates(), 8, "4 AND + 4 XOR");
        let mut ev = Evaluator::new(&n).unwrap();
        for bits in 0..32u8 {
            let [x0, x1, y0, y1, rv] = [1, 2, 4, 8, 16].map(|m| bits & m != 0);
            let outs = ev.run_combinational(
                &n,
                &[(io.x0, x0), (io.x1, x1), (io.y0, y0), (io.y1, y1), (r, rv)],
            );
            let z0 = rv ^ (x0 & y0) ^ (x0 & y1) ^ (x1 & y1) ^ (x1 & y0);
            assert_eq!(outs, vec![z0, rv], "bits {bits:05b}");
        }
    }

    #[test]
    fn correct_for_all_sharings() {
        let (n, io, r, _) = build();
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

    #[test]
    fn output_mask_is_the_fresh_bit() {
        // z1 is the fresh bit itself, so with r = 0 z0 carries the plain
        // product of the recombined shares.
        let (n, io, r, out) = build();
        assert_eq!(out.z1, r);
        let mut ev = Evaluator::new(&n).unwrap();
        // x = (1, 1) = 0, y = (1, 0) = 1.
        let outs = ev.run_combinational(
            &n,
            &[(io.x0, true), (io.x1, true), (io.y0, true), (io.y1, false), (r, false)],
        );
        assert_eq!(outs, vec![false, false]);
    }
}
