//! `secAND2-FF` (paper §II-C, Fig. 2): `secAND2` with an internal
//! enable-controlled flip-flop delaying share `y₁`.
//!
//! §II-B establishes that any arrival sequence ending in `y₀` or `y₁` is
//! glitch-safe; the FF forces `y₁` to arrive one cycle after everything
//! else, so every evaluation takes **two cycles** and is safe — *provided
//! the gadget is reset between consecutive multiplications* (otherwise a
//! late-arriving `x₀/x₁` of the next operation can leak the previous
//! unshared `n = n₀ ⊕ n₁`, as derived in §II-C).

use super::{AndInputs, AndOutputs};
use gm_netlist::{NetId, Netlist};

/// Netlist generator for `secAND2-FF` (Fig. 2).
///
/// `enable` gates the internal `y₁` flip-flop: the FF DES core's S-box
/// pulses it on the cycle where `y₁` may arrive (Fig. 4's FSM control).
/// Returns the output shares; the internal FF is the only sequential
/// element.
pub fn build_sec_and2_ff(n: &mut Netlist, io: AndInputs, enable: NetId) -> AndOutputs {
    let y1_q = n.dff_en(io.y1, enable);
    super::sec_and2::build_sec_and2(n, AndInputs { x0: io.x0, x1: io.x1, y0: io.y0, y1: y1_q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MaskRng;
    use crate::share::MaskedBit;
    use gm_netlist::Evaluator;

    fn build() -> (Netlist, AndInputs, NetId, AndOutputs) {
        let mut n = Netlist::new("secand2ff");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let en = n.input("en");
        let out = build_sec_and2_ff(&mut n, io, en);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        n.validate().unwrap();
        (n, io, en, out)
    }

    /// Drive the two-cycle protocol from reset and read the output shares.
    fn two_cycles(
        ev: &mut Evaluator,
        n: &Netlist,
        (io, en, out): (AndInputs, NetId, AndOutputs),
        x: MaskedBit,
        y: MaskedBit,
    ) -> MaskedBit {
        ev.reset();
        // Cycle 1: present y1 with enable high; FF captures at the edge.
        ev.set_input(io.y1, y.s1);
        ev.set_input(en, true);
        ev.clock(n);
        // Cycle 2: enable low, present the rest, read combinationally.
        ev.set_input(en, false);
        ev.set_input(io.x0, x.s0);
        ev.set_input(io.x1, x.s1);
        ev.set_input(io.y0, y.s0);
        ev.settle(n);
        MaskedBit { s0: ev.value(out.z0), s1: ev.value(out.z1) }
    }

    #[test]
    fn two_cycle_protocol_is_correct() {
        let (n, io, en, out) = build();
        let mut ev = Evaluator::new(&n).unwrap();
        let mut rng = MaskRng::new(22);
        for _ in 0..32 {
            let (xv, yv) = (rng.bit(), rng.bit());
            let x = MaskedBit::mask(xv, &mut rng);
            let y = MaskedBit::mask(yv, &mut rng);
            let z = two_cycles(&mut ev, &n, (io, en, out), x, y);
            assert_eq!(z.unmask(), xv & yv);
        }
    }

    #[test]
    fn netlist_matches_two_cycle_model() {
        // After the two cycles the gadget is plain secAND2 on the
        // registered y1, so both output shares equal the software model's.
        let (n, io, en, out) = build();
        let mut ev = Evaluator::new(&n).unwrap();
        for bits in 0..16u8 {
            let x = MaskedBit { s0: bits & 1 != 0, s1: bits & 2 != 0 };
            let y = MaskedBit { s0: bits & 4 != 0, s1: bits & 8 != 0 };
            let z = two_cycles(&mut ev, &n, (io, en, out), x, y);
            assert_eq!(z, crate::gadgets::sec_and2(x, y), "bits {bits:04b}");
        }
    }

    #[test]
    fn disabled_ff_freezes_y1() {
        let mut n = Netlist::new("t");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let en = n.input("en");
        let out = build_sec_and2_ff(&mut n, io, en);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        let mut ev = Evaluator::new(&n).unwrap();
        ev.set_input(io.y1, true);
        ev.set_input(en, false);
        ev.clock(&n);
        // y1 never captured: gadget still sees y1 = 0.
        ev.set_input(io.x0, true);
        ev.set_input(io.y0, true);
        ev.settle(&n);
        // z0 = (1&1) ^ (1 | !0) = 1 ^ 1 = 0
        assert!(!ev.value(out.z0));
    }
}
