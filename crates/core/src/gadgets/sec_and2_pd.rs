//! `secAND2-PD` (paper §II-D, Fig. 3): `secAND2` with **path-delayed**
//! inputs instead of a flip-flop.
//!
//! Each input travels through zero or more *DelayUnits* (chains of
//! LUT-buffers, §V) so that within a single clock cycle the arrival order
//! is forced to
//!
//! ```text
//! y₀  →  x₀, x₁  →  y₁
//! ```
//!
//! `y₀` first protects the *previous* computation's unshared `n`, `y₁`
//! last protects the *current* one — no reset needed, single-cycle
//! latency. The security knob is the DelayUnit size: too few LUTs and
//! per-event jitter reorders arrivals (the Fig. 15 sweep).

use super::{AndInputs, AndOutputs};
use crate::share::MaskedBit;
use gm_netlist::Netlist;

/// Physical configuration of a `secAND2-PD` instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdConfig {
    /// Number of delay elements (LUT-buffers) per DelayUnit. The paper
    /// finds 10 optimal on Spartan-6; 1 leaks visibly (Fig. 15a).
    pub unit_luts: usize,
}

impl PdConfig {
    /// The paper's optimal configuration (10 LUTs per DelayUnit).
    pub const OPTIMAL: PdConfig = PdConfig { unit_luts: 10 };
}

impl Default for PdConfig {
    fn default() -> Self {
        PdConfig::OPTIMAL
    }
}

/// Functional (single-cycle) software model — identical to `secAND2`;
/// the path delays only affect *timing*, never the computed value.
pub fn sec_and2_pd(x: MaskedBit, y: MaskedBit) -> MaskedBit {
    crate::gadgets::sec_and2(x, y)
}

/// Netlist generator for `secAND2-PD` (Fig. 3).
///
/// Delay assignment per the figure: `y₀` direct (0 DelayUnits), `x₀` and
/// `x₁` one DelayUnit, `y₁` two DelayUnits. Returns the output shares;
/// the delayed input nets stay internal.
pub fn build_sec_and2_pd(n: &mut Netlist, io: AndInputs, cfg: PdConfig) -> AndOutputs {
    let x0d = n.delay_chain(io.x0, cfg.unit_luts);
    let x1d = n.delay_chain(io.x1, cfg.unit_luts);
    let y1d = n.delay_chain(io.y1, 2 * cfg.unit_luts);
    super::sec_and2::build_sec_and2(n, AndInputs { x0: x0d, x1: x1d, y0: io.y0, y1: y1d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MaskRng;
    use gm_netlist::{Evaluator, GateKind};
    use gm_sim::power::NullSink;
    use gm_sim::{DelayModel, Simulator};

    #[test]
    fn functional_equivalence_with_sec_and2() {
        for bits in 0..16u8 {
            let x = MaskedBit { s0: bits & 1 != 0, s1: bits & 2 != 0 };
            let y = MaskedBit { s0: bits & 4 != 0, s1: bits & 8 != 0 };
            assert_eq!(sec_and2_pd(x, y).unmask(), x.unmask() & y.unmask());
        }
    }

    fn build(cfg: PdConfig) -> (Netlist, AndInputs, AndOutputs) {
        let mut n = Netlist::new("secand2pd");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let out = build_sec_and2_pd(&mut n, io, cfg);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        n.validate().unwrap();
        (n, io, out)
    }

    #[test]
    fn netlist_is_functionally_correct() {
        let (n, io, out) = build(PdConfig::OPTIMAL);
        let mut ev = Evaluator::new(&n).unwrap();
        let mut rng = MaskRng::new(31);
        for _ in 0..32 {
            let (xv, yv) = (rng.bit(), rng.bit());
            let x = MaskedBit::mask(xv, &mut rng);
            let y = MaskedBit::mask(yv, &mut rng);
            let outs = ev.run_combinational(
                &n,
                &[(io.x0, x.s0), (io.x1, x.s1), (io.y0, y.s0), (io.y1, y.s1)],
            );
            assert_eq!(outs[0] ^ outs[1], xv & yv);
        }
        let _ = out;
    }

    #[test]
    fn delay_unit_sizes_reflected_in_netlist() {
        let (n, _, _) = build(PdConfig { unit_luts: 3 });
        let delay_bufs = n.gates().iter().filter(|g| g.kind == GateKind::DelayBuf).count();
        // x0: 3, x1: 3, y1: 6 = 12 delay buffers.
        assert_eq!(delay_bufs, 12);
    }

    /// Under nominal delays the arrival order at the secAND2 core is
    /// y0 (immediately) → x0/x1 (one unit) → y1 (two units): check by
    /// simulating simultaneous external edges and watching settle times.
    #[test]
    fn arrival_order_enforced() {
        let (n, io, out) = build(PdConfig::OPTIMAL);
        let delays = DelayModel::nominal(&n);
        let mut sim = Simulator::new(&n, &delays, 0);
        sim.init_all_zero();
        // Shares of x = 1 and y = 1 rise simultaneously at the inputs:
        // x = (1, 0), y = (1, 0) — only the s0 nets carry edges.
        sim.schedule(io.x0, 1_000, true);
        sim.schedule(io.y0, 1_000, true);
        let unit_ps = 10 * GateKind::DelayBuf.nominal_delay_ps();
        // Before one DelayUnit has elapsed, the delayed copy of x0 has not
        // reached the core yet, so the product is still computed with the
        // old x0 = 0.
        sim.run_until(1_000 + unit_ps / 2, &mut NullSink);
        assert!(
            !(sim.value(out.z0) ^ sim.value(out.z1)),
            "product must not have updated before the DelayUnit elapsed"
        );
        // After all DelayUnits settle the product is correct.
        sim.run_until(1_000 + 3 * unit_ps, &mut NullSink);
        assert_eq!(sim.value(out.z0) ^ sim.value(out.z1), true & true);
    }
}
