//! Zero-delay functional evaluation of a netlist, including clocked
//! register semantics. Used for correctness testing; the glitch-aware
//! timing behaviour lives in `gm-sim`.

use crate::gate::GateId;
use crate::netlist::{Driver, Netlist};
use crate::topo::combinational_order;

/// A zero-delay evaluator holding register state for a [`Netlist`].
///
/// # Examples
///
/// ```
/// use gm_netlist::{Netlist, Evaluator};
///
/// let mut n = Netlist::new("toggler");
/// let a = n.input("a");
/// let q = n.dff(a);
/// let y = n.inv(q);
/// n.output("y", y);
///
/// let mut ev = Evaluator::new(&n).unwrap();
/// ev.set_input(a, true);
/// ev.settle(&n);
/// assert!(ev.value(y)); // q still 0
/// ev.clock(&n);
/// assert!(!ev.value(y)); // q sampled 1
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    values: Vec<bool>,
    ff_state: Vec<bool>,
    /// Combinational gates in topological order.
    order: Vec<GateId>,
    /// Sequential gates, in gate order.
    ff_gates: Vec<GateId>,
    // Scratch buffers reused across `settle`/`clock` calls so that the
    // campaign hot path (millions of clock edges) stays allocation-free.
    pin_scratch: Vec<bool>,
    ff_next: Vec<bool>,
}

impl Evaluator {
    /// Build an evaluator; fails when the netlist has a combinational loop.
    pub fn new(n: &Netlist) -> Result<Self, crate::NetlistError> {
        let order = combinational_order(n)?;
        let ff_gates: Vec<GateId> = n
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(i, _)| GateId(i as u32))
            .collect();
        let num_ffs = ff_gates.len();
        Ok(Evaluator {
            values: vec![false; n.num_nets()],
            ff_state: vec![false; n.num_gates()],
            order,
            ff_gates,
            pin_scratch: Vec::with_capacity(4),
            ff_next: Vec::with_capacity(num_ffs),
        })
    }

    /// Current value of a net (valid after [`Evaluator::settle`]).
    pub fn value(&self, net: crate::NetId) -> bool {
        self.values[net.index()]
    }

    /// Drive a primary input.
    pub fn set_input(&mut self, net: crate::NetId, value: bool) {
        self.values[net.index()] = value;
    }

    /// Current state of a flip-flop.
    pub fn ff_state(&self, gate: GateId) -> bool {
        self.ff_state[gate.index()]
    }

    /// Reset all flip-flops to 0.
    pub fn reset(&mut self) {
        self.ff_state.iter_mut().for_each(|s| *s = false);
    }

    /// Propagate all combinational logic to a fixed point (zero delay).
    pub fn settle(&mut self, n: &Netlist) {
        // Constants and FF outputs first.
        for (i, info) in n.nets.iter().enumerate() {
            match info.driver {
                Driver::Constant(v) => self.values[i] = v,
                Driver::Gate(g) if n.gate(g).kind.is_sequential() => {
                    self.values[i] = self.ff_state[g.index()];
                }
                _ => {}
            }
        }
        let (values, pins) = (&mut self.values, &mut self.pin_scratch);
        for &gid in &self.order {
            let g = n.gate(gid);
            pins.clear();
            pins.extend(g.inputs.iter().map(|i| values[i.index()]));
            values[g.output.index()] = g.kind.eval(pins);
        }
    }

    /// Apply one rising clock edge: every flip-flop samples its pins
    /// (as settled before the edge), then logic re-settles.
    pub fn clock(&mut self, n: &Netlist) {
        self.settle(n);
        let mut next = std::mem::take(&mut self.ff_next);
        next.clear();
        {
            let (values, ff_state, pins) = (&self.values, &self.ff_state, &mut self.pin_scratch);
            for &gid in &self.ff_gates {
                let g = n.gate(gid);
                pins.clear();
                pins.extend(g.inputs.iter().map(|i| values[i.index()]));
                next.push(g.kind.dff_next(ff_state[gid.index()], pins));
            }
        }
        for (&gid, &v) in self.ff_gates.iter().zip(next.iter()) {
            self.ff_state[gid.index()] = v;
        }
        self.ff_next = next;
        self.settle(n);
    }

    /// Convenience: set named inputs, settle, and read named outputs.
    pub fn run_combinational(&mut self, n: &Netlist, inputs: &[(crate::NetId, bool)]) -> Vec<bool> {
        for &(net, v) in inputs {
            self.set_input(net, v);
        }
        self.settle(n);
        n.outputs().iter().map(|(_, o)| self.value(*o)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn full_adder_truth_table() {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let ab = n.xor2(a, b);
        let s = n.xor2(ab, c);
        let g1 = n.and2(a, b);
        let g2 = n.and2(ab, c);
        let cout = n.or2(g1, g2);
        n.output("s", s);
        n.output("cout", cout);

        let mut ev = Evaluator::new(&n).unwrap();
        for bits in 0..8u8 {
            let (av, bv, cv) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let outs = ev.run_combinational(&n, &[(a, av), (b, bv), (c, cv)]);
            let total = u8::from(av) + u8::from(bv) + u8::from(cv);
            assert_eq!(outs[0], total & 1 != 0, "sum for {bits:03b}");
            assert_eq!(outs[1], total >= 2, "carry for {bits:03b}");
        }
    }

    #[test]
    fn enabled_ff_holds_when_disabled() {
        let mut n = Netlist::new("t");
        let d = n.input("d");
        let en = n.input("en");
        let q = n.dff_en(d, en);
        n.output("q", q);
        let mut ev = Evaluator::new(&n).unwrap();
        ev.set_input(d, true);
        ev.set_input(en, false);
        ev.clock(&n);
        assert!(!ev.value(q), "disabled FF must hold 0");
        ev.set_input(en, true);
        ev.clock(&n);
        assert!(ev.value(q), "enabled FF samples 1");
        ev.set_input(d, false);
        ev.set_input(en, false);
        ev.clock(&n);
        assert!(ev.value(q), "disabled FF holds 1");
    }

    #[test]
    fn reset_dominates_enable() {
        let mut n = Netlist::new("t");
        let d = n.input("d");
        let en = n.input("en");
        let rst = n.input("rst");
        let q = n.dff_en_rst(d, en, rst);
        n.output("q", q);
        let mut ev = Evaluator::new(&n).unwrap();
        ev.set_input(d, true);
        ev.set_input(en, true);
        ev.set_input(rst, false);
        ev.clock(&n);
        assert!(ev.value(q));
        ev.set_input(rst, true);
        ev.clock(&n);
        assert!(!ev.value(q));
    }

    #[test]
    fn constants_settle() {
        let mut n = Netlist::new("t");
        let one = n.const1();
        let zero = n.const0();
        let y = n.xor2(one, zero);
        n.output("y", y);
        let mut ev = Evaluator::new(&n).unwrap();
        ev.settle(&n);
        assert!(ev.value(y));
    }
}
