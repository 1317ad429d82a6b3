//! Word-domain (64-lane bitsliced) FF/cycle scheduling.
//!
//! [`BitClockedSim`] is the cycle-model counterpart of
//! [`crate::ClockedSim`]: zero transport delay, synchronous register
//! semantics, but 64 independent evaluations advancing per clock edge in
//! the lanes of a [`BitEvaluator`]. Per cycle it reports the classic
//! toggle-count power terms — register Hamming distance and
//! combinational Hamming distance — for **all 64 lanes at once**: the
//! toggle words of an edge go into a [`SegLaneCounter`] as one segment,
//! whose carry-save bit-plane counts replace per-bit accumulation.
//!
//! Glitch-aware campaigns cannot use this harness — a glitch is a
//! *timing* artefact and zero-delay cycle semantics erase it. Their
//! lane-parallel counterpart is the compiled schedule of
//! [`crate::sched`], which keeps per-event timing by levelizing the
//! fixed stimulus cascade and carrying per-lane event times alongside
//! the lane words. This harness serves the non-glitch cycle-model
//! campaigns (and cross-checks of the value-level DES cycle engines).

use gm_netlist::bitslice::{BitEvaluator, SegLaneCounter};
use gm_netlist::{NetId, Netlist};
use gm_obs::{Counter, Report};

/// Per-cycle, per-lane toggle activity of one clock edge.
#[derive(Debug, Clone, Copy)]
pub struct LaneActivity {
    /// Register share toggles per lane (Hamming distance of all FF words).
    pub reg: [u32; 64],
    /// Combinational net toggles per lane.
    pub comb: [u32; 64],
}

/// 64-lane zero-delay clocked harness over a [`BitEvaluator`].
#[derive(Debug)]
pub struct BitClockedSim<'a> {
    netlist: &'a Netlist,
    ev: BitEvaluator,
    cycle: u64,
    /// Pre-edge register and combinational-net words of the current
    /// step, turned into its toggle words after the edge.
    prev_ff: Vec<u64>,
    prev_values: Vec<u64>,
    comb_nets: Vec<NetId>,
    reg_counter: SegLaneCounter,
    comb_counter: SegLaneCounter,
    steps: Counter,
}

impl<'a> BitClockedSim<'a> {
    /// Build a harness in the all-zero power-on state.
    ///
    /// Fails when the netlist has a combinational loop.
    pub fn new(netlist: &'a Netlist) -> Result<Self, gm_netlist::NetlistError> {
        let mut ev = BitEvaluator::new(netlist)?;
        ev.settle(netlist);
        // Nets whose toggles count as combinational activity: everything
        // not driven by a register (register toggles are counted from the
        // FF words directly, so FF output nets would double-count).
        let comb_nets: Vec<NetId> = (0..netlist.num_nets())
            .map(|i| NetId(i as u32))
            .filter(|&net| match netlist.driver(net) {
                gm_netlist::netlist::Driver::Gate(g) => !netlist.gate(g).kind.is_sequential(),
                _ => true,
            })
            .collect();
        let num_ffs = ev.ff_gates().len();
        Ok(BitClockedSim {
            prev_ff: vec![0; num_ffs],
            prev_values: vec![0; comb_nets.len()],
            comb_nets,
            netlist,
            ev,
            cycle: 0,
            reg_counter: SegLaneCounter::new(),
            comb_counter: SegLaneCounter::new(),
            steps: Counter::new(),
        })
    }

    /// Export harness counters under `<prefix>.*`: lifetime clock edges
    /// (all 64 lanes each) and the toggle words/transposes of the two
    /// lane counters (zeros under `obs-off`).
    pub fn obs_report(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.steps"), self.steps.get());
        r.set_nonzero(
            &format!("{prefix}.toggle_words"),
            self.reg_counter.obs_words() + self.comb_counter.obs_words(),
        );
        r.set_nonzero(
            &format!("{prefix}.transposes"),
            self.reg_counter.obs_transposes() + self.comb_counter.obs_transposes(),
        );
    }

    /// Number of clock edges applied so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The wrapped lane evaluator.
    pub fn evaluator(&self) -> &BitEvaluator {
        &self.ev
    }

    /// Current lane word of a net.
    pub fn value(&self, net: NetId) -> u64 {
        self.ev.value(net)
    }

    /// Reset to the power-on state (all registers and nets zero, cycle 0).
    pub fn reset(&mut self) {
        self.ev.reset();
        self.ev.settle(self.netlist);
        self.prev_ff.iter_mut().for_each(|w| *w = 0);
        self.prev_values.iter_mut().for_each(|w| *w = 0);
        self.cycle = 0;
    }

    /// Apply per-lane input words, clock once, and return the per-lane
    /// toggle activity of the edge.
    pub fn step(&mut self, inputs: &[(NetId, u64)]) -> LaneActivity {
        for &(net, word) in inputs {
            self.ev.set_input(net, word);
        }
        // Snapshot pre-edge values for the combinational Hamming distance.
        self.ev.settle(self.netlist);
        for (&net, prev) in self.comb_nets.iter().zip(self.prev_values.iter_mut()) {
            *prev = self.ev.value(net);
        }
        for (i, &gid) in self.ev.ff_gates().iter().enumerate() {
            self.prev_ff[i] = self.ev.ff_state(gid);
        }

        self.ev.clock(self.netlist);
        self.cycle += 1;
        self.steps.inc();

        // The pre-edge snapshots become the edge's toggle words in place.
        let ev = &self.ev;
        for (p, &g) in self.prev_ff.iter_mut().zip(ev.ff_gates()) {
            *p ^= ev.ff_state(g);
        }
        for (p, &n) in self.prev_values.iter_mut().zip(&self.comb_nets) {
            *p ^= ev.value(n);
        }
        self.reg_counter.extend_from_slice(&self.prev_ff);
        self.comb_counter.extend_from_slice(&self.prev_values);
        LaneActivity {
            reg: edge_counts(&mut self.reg_counter),
            comb: edge_counts(&mut self.comb_counter),
        }
    }
}

/// Close the edge's one segment and take its per-lane counts, leaving
/// the counter empty for the next edge.
fn edge_counts(c: &mut SegLaneCounter) -> [u32; 64] {
    c.mark();
    let mut counts = [0; 64];
    counts.copy_from_slice(c.finish());
    c.reset();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_netlist::Evaluator;

    /// Per-lane activity equals a per-lane scalar recount over the same
    /// clocked schedule.
    #[test]
    fn lane_activity_matches_scalar_recount() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        let q = n.dff(x);
        let m = n.mux2(q, a, b);
        let q2 = n.dff_en(m, q);
        n.output("q2", q2);

        let mut bs = BitClockedSim::new(&n).unwrap();
        let mut scalars: Vec<Evaluator> = (0..64).map(|_| Evaluator::new(&n).unwrap()).collect();
        let all_nets: Vec<NetId> = (0..n.num_nets()).map(|i| NetId(i as u32)).collect();
        let comb_nets: Vec<NetId> = all_nets
            .iter()
            .copied()
            .filter(|&net| match n.driver(net) {
                gm_netlist::netlist::Driver::Gate(g) => !n.gate(g).kind.is_sequential(),
                _ => true,
            })
            .collect();
        let ffs: Vec<_> = bs.evaluator().ff_gates().to_vec();

        let mut x64 = 0x9e37u64;
        for _ in 0..12 {
            x64 = x64.wrapping_mul(6364136223846793005).wrapping_add(1);
            let wa = x64;
            x64 = x64.wrapping_mul(6364136223846793005).wrapping_add(1);
            let wb = x64;
            let act = bs.step(&[(a, wa), (b, wb)]);

            for (lane, ev) in scalars.iter_mut().enumerate() {
                ev.set_input(a, (wa >> lane) & 1 == 1);
                ev.set_input(b, (wb >> lane) & 1 == 1);
                ev.settle(&n);
                let prev_comb: Vec<bool> = comb_nets.iter().map(|&net| ev.value(net)).collect();
                let prev_ff: Vec<bool> = ffs.iter().map(|&g| ev.ff_state(g)).collect();
                ev.clock(&n);
                let reg: u32 =
                    ffs.iter().zip(prev_ff).map(|(&g, p)| u32::from(p != ev.ff_state(g))).sum();
                let comb: u32 = comb_nets
                    .iter()
                    .zip(prev_comb)
                    .map(|(&net, p)| u32::from(p != ev.value(net)))
                    .sum();
                assert_eq!(act.reg[lane], reg, "reg toggles, lane {lane}");
                assert_eq!(act.comb[lane], comb, "comb toggles, lane {lane}");
            }
        }
    }

    #[test]
    fn reset_restores_power_on() {
        let mut n = Netlist::new("t");
        let d = n.input("d");
        let q = n.dff(d);
        n.output("q", q);
        let mut bs = BitClockedSim::new(&n).unwrap();
        let first = bs.step(&[(d, u64::MAX)]);
        assert_eq!(first.reg, [1u32; 64]);
        bs.reset();
        assert_eq!(bs.cycle(), 0);
        assert_eq!(bs.value(q), 0);
        let again = bs.step(&[(d, u64::MAX)]);
        assert_eq!(again.reg, [1u32; 64]);
    }
}
