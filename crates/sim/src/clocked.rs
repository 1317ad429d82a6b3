//! Multi-cycle clocked simulation harness.
//!
//! Wraps the event engine with synchronous register semantics: at every
//! rising edge all flip-flops sample their (settled) inputs and their
//! outputs change after a clk-to-Q delay, launching the next wave of
//! combinational — possibly glitchy — activity. Per-cycle stimuli can be
//! injected with arbitrary intra-cycle arrival offsets, which is how the
//! paper's controlled input-sequence experiments (Table I) are reproduced.
//!
//! [`ClockedCore`] is the owned, reusable state (one per campaign
//! worker); like [`SimCore`], it takes the [`SimGraph`] and the
//! [`DelayModel`] by reference on every propagating call.

use crate::delay::DelayModel;
use crate::engine::{PowerSink, SimCore, SimGraph, JITTER_SALT_XOR, MAX_PINS};
use gm_netlist::NetId;

/// A stimulus applied during one clock cycle.
#[derive(Debug, Clone, Copy)]
pub struct Stimulus {
    /// Primary-input net to drive.
    pub net: NetId,
    /// Arrival offset after the clock edge, in ps.
    pub offset_ps: u64,
    /// New value.
    pub value: bool,
}

/// Owned clocked-simulation state over some [`SimGraph`]: an event
/// [`SimCore`] plus register values, the cycle counter and the clk-to-Q
/// jitter salt. Like `SimCore`, every method takes the graph/delays by
/// reference so the core can persist inside campaign workers;
/// [`ClockedCore::reset`] restores the power-on state in O(touched).
///
/// # Examples
///
/// A one-bit register pipeline under real event timing:
///
/// ```
/// use gm_netlist::Netlist;
/// use gm_sim::clocked::Stimulus;
/// use gm_sim::power::NullSink;
/// use gm_sim::{ClockedCore, DelayModel, SimGraph};
///
/// let mut n = Netlist::new("pipe");
/// let d = n.input("d");
/// let q0 = n.dff(d);
/// let q1 = n.dff(q0);
/// n.output("q1", q1);
///
/// let graph = SimGraph::new(&n);
/// let delays = DelayModel::nominal(&n);
/// let mut core = ClockedCore::new(&graph, 10_000, 0);
/// let rise = [Stimulus { net: d, offset_ps: 100, value: true }];
/// core.step(&graph, &delays, &rise, &mut NullSink);
/// core.step(&graph, &delays, &[], &mut NullSink);
/// core.step(&graph, &delays, &[], &mut NullSink);
/// assert!(core.value(q1), "the bit took two edges to reach q1");
/// ```
#[derive(Debug)]
pub struct ClockedCore {
    sim: SimCore,
    ff_state: Vec<bool>,
    period_ps: u64,
    cycle: u64,
    /// Clk-to-Q jitter salt, derived from the seed like the event
    /// core's: an FF's launch delay is drawn by
    /// [`DelayModel::sample_event_ps`] keyed by `(salt, ff, edge)`. The
    /// event core never draws for FF gates, so the keys cannot collide
    /// with its combinational draws.
    salt: u64,
    /// Clock edges since the last reset: the clk-to-Q jitter ordinal.
    /// Unlike `cycle` it survives [`ClockedCore::rebase_time`], so
    /// back-to-back operations draw fresh jitter.
    edge: u32,
    next_buf: Vec<bool>,
}

impl ClockedCore {
    /// Build a clocked core with the given clock period, in the settled
    /// all-zero power-on state.
    pub fn new(graph: &SimGraph, period_ps: u64, seed: u64) -> Self {
        assert!(period_ps > 0, "period must be positive");
        let n_ff = graph.ff_gates().len();
        ClockedCore {
            sim: SimCore::new(graph, seed),
            ff_state: vec![false; n_ff],
            period_ps,
            cycle: 0,
            salt: seed ^ JITTER_SALT_XOR,
            edge: 0,
            next_buf: Vec::with_capacity(n_ff),
        }
    }

    /// Clock period in ps.
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// Number of full cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current simulation time in ps.
    pub fn time_ps(&self) -> u64 {
        self.sim.time()
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.sim.value(net)
    }

    /// Current state of the `i`-th flip-flop (index into
    /// [`SimGraph::ff_gates`]).
    pub fn ff_state(&self, i: usize) -> bool {
        self.ff_state[i]
    }

    /// The wrapped event core.
    pub fn sim(&self) -> &SimCore {
        &self.sim
    }

    /// The wrapped event core, mutably (initial values…).
    pub fn sim_mut(&mut self) -> &mut SimCore {
        &mut self.sim
    }

    /// Full between-traces reset: power-on state, cycle 0 and the
    /// jitter salts of `seed`. Bit-for-bit equivalent to replacing the
    /// core with `ClockedCore::new(graph, period_ps, seed)`.
    pub fn reset(&mut self, graph: &SimGraph, seed: u64) {
        self.ff_state.iter_mut().for_each(|s| *s = false);
        self.sim.reset(graph, seed);
        self.cycle = 0;
        self.salt = seed ^ JITTER_SALT_XOR;
        self.edge = 0;
    }

    /// Rewind the time base to cycle 0 while keeping every register and
    /// net value — for back-to-back acquisitions whose power traces must
    /// share a time axis (consecutive operations on the same device).
    /// Any still-pending events are dropped, so call it only when the
    /// circuit is quiescent.
    pub fn rebase_time(&mut self) {
        self.sim.rewind_time();
        self.cycle = 0;
    }

    /// Advance one clock cycle.
    ///
    /// Order of operations at the edge:
    /// 1. every FF samples its settled input pins (enable/reset honoured),
    /// 2. changed FF outputs are scheduled after a (jittered) clk-to-Q delay,
    /// 3. `stimuli` are scheduled at their offsets,
    /// 4. events run until the next edge, feeding `sink`.
    pub fn step(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        stimuli: &[Stimulus],
        sink: &mut impl PowerSink,
    ) {
        let t_edge = self.cycle * self.period_ps;

        // 1. Sample.
        self.next_buf.clear();
        let mut pins = [false; MAX_PINS];
        for (i, &gid) in graph.ff_gates().iter().enumerate() {
            let pin_nets = graph.inputs(gid);
            for (k, &pn) in pin_nets.iter().enumerate() {
                pins[k] = self.sim.value(NetId(pn));
            }
            self.next_buf.push(graph.kind(gid).dff_next(self.ff_state[i], &pins[..pin_nets.len()]));
        }

        // 2. Launch changed outputs.
        for (i, &gid) in graph.ff_gates().iter().enumerate() {
            let newv = self.next_buf[i];
            if newv != self.ff_state[i] {
                self.ff_state[i] = newv;
                let d = delays.sample_event_ps(gid, self.salt, self.edge);
                self.sim.schedule(graph.output(gid), t_edge + d, newv);
            }
        }

        // 3. External stimuli.
        for s in stimuli {
            debug_assert!(s.offset_ps < self.period_ps, "stimulus beyond the cycle");
            self.sim.schedule(s.net, t_edge + s.offset_ps, s.value);
        }

        // 4. Propagate.
        self.sim.run_until(graph, delays, t_edge + self.period_ps, sink);
        self.cycle += 1;
        self.edge += 1;
    }

    /// Run `n` stimulus-free cycles.
    pub fn idle(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        n: u64,
        sink: &mut impl PowerSink,
    ) {
        for _ in 0..n {
            self.step(graph, delays, &[], sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{CountingSink, NullSink};
    use gm_netlist::Netlist;

    /// A 3-bit ripple of DFFs shifting a pulse through.
    #[test]
    fn shift_register() {
        let mut n = Netlist::new("sr");
        let din = n.input("din");
        let q0 = n.dff(din);
        let q1 = n.dff(q0);
        let q2 = n.dff(q1);
        n.output("q2", q2);

        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut cs = ClockedCore::new(&g, 100_000, 0);
        // Cycle 0: din rises early in the cycle.
        let rise = [Stimulus { net: din, offset_ps: 1_000, value: true }];
        let fall = [Stimulus { net: din, offset_ps: 1_000, value: false }];
        cs.step(&g, &delays, &rise, &mut NullSink);
        cs.step(&g, &delays, &fall, &mut NullSink);
        assert!(cs.value(q0), "pulse in q0 after capture");
        cs.step(&g, &delays, &[], &mut NullSink);
        assert!(cs.value(q1));
        assert!(!cs.value(q0));
        cs.step(&g, &delays, &[], &mut NullSink);
        assert!(cs.value(q2));
    }

    /// FF with enable held low ignores its input.
    #[test]
    fn enable_gates_sampling() {
        let mut n = Netlist::new("t");
        let d = n.input("d");
        let en = n.input("en");
        let q = n.dff_en(d, en);
        n.output("q", q);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut cs = ClockedCore::new(&g, 100_000, 0);
        cs.sim_mut().set_initial(d, true);
        cs.sim_mut().settle_silent(&g);
        cs.step(&g, &delays, &[], &mut NullSink); // en = 0
        assert!(!cs.value(q));
        let en_rise = [Stimulus { net: en, offset_ps: 500, value: true }];
        cs.step(&g, &delays, &en_rise, &mut NullSink);
        assert!(!cs.value(q), "enable arrived after the edge");
        cs.step(&g, &delays, &[], &mut NullSink);
        assert!(cs.value(q), "sampled at the following edge");
    }

    /// Power activity is observed exactly when registers launch new data.
    #[test]
    fn activity_follows_launches() {
        let mut n = Netlist::new("t");
        let din = n.input("din");
        let q = n.dff(din);
        let y = n.inv(q);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut cs = ClockedCore::new(&g, 100_000, 0);
        let mut c = CountingSink::default();
        cs.step(&g, &delays, &[Stimulus { net: din, offset_ps: 100, value: true }], &mut c);
        let after_first = c.count; // din toggled only
        assert_eq!(after_first, 1);
        cs.step(&g, &delays, &[], &mut c);
        // q rises, y falls: two more transitions.
        assert_eq!(c.count, 3);
        cs.step(&g, &delays, &[], &mut c);
        assert_eq!(c.count, 3, "steady state is quiet");
    }

    /// ClockedCore::reset replays the exact transition stream of a fresh
    /// construction, including the clk-to-Q and combinational jitter.
    #[test]
    fn clocked_reset_equals_fresh() {
        let mut n = Netlist::new("t");
        let din = n.input("din");
        let q = n.dff(din);
        let y = n.inv(q);
        let q2 = n.dff(y);
        n.output("q2", q2);
        let delays = DelayModel::with_variation(&n, 0.3, 25.0, 4);
        let graph = SimGraph::new(&n);

        struct Rec(Vec<(u64, u32, bool)>);
        impl PowerSink for Rec {
            fn transition(&mut self, t: u64, net: NetId, v: bool, _w: f64) {
                self.0.push((t, net.0, v));
            }
        }
        let drive = |core: &mut ClockedCore| {
            let mut rec = Rec(Vec::new());
            core.step(
                &graph,
                &delays,
                &[Stimulus { net: din, offset_ps: 70, value: true }],
                &mut rec,
            );
            core.step(&graph, &delays, &[], &mut rec);
            core.step(&graph, &delays, &[], &mut rec);
            rec.0
        };

        let mut fresh = ClockedCore::new(&graph, 60_000, 77);
        let want = drive(&mut fresh);

        let mut reused = ClockedCore::new(&graph, 60_000, 3);
        let _ = drive(&mut reused); // dirty it with another seed
        reused.reset(&graph, 77);
        let got = drive(&mut reused);
        assert_eq!(got, want);
    }
}
