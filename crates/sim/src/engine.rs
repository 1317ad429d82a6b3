//! The event engine: transport delay with inertial pulse rejection.
//!
//! Semantics, matching CMOS physics:
//!
//! * **transport**: every scheduled output change wider than the gate's
//!   switching time is delivered — a gate whose inputs settle at clearly
//!   different moments emits its full glitch train (this is the hazard
//!   the paper builds on);
//! * **inertial rejection**: a pulse narrower than the gate's switching
//!   time ([`PULSE_REJECT_PS`]) is annihilated before it can
//!   propagate — near-simultaneous input edges do *not* produce output
//!   energy. Without this filter a cancelled glitch would be counted as a
//!   full double-toggle and the data-dependence of glitch energy (the
//!   whole point of Table I) would wash out.
//!
//! # Layout
//!
//! The engine is split into immutable topology and mutable state so one
//! netlist can back millions of traces without rebuilding anything:
//!
//! * [`SimGraph`] — everything derivable from the [`Netlist`] alone:
//!   CSR fanout (net → consumer gates) and pin (gate → input nets)
//!   tables, per-net driver/weight tables, the topological order, and
//!   the settled all-zero baseline state. Built once, shared read-only
//!   across threads.
//! * [`SimCore`] — the per-"device" mutable state: net values, per-gate
//!   schedule bookkeeping, the event queue (a [`TimingWheel`]), the
//!   jitter RNG, and dirty lists that make [`SimCore::reset`] O(touched)
//!   instead of O(netlist).
//!
//! Callers build the graph once and pass `(&graph, &delays)` into every
//! propagating [`SimCore`] call; the clocked harness
//! ([`ClockedCore`](crate::ClockedCore)) and the sweep's divergent-lane
//! repair ([`LaneSweep`](crate::LaneSweep)) drive it the same way.

use crate::delay::{DelayModel, PULSE_REJECT_PS};
use crate::power::NullSink;
use crate::wheel::TimingWheel;
use gm_netlist::netlist::Driver;
use gm_netlist::{Csr, GateId, GateKind, NetId, Netlist};
use gm_obs::{Counter, Report};

/// Upper bound on combinational/sequential fan-in (Mux2 and configured
/// DFFs top out at 3 pins); lets pin values live on the stack.
pub(crate) const MAX_PINS: usize = 4;

/// Folded into the trace seed to derive the jitter salt. Shared with the
/// compiled-schedule backend ([`crate::sched`]) so both engines draw the
/// identical per-event delay for the same `(seed, gate, ordinal)`.
pub(crate) const JITTER_SALT_XOR: u64 = 0xd1b5_4a32_d192_ed03;

/// Receiver of net-transition (switching-activity) notifications.
///
/// `weight` is the capacitance proxy of the toggled net (the area of its
/// driver cell); implementations bin it into power samples, count it, or
/// feed crosstalk models.
pub trait PowerSink {
    /// Called once per *applied* net transition.
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64);
}

impl<A: PowerSink, B: PowerSink> PowerSink for (A, B) {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
        self.0.transition(time_ps, net, new_value, weight);
        self.1.transition(time_ps, net, new_value, weight);
    }
}

impl PowerSink for NullSink {
    fn transition(&mut self, _time_ps: u64, _net: NetId, _new_value: bool, _weight: f64) {}
}

/// Queued net change; time and seq live in the queue key.
#[derive(Debug, Clone, Copy)]
struct Pending {
    net: u32,
    value: bool,
    /// Driver-gate schedule version; stale versions are cancelled pulses.
    /// External events carry `u32::MAX` (never cancelled).
    version: u32,
}

/// Immutable simulation topology shared by every [`SimCore`] over the
/// same netlist: flat CSR adjacency, driver/weight tables, topological
/// order and the settled all-zero baseline. Build once per netlist
/// (typically behind an `Arc`), then hand out `&SimGraph` to as many
/// cores/threads as needed.
#[derive(Debug, Clone)]
pub struct SimGraph {
    /// net -> combinational consumer gates, in gate/pin declaration order.
    pub(crate) consumers: Csr,
    /// gate -> input nets, in pin order (sequential gates included, for
    /// the clocked harness).
    pub(crate) pins: Csr,
    pub(crate) kinds: Vec<GateKind>,
    /// gate -> precomputed truth table: bit `i` is the output when the
    /// pin values spell `i` (pin `k` → bit `k`). Replaces the
    /// `GateKind::eval` dispatch on the event hot path; sequential gates
    /// get 0 (register updates belong to the clocked harness).
    pub(crate) truth: Vec<u16>,
    /// gate -> output net.
    pub(crate) outputs: Vec<u32>,
    /// net -> driver gate (`u32::MAX` for inputs/constants).
    pub(crate) driver_gate: Vec<u32>,
    /// Default per-net toggle weight (driver cell area).
    pub(crate) weights: Vec<f64>,
    /// Constant-driven nets and their values.
    pub(crate) constants: Vec<(u32, bool)>,
    /// Sequential gates, in gate order.
    pub(crate) ff_gates: Vec<GateId>,
    /// Combinational gates in topological order.
    pub(crate) order: Vec<u32>,
    /// Settled net values of the all-zero initial state.
    pub(crate) baseline_values: Vec<bool>,
    /// Settled per-gate scheduled-output values of the all-zero state.
    pub(crate) baseline_out_sched: Vec<bool>,
}

impl SimGraph {
    /// Derive the simulation topology from a validated netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let nn = netlist.num_nets();
        let ng = netlist.num_gates();
        let mut consumer_pairs: Vec<(u32, u32)> = Vec::new();
        let mut pin_pairs: Vec<(u32, u32)> = Vec::new();
        let mut kinds = Vec::with_capacity(ng);
        let mut outputs = Vec::with_capacity(ng);
        let mut ff_gates = Vec::new();
        for (gi, g) in netlist.gates().iter().enumerate() {
            kinds.push(g.kind);
            outputs.push(g.output.0);
            for &i in &g.inputs {
                pin_pairs.push((gi as u32, i.0));
            }
            if g.kind.is_sequential() {
                ff_gates.push(GateId(gi as u32));
            } else {
                for &i in &g.inputs {
                    consumer_pairs.push((i.0, gi as u32));
                }
            }
        }
        let consumers = Csr::from_pairs(nn, &consumer_pairs);
        let pins = Csr::from_pairs(ng, &pin_pairs);

        let mut truth = Vec::with_capacity(ng);
        for (gi, kind) in kinds.iter().enumerate() {
            let np = pins.row(gi).len();
            let mut t = 0u16;
            if !kind.is_sequential() {
                let mut buf = [false; MAX_PINS];
                for idx in 0..1u16 << np {
                    for (k, b) in buf.iter_mut().enumerate().take(np) {
                        *b = idx >> k & 1 != 0;
                    }
                    if kind.eval(&buf[..np]) {
                        t |= 1 << idx;
                    }
                }
            }
            truth.push(t);
        }

        let mut weights = vec![1.0; nn];
        let mut driver_gate = vec![u32::MAX; nn];
        let mut constants = Vec::new();
        for i in 0..nn {
            match netlist.driver(NetId(i as u32)) {
                Driver::Gate(g) => {
                    weights[i] = netlist.gate(g).kind.area_ge();
                    driver_gate[i] = g.0;
                }
                Driver::Constant(v) => constants.push((i as u32, v)),
                _ => {}
            }
        }

        let order: Vec<u32> = gm_netlist::topo::combinational_order(netlist)
            .expect("netlist validated before simulation")
            .into_iter()
            .map(|g| g.0)
            .collect();

        // Settle the all-zero state once; every core resets to this.
        let mut baseline_values = vec![false; nn];
        for &(ni, v) in &constants {
            baseline_values[ni as usize] = v;
        }
        let mut baseline_out_sched = vec![false; ng];
        for &gi in &order {
            let gi = gi as usize;
            let mut idx = 0usize;
            for (k, &pn) in pins.row(gi).iter().enumerate() {
                idx |= usize::from(baseline_values[pn as usize]) << k;
            }
            let v = truth[gi] >> idx & 1 != 0;
            baseline_values[outputs[gi] as usize] = v;
            baseline_out_sched[gi] = v;
        }

        SimGraph {
            consumers,
            pins,
            kinds,
            truth,
            outputs,
            driver_gate,
            weights,
            constants,
            ff_gates,
            order,
            baseline_values,
            baseline_out_sched,
        }
    }

    /// Number of nets in the underlying netlist.
    pub fn num_nets(&self) -> usize {
        self.weights.len()
    }

    /// Number of gates in the underlying netlist.
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Per-net toggle weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Replace the per-net toggle weights (default: the driver cell's
    /// area, 1 for inputs) — e.g. a localized probe that sees only part
    /// of the circuit.
    ///
    /// # Panics
    ///
    /// Panics when `weights` does not hold one entry per net.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.num_nets(), "one weight per net");
        self.weights = weights;
        self
    }

    /// Sequential gates, in gate order.
    pub fn ff_gates(&self) -> &[GateId] {
        &self.ff_gates
    }

    /// Cell kind of a gate.
    pub fn kind(&self, gate: GateId) -> GateKind {
        self.kinds[gate.index()]
    }

    /// Output net of a gate.
    pub fn output(&self, gate: GateId) -> NetId {
        NetId(self.outputs[gate.index()])
    }

    /// Input nets of a gate, in pin order.
    pub fn inputs(&self, gate: GateId) -> &[u32] {
        self.pins.row(gate.index())
    }
}

/// Owned, reusable mutable simulation state over some [`SimGraph`].
///
/// All methods take the graph (and, where events propagate, the
/// [`DelayModel`]) by reference, so a `SimCore` can live inside
/// long-lived structs — e.g. per-worker trace sources — without
/// self-referential lifetimes. [`SimCore::reset`] restores the settled
/// all-zero state in O(touched) time and is bit-for-bit equivalent to
/// constructing a fresh core with the same seed.
///
/// External edges (primary inputs, flip-flop outputs) are injected with
/// [`SimCore::schedule`]; combinational propagation, including glitches,
/// follows from the [`DelayModel`].
///
/// # Examples
///
/// A NAND whose two inputs rise at different times produces a 0-glitch:
///
/// ```
/// use gm_netlist::Netlist;
/// use gm_sim::{DelayModel, SimCore, SimGraph};
///
/// let mut n = Netlist::new("g");
/// let a = n.input("a");
/// let b = n.input("b");
/// let inv_a = n.inv(a);           // slow path
/// let y = n.and2(inv_a, b);       // y = !a & b
/// n.output("y", y);
///
/// let graph = SimGraph::new(&n);
/// let delays = DelayModel::nominal(&n);
/// let mut sim = SimCore::new(&graph, 0);
/// // a and b rise together: y should stay 0, but the inverter lags.
/// sim.schedule(a, 1_000, true);
/// sim.schedule(b, 1_000, true);
/// let toggles = sim.run_counting(&graph, &delays, 10_000);
/// assert!(toggles >= 2, "glitch pulse on y expected, saw {toggles} toggles");
/// ```
#[derive(Debug)]
pub struct SimCore {
    values: Vec<bool>,
    /// Last *scheduled* output value per gate (transport-delay bookkeeping).
    out_sched: Vec<bool>,
    /// Time of the last scheduled output event per gate: jitter must not
    /// reorder a single driver's edges (a physical wire cannot).
    out_last_time: Vec<u64>,
    /// Schedule version per gate; bumping it cancels in-flight pulses.
    out_version: Vec<u32>,
    queue: TimingWheel<Pending>,
    seq: u64,
    time: u64,
    /// Per-trace jitter salt (`seed ^ JITTER_SALT_XOR`). Event delays are
    /// drawn by counter hash over `(salt, gate, ordinal)` — see
    /// [`DelayModel::sample_event_ps`] — so the jitter a gate's n-th
    /// toggling evaluation sees is a pure function of the trace seed,
    /// independent of how unrelated events interleave. The
    /// compiled-schedule backend replays the identical draws.
    salt: u64,
    /// Per-gate count of toggling evaluations this trace (the `ordinal`
    /// fed to the jitter hash).
    ev_ord: Vec<u32>,
    /// Nets whose value may deviate from the baseline.
    touched_nets: Vec<u32>,
    net_mark: Vec<bool>,
    /// Gates whose schedule bookkeeping may deviate from the baseline.
    touched_gates: Vec<u32>,
    gate_mark: Vec<bool>,
    stats: SimStats,
}

/// Lifetime event counters of a [`SimCore`] (all zero and zero-sized
/// under `obs-off`). Counters survive [`SimCore::reset`] — a recycled
/// per-worker core accumulates whole-campaign totals; snapshot or diff
/// at campaign boundaries.
#[derive(Debug, Default)]
pub struct SimStats {
    /// Events popped off the queue (applied + redundant + stale).
    pub events_popped: Counter,
    /// Net transitions actually applied (= power-sink calls).
    pub transitions: Counter,
    /// Popped events dropped because the net already held the value.
    pub redundant: Counter,
    /// Popped events dropped as cancelled pulses (stale schedule version).
    pub stale: Counter,
    /// Inertial annihilations (in-flight pulse narrower than the
    /// switching time, cancelled before delivery).
    pub annihilations: Counter,
    /// Events scheduled by combinational propagation.
    pub scheduled: Counter,
    /// External edges injected via [`SimCore::schedule`].
    pub external: Counter,
    /// Between-trace [`SimCore::reset`] calls.
    pub resets: Counter,
    /// Applied transitions by driver cell class
    /// ([`GateKind::class_index`] order).
    kind_transitions: [Counter; GateKind::NUM_CLASSES],
    /// Applied transitions on externally driven nets (primary inputs,
    /// FF outputs injected by clocked harnesses).
    pub input_transitions: Counter,
    /// Per-event delay draws ([`DelayModel::sample_event_ps`]), one per
    /// toggling fan-out evaluation.
    pub jitter_scalar: Counter,
}

impl SimStats {
    /// Applied transitions per cell class, in
    /// [`GateKind::CLASS_NAMES`] order (zeros under `obs-off`).
    pub fn kind_transitions(&self) -> [u64; GateKind::NUM_CLASSES] {
        let mut out = [0u64; GateKind::NUM_CLASSES];
        for (o, c) in out.iter_mut().zip(self.kind_transitions.iter()) {
            *o = c.get();
        }
        out
    }

    /// Export all counters under `prefix` (e.g. `"sim"`); the per-class
    /// census lands at `<prefix>.toggle.<class>`.
    pub fn report_into(&self, prefix: &str, r: &mut Report) {
        r.set_nonzero(&format!("{prefix}.events"), self.events_popped.get());
        r.set_nonzero(&format!("{prefix}.transitions"), self.transitions.get());
        r.set_nonzero(&format!("{prefix}.redundant"), self.redundant.get());
        r.set_nonzero(&format!("{prefix}.stale"), self.stale.get());
        r.set_nonzero(&format!("{prefix}.annihilations"), self.annihilations.get());
        r.set_nonzero(&format!("{prefix}.scheduled"), self.scheduled.get());
        r.set_nonzero(&format!("{prefix}.external"), self.external.get());
        r.set_nonzero(&format!("{prefix}.resets"), self.resets.get());
        r.set_nonzero(&format!("{prefix}.toggle.input"), self.input_transitions.get());
        r.set_nonzero(&format!("{prefix}.jitter.scalar"), self.jitter_scalar.get());
        for (name, c) in GateKind::CLASS_NAMES.iter().zip(self.kind_transitions.iter()) {
            r.set_nonzero(&format!("{prefix}.toggle.{name}"), c.get());
        }
    }
}

impl SimCore {
    /// A core in the settled all-zero state. `seed` drives per-event
    /// delay jitter.
    pub fn new(graph: &SimGraph, seed: u64) -> Self {
        SimCore {
            values: graph.baseline_values.clone(),
            out_sched: graph.baseline_out_sched.clone(),
            out_last_time: vec![0; graph.num_gates()],
            out_version: vec![0; graph.num_gates()],
            queue: TimingWheel::new(),
            seq: 0,
            time: 0,
            salt: seed ^ JITTER_SALT_XOR,
            ev_ord: vec![0; graph.num_gates()],
            touched_nets: Vec::new(),
            net_mark: vec![false; graph.num_nets()],
            touched_gates: Vec::new(),
            gate_mark: vec![false; graph.num_gates()],
            stats: SimStats::default(),
        }
    }

    /// Lifetime event counters (zeros under `obs-off`).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Export engine counters under `<prefix>.*` and the timing wheel's
    /// queue counters under `<prefix>.wheel.*`.
    pub fn obs_report(&self, prefix: &str, r: &mut Report) {
        self.stats.report_into(prefix, r);
        self.queue.stats().report_into(&format!("{prefix}.wheel"), r);
    }

    /// Current simulation time (ps).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    #[inline]
    fn touch_net(&mut self, ni: usize) {
        if !self.net_mark[ni] {
            self.net_mark[ni] = true;
            self.touched_nets.push(ni as u32);
        }
    }

    #[inline]
    fn touch_gate(&mut self, gi: usize) {
        if !self.gate_mark[gi] {
            self.gate_mark[gi] = true;
            self.touched_gates.push(gi as u32);
        }
    }

    /// Set a net value *silently* (no event, no power) — initial condition.
    pub fn set_initial(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
        self.touch_net(net.index());
    }

    /// Restore every touched net/gate to the settled all-zero baseline
    /// and drop pending events. O(touched), not O(netlist).
    fn restore_baseline(&mut self, graph: &SimGraph) {
        for &ni in &self.touched_nets {
            self.values[ni as usize] = graph.baseline_values[ni as usize];
            self.net_mark[ni as usize] = false;
        }
        self.touched_nets.clear();
        for &gi in &self.touched_gates {
            self.out_sched[gi as usize] = graph.baseline_out_sched[gi as usize];
            self.out_last_time[gi as usize] = 0;
            self.out_version[gi as usize] = 0;
            self.ev_ord[gi as usize] = 0;
            self.gate_mark[gi as usize] = false;
        }
        self.touched_gates.clear();
        self.queue.clear();
    }

    /// Full between-traces reset: the settled all-zero state, time 0 and
    /// a fresh jitter stream. Bit-for-bit equivalent to replacing the
    /// core with `SimCore::new(graph, seed)`.
    pub fn reset(&mut self, graph: &SimGraph, seed: u64) {
        self.stats.resets.inc();
        self.restore_baseline(graph);
        self.seq = 0;
        self.time = 0;
        self.salt = seed ^ JITTER_SALT_XOR;
    }

    /// Silently settle combinational logic from the current initial values
    /// (zero-delay), so the first scheduled edges start from a consistent
    /// state. Constants are also applied here.
    pub fn settle_silent(&mut self, graph: &SimGraph) {
        for i in 0..graph.constants.len() {
            let (ni, v) = graph.constants[i];
            self.values[ni as usize] = v;
            self.touch_net(ni as usize);
        }
        for oi in 0..graph.order.len() {
            let gi = graph.order[oi] as usize;
            let mut idx = 0usize;
            for (k, &pn) in graph.pins.row(gi).iter().enumerate() {
                idx |= usize::from(self.values[pn as usize]) << k;
            }
            let v = graph.truth[gi] >> idx & 1 != 0;
            self.values[graph.outputs[gi] as usize] = v;
            self.out_sched[gi] = v;
            self.touch_net(graph.outputs[gi] as usize);
            self.touch_gate(gi);
        }
    }

    /// Schedule an external edge on `net` at absolute time `time_ps`.
    ///
    /// # Panics
    ///
    /// Panics when scheduling into the past.
    pub fn schedule(&mut self, net: NetId, time_ps: u64, value: bool) {
        assert!(time_ps >= self.time, "cannot schedule into the past");
        self.stats.external.inc();
        self.seq += 1;
        self.queue.push(time_ps, self.seq, Pending { net: net.0, value, version: u32::MAX });
    }

    /// Process all events up to and including `t_end_ps`, reporting every
    /// applied transition to `sink`.
    pub fn run_until(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        t_end_ps: u64,
        sink: &mut impl PowerSink,
    ) {
        while let Some((time, _, p)) = self.queue.pop_at_most(t_end_ps) {
            self.stats.events_popped.inc();
            self.time = time;
            self.apply(graph, delays, time, p, sink);
        }
        self.time = self.time.max(t_end_ps);
    }

    /// Run until the event queue is empty (the circuit is quiescent).
    pub fn run_to_quiescence(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        sink: &mut impl PowerSink,
    ) {
        while let Some((time, _, p)) = self.queue.pop() {
            self.stats.events_popped.inc();
            self.time = time;
            self.apply(graph, delays, time, p, sink);
        }
    }

    /// Run until `t_end_ps` and return the raw number of applied transitions.
    pub fn run_counting(&mut self, graph: &SimGraph, delays: &DelayModel, t_end_ps: u64) -> u64 {
        let mut sink = crate::power::CountingSink::default();
        self.run_until(graph, delays, t_end_ps, &mut sink);
        sink.count
    }

    /// Drain any still-pending events (ignoring their effects) and reset
    /// simulation time to 0, keeping current net values. Used between
    /// back-to-back acquisitions on the same "device".
    pub fn rewind_time(&mut self) {
        self.queue.clear();
        for &gi in &self.touched_gates {
            self.out_last_time[gi as usize] = 0;
        }
        self.time = 0;
    }

    fn apply(
        &mut self,
        graph: &SimGraph,
        delays: &DelayModel,
        time: u64,
        p: Pending,
        sink: &mut impl PowerSink,
    ) {
        let ni = p.net as usize;
        // Stale version: this pulse was inertially annihilated after being
        // scheduled.
        if p.version != u32::MAX && self.out_version[graph.driver_gate[ni] as usize] != p.version {
            self.stats.stale.inc();
            return;
        }
        if self.values[ni] == p.value {
            self.stats.redundant.inc();
            return; // redundant edge
        }
        self.values[ni] = p.value;
        self.touch_net(ni);
        self.stats.transitions.inc();
        if gm_obs::ENABLED {
            // Per-class glitch census: one table lookup, folded away
            // entirely under obs-off.
            let dg = graph.driver_gate[ni];
            if dg == u32::MAX {
                self.stats.input_transitions.inc();
            } else {
                self.stats.kind_transitions[graph.kinds[dg as usize].class_index()].inc();
            }
        }
        sink.transition(time, NetId(p.net), p.value, graph.weights[ni]);

        // Re-evaluate combinational fan-out; schedule changed outputs.
        for &gi_u in graph.consumers.row(ni) {
            let gi = gi_u as usize;
            let mut idx = 0usize;
            for (k, &pn) in graph.pins.row(gi).iter().enumerate() {
                idx |= usize::from(self.values[pn as usize]) << k;
            }
            let out = graph.truth[gi] >> idx & 1 != 0;
            if out == self.out_sched[gi] {
                continue;
            }
            self.touch_gate(gi);
            let ord = self.ev_ord[gi];
            self.ev_ord[gi] = ord + 1;
            self.stats.jitter_scalar.inc();
            let d = delays.sample_event_ps(GateId(gi_u), self.salt, ord);
            // A single driver's edges stay ordered even under jitter.
            let t = (time + d).max(self.out_last_time[gi] + 1);
            let pending = self.out_last_time[gi] > time;
            let out_net = graph.outputs[gi];
            if pending && t.saturating_sub(self.out_last_time[gi]) < PULSE_REJECT_PS {
                // The in-flight pulse is narrower than the switching
                // time: annihilate it instead of delivering both edges.
                self.stats.annihilations.inc();
                self.out_version[gi] = self.out_version[gi].wrapping_add(1);
                self.out_sched[gi] = self.values[out_net as usize];
                if out == self.out_sched[gi] {
                    continue;
                }
            }
            self.out_sched[gi] = out;
            self.out_last_time[gi] = t;
            self.seq += 1;
            self.stats.scheduled.inc();
            self.queue.push(
                t,
                self.seq,
                Pending { net: out_net, value: out, version: self.out_version[gi] },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{CountingSink, NullSink};

    /// y = a & b with equal input arrival: exactly the final transitions.
    #[test]
    fn no_glitch_when_inputs_aligned() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(&g, &delays, 10_000, &mut c);
        // a, b, y — three transitions, no glitches.
        assert_eq!(c.count, 3);
        assert!(sim.value(y));
    }

    /// Static-1 hazard on an AND-OR pair: xor of skewed inputs glitches.
    #[test]
    fn skewed_inputs_glitch() {
        // y = (a & b) ^ (a | b); with a=b=1 -> 1^1 = 0, steady state 0->0,
        // but the AND path is faster/slower than the OR path via an extra buf.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0); // two buffers: skew > pulse-reject width
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(&g, &delays, 20_000, &mut c);
        assert!(!sim.value(y), "steady state of 1&1 ^ 1|1 is 0");
        // y must have pulsed: transitions strictly exceed the glitch-free
        // count (a, b, p, q0, q1, q = 6).
        assert!(c.count > 6, "expected a glitch pulse, got {} transitions", c.count);
    }

    /// Final values always match zero-delay evaluation, glitches or not.
    #[test]
    fn settles_to_functional_value() {
        use rand::{RngExt, SeedableRng};
        let mut n = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| n.input(format!("i{i}"))).collect();
        let x0 = n.and2(ins[0], ins[1]);
        let x1 = n.or2(ins[2], ins[3]);
        let x2 = n.xor2(x0, x1);
        let x3 = n.mux2(ins[0], x2, x1);
        let inv = n.inv(x3);
        n.output("o", inv);
        n.validate().unwrap();

        let delays = DelayModel::with_variation(&n, 0.3, 40.0, 5);
        let g = SimGraph::new(&n);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for trial in 0..50 {
            let mut sim = SimCore::new(&g, trial);
            let bits: Vec<bool> = (0..4).map(|_| rng.random()).collect();
            for (k, &net) in ins.iter().enumerate() {
                // staggered arrivals to invite glitches
                sim.schedule(net, 100 + 137 * k as u64, bits[k]);
            }
            sim.run_until(&g, &delays, 1_000_000, &mut NullSink);

            let mut ev = gm_netlist::Evaluator::new(&n).unwrap();
            let want =
                ev.run_combinational(&n, &ins.iter().copied().zip(bits).collect::<Vec<_>>())[0];
            assert_eq!(sim.value(inv), want, "trial {trial}");
        }
    }

    /// Pulses narrower than the switching time are inertially rejected;
    /// wide pulses are transported in full.
    #[test]
    fn inertial_rejects_narrow_transports_wide() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let chain = n.delay_chain(a, 2);
        n.output("o", chain);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);

        // 10 ps pulse (<< PULSE_REJECT_PS): dies at the first buffer.
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 100, true);
        sim.schedule(a, 110, false);
        assert_eq!(sim.run_counting(&g, &delays, 100_000), 2, "only the input edges themselves");

        // 5 ns pulse (>> PULSE_REJECT_PS): both chain nets pulse fully.
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 100, true);
        sim.schedule(a, 5_100, false);
        assert_eq!(sim.run_counting(&g, &delays, 100_000), 6, "a up/down + 2 nets up/down");
    }

    /// run_to_quiescence drains everything regardless of horizon.
    #[test]
    fn run_to_quiescence_settles() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let chain = n.delay_chain(a, 5);
        n.output("o", chain);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 1, true);
        sim.run_to_quiescence(&g, &delays, &mut NullSink);
        assert!(sim.value(chain), "edge must have traversed all 5 stages");
        assert!(sim.time() >= 5 * 1150);
    }

    /// An annihilated pulse leaves no residue: after the cancel, a later
    /// genuine edge still propagates with a fresh version.
    #[test]
    fn cancelled_pulse_then_real_edge() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let buf = n.delay_buf(a);
        n.output("o", buf);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        // 10 ps pulse: annihilated inside the DelayBuf.
        sim.schedule(a, 100, true);
        sim.schedule(a, 110, false);
        // Much later, a real edge.
        sim.schedule(a, 50_000, true);
        let toggles = sim.run_counting(&g, &delays, 100_000);
        assert!(sim.value(buf), "the real edge must arrive");
        // a: up/down/up (3) + buf: up (1).
        assert_eq!(toggles, 4);
    }

    #[test]
    fn redundant_edges_are_ignored() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let y = n.buf(a);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        sim.schedule(a, 100, false); // no-op: already 0
        assert_eq!(sim.run_counting(&g, &delays, 10_000), 0);
    }

    /// reset() brings a dirtied core back to the exact fresh state:
    /// replaying the same stimuli yields the identical transition stream.
    #[test]
    fn reset_equals_fresh() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q = n.xor2(p, a);
        let inv = n.inv(q);
        n.output("o", inv);
        n.validate().unwrap();
        let delays = DelayModel::with_variation(&n, 0.4, 60.0, 9);
        let g = SimGraph::new(&n);

        let record = |sim: &mut SimCore| {
            let mut rec = Vec::new();
            struct R<'v>(&'v mut Vec<(u64, u32, bool)>);
            impl PowerSink for R<'_> {
                fn transition(&mut self, t: u64, net: NetId, v: bool, _w: f64) {
                    self.0.push((t, net.0, v));
                }
            }
            sim.schedule(a, 500, true);
            sim.schedule(b, 900, true);
            sim.schedule(a, 30_000, false);
            sim.run_until(&g, &delays, 60_000, &mut R(&mut rec));
            rec
        };

        let mut fresh = SimCore::new(&g, 42);
        let want = record(&mut fresh);

        // Dirty a core with a different seed/stimuli, then reset.
        let mut reused = SimCore::new(&g, 7);
        reused.schedule(b, 100, true);
        reused.run_until(&g, &delays, 900_000, &mut NullSink);
        reused.reset(&g, 42);
        let got = record(&mut reused);
        assert_eq!(got, want, "reset must reproduce the fresh stream");
    }

    /// The engine counters reconcile: every popped event is applied,
    /// redundant, or stale, and the per-class census sums to the applied
    /// transitions.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn stats_reconcile() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0);
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 3);
        sim.schedule(a, 100, true);
        sim.schedule(b, 100, true);
        let mut c = CountingSink::default();
        sim.run_until(&g, &delays, 50_000, &mut c);

        let s = sim.stats();
        assert_eq!(s.external.get(), 2);
        assert_eq!(
            s.events_popped.get(),
            s.transitions.get() + s.redundant.get() + s.stale.get(),
            "popped = applied + redundant + stale"
        );
        assert_eq!(s.transitions.get(), c.count, "census agrees with the power sink");
        let census: u64 = s.kind_transitions().iter().sum();
        assert_eq!(census + s.input_transitions.get(), s.transitions.get());
        assert_eq!(s.input_transitions.get(), 2, "a and b");

        let mut r = Report::new();
        sim.obs_report("sim", &mut r);
        assert_eq!(r.get("sim.transitions"), Some(s.transitions.get()));
        assert!(r.get("sim.wheel.push_drain").is_some() || r.get("sim.wheel.push_ring").is_some());
    }
}
