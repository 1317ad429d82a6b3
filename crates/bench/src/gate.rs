//! Shared gate-level TVLA trace sources.
//!
//! The event-driven campaigns (`table1`, `table2`, `fig15_gate` and the
//! benchmark's `table1-orders` and `fig15-placement` workloads) all
//! acquire traces the same way: a small gadget bank netlist, per-device
//! delay model, per-trace masked stimulus, switching-activity power. This
//! module holds the [`gm_leakage::TraceSource`] implementations so every
//! binary routes through the campaign chunk loop of `gm-leakage::tvla`
//! instead of hand-rolled acquisition loops.
//!
//! Every source runs one [`gm_sim::LaneSweep`]: the stimulus plan is
//! fixed per campaign, so the event cascade is compiled once and each
//! [`TraceSource::trace_block`] call sweeps up to 64 traces per pass,
//! re-running divergent lanes on the scalar wheel under the same
//! per-trace seed — every trace stays bit-identical to the `--scalar`
//! reference (`SequenceSource::scalar`, `PdPlacementSource::scalar`,
//! `ChainSource::scalar`). A source keeps only its per-trace draw (seed
//! and stimulus bits, in label order) and its emission. The measured
//! sources ([`SequenceSource`], [`ChainSource`]) drain repairs once per
//! pass, before their label-ordered measurement noise reads the bins;
//! [`PdPlacementSource`] emits raw energies and drains once per block.
//!
//! The same banks also give the exact probing oracle
//! ([`gm_core::analysis::probing`]) its arrival schedules:
//! [`sequence_arrivals`] (Table I), [`ChainBank::arrivals`] (Table II)
//! and [`reset_ablation`] (§II-C's reset discipline).

use gm_core::analysis::{Arrival, Drive};
use gm_core::compose::build_product_chain_pd;
use gm_core::gadgets::sec_and2::build_sec_and2;
use gm_core::gadgets::sec_and2_pd::{build_sec_and2_pd, PdConfig};
use gm_core::gadgets::AndInputs;
use gm_core::schedule::{chain_delay_schedule, chain_max_units, ArrivalSequence, InputShare};
use gm_core::{MaskRng, MaskedBit};
use gm_leakage::{Class, TraceSource, TvlaResult};
use gm_netlist::{GateKind, NetId, Netlist};
use gm_obs::Report;
use gm_sim::{
    CountingSink, DelayModel, LaneBinTrace, LaneEnergy, LaneSweep, MeasurementModel, PowerTrace,
    SimGraph, LANES,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Clock period of the Table I arrival-sequence experiment, in ps.
pub const CYCLE_PS: u64 = 50_000;

/// Next per-trace simulation seed of a source's seed chain.
fn next_seed(seed: u64, inc: u64) -> u64 {
    seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(inc)
}

/// What the measured sources share around their [`LaneSweep`]: binned
/// switching power through a measurement chain.
struct Binned {
    sweep: LaneSweep,
    measurement: MeasurementModel,
    /// Scalar-wheel trace buffer (per-trace runs and repairs).
    trace: PowerTrace,
    /// Word-level binned sink of the compiled passes.
    bins: LaneBinTrace,
}

impl Binned {
    /// `num_bins` equal bins over the sweep's window.
    fn new(sweep: LaneSweep, num_bins: usize, measurement: MeasurementModel) -> Self {
        let bin_ps = sweep.t_end_ps() / num_bins as u64;
        let bins = LaneBinTrace::new(0, bin_ps, num_bins, sweep.graph().weights());
        Binned { sweep, measurement, trace: PowerTrace::new(0, bin_ps, num_bins), bins }
    }

    /// One drawn trace on the scalar wheel, measured into `out`.
    fn scalar_trace(&mut self, (seed, bits): (u64, u32), out: &mut [f64]) {
        self.trace.clear();
        self.sweep.run_scalar(seed, bits, &mut self.trace);
        self.measurement.sample_into(self.trace.samples(), out);
    }

    /// Acquire a block of drawn traces into the per-class buffers, in
    /// label order. Repairs drain once per pass: the measurement noise
    /// is drawn in label order after the pass, so every lane's bins
    /// must exist first.
    fn block(
        &mut self,
        labels: &[Class],
        draws: &[(u64, u32)],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let ns = self.trace.samples().len();
        let mut lane = vec![0.0f64; ns];
        let (mut nf, mut nr) = (0usize, 0usize);
        let compiled = self.sweep.is_compiled();
        for (chunk, lanes) in labels.chunks(LANES).zip(draws.chunks(LANES)) {
            if compiled {
                self.bins.clear();
                self.sweep.run_pass(lanes, &mut self.bins, |l| l as u32);
                self.bins.finish_pass();
                let bins = &mut self.bins;
                self.trace.clear();
                self.sweep.drain(&mut self.trace, |l, trace| {
                    bins.set_lane(l as usize, trace.samples());
                    trace.clear();
                });
            }
            for (l, (&class, &draw)) in chunk.iter().zip(lanes).enumerate() {
                let (buf, row) = match class {
                    Class::Fixed => (&mut *fixed, &mut nf),
                    Class::Random => (&mut *random, &mut nr),
                };
                let out = &mut buf[*row * ns..(*row + 1) * ns];
                *row += 1;
                if compiled {
                    self.bins.lane_into(l, &mut lane);
                    self.measurement.sample_into(&lane, out);
                } else {
                    self.scalar_trace(draw, out);
                }
            }
        }
        (nf, nr)
    }

    fn obs_report(&self, report: &mut Report) {
        self.sweep.obs_report(report);
        self.bins.stats.report_into("sim.pack", report);
    }
}

/// A bank of replicated `secAND2` instances sharing four share inputs
/// (the paper's SNR trick).
pub struct SecAnd2Bank {
    /// The bank netlist.
    pub netlist: Netlist,
    /// Prebuilt simulation topology, shared read-only by all workers.
    pub graph: Arc<SimGraph>,
    /// Share `x0` input net (fans out to every replica).
    pub x0: NetId,
    /// Share `x1` input net.
    pub x1: NetId,
    /// Share `y0` input net.
    pub y0: NetId,
    /// Share `y1` input net.
    pub y1: NetId,
}

/// Build a bank of `replicas` parallel `secAND2` instances.
pub fn build_sec_and2_bank(replicas: usize) -> SecAnd2Bank {
    let mut n = Netlist::new("secand2_bank");
    let x0 = n.input("x0");
    let x1 = n.input("x1");
    let y0 = n.input("y0");
    let y1 = n.input("y1");
    for r in 0..replicas {
        n.in_module(format!("g{r}"), |n| {
            let out = build_sec_and2(n, AndInputs { x0, x1, y0, y1 });
            n.output(format!("z0_{r}"), out.z0);
            n.output(format!("z1_{r}"), out.z1);
        });
    }
    n.validate().expect("bank validates");
    let graph = Arc::new(SimGraph::new(&n));
    SecAnd2Bank { netlist: n, graph, x0, x1, y0, y1 }
}

/// The stimulus plan of one arrival order on a [`SecAnd2Bank`]: one
/// share per cycle, 1 ns into the cycle.
pub fn sequence_plan(bank: &SecAnd2Bank, seq: &[InputShare]) -> Vec<(NetId, u64)> {
    let net = |s: InputShare| match s {
        InputShare::X0 => bank.x0,
        InputShare::X1 => bank.x1,
        InputShare::Y0 => bank.y0,
        InputShare::Y1 => bank.y1,
    };
    seq.iter()
        .enumerate()
        .map(|(cycle, &share)| (net(share), cycle as u64 * CYCLE_PS + 1_000))
        .collect()
}

/// The oracle schedule of one arrival order on a [`SecAnd2Bank`]: the
/// times of [`sequence_plan`], each net carrying its share
/// ([`InputShare::drive`]).
pub fn sequence_arrivals(bank: &SecAnd2Bank, seq: &[InputShare]) -> Vec<Arrival> {
    sequence_plan(bank, seq)
        .into_iter()
        .zip(seq)
        .map(|((net, time_ps), share)| Arrival { net, time_ps, drive: share.drive() })
        .collect()
}

/// The stimulus bits of masked `x` and `y` in arrival order `seq` (bit
/// `s` = the share arriving in cycle `s`).
pub fn sequence_bits(seq: &[InputShare], mx: MaskedBit, my: MaskedBit) -> u32 {
    seq.iter().enumerate().fold(0, |bits, (s, share)| {
        let v = match share {
            InputShare::X0 => mx.s0,
            InputShare::X1 => mx.s1,
            InputShare::Y0 => my.s0,
            InputShare::Y1 => my.s1,
        };
        bits | u32::from(v) << s
    })
}

/// Table I trace source: drives the four shares into the bank in one
/// arrival order (one share per cycle) and bins switching power per cycle.
pub struct SequenceSource {
    seq: ArrivalSequence,
    mask_rng: MaskRng,
    val_rng: SmallRng,
    sim_seed: u64,
    binned: Binned,
}

impl SequenceSource {
    /// Build a source for one arrival sequence on the compiled-schedule
    /// backend (falls back to the wheel automatically if the bank refuses
    /// compilation — it never does, the bank is combinational).
    pub fn new(
        bank: Arc<SecAnd2Bank>,
        delays: Arc<DelayModel>,
        seq: ArrivalSequence,
        seed: u64,
    ) -> Self {
        Self::build(&bank, delays, seq, seed, true)
    }

    /// Build a source pinned to the scalar event wheel (`--scalar`).
    pub fn scalar(
        bank: Arc<SecAnd2Bank>,
        delays: Arc<DelayModel>,
        seq: ArrivalSequence,
        seed: u64,
    ) -> Self {
        Self::build(&bank, delays, seq, seed, false)
    }

    fn build(
        bank: &SecAnd2Bank,
        delays: Arc<DelayModel>,
        seq: ArrivalSequence,
        seed: u64,
        compile: bool,
    ) -> Self {
        let plan = sequence_plan(bank, &seq);
        let sweep = LaneSweep::new(Arc::clone(&bank.graph), delays, plan, 4 * CYCLE_PS, compile);
        Self::with_sweep(sweep, seq, seed)
    }

    fn with_sweep(sweep: LaneSweep, seq: ArrivalSequence, seed: u64) -> Self {
        SequenceSource {
            seq,
            mask_rng: MaskRng::new(seed),
            val_rng: SmallRng::seed_from_u64(seed ^ 0xf00d),
            sim_seed: seed,
            binned: Binned::new(sweep, 4, MeasurementModel::new(1.0, 0.8, 16, seed ^ 0xabc)),
        }
    }

    /// One trace's seed and stimulus bits. Fixed class: x = 1, y = 1
    /// (any fixed pair works); random class: fresh random x, y. Shares
    /// always fresh-random.
    fn draw(&mut self, class: Class) -> (u64, u32) {
        let (x, y) = match class {
            Class::Fixed => (true, true),
            Class::Random => (self.val_rng.random(), self.val_rng.random()),
        };
        let mx = MaskedBit::mask(x, &mut self.mask_rng);
        let my = MaskedBit::mask(y, &mut self.mask_rng);
        self.sim_seed = next_seed(self.sim_seed, 11);
        (self.sim_seed, sequence_bits(&self.seq, mx, my))
    }
}

impl TraceSource for SequenceSource {
    fn fork(&self, stream: u64) -> Self {
        let seed = self.sim_seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SequenceSource::with_sweep(self.binned.sweep.fork(), self.seq, seed)
    }

    fn num_samples(&self) -> usize {
        4
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let draw = self.draw(class);
        self.binned.scalar_trace(draw, out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let draws: Vec<(u64, u32)> = labels.iter().map(|&c| self.draw(c)).collect();
        self.binned.block(labels, &draws, fixed, random)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.binned.obs_report(report);
    }
}

/// A `secAND2-PD` gadget instance plus the bits needed to measure one
/// placement's first-order exposure (Fig. 15, gate level).
pub struct PdGadget {
    /// The gadget netlist.
    pub netlist: Netlist,
    /// Prebuilt simulation topology, shared read-only by all workers.
    /// Its toggle weights are the localized-probe view: core cells by
    /// area, delay lines and inputs at 0.
    pub graph: Arc<SimGraph>,
    /// Share input nets.
    pub io: AndInputs,
    /// Simulation window covering the whole glitch train, in ps.
    pub window_ps: u64,
}

/// Build a `secAND2-PD` gadget with the given DelayUnit size.
pub fn build_pd_gadget(unit_luts: usize) -> PdGadget {
    let mut n = Netlist::new("pd");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build_sec_and2_pd(&mut n, io, PdConfig { unit_luts });
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    n.validate().unwrap();
    let window_ps = (2 * unit_luts as u64 * 1_150) * 3 + 30_000;
    let weights: Vec<f64> = (0..n.num_nets() as u32)
        .map(|i| match n.driver(NetId(i)) {
            gm_netlist::netlist::Driver::Gate(g) if n.gate(g).kind != GateKind::DelayBuf => {
                n.gate(g).kind.area_ge()
            }
            _ => 0.0,
        })
        .collect();
    let graph = Arc::new(SimGraph::new(&n).with_weights(weights));
    PdGadget { netlist: n, graph, io, window_ps }
}

/// Fig. 15 (gate level) trace source: one scalar sample per trace — the
/// gadget-core switching energy of a single evaluation with `x = 1` and
/// `y` decided by the TVLA class (`Fixed` ⇒ `y = 1`, `Random` ⇒ `y = 0`).
///
/// The class-mean difference of this source *is* the placement's
/// first-order exposure (see [`placement_bias`]); a placement that
/// preserves the safe arrival order shows none.
pub struct PdPlacementSource {
    mask_rng: MaskRng,
    sim_seed: u64,
    sweep: LaneSweep,
    /// Word-level (weight-class)-major energy accumulator, cleared per
    /// pass; converts to per-lane f64 once per pass.
    energy: LaneEnergy,
}

impl PdPlacementSource {
    /// Build a source for one placement (one sampled [`DelayModel`]) on
    /// the compiled-schedule backend.
    pub fn new(gadget: Arc<PdGadget>, delays: Arc<DelayModel>, seed: u64) -> Self {
        Self::build(&gadget, delays, seed, true)
    }

    /// Build a source pinned to the scalar event wheel (`--scalar`).
    pub fn scalar(gadget: Arc<PdGadget>, delays: Arc<DelayModel>, seed: u64) -> Self {
        Self::build(&gadget, delays, seed, false)
    }

    fn build(gadget: &PdGadget, delays: Arc<DelayModel>, seed: u64, compile: bool) -> Self {
        let io = gadget.io;
        let plan = [io.x0, io.x1, io.y0, io.y1].map(|net| (net, 1_000)).to_vec();
        let sweep =
            LaneSweep::new(Arc::clone(&gadget.graph), delays, plan, gadget.window_ps, compile);
        Self::with_sweep(sweep, seed)
    }

    fn with_sweep(sweep: LaneSweep, seed: u64) -> Self {
        let energy = LaneEnergy::new(sweep.graph().weights());
        PdPlacementSource { mask_rng: MaskRng::new(seed ^ 0x77), sim_seed: seed, sweep, energy }
    }

    /// One trace's seed and stimulus bits (`x0 x1 y0 y1`).
    fn draw(&mut self, class: Class) -> (u64, u32) {
        let mx = MaskedBit::mask(true, &mut self.mask_rng);
        let my = MaskedBit::mask(class == Class::Fixed, &mut self.mask_rng);
        self.sim_seed = next_seed(self.sim_seed, 7);
        let bits = [mx.s0, mx.s1, my.s0, my.s1]
            .into_iter()
            .enumerate()
            .fold(0, |bits, (s, v)| bits | u32::from(v) << s);
        (self.sim_seed, bits)
    }

    /// Scalar-wheel energy of one drawn trace.
    fn scalar_energy(&mut self, (seed, bits): (u64, u32)) -> f64 {
        let mut sink = CountingSink::default();
        self.sweep.run_scalar(seed, bits, &mut sink);
        sink.weighted
    }
}

impl TraceSource for PdPlacementSource {
    fn fork(&self, stream: u64) -> Self {
        let seed = self.sim_seed ^ stream.wrapping_mul(0xd192_ed03_a4ab_f2ee);
        PdPlacementSource::with_sweep(self.sweep.fork(), seed)
    }

    fn num_samples(&self) -> usize {
        1
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let draw = self.draw(class);
        out[0] = self.scalar_energy(draw);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let mut put = |slot: u32, e: f64| {
            let row = (slot & !(1 << 31)) as usize;
            if slot >> 31 != 0 {
                fixed[row] = e;
            } else {
                random[row] = e;
            }
        };
        let (mut nf, mut nr) = (0u32, 0u32);
        for chunk in labels.chunks(LANES) {
            let (mut lanes, mut slots) = ([(0u64, 0u32); LANES], [0u32; LANES]);
            for (l, &class) in chunk.iter().enumerate() {
                lanes[l] = self.draw(class);
                // The label's destination row; slot bit 31 picks the
                // fixed buffer.
                slots[l] = match class {
                    Class::Fixed => {
                        nf += 1;
                        (nf - 1) | 1 << 31
                    }
                    Class::Random => {
                        nr += 1;
                        nr - 1
                    }
                };
            }
            let (lanes, slots) = (&lanes[..chunk.len()], &slots[..chunk.len()]);
            if !self.sweep.is_compiled() {
                for (&draw, &slot) in lanes.iter().zip(slots) {
                    put(slot, self.scalar_energy(draw));
                }
                continue;
            }
            self.energy.clear();
            let div = self.sweep.run_pass(lanes, &mut self.energy, |l| slots[l]);
            let mut energies = [0.0f64; LANES];
            self.energy.energies_into(&mut energies);
            for (l, &slot) in slots.iter().enumerate() {
                if div >> l & 1 == 0 {
                    put(slot, energies[l]);
                }
            }
        }
        // Energies carry no label-ordered measurement noise, so the whole
        // block's repairs drain in one batch.
        self.sweep.drain(&mut CountingSink::default(), |slot, sink| {
            put(slot, sink.weighted);
            *sink = CountingSink::default();
        });
        (nf as usize, nr as usize)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.sweep.obs_report(report);
        self.energy.stats.report_into("sim.pack", report);
    }
}

/// First-order exposure of a placement from an accumulated campaign: the
/// class-mean switching-energy difference `|E[power | y=1] − E[power | y=0]|`.
pub fn placement_bias(result: &TvlaResult) -> f64 {
    (result.fixed.mean()[0] - result.random.mean()[0]).abs()
}

/// Replicas per Table II product-chain bank.
pub const CHAIN_REPLICAS: usize = 8;
/// DelayUnit size of the Table II chains, in LUTs.
pub const CHAIN_UNIT_LUTS: usize = 10;

/// A bank of [`CHAIN_REPLICAS`] single-cycle `secAND2-PD` product chains
/// of `k` variables sharing their input shares (Table II).
pub struct ChainBank {
    /// The bank netlist.
    pub netlist: Netlist,
    /// Prebuilt simulation topology, shared read-only by all workers.
    graph: Arc<SimGraph>,
    /// Input share nets per variable `(s0, s1)`.
    vars: Vec<(NetId, NetId)>,
}

/// Build a replicated bank of k-variable product chains. When `sabotage`
/// is true the delay schedule makes an `x` share (`a₁`, the first chain
/// variable's second share) arrive **last** — the arrival pattern
/// Table I shows to leak.
pub fn build_chain_bank(k: usize, sabotage: bool) -> ChainBank {
    let mut n = Netlist::new("chain_bank");
    let vars: Vec<(NetId, NetId)> =
        (0..k).map(|i| (n.input(format!("v{i}s0")), n.input(format!("v{i}s1")))).collect();
    let mut schedule = chain_delay_schedule(k);
    if sabotage {
        for d in &mut schedule {
            if d.var == 0 && d.share == 1 {
                d.units = 2 * k; // a1 past everything, incl. y shares
            }
        }
    }
    for r in 0..CHAIN_REPLICAS {
        n.in_module(format!("g{r}"), |n| {
            let chain = build_product_chain_pd(n, &vars, CHAIN_UNIT_LUTS, &schedule);
            n.output(format!("z0_{r}"), chain.out.z0);
            n.output(format!("z1_{r}"), chain.out.z1);
        });
    }
    n.validate().expect("chain validates");
    let graph = Arc::new(SimGraph::new(&n));
    ChainBank { netlist: n, graph, vars }
}

impl ChainBank {
    /// The oracle schedule: every input share at 1 ns, as
    /// [`ChainSource`] drives them (the DelayUnits inside the netlist
    /// create the sequence).
    pub fn arrivals(&self) -> Vec<Arrival> {
        gm_core::analysis::probing::simultaneous(&self.vars, 1_000)
    }
}

/// The §II-C reset ablation on a bare `secAND2`: a first multiplication
/// `m·n` (shares in the safe order `n₀ m₀ m₁ n₁`, 1 ns apart), then,
/// `reset` clearing every input to 0 at 41 ns, the next operation's `a₀`
/// arriving first at 81 ns. Without the reset, `a₀`'s edge toggles `z₀`
/// exactly when `n₀ ≠ n₁`, exposing the previous operand `n`.
/// Variables: `m` = 0, `n` = 1, `a` = 2.
pub fn reset_ablation(reset: bool) -> (Netlist, Vec<Arrival>) {
    let mut n = Netlist::new("g");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build_sec_and2(&mut n, io);
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    let share =
        |net, time_ps, var, share| Arrival { net, time_ps, drive: Drive::Share { var, share } };
    let mut schedule = vec![
        share(io.y0, 1_000, 1, 0),
        share(io.x0, 2_000, 0, 0),
        share(io.x1, 3_000, 0, 1),
        share(io.y1, 4_000, 1, 1),
    ];
    if reset {
        schedule.extend([io.x0, io.x1, io.y0, io.y1].map(|net| Arrival {
            net,
            time_ps: 41_000,
            drive: Drive::Const(false),
        }));
    }
    schedule.push(share(io.x0, 81_000, 2, 0));
    (n, schedule)
}

/// Table II trace source: all input shares of one chain bank fire
/// together (the DelayUnits inside the netlist create the sequence) and
/// switching power is binned into 8 samples over the chain's window.
pub struct ChainSource {
    /// Chain variables.
    k: usize,
    mask_rng: MaskRng,
    val_rng: SmallRng,
    sim_seed: u64,
    binned: Binned,
}

impl ChainSource {
    /// Build a source on the compiled-schedule backend.
    pub fn new(bank: Arc<ChainBank>, delays: Arc<DelayModel>, seed: u64) -> Self {
        Self::build(&bank, delays, seed, true)
    }

    /// Build a source pinned to the scalar event wheel (`--scalar`).
    pub fn scalar(bank: Arc<ChainBank>, delays: Arc<DelayModel>, seed: u64) -> Self {
        Self::build(&bank, delays, seed, false)
    }

    fn build(bank: &ChainBank, delays: Arc<DelayModel>, seed: u64, compile: bool) -> Self {
        let k = bank.vars.len();
        let plan = bank.vars.iter().flat_map(|&(s0, s1)| [(s0, 1_000), (s1, 1_000)]).collect();
        let window_ps =
            ((chain_max_units(k) + 2) as u64 * CHAIN_UNIT_LUTS as u64 * 1_150 + 20_000) * 2;
        let sweep = LaneSweep::new(Arc::clone(&bank.graph), delays, plan, window_ps, compile);
        Self::with_sweep(sweep, k, seed)
    }

    fn with_sweep(sweep: LaneSweep, k: usize, seed: u64) -> Self {
        ChainSource {
            k,
            mask_rng: MaskRng::new(seed ^ 0x11),
            val_rng: SmallRng::seed_from_u64(seed ^ 0x22),
            sim_seed: seed,
            binned: Binned::new(sweep, 8, MeasurementModel::new(1.0, 6.0, 18, seed ^ 0x33)),
        }
    }

    /// One trace's seed and stimulus bits (`v0s0 v0s1 v1s0 …`). Fixed
    /// class: every variable 1; random class: fresh random values.
    fn draw(&mut self, class: Class) -> (u64, u32) {
        self.sim_seed = next_seed(self.sim_seed, 7);
        let mut bits = 0u32;
        for i in 0..self.k {
            let v = match class {
                Class::Fixed => true,
                Class::Random => self.val_rng.random(),
            };
            let b = MaskedBit::mask(v, &mut self.mask_rng);
            bits |= u32::from(b.s0) << (2 * i) | u32::from(b.s1) << (2 * i + 1);
        }
        (self.sim_seed, bits)
    }
}

impl TraceSource for ChainSource {
    fn fork(&self, stream: u64) -> Self {
        let seed = self.sim_seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ChainSource::with_sweep(self.binned.sweep.fork(), self.k, seed)
    }

    fn num_samples(&self) -> usize {
        8
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let draw = self.draw(class);
        self.binned.scalar_trace(draw, out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let draws: Vec<(u64, u32)> = labels.iter().map(|&c| self.draw(c)).collect();
        self.binned.block(labels, &draws, fixed, random)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.binned.obs_report(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_core::schedule::{predicted_leaky, InputShare};
    use gm_leakage::Campaign;

    /// The compiled-schedule backend must reproduce the scalar campaign:
    /// every non-divergent lane is multiset-identical (pinned at the sim
    /// layer), so class means may differ only by floating-point summation
    /// order inside a trace's energy/bins.
    #[test]
    fn pd_compiled_matches_scalar_campaign() {
        let gadget = Arc::new(build_pd_gadget(3));
        let delays = Arc::new(DelayModel::with_variation(
            &gadget.netlist,
            0.85,
            400.0,
            0x5eed ^ (3u64) << 8,
        ));
        let campaign = Campaign::sequential(2_000, 42);
        let compiled =
            campaign.run(&PdPlacementSource::new(Arc::clone(&gadget), Arc::clone(&delays), 7));
        let scalar = campaign.run(&PdPlacementSource::scalar(gadget, delays, 7));
        assert_eq!(compiled.total_traces(), scalar.total_traces());
        let (bc, bs) = (placement_bias(&compiled), placement_bias(&scalar));
        assert!(
            (bc - bs).abs() <= 1e-9 * bs.abs().max(1.0),
            "placement bias moved between backends: compiled {bc} vs scalar {bs}"
        );
        assert!(
            (compiled.fixed.mean()[0] - scalar.fixed.mean()[0]).abs() <= 1e-9,
            "fixed-class mean moved between backends"
        );
    }

    /// The recorded placement bias is a pure function of `(seed,
    /// traces)`: chunk `i` forks its device streams and draws its labels
    /// from its index, and the chunks merge in index order, so one and
    /// three workers give the same bias bit for bit over three chunks.
    #[test]
    fn placement_bias_is_seed_stable() {
        let gadget = Arc::new(build_pd_gadget(2));
        let delays =
            Arc::new(DelayModel::with_variation(&gadget.netlist, 0.85, 400.0, 0x5eed ^ 2 << 8));
        let src = PdPlacementSource::new(Arc::clone(&gadget), Arc::clone(&delays), 7);
        let bias =
            |threads| placement_bias(&Campaign { traces: 40_000, threads, seed: 42 }.run(&src));
        let (b1, b3) = (bias(1), bias(3));
        assert_eq!(b1.to_bits(), b3.to_bits(), "1 thread {b1} vs 3 threads {b3}");
    }

    /// Same contract for the Table I arrival-sequence source, on one
    /// leaky and one safe order.
    #[test]
    fn sequence_compiled_matches_scalar_campaign() {
        use InputShare::{X0, X1, Y0, Y1};
        let bank = Arc::new(build_sec_and2_bank(4));
        let delays = Arc::new(DelayModel::with_variation(&bank.netlist, 0.3, 60.0, 0xbead));
        for seq in [[X0, Y0, X1, Y1], [X0, X1, Y0, Y1]] {
            let campaign = Campaign::sequential(1_000, 9);
            let compiled =
                campaign.run(&SequenceSource::new(Arc::clone(&bank), Arc::clone(&delays), seq, 3));
            let scalar = campaign.run(&SequenceSource::scalar(
                Arc::clone(&bank),
                Arc::clone(&delays),
                seq,
                3,
            ));
            let (tc, ts) = (compiled.max_abs_t1(), scalar.max_abs_t1());
            assert!(
                (tc - ts).abs() <= 1e-9 * ts.abs().max(1.0),
                "max |t1| moved between backends for {seq:?} (leaky={}): {tc} vs {ts}",
                predicted_leaky(&seq)
            );
        }
    }

    /// Same contract for the Table II chain source, with jitter high
    /// enough that lanes diverge, so the per-pass repair drain lands
    /// scalar reruns among the compiled lanes.
    #[test]
    fn chain_compiled_matches_scalar_campaign() {
        let bank = Arc::new(build_chain_bank(2, true));
        let delays = Arc::new(DelayModel::with_variation(&bank.netlist, 0.3, 400.0, 0xc4a1));
        let campaign = Campaign::sequential(1_000, 5);
        let src = ChainSource::new(Arc::clone(&bank), Arc::clone(&delays), 3);
        let (compiled, obs) = campaign.run_observed(&src);
        let scalar = campaign.run(&ChainSource::scalar(bank, delays, 3));
        for (c, s) in [(&compiled.fixed, &scalar.fixed), (&compiled.random, &scalar.random)] {
            assert_eq!(c.count(), s.count());
            for (b, (&mc, &ms)) in c.mean().iter().zip(s.mean()).enumerate() {
                assert!((mc - ms).abs() <= 1e-9 * ms.abs().max(1.0), "bin {b}: {mc} vs {ms}");
            }
        }
        let (tc, ts) = (compiled.max_abs_t1(), scalar.max_abs_t1());
        assert!((tc - ts).abs() <= 1e-9 * ts.abs().max(1.0), "max |t1| {tc} vs {ts}");
        if gm_obs::ENABLED {
            let repaired = obs.source.get("sim.sched.repair.lanes").unwrap_or(0);
            assert!(repaired > 0, "no lane diverged: the repair path went untested");
        }
    }
}
