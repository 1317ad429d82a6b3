//! Shared gate-level TVLA trace sources.
//!
//! The event-driven campaigns (`table1`, `fig15_gate` and the
//! benchmark's `table1-orders` and `fig15-placement` workloads) all
//! acquire traces the same way: a small gadget bank netlist, per-device
//! delay model, per-trace masked stimulus, switching-activity power. This
//! module holds the [`gm_leakage::TraceSource`] implementations so every
//! binary routes through the persistent-worker campaign machinery of
//! `gm-leakage::tvla` instead of hand-rolled acquisition loops.
//!
//! Both sources run on the compiled-schedule lane backend by default
//! ([`gm_sim::CompiledSchedule`] + [`gm_sim::SchedRunner`]): the stimulus
//! plan is fixed per campaign, so the event cascade is levelized once and
//! each [`TraceSource::trace_block`] call sweeps up to 64 traces per pass.
//! Lanes whose glitch activity diverges from the compiled superset are
//! re-run on the scalar wheel under the same per-trace seed, which keeps
//! every trace bit-identical to the `--scalar` reference backend. The
//! scalar constructors (`SequenceSource::scalar`, `PdPlacementSource::
//! scalar`) pin that reference path for A/B checks.

use gm_core::gadgets::sec_and2::build_sec_and2;
use gm_core::gadgets::sec_and2_pd::{build_sec_and2_pd, PdConfig};
use gm_core::gadgets::AndInputs;
use gm_core::schedule::{ArrivalSequence, InputShare};
use gm_core::{MaskRng, MaskedBit};
use gm_leakage::{Class, TraceSource, TvlaResult};
use gm_netlist::{GateKind, NetId, Netlist};
use gm_obs::Report;
use gm_sim::{
    CompiledSchedule, DelayModel, LaneBinTrace, LaneEnergy, MeasurementModel, PowerTrace,
    RepairQueue, SchedRunner, SimCore, SimGraph, LANES,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Clock period of the Table I arrival-sequence experiment, in ps.
pub const CYCLE_PS: u64 = 50_000;

/// The default per-trace block loop, kept callable so the scalar backend
/// of each source routes through the exact same code whether or not the
/// source overrides [`TraceSource::trace_block`].
fn scalar_block<S: TraceSource>(
    src: &mut S,
    labels: &[Class],
    fixed: &mut [f64],
    random: &mut [f64],
) -> (usize, usize) {
    let ns = src.num_samples();
    let (mut nf, mut nr) = (0usize, 0usize);
    for &class in labels {
        let (buf, row) = match class {
            Class::Fixed => (&mut *fixed, &mut nf),
            Class::Random => (&mut *random, &mut nr),
        };
        let start = *row * ns;
        src.trace(class, &mut buf[start..start + ns]);
        *row += 1;
    }
    (nf, nr)
}

/// A bank of replicated `secAND2` instances sharing four share inputs
/// (the paper's SNR trick).
pub struct SecAnd2Bank {
    /// The bank netlist.
    pub netlist: Netlist,
    /// Prebuilt simulation topology, shared read-only by all workers.
    pub graph: SimGraph,
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
    let graph = SimGraph::new(&n);
    SecAnd2Bank { netlist: n, graph, x0, x1, y0, y1 }
}

/// The bank input net carrying the given share (shared by every
/// experiment that drives a [`SecAnd2Bank`] in some arrival order).
pub fn bank_share_net(bank: &SecAnd2Bank, s: InputShare) -> NetId {
    match s {
        InputShare::X0 => bank.x0,
        InputShare::X1 => bank.x1,
        InputShare::Y0 => bank.y0,
        InputShare::Y1 => bank.y1,
    }
}

/// Table I trace source: drives the four shares into the bank in one
/// arrival order (one share per cycle) and bins switching power per cycle.
pub struct SequenceSource {
    bank: Arc<SecAnd2Bank>,
    delays: Arc<DelayModel>,
    seq: ArrivalSequence,
    mask_rng: MaskRng,
    val_rng: SmallRng,
    measurement: MeasurementModel,
    sim_seed: u64,
    /// Persistent event core over `bank.graph`, reset per trace (scalar
    /// backend and divergent-lane fallback).
    sim: SimCore,
    /// Persistent trace buffer, cleared per trace.
    trace: PowerTrace,
    /// Levelized stimulus cascade shared by all forks; `None` pins the
    /// scalar wheel.
    compiled: Option<Arc<CompiledSchedule>>,
    runner: SchedRunner,
    /// Persistent word-level binned sink, cleared per pass.
    lane_bins: LaneBinTrace,
    /// Deferred divergent-lane repair, drained once per pass (the
    /// measurement-noise stream is pinned in label order and the ADC
    /// chain is nonlinear in the noise, so bins must exist before the
    /// label loop samples them).
    repairs: RepairQueue,
    /// Repaired bins per lane slot (`lane * 4 ..`), filled by the drain.
    repair_bins: Vec<f64>,
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
        let stims: Vec<(NetId, u64)> = seq
            .iter()
            .enumerate()
            .map(|(cycle, &share)| (bank_share_net(&bank, share), cycle as u64 * CYCLE_PS + 1_000))
            .collect();
        let compiled = CompiledSchedule::compile(&bank.graph, &delays, &stims).map(Arc::new);
        Self::with_backend(bank, delays, seq, seed, compiled)
    }

    /// Build a source pinned to the scalar event wheel (`--scalar`).
    pub fn scalar(
        bank: Arc<SecAnd2Bank>,
        delays: Arc<DelayModel>,
        seq: ArrivalSequence,
        seed: u64,
    ) -> Self {
        Self::with_backend(bank, delays, seq, seed, None)
    }

    fn with_backend(
        bank: Arc<SecAnd2Bank>,
        delays: Arc<DelayModel>,
        seq: ArrivalSequence,
        seed: u64,
        compiled: Option<Arc<CompiledSchedule>>,
    ) -> Self {
        let sim = SimCore::new(&bank.graph, seed);
        let lane_bins = LaneBinTrace::new(0, CYCLE_PS, 4, bank.graph.weights());
        SequenceSource {
            sim,
            bank,
            delays,
            seq,
            mask_rng: MaskRng::new(seed),
            val_rng: SmallRng::seed_from_u64(seed ^ 0xf00d),
            measurement: MeasurementModel::new(1.0, 0.8, 16, seed ^ 0xabc),
            sim_seed: seed,
            trace: PowerTrace::new(0, CYCLE_PS, 4),
            compiled,
            runner: SchedRunner::new(),
            lane_bins,
            repairs: RepairQueue::new(),
            repair_bins: vec![0.0; 4 * LANES],
        }
    }

    /// The input net carrying the given share.
    pub fn share_net(&self, s: InputShare) -> NetId {
        bank_share_net(&self.bank, s)
    }
}

impl TraceSource for SequenceSource {
    fn fork(&self, stream: u64) -> Self {
        SequenceSource::with_backend(
            Arc::clone(&self.bank),
            Arc::clone(&self.delays),
            self.seq,
            self.sim_seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            self.compiled.clone(),
        )
    }

    fn num_samples(&self) -> usize {
        4
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        // Fixed class: x = 1, y = 1 (any fixed pair works); random class:
        // fresh random x, y. Shares always fresh-random.
        let (x, y) = match class {
            Class::Fixed => (true, true),
            Class::Random => (self.val_rng.random(), self.val_rng.random()),
        };
        let mx = MaskedBit::mask(x, &mut self.mask_rng);
        let my = MaskedBit::mask(y, &mut self.mask_rng);
        let value = |s: InputShare| match s {
            InputShare::X0 => mx.s0,
            InputShare::X1 => mx.s1,
            InputShare::Y0 => my.s0,
            InputShare::Y1 => my.s1,
        };

        self.sim_seed = self.sim_seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(11);
        self.sim.reset(&self.bank.graph, self.sim_seed);
        self.trace.clear();
        for (cycle, &share) in self.seq.iter().enumerate() {
            self.sim.schedule(self.share_net(share), cycle as u64 * CYCLE_PS + 1_000, value(share));
        }
        self.sim.run_until(&self.bank.graph, &self.delays, 4 * CYCLE_PS, &mut self.trace);
        self.measurement.sample_into(self.trace.samples(), out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let Some(sched) = self.compiled.clone() else {
            return scalar_block(self, labels, fixed, random);
        };
        let (mut nf, mut nr) = (0usize, 0usize);
        let mut start = 0usize;
        while start < labels.len() {
            let chunk = (labels.len() - start).min(LANES);
            // Draw the per-trace RNG streams in label order — identical to
            // the scalar path — while packing the lane words.
            let mut seeds = [0u64; LANES];
            let mut stim_values = [0u64; 4];
            for l in 0..chunk {
                let (x, y) = match labels[start + l] {
                    Class::Fixed => (true, true),
                    Class::Random => (self.val_rng.random(), self.val_rng.random()),
                };
                let mx = MaskedBit::mask(x, &mut self.mask_rng);
                let my = MaskedBit::mask(y, &mut self.mask_rng);
                self.sim_seed = self.sim_seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(11);
                seeds[l] = self.sim_seed;
                for (s, &share) in self.seq.iter().enumerate() {
                    let v = match share {
                        InputShare::X0 => mx.s0,
                        InputShare::X1 => mx.s1,
                        InputShare::Y0 => my.s0,
                        InputShare::Y1 => my.s1,
                    };
                    if v {
                        stim_values[s] |= 1 << l;
                    }
                }
            }
            self.lane_bins.clear();
            let div = self.runner.run_pass(
                &sched,
                &self.bank.graph,
                &self.delays,
                self.bank.graph.weights(),
                &seeds[..chunk],
                &stim_values,
                4 * CYCLE_PS,
                &mut self.lane_bins,
            );
            self.lane_bins.finish_pass();
            if div != 0 {
                // Deferred repair: queue every divergent lane of this
                // pass, then drain the batch in one hoisted span (the
                // rerun is a pure function of the ticket, so deferral
                // never changes a byte). Draining before the label loop
                // keeps the measurement-noise stream in label order.
                for (l, &seed) in seeds.iter().enumerate().take(chunk) {
                    if div >> l & 1 != 0 {
                        let mut sb = 0u32;
                        for (s, &v) in stim_values.iter().enumerate() {
                            sb |= ((v >> l & 1) as u32) << s;
                        }
                        self.repairs.push(seed, sb, l as u32);
                    }
                }
                let SequenceSource {
                    sim,
                    bank,
                    delays,
                    seq,
                    trace,
                    runner,
                    repairs,
                    repair_bins,
                    ..
                } = self;
                repairs.drain(&mut runner.stats, |t| {
                    sim.reset(&bank.graph, t.seed);
                    trace.clear();
                    for (cycle, &share) in seq.iter().enumerate() {
                        sim.schedule(
                            bank_share_net(bank, share),
                            cycle as u64 * CYCLE_PS + 1_000,
                            t.stim_bits >> cycle & 1 != 0,
                        );
                    }
                    sim.run_until(&bank.graph, delays, 4 * CYCLE_PS, trace);
                    repair_bins[t.slot as usize * 4..t.slot as usize * 4 + 4]
                        .copy_from_slice(trace.samples());
                });
            }
            let mut bins = [0.0f64; 4];
            for l in 0..chunk {
                if div >> l & 1 != 0 {
                    bins.copy_from_slice(&self.repair_bins[l * 4..l * 4 + 4]);
                } else {
                    self.lane_bins.lane_into(l, &mut bins);
                }
                // Measurement noise is drawn in label order, after the
                // pass — 4 draws per trace either way.
                let (buf, row) = match labels[start + l] {
                    Class::Fixed => (&mut *fixed, &mut nf),
                    Class::Random => (&mut *random, &mut nr),
                };
                self.measurement.sample_into(&bins, &mut buf[*row * 4..(*row + 1) * 4]);
                *row += 1;
            }
            start += chunk;
        }
        (nf, nr)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.sim.obs_report("sim", report);
        self.runner.obs_report("sim.sched", report);
        self.lane_bins.stats.report_into("sim.pack", report);
    }
}

/// A `secAND2-PD` gadget instance plus the bits needed to measure one
/// placement's first-order exposure (Fig. 15, gate level).
pub struct PdGadget {
    /// The gadget netlist.
    pub netlist: Netlist,
    /// Prebuilt simulation topology, shared read-only by all workers.
    pub graph: SimGraph,
    /// Share input nets.
    pub io: AndInputs,
    /// Simulation window covering the whole glitch train, in ps.
    pub window_ps: u64,
    /// Per-net toggle weights: core cells by area, delay lines and inputs
    /// excluded (the localized-probe view).
    pub weights: Vec<f64>,
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
    let graph = SimGraph::new(&n);
    PdGadget { netlist: n, graph, io, window_ps, weights }
}

/// Fig. 15 (gate level) trace source: one scalar sample per trace — the
/// gadget-core switching energy of a single evaluation with `x = 1` and
/// `y` decided by the TVLA class (`Fixed` ⇒ `y = 1`, `Random` ⇒ `y = 0`).
///
/// The class-mean difference of this source *is* the placement's
/// first-order exposure (see [`placement_bias`]); a placement that
/// preserves the safe arrival order shows none.
pub struct PdPlacementSource {
    gadget: Arc<PdGadget>,
    delays: Arc<DelayModel>,
    mask_rng: MaskRng,
    sim_seed: u64,
    /// Persistent event core over `gadget.graph`, reset per trace. Its
    /// per-net weights carry the localized-probe view (delay lines and
    /// inputs at 0), so the per-trace energy is accumulated directly in
    /// a [`gm_sim::power::CountingSink`] — no per-net count array.
    sim: SimCore,
    /// Levelized stimulus cascade shared by all forks; `None` pins the
    /// scalar wheel. The lane backend takes `gadget.weights` directly.
    compiled: Option<Arc<CompiledSchedule>>,
    runner: SchedRunner,
    /// Word-level (weight-class)-major energy accumulator, cleared per
    /// pass; converts to per-lane f64 once per pass.
    energy: LaneEnergy,
    /// Deferred divergent-lane tickets. Energies see no measurement
    /// noise, so repair can defer across *all* passes of a block and
    /// drain once — the slot encodes the destination row (bit 31 picks
    /// the fixed buffer).
    repairs: RepairQueue,
}

impl PdPlacementSource {
    /// Build a source for one placement (one sampled [`DelayModel`]) on
    /// the compiled-schedule backend.
    pub fn new(gadget: Arc<PdGadget>, delays: Arc<DelayModel>, seed: u64) -> Self {
        let io = gadget.io;
        let stims = [(io.x0, 1_000), (io.x1, 1_000), (io.y0, 1_000), (io.y1, 1_000)];
        let compiled = CompiledSchedule::compile(&gadget.graph, &delays, &stims).map(Arc::new);
        Self::with_backend(gadget, delays, seed, compiled)
    }

    /// Build a source pinned to the scalar event wheel (`--scalar`).
    pub fn scalar(gadget: Arc<PdGadget>, delays: Arc<DelayModel>, seed: u64) -> Self {
        Self::with_backend(gadget, delays, seed, None)
    }

    fn with_backend(
        gadget: Arc<PdGadget>,
        delays: Arc<DelayModel>,
        seed: u64,
        compiled: Option<Arc<CompiledSchedule>>,
    ) -> Self {
        let mut sim = SimCore::new(&gadget.graph, seed);
        for (i, &w) in gadget.weights.iter().enumerate() {
            sim.set_net_weight(NetId(i as u32), w);
        }
        let energy = LaneEnergy::new(&gadget.weights);
        PdPlacementSource {
            sim,
            gadget,
            delays,
            mask_rng: MaskRng::new(seed ^ 0x77),
            sim_seed: seed,
            compiled,
            runner: SchedRunner::new(),
            energy,
            repairs: RepairQueue::new(),
        }
    }
}

/// Scalar-wheel energy of one trace: the shared reference body for
/// [`TraceSource::trace`] and the divergent-lane fallback (a free
/// function so the fallback timer can hold the runner's stopwatch).
fn pd_scalar_energy(
    sim: &mut SimCore,
    gadget: &PdGadget,
    delays: &DelayModel,
    shares: [bool; 4],
    seed: u64,
) -> f64 {
    let io = gadget.io;
    sim.reset(&gadget.graph, seed);
    for (s, net) in [io.x0, io.x1, io.y0, io.y1].into_iter().enumerate() {
        // Inputs rest at the all-zero baseline; a `false` edge is a
        // no-op the engine would pop and discard (no rng draw, no
        // transition), so skipping it leaves the stream bit-identical.
        if shares[s] {
            sim.schedule(net, 1_000, true);
        }
    }
    let mut sink = gm_sim::power::CountingSink::default();
    sim.run_until(&gadget.graph, delays, gadget.window_ps, &mut sink);
    sink.weighted
}

impl TraceSource for PdPlacementSource {
    fn fork(&self, stream: u64) -> Self {
        PdPlacementSource::with_backend(
            Arc::clone(&self.gadget),
            Arc::clone(&self.delays),
            self.sim_seed ^ stream.wrapping_mul(0xd192_ed03_a4ab_f2ee),
            self.compiled.clone(),
        )
    }

    fn num_samples(&self) -> usize {
        1
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let y = class == Class::Fixed;
        let mx = MaskedBit::mask(true, &mut self.mask_rng);
        let my = MaskedBit::mask(y, &mut self.mask_rng);
        self.sim_seed = self.sim_seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(7);
        out[0] = pd_scalar_energy(
            &mut self.sim,
            &self.gadget,
            &self.delays,
            [mx.s0, mx.s1, my.s0, my.s1],
            self.sim_seed,
        );
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let Some(sched) = self.compiled.clone() else {
            return scalar_block(self, labels, fixed, random);
        };
        let (mut nf, mut nr) = (0usize, 0usize);
        let mut start = 0usize;
        while start < labels.len() {
            let chunk = (labels.len() - start).min(LANES);
            // Draw the per-trace RNG streams in label order — identical to
            // the scalar path — while packing the lane words.
            let mut seeds = [0u64; LANES];
            let mut stim_values = [0u64; 4];
            for l in 0..chunk {
                let y = labels[start + l] == Class::Fixed;
                let mx = MaskedBit::mask(true, &mut self.mask_rng);
                let my = MaskedBit::mask(y, &mut self.mask_rng);
                self.sim_seed = self.sim_seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(7);
                seeds[l] = self.sim_seed;
                for (s, v) in [mx.s0, mx.s1, my.s0, my.s1].into_iter().enumerate() {
                    if v {
                        stim_values[s] |= 1 << l;
                    }
                }
            }
            self.energy.clear();
            let div = self.runner.run_pass(
                &sched,
                &self.gadget.graph,
                &self.delays,
                &self.gadget.weights,
                &seeds[..chunk],
                &stim_values,
                self.gadget.window_ps,
                &mut self.energy,
            );
            let mut energies = [0.0f64; LANES];
            self.energy.energies_into(&mut energies);
            for l in 0..chunk {
                let (row, is_fixed) = match labels[start + l] {
                    Class::Fixed => {
                        nf += 1;
                        (nf - 1, true)
                    }
                    Class::Random => {
                        nr += 1;
                        (nr - 1, false)
                    }
                };
                if div >> l & 1 != 0 {
                    // Queue the repair; the drain below overwrites this
                    // row, so nothing is written yet.
                    let mut sb = 0u32;
                    for (s, &v) in stim_values.iter().enumerate() {
                        sb |= ((v >> l & 1) as u32) << s;
                    }
                    self.repairs.push(seeds[l], sb, row as u32 | u32::from(is_fixed) << 31);
                } else if is_fixed {
                    fixed[row] = energies[l];
                } else {
                    random[row] = energies[l];
                }
            }
            start += chunk;
        }
        // Energies carry no label-ordered downstream RNG (no measurement
        // noise), so the whole block's repairs drain in one batch.
        let PdPlacementSource { sim, gadget, delays, runner, repairs, .. } = self;
        repairs.drain(&mut runner.stats, |t| {
            let mut shares = [false; 4];
            for (s, sh) in shares.iter_mut().enumerate() {
                *sh = t.stim_bits >> s & 1 != 0;
            }
            let e = pd_scalar_energy(sim, gadget, delays, shares, t.seed);
            let row = (t.slot & !(1 << 31)) as usize;
            if t.slot >> 31 != 0 {
                fixed[row] = e;
            } else {
                random[row] = e;
            }
        });
        (nf, nr)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.sim.obs_report("sim", report);
        self.runner.obs_report("sim.sched", report);
        self.energy.stats.report_into("sim.pack", report);
    }
}

/// First-order exposure of a placement from an accumulated campaign: the
/// class-mean switching-energy difference `|E[power | y=1] − E[power | y=0]|`.
pub fn placement_bias(result: &TvlaResult) -> f64 {
    (result.fixed.mean()[0] - result.random.mean()[0]).abs()
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

    /// The recorded placement bias is a pure function of `(seed, traces,
    /// threads)`: the chunk quota split is deterministic and every
    /// worker forks its own device streams from its index, so repeating
    /// the identical campaign reproduces the bias bit-for-bit. Across
    /// *different* thread counts the per-worker streams regroup and the
    /// estimate moves within its `1/√N` sampling noise (documented in
    /// EXPERIMENTS.md), not a backend change.
    #[test]
    fn placement_bias_is_seed_stable() {
        let gadget = Arc::new(build_pd_gadget(2));
        let delays =
            Arc::new(DelayModel::with_variation(&gadget.netlist, 0.85, 400.0, 0x5eed ^ 2 << 8));
        let src = PdPlacementSource::new(Arc::clone(&gadget), Arc::clone(&delays), 7);
        for threads in [1usize, 3] {
            let campaign = Campaign { traces: 1_500, threads, seed: 42 };
            let b1 = placement_bias(&campaign.run(&src));
            let b2 = placement_bias(&campaign.run(&src));
            assert_eq!(
                b1.to_bits(),
                b2.to_bits(),
                "same campaign config must reproduce the bias exactly ({threads} threads)"
            );
        }
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
}
