//! TVLA trace sources for the masked DES cores.
//!
//! Two backends, both implementing [`gm_leakage::TraceSource`]:
//!
//! * [`CycleModelSource`] — the fast cycle-accurate model
//!   ([`crate::masked`] cores + [`crate::power::PowerModel`]): one sample
//!   per clock cycle, ~10⁴ traces/s/thread. Used for the large TVLA
//!   campaigns of Figs. 14, 15, 17.
//! * [`GateLevelSource`] — the event-driven gate-level netlist
//!   ([`crate::netlist_gen`]): glitches and (optionally) crosstalk arise
//!   from circuit timing alone. ~50 traces/s/thread; used for power-trace
//!   figures (13/16) and for cross-validating the cycle model.
//!
//! Both follow the paper's acquisition protocol: fixed key (re-masked
//! every operation), fixed-vs-random plaintext, 14 fresh bits per round.

use crate::masked::core_ff::CycleRecord;
use crate::masked::{BitslicedDes, MaskedDesFf, MaskedDesPd};
use crate::netlist_gen::driver::EncryptionInputs;
use crate::netlist_gen::{build_des_core, DesCoreNetlist, DesDriverCore, SboxStyle};
use crate::power::{CycleLaneCounters, GroupScratch, PdLeakModel, PowerModel};
use gm_core::bitslice::LANES;
use gm_core::MaskRng;
use gm_leakage::{Class, TraceSource};
use gm_obs::{Counter, Report};
use gm_sim::{CouplingModel, CouplingSink, DelayModel, MeasurementModel, PowerTrace, SimGraph};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Which masked core a source drives.
#[derive(Debug, Clone, Copy)]
pub enum CoreVariant {
    /// secAND2-FF core (7 cycles per round).
    Ff,
    /// secAND2-PD core with the given DelayUnit size.
    Pd {
        /// LUT-buffers per DelayUnit.
        unit_luts: usize,
    },
}

/// Configuration shared by both backends.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Core variant.
    pub variant: CoreVariant,
    /// The fixed DES key.
    pub key: u64,
    /// The fixed plaintext of the TVLA fixed class.
    pub fixed_pt: u64,
    /// Measurement-noise sigma (ADC counts per sample).
    pub noise_sigma: f64,
    /// `false` models the paper's "PRNG switched off" sanity check.
    pub prng_on: bool,
    /// Master seed.
    pub seed: u64,
}

impl SourceConfig {
    /// The paper's default evaluation setup for the given variant.
    pub fn new(variant: CoreVariant) -> Self {
        SourceConfig {
            variant,
            key: 0x133457799BBCDFF1,
            fixed_pt: 0x0123456789ABCDEF,
            noise_sigma: 12.0,
            prng_on: true,
            seed: 2023,
        }
    }
}

fn draw_pt(cfg: &SourceConfig, class: Class, rng: &mut SmallRng) -> u64 {
    match class {
        Class::Fixed => cfg.fixed_pt,
        Class::Random => rng.random(),
    }
}

fn mask_rng(cfg: &SourceConfig, stream: u64) -> MaskRng {
    if cfg.prng_on {
        MaskRng::new(cfg.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    } else {
        MaskRng::disabled()
    }
}

// ---------------------------------------------------------------------
// Cycle-model backend
// ---------------------------------------------------------------------

/// Fast TVLA source over the cycle-accurate cores.
pub struct CycleModelSource {
    cfg: SourceConfig,
    ff: Option<MaskedDesFf>,
    pd: Option<MaskedDesPd>,
    power: PowerModel,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    num_samples: usize,
    /// Reused per-trace cycle buffer (the acquisition path allocates
    /// nothing per trace).
    cycles_buf: Vec<crate::masked::core_ff::CycleRecord>,
}

impl CycleModelSource {
    /// Build a source; the PD variant derives its leak model from the
    /// DelayUnit size ([`PdLeakModel::with_unit_luts`]).
    pub fn new(cfg: SourceConfig) -> Self {
        Self::with_stream(cfg, 0)
    }

    /// Override the PD leak parameters (ablations: coupling off, etc.).
    pub fn with_pd_leak(cfg: SourceConfig, leak: PdLeakModel) -> Self {
        let mut s = Self::with_stream(cfg, 0);
        s.power = PowerModel::pd(leak, s.cfg.noise_sigma, s.cfg.seed);
        s
    }

    fn with_stream(cfg: SourceConfig, stream: u64) -> Self {
        let seed = cfg.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let (ff, pd, power, num_samples) = match cfg.variant {
            CoreVariant::Ff => (
                Some(MaskedDesFf::new(cfg.key)),
                None,
                PowerModel::ff(cfg.noise_sigma, seed),
                MaskedDesFf::TOTAL_CYCLES,
            ),
            CoreVariant::Pd { unit_luts } => (
                None,
                Some(MaskedDesPd::with_unit_luts(cfg.key, unit_luts)),
                PowerModel::pd(PdLeakModel::with_unit_luts(unit_luts), cfg.noise_sigma, seed),
                MaskedDesPd::TOTAL_CYCLES,
            ),
        };
        CycleModelSource {
            mask_rng: mask_rng(&cfg, stream),
            pt_rng: SmallRng::seed_from_u64(seed ^ 0x60be_e2be_e120_fc15),
            cfg,
            ff,
            pd,
            power,
            num_samples,
            cycles_buf: Vec::with_capacity(num_samples),
        }
    }
}

impl TraceSource for CycleModelSource {
    fn fork(&self, stream: u64) -> Self {
        let mut forked = Self::with_stream(self.cfg.clone(), stream.wrapping_add(1));
        forked.power.pd = self.power.pd;
        forked
    }

    fn num_samples(&self) -> usize {
        self.num_samples
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let pt = draw_pt(&self.cfg, class, &mut self.pt_rng);
        if let Some(ff) = &self.ff {
            ff.encrypt_with_cycles_into(pt, &mut self.mask_rng, &mut self.cycles_buf);
        } else {
            self.pd.as_ref().expect("one core set").encrypt_with_cycles_into(
                pt,
                &mut self.mask_rng,
                &mut self.cycles_buf,
            );
        }
        self.power.trace_into(&self.cycles_buf, out);
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
    }
}

// ---------------------------------------------------------------------
// Bitsliced cycle-model backend
// ---------------------------------------------------------------------

/// 64-way bitsliced TVLA source over the cycle-accurate cores.
///
/// Same device model, seed derivation, and per-stream RNG consumption
/// order as [`CycleModelSource`] — campaign statistics are
/// **bit-identical** — but the masked encryptions of a block run 64
/// lanes at a time through [`BitslicedDes`], and per-lane cycle records
/// come out of carry-save bit-plane counters ([`CycleLaneCounters`]).
///
/// Blocks run the lane-major tail: no [`CycleRecord`]s are materialised
/// ([`CycleLaneCounters::skip_records`]); the counters' sample-major count
/// planes feed [`PowerModel::trace_group_into`] (group-wide energy sweep,
/// blocked lane transpose, one bulk ziggurat noise tile) and each finished
/// lane row lands in the row-major class tile with a single copy —
/// lane-major from evaluator to moment state, DESIGN.md §2.13. Single
/// [`TraceSource::trace`] calls demux one lane's records through the
/// scalar [`PowerModel`]. The scalar [`CycleModelSource`] is the oracle:
/// the campaign tests below pin both against it bit for bit.
pub struct BitslicedCycleSource {
    cfg: SourceConfig,
    engine: BitslicedDes,
    is_ff: bool,
    power: PowerModel,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    num_samples: usize,
    counters: CycleLaneCounters,
    cycles_buf: Vec<CycleRecord>,
    pts_buf: Vec<u64>,
    group_scratch: GroupScratch,
    /// ≤64-lane groups run, and how many were partial (fewer labels than
    /// lanes: the tail chunk of a block, or single-trace calls).
    groups: Counter,
    groups_partial: Counter,
    lanes_used: Counter,
}

impl BitslicedCycleSource {
    /// Build a source; mirrors [`CycleModelSource::new`].
    pub fn new(cfg: SourceConfig) -> Self {
        Self::with_stream(cfg, 0)
    }

    /// Override the PD leak parameters (mirrors
    /// [`CycleModelSource::with_pd_leak`]).
    pub fn with_pd_leak(cfg: SourceConfig, leak: PdLeakModel) -> Self {
        let mut s = Self::with_stream(cfg, 0);
        s.power = PowerModel::pd(leak, s.cfg.noise_sigma, s.cfg.seed);
        s
    }

    fn with_stream(cfg: SourceConfig, stream: u64) -> Self {
        let seed = cfg.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let (is_ff, power, num_samples) = match cfg.variant {
            CoreVariant::Ff => {
                (true, PowerModel::ff(cfg.noise_sigma, seed), MaskedDesFf::TOTAL_CYCLES)
            }
            CoreVariant::Pd { unit_luts } => (
                false,
                PowerModel::pd(PdLeakModel::with_unit_luts(unit_luts), cfg.noise_sigma, seed),
                MaskedDesPd::TOTAL_CYCLES,
            ),
        };
        BitslicedCycleSource {
            engine: BitslicedDes::new(cfg.key),
            mask_rng: mask_rng(&cfg, stream),
            pt_rng: SmallRng::seed_from_u64(seed ^ 0x60be_e2be_e120_fc15),
            cfg,
            is_ff,
            power,
            num_samples,
            counters: CycleLaneCounters::new(),
            cycles_buf: Vec::with_capacity(num_samples),
            pts_buf: Vec::with_capacity(LANES),
            group_scratch: GroupScratch::new(),
            groups: Counter::new(),
            groups_partial: Counter::new(),
            lanes_used: Counter::new(),
        }
    }

    /// Run one ≤64-lane group through the engine.
    fn run_group(&mut self) {
        if gm_obs::ENABLED {
            let n = self.pts_buf.len() as u64;
            self.groups.inc();
            if n < LANES as u64 {
                self.groups_partial.inc();
            }
            self.lanes_used.add(n);
        }
        if self.is_ff {
            self.engine.encrypt_ff_group(&self.pts_buf, &mut self.mask_rng, &mut self.counters);
        } else {
            self.engine.encrypt_pd_group(&self.pts_buf, &mut self.mask_rng, &mut self.counters);
        }
    }
}

impl TraceSource for BitslicedCycleSource {
    fn fork(&self, stream: u64) -> Self {
        let mut forked = Self::with_stream(self.cfg.clone(), stream.wrapping_add(1));
        forked.power.pd = self.power.pd;
        forked
    }

    fn num_samples(&self) -> usize {
        self.num_samples
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        // A one-lane group consumes the same RNG stream as the scalar
        // path, so mixing single traces and blocks stays bit-identical.
        // Single traces always go through the record demux.
        self.counters.skip_records = false;
        self.pts_buf.clear();
        self.pts_buf.push(draw_pt(&self.cfg, class, &mut self.pt_rng));
        self.run_group();
        self.counters.lane_into(0, &mut self.cycles_buf);
        self.power.trace_into(&self.cycles_buf, out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        self.counters.skip_records = true;
        let ns = self.num_samples;
        let (mut nf, mut nr) = (0usize, 0usize);
        // Each finished lane trace is already a contiguous row (the group
        // power stage finishes traces in lane-major rows), so landing it
        // in the row-major class tile is one straight copy and the block
        // fold streams independent per-sample accumulator chains — the
        // layout the vectoriser can use without reassociating any
        // reduction (DESIGN.md §2.13).
        for chunk in labels.chunks(LANES) {
            self.pts_buf.clear();
            for &class in chunk {
                let pt = draw_pt(&self.cfg, class, &mut self.pt_rng);
                self.pts_buf.push(pt);
            }
            self.run_group();
            self.power.trace_group_into(
                &mut self.counters,
                chunk.len(),
                &mut self.group_scratch,
                |lane, trace| {
                    let (buf, row) = match chunk[lane] {
                        Class::Fixed => (&mut *fixed, &mut nf),
                        Class::Random => (&mut *random, &mut nr),
                    };
                    buf[*row * ns..][..ns].copy_from_slice(trace);
                    *row += 1;
                },
            );
        }
        (nf, nr)
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        report.set_nonzero("lanes.groups", self.groups.get());
        report.set_nonzero("lanes.groups_partial", self.groups_partial.get());
        report.set_nonzero("lanes.used", self.lanes_used.get());
        report.set_nonzero("lanes.idle", self.groups.get() * LANES as u64 - self.lanes_used.get());
        let c = &self.counters;
        report.set_nonzero(
            "slice.words",
            c.reg.obs_words() + c.comb.obs_words() + c.glitch.obs_words() + c.coupling.obs_words(),
        );
        report.set_nonzero(
            "slice.transposes",
            c.reg.obs_transposes()
                + c.comb.obs_transposes()
                + c.glitch.obs_transposes()
                + c.coupling.obs_transposes(),
        );
        report.set_nonzero(
            "slice.segments",
            c.reg.obs_segments()
                + c.comb.obs_segments()
                + c.glitch.obs_segments()
                + c.coupling.obs_segments(),
        );
    }
}

/// Cycle-model source with a selectable backend: the 64-way bitsliced
/// engine (default) or the scalar reference (`--scalar` in the bench
/// binaries). Both produce bit-identical campaign statistics; the enum
/// lets every cycle-model campaign switch at run time.
// One long-lived instance per campaign worker, so the size gap between
// the variants (the bitsliced engine's inline lane buffers) costs
// nothing — boxing would only add a pointer chase to the trace path.
#[allow(clippy::large_enum_variant)]
pub enum AnyCycleSource {
    /// Scalar reference path ([`CycleModelSource`]).
    Scalar(CycleModelSource),
    /// 64-lane bitsliced path ([`BitslicedCycleSource`]).
    Bitsliced(BitslicedCycleSource),
}

impl AnyCycleSource {
    /// Build the chosen backend for a configuration.
    pub fn new(cfg: SourceConfig, scalar: bool) -> Self {
        if scalar {
            AnyCycleSource::Scalar(CycleModelSource::new(cfg))
        } else {
            AnyCycleSource::Bitsliced(BitslicedCycleSource::new(cfg))
        }
    }

    /// Build the chosen backend with overridden PD leak parameters.
    pub fn with_pd_leak(cfg: SourceConfig, leak: PdLeakModel, scalar: bool) -> Self {
        if scalar {
            AnyCycleSource::Scalar(CycleModelSource::with_pd_leak(cfg, leak))
        } else {
            AnyCycleSource::Bitsliced(BitslicedCycleSource::with_pd_leak(cfg, leak))
        }
    }

    /// Short name for bench records.
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyCycleSource::Scalar(_) => "scalar",
            AnyCycleSource::Bitsliced(_) => "bitsliced",
        }
    }
}

impl TraceSource for AnyCycleSource {
    fn fork(&self, stream: u64) -> Self {
        match self {
            AnyCycleSource::Scalar(s) => AnyCycleSource::Scalar(s.fork(stream)),
            AnyCycleSource::Bitsliced(s) => AnyCycleSource::Bitsliced(s.fork(stream)),
        }
    }

    fn num_samples(&self) -> usize {
        match self {
            AnyCycleSource::Scalar(s) => s.num_samples(),
            AnyCycleSource::Bitsliced(s) => s.num_samples(),
        }
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        match self {
            AnyCycleSource::Scalar(s) => s.trace(class, out),
            AnyCycleSource::Bitsliced(s) => s.trace(class, out),
        }
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        match self {
            AnyCycleSource::Scalar(s) => s.trace_block(labels, fixed, random),
            AnyCycleSource::Bitsliced(s) => s.trace_block(labels, fixed, random),
        }
    }

    fn obs_report(&self, report: &mut Report) {
        match self {
            AnyCycleSource::Scalar(s) => s.obs_report(report),
            AnyCycleSource::Bitsliced(s) => s.obs_report(report),
        }
    }
}

// ---------------------------------------------------------------------
// Gate-level backend
// ---------------------------------------------------------------------

/// Per-worker persistent acquisition sink: the power trace, optionally
/// wrapped in a crosstalk model. Cleared (not reallocated) per trace.
enum GateSink {
    Plain(PowerTrace),
    Coupled(CouplingSink<PowerTrace>),
}

impl GateSink {
    fn trace(&self) -> &PowerTrace {
        match self {
            GateSink::Plain(t) => t,
            GateSink::Coupled(s) => s.inner(),
        }
    }

    /// Forget the previous trace: zero the bins and (for the coupled
    /// variant) the crosstalk edge history.
    fn clear(&mut self) {
        match self {
            GateSink::Plain(t) => t.clear(),
            GateSink::Coupled(s) => {
                s.reset();
                s.inner_mut().clear();
            }
        }
    }
}

/// Glitch-accurate TVLA source over the generated netlists.
///
/// Every worker (fork) owns a persistent [`DesDriverCore`] and sink over
/// the shared, read-only [`SimGraph`]; per trace the driver is
/// [`DesDriverCore::reset`] with the next seed of the worker's seed
/// chain, which is bit-identical to the old construct-per-trace path but
/// skips the graph build, the baseline settle and every allocation.
pub struct GateLevelSource {
    cfg: SourceConfig,
    core: Arc<DesCoreNetlist>,
    graph: Arc<SimGraph>,
    delays: Arc<DelayModel>,
    coupling: Option<Arc<CouplingModel>>,
    period_ps: u64,
    bins_per_cycle: usize,
    measurement: MeasurementModel,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    driver_seed: u64,
    driver: DesDriverCore,
    sink: GateSink,
}

impl GateLevelSource {
    /// Build the netlist and its delay model. `coupling_k` (in toggle
    /// weights) attaches a Miller-coupling model to the PD delay lines;
    /// pass 0.0 to disable crosstalk.
    pub fn new(cfg: SourceConfig, bins_per_cycle: usize, coupling_k: f64) -> Self {
        let style = match cfg.variant {
            CoreVariant::Ff => SboxStyle::Ff,
            CoreVariant::Pd { unit_luts } => SboxStyle::Pd { unit_luts },
        };
        let core = build_des_core(style);
        let timing = gm_netlist::timing::analyze(&core.netlist).expect("core validates");
        // 20% clock margin over the critical path.
        let period_ps = timing.critical_path_ps * 6 / 5;
        let delays = DelayModel::with_variation(&core.netlist, 0.15, 40.0, cfg.seed ^ 0xdead);
        let coupling = (coupling_k > 0.0 && !core.coupled_pairs.is_empty()).then(|| {
            let mut cm = CouplingModel::new(600);
            for &(a, b) in &core.coupled_pairs {
                cm.add_pair(a, b, coupling_k);
            }
            Arc::new(cm)
        });
        let graph = SimGraph::new(&core.netlist);
        let cycles = crate::netlist_gen::driver::total_cycles(core.style);
        let num_samples = cycles * bins_per_cycle;
        let bin_ps = period_ps / bins_per_cycle as u64;
        let trace = PowerTrace::new(0, bin_ps, num_samples);
        let sink = match &coupling {
            Some(cm) => GateSink::Coupled(cm.sink(trace)),
            None => GateSink::Plain(trace),
        };
        let driver_seed = cfg.seed ^ 1;
        GateLevelSource {
            measurement: MeasurementModel::new(1.0, cfg.noise_sigma, 18, cfg.seed ^ 0xbeef),
            mask_rng: mask_rng(&cfg, 0),
            pt_rng: SmallRng::seed_from_u64(cfg.seed ^ 0x7c15_8f0d),
            driver: DesDriverCore::new(core.style, &graph, period_ps, driver_seed),
            driver_seed,
            cfg,
            core: Arc::new(core),
            graph: Arc::new(graph),
            delays: Arc::new(delays),
            coupling,
            period_ps,
            bins_per_cycle,
            sink,
        }
    }

    /// Clock period used by the simulation.
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    fn cycles(&self) -> usize {
        crate::netlist_gen::driver::total_cycles(self.core.style)
    }
}

impl TraceSource for GateLevelSource {
    fn fork(&self, stream: u64) -> Self {
        let driver_seed = self.cfg.seed ^ stream.wrapping_mul(0xd192_ed03);
        let bin_ps = self.period_ps / self.bins_per_cycle as u64;
        let trace = PowerTrace::new(0, bin_ps, self.num_samples());
        let sink = match &self.coupling {
            Some(cm) => GateSink::Coupled(cm.sink(trace)),
            None => GateSink::Plain(trace),
        };
        GateLevelSource {
            cfg: self.cfg.clone(),
            core: Arc::clone(&self.core),
            graph: Arc::clone(&self.graph),
            delays: Arc::clone(&self.delays),
            coupling: self.coupling.clone(),
            period_ps: self.period_ps,
            bins_per_cycle: self.bins_per_cycle,
            measurement: MeasurementModel::new(
                1.0,
                self.cfg.noise_sigma,
                18,
                self.cfg.seed ^ 0xbeef ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d),
            ),
            mask_rng: mask_rng(&self.cfg, stream.wrapping_add(17)),
            pt_rng: SmallRng::seed_from_u64(
                self.cfg.seed ^ 0x7c15_8f0d ^ stream.wrapping_mul(0x9e37_79b9),
            ),
            driver: DesDriverCore::new(self.core.style, &self.graph, self.period_ps, driver_seed),
            driver_seed,
            sink,
        }
    }

    fn num_samples(&self) -> usize {
        self.cycles() * self.bins_per_cycle
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let pt = draw_pt(&self.cfg, class, &mut self.pt_rng);
        let inputs = EncryptionInputs::draw(pt, self.cfg.key, &mut self.mask_rng);
        self.driver_seed = self.driver_seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        self.driver.reset(&self.graph, self.driver_seed);
        self.sink.clear();
        match &mut self.sink {
            GateSink::Plain(t) => {
                let _ = self.driver.encrypt(&self.core, &self.graph, &self.delays, &inputs, t);
            }
            GateSink::Coupled(s) => {
                let _ = self.driver.encrypt(&self.core, &self.graph, &self.delays, &inputs, s);
            }
        }
        for (o, &s) in out.iter_mut().zip(self.sink.trace().samples()) {
            *o = self.measurement.sample(s);
        }
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.driver.sim().obs_report("sim", report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_leakage::Campaign;

    #[test]
    fn cycle_model_source_runs() {
        let src = CycleModelSource::new(SourceConfig::new(CoreVariant::Ff));
        assert_eq!(src.num_samples(), 115);
        let r = Campaign::sequential(200, 1).run(&src);
        assert_eq!(r.total_traces(), 200);
    }

    #[test]
    fn prng_off_leaks_fast_in_cycle_model() {
        let mut cfg = SourceConfig::new(CoreVariant::Ff);
        cfg.prng_on = false;
        let src = CycleModelSource::new(cfg);
        let r = Campaign::sequential(3_000, 2).run(&src);
        assert!(r.max_abs_t1() > 4.5, "PRNG off must flag quickly: max|t1| = {}", r.max_abs_t1());
    }

    #[test]
    fn prng_on_ff_is_clean_at_small_n() {
        let src = CycleModelSource::new(SourceConfig::new(CoreVariant::Ff));
        let r = Campaign::sequential(3_000, 3).run(&src);
        assert!(
            r.max_abs_t1() < 6.0,
            "masked FF core should show no strong first-order leak: {}",
            r.max_abs_t1()
        );
    }

    /// The bitsliced backend must be *bit-identical* to the scalar one
    /// over a whole sequential campaign (labels spanning many 64-lane
    /// groups plus a partial tail), for both cores.
    #[test]
    fn bitsliced_campaign_bit_identical_to_scalar() {
        for variant in [CoreVariant::Ff, CoreVariant::Pd { unit_luts: 10 }] {
            let cfg = SourceConfig::new(variant);
            // 700 traces: two full 256-trace blocks + a 188-trace block,
            // whose last 64-lane chunk is partial.
            let campaign = Campaign::sequential(700, 9);
            let scalar = campaign.run(&CycleModelSource::new(cfg.clone()));
            let bitsliced = campaign.run(&BitslicedCycleSource::new(cfg));
            assert_eq!(scalar.fixed.count(), bitsliced.fixed.count());
            assert_eq!(scalar.t1(), bitsliced.t1(), "{variant:?} t1");
            assert_eq!(scalar.t2(), bitsliced.t2(), "{variant:?} t2");
            assert_eq!(scalar.t3(), bitsliced.t3(), "{variant:?} t3");
        }
    }

    /// Fig. 14 golden check: the full *parallel* campaign pipeline
    /// (persistent worker pool, per-worker source forks, blocked moment
    /// merge) reports the same `max|t1|` on both backends to 1e-9,
    /// pinned here at test size.
    #[test]
    fn fig14_parallel_max_t1_matches_scalar_golden() {
        let cfg = SourceConfig::new(CoreVariant::Ff);
        let campaign = Campaign { traces: 2_000, threads: 4, seed: 33 };
        let scalar = campaign.run(&AnyCycleSource::new(cfg.clone(), true));
        let bitsliced = campaign.run(&AnyCycleSource::new(cfg, false));
        assert!(
            (scalar.max_abs_t1() - bitsliced.max_abs_t1()).abs() < 1e-9,
            "fig14 max|t1| differs: scalar {} vs bitsliced {}",
            scalar.max_abs_t1(),
            bitsliced.max_abs_t1()
        );
    }

    /// Forwards only [`TraceSource::trace`], so the default
    /// `trace_block` acquires every trace as a one-lane group through the
    /// per-lane record demux and the scalar [`PowerModel`].
    struct PerTrace(BitslicedCycleSource);

    impl TraceSource for PerTrace {
        fn fork(&self, stream: u64) -> Self {
            PerTrace(self.0.fork(stream))
        }

        fn num_samples(&self) -> usize {
            self.0.num_samples()
        }

        fn trace(&mut self, class: Class, out: &mut [f64]) {
            self.0.trace(class, out)
        }
    }

    /// The lane-major block tail must be *bit-identical* to the scalar
    /// per-lane tail (record demux into the scalar power model) over whole
    /// sequential campaigns — partial tail groups included — for both
    /// cores. Unlike the comparison against [`CycleModelSource`], both
    /// sides run the same bitsliced engine, so a divergence here is the
    /// tail's alone.
    #[test]
    fn wide_moments_campaign_bit_identical_to_scalar_tail() {
        for variant in [CoreVariant::Ff, CoreVariant::Pd { unit_luts: 10 }] {
            let cfg = SourceConfig::new(variant);
            let campaign = Campaign::sequential(700, 9);
            let narrow = campaign.run(&PerTrace(BitslicedCycleSource::new(cfg.clone())));
            let wide = campaign.run(&BitslicedCycleSource::new(cfg));
            assert_eq!(narrow.fixed.count(), wide.fixed.count());
            assert_eq!(narrow.t1(), wide.t1(), "{variant:?} t1");
            assert_eq!(narrow.t2(), wide.t2(), "{variant:?} t2");
            assert_eq!(narrow.t3(), wide.t3(), "{variant:?} t3");
        }
    }

    /// Fig. 14-shaped campaign agreement through the full parallel
    /// pipeline: the bitsliced source fed one trace at a time
    /// ([`PerTrace`]) and block-wise both match the scalar reference
    /// backend's max|t1| and max|t2| to 1e-9.
    #[test]
    fn fig14_parallel_agreement_under_both_moment_kernels() {
        let cfg = SourceConfig::new(CoreVariant::Ff);
        let campaign = Campaign { traces: 2_000, threads: 4, seed: 33 };
        let scalar = campaign.run(&CycleModelSource::new(cfg.clone()));
        let narrow = campaign.run(&PerTrace(BitslicedCycleSource::new(cfg.clone())));
        let wide = campaign.run(&BitslicedCycleSource::new(cfg));
        for (tail, r) in [("narrow", narrow), ("wide", wide)] {
            assert!(
                (scalar.max_abs_t1() - r.max_abs_t1()).abs() < 1e-9,
                "{tail}: max|t1| {} vs scalar {}",
                r.max_abs_t1(),
                scalar.max_abs_t1()
            );
            assert!(
                (scalar.max_abs_t(2) - r.max_abs_t(2)).abs() < 1e-9,
                "{tail}: max|t2| {} vs scalar {}",
                r.max_abs_t(2),
                scalar.max_abs_t(2)
            );
        }
    }

    /// The PD leak override propagates through forks identically on both
    /// backends (the Fig. 17 ablation path).
    #[test]
    fn bitsliced_pd_leak_override_matches_scalar() {
        let cfg = SourceConfig::new(CoreVariant::Pd { unit_luts: 10 });
        let leak = PdLeakModel { order_violation_prob: 0.0, glitch_gain: 0.0, coupling_eps: 0.0 };
        let campaign = Campaign::sequential(300, 17);
        let scalar = campaign.run(&AnyCycleSource::with_pd_leak(cfg.clone(), leak, true));
        let bitsliced = campaign.run(&AnyCycleSource::with_pd_leak(cfg, leak, false));
        assert_eq!(scalar.t1(), bitsliced.t1());
    }

    #[test]
    fn gate_level_source_runs_and_forks() {
        let src = GateLevelSource::new(SourceConfig::new(CoreVariant::Ff), 1, 0.0);
        let mut forked = src.fork(1);
        let mut buf = vec![0.0; src.num_samples()];
        forked.trace(Class::Fixed, &mut buf);
        assert!(buf.iter().any(|&s| s > 0.0), "power trace must be non-trivial");
    }

    /// Source observability: the observed campaign surfaces RNG draw
    /// counts, bitsliced lane utilisation, and gate-sim event censuses.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn source_obs_reports_populate() {
        // Bitsliced cycle model: 100 traces = one partial block of
        // two 64/36-lane groups (the second partial).
        let cfg = SourceConfig::new(CoreVariant::Ff);
        let (r, obs) =
            Campaign::sequential(100, 4).run_observed(&BitslicedCycleSource::new(cfg.clone()));
        assert_eq!(r.total_traces(), 100);
        let src = &obs.source;
        assert_eq!(src.get("lanes.groups"), Some(2));
        assert_eq!(src.get("lanes.groups_partial"), Some(1));
        assert_eq!(src.get("lanes.used"), Some(100));
        assert_eq!(src.get("lanes.idle"), Some(28));
        assert!(src.get("rng.mask_words").unwrap_or(0) > 0, "masking RNG must be drawn");
        assert!(src.get("slice.words").unwrap_or(0) > 0);
        assert!(src.get("slice.transposes").unwrap_or(0) > 0);

        // Scalar cycle model: only the RNG counter.
        let (_, obs) = Campaign::sequential(10, 4).run_observed(&CycleModelSource::new(cfg));
        assert!(obs.source.get("rng.mask_words").unwrap_or(0) > 0);
        assert_eq!(obs.source.get("lanes.groups"), None);

        // Gate level: simulator event census shows up under sim.*.
        let gate = GateLevelSource::new(SourceConfig::new(CoreVariant::Ff), 1, 0.0);
        let (_, obs) = Campaign::sequential(4, 4).run_observed(&gate);
        let src = &obs.source;
        assert!(src.get("sim.events").unwrap_or(0) > 0, "gate sim pops events");
        assert!(src.get("sim.transitions").unwrap_or(0) > 0);
        assert!(src.get("sim.resets").unwrap_or(0) >= 4, "one reset per trace");
        assert!(
            src.iter().any(|(k, _)| k.starts_with("sim.toggle.")),
            "per-gate-class census present"
        );
        assert!(src.iter().any(|(k, _)| k.starts_with("sim.wheel.")), "wheel stats present");
    }

    /// FNV-1a over the bits of both classes' moment state: count, every
    /// mean and every central sum of orders 2–6.
    fn moment_bits(r: &gm_leakage::TvlaResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for m in [&r.fixed, &r.random] {
            eat(m.count());
            for i in 0..m.len() {
                eat(m.mean()[i].to_bits());
                for p in 2..=6 {
                    eat(m.central_sum(p, i).to_bits());
                }
            }
        }
        h
    }

    /// Bit pin of the cycle-model statistics path: noise draw, block fold
    /// and Pébay merge. The other campaign tests compare two backends
    /// that share [`gm_leakage::TraceMoments`], so a kernel change that
    /// moves one bit of the moment state on both sides passes them; this
    /// one fails. The constants were recorded before the blocked kernels
    /// replaced the per-sample loops and must never be re-recorded to
    /// make a kernel change pass.
    #[test]
    fn cycle_model_moment_state_is_bit_pinned() {
        let ff = SourceConfig::new(CoreVariant::Ff);
        let pd = SourceConfig::new(CoreVariant::Pd { unit_luts: 10 });
        let seq = Campaign::sequential(700, 9);
        let got_ff = moment_bits(&seq.run(&BitslicedCycleSource::new(ff)));
        let got_pd = moment_bits(&seq.run(&BitslicedCycleSource::new(pd.clone())));
        let streamed = Campaign { traces: 700, threads: 2, seed: 9 };
        let (r, _) = streamed.run_streamed_observed(&BitslicedCycleSource::new(pd), 100, |_| {});
        let got_stream = moment_bits(&r);
        assert_eq!(
            [got_ff, got_pd, got_stream],
            [0x52ce_caef_3121_7bb8, 0x9420_0ac6_70a5_9bfa, 0x4c12_d778_fbe8_15f5],
            "moment-state bits moved: {got_ff:#018x} {got_pd:#018x} {got_stream:#018x}"
        );
    }

    /// Gate-level campaigns at threads = 1 are bit-reproducible: the
    /// persistent per-worker driver/sink state must not leak anything
    /// from one run into the next (each `run` re-forks the source).
    #[test]
    fn gate_level_threads1_bit_reproducible() {
        let src = GateLevelSource::new(SourceConfig::new(CoreVariant::Pd { unit_luts: 1 }), 1, 0.4);
        let r1 = Campaign::sequential(24, 5).run(&src);
        let r2 = Campaign::sequential(24, 5).run(&src);
        assert_eq!(r1.total_traces(), r2.total_traces());
        assert_eq!(r1.t1(), r2.t1(), "sequential campaign must replay bit-identically");
    }
}
