//! The four workloads: their set-up, one campaign round, and the
//! correctness checks against the scalar oracles.

use crate::stats::{median, result_digest, Digest};
use gm_bench::gate::{
    build_pd_gadget, build_sec_and2_bank, placement_bias, PdGadget, PdPlacementSource, SecAnd2Bank,
    SequenceSource,
};
use gm_core::schedule::{all_sequences, predicted_leaky, ArrivalSequence};
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, SourceConfig};
use gm_leakage::{leaks, Campaign, CampaignObs, TraceSource, TvlaResult};
use gm_sim::DelayModel;
use std::sync::Arc;
use std::time::Instant;

/// Timed set-up repetitions before the first round, and before every
/// round after it; `setup_s` is the median over all of them, so it
/// samples the whole run as the throughput does.
pub const SETUP_REPS: usize = 21;
pub const SETUP_REPS_PER_ROUND: usize = 5;
/// Seed of the simulated devices: the sampled delays of the Table I bank
/// and of the Fig. 15 placement. They are part of the workload, like the
/// DES key, so `--seed` changes the inputs (stimuli, masks, noise) but
/// never the device, whose divergence rate sets the gate-level work.
const DEVICE_SEED: u64 = 2023;
/// Traces of a cycle workload checked bit-for-bit against the scalar
/// `CycleModelSource` oracle.
pub const CYCLE_ORACLE_TRACES: u64 = 16_384;
/// Traces of the placement campaign checked against the scalar wheel.
pub const PLACEMENT_ORACLE_TRACES: u64 = 262_144;
/// Progress cadence of the streamed workload, in traces.
pub const STREAM_EVERY: u64 = 4_096;
/// DelayUnit size of the Fig. 15 placement (the `bench_gate` config).
const PLACEMENT_UNIT_LUTS: usize = 3;
/// Parallel `secAND2` replicas of the Table I bank.
const TABLE1_REPLICAS: usize = 8;
/// Leaky arrival orders in Table I (x₀ or x₁ last).
const TABLE1_LEAKY: usize = 12;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 14: cycle-model secAND2-FF DES, one thread, `Campaign::run`.
    Fig14Ff,
    /// Fig. 17: cycle-model secAND2-PD DES (10-LUT units), two threads,
    /// streamed convergence snapshots.
    Fig17PdStream,
    /// Table I: all 24 arrival orders on the 8-replica `secAND2` bank.
    Table1Orders,
    /// Fig. 15: the 3-LUT `secAND2-PD` placement campaign.
    Fig15Placement,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig14Ff,
        Workload::Fig17PdStream,
        Workload::Table1Orders,
        Workload::Fig15Placement,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig14Ff => "fig14-ff",
            Workload::Fig17PdStream => "fig17-pd-stream",
            Workload::Table1Orders => "table1-orders",
            Workload::Fig15Placement => "fig15-placement",
        }
    }

    /// The workload of a name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Campaign worker threads.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig17PdStream => 2,
            _ => 1,
        }
    }

    /// Traces per campaign (per arrival order for Table I). The full
    /// sizes take about 0.5–1 s per round on a 2-vCPU Xeon: short rounds
    /// keep the host-speed probes on either side of a round close to the
    /// host speed during it, and halving them from 1–2 s halved the
    /// run-to-run spread of `throughput_tps`. `quick` sizes are for the
    /// smoke test. The two-thread campaign stays long enough (~0.2 s)
    /// that thread start-up is a small share of the wall time the
    /// layer-gap check holds it to.
    pub fn traces(self, quick: bool) -> u64 {
        match (self, quick) {
            (Workload::Fig14Ff, false) => 250_000,
            (Workload::Fig14Ff, true) => 16_384,
            (Workload::Fig17PdStream, false) => 500_000,
            (Workload::Fig17PdStream, true) => 131_072,
            (Workload::Table1Orders, false) => 25_000,
            (Workload::Table1Orders, true) => 4_096,
            (Workload::Fig15Placement, false) => 3_000_000,
            (Workload::Fig15Placement, true) => 262_144,
        }
    }

    /// Builds summed into one set-up sample, so a sample lasts tens of
    /// microseconds or more: a cycle source builds in well under a
    /// microsecond, close to the clock's own cost and resolution.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::Fig14Ff | Workload::Fig17PdStream => 256,
            Workload::Fig15Placement => 8,
            Workload::Table1Orders => 1,
        }
    }

    /// Campaigns per round.
    pub fn campaigns(self) -> usize {
        match self {
            Workload::Table1Orders => 24,
            _ => 1,
        }
    }

    /// Whether the workload runs the bitsliced cycle model (as opposed
    /// to the gate-level sources).
    pub fn is_cycle(self) -> bool {
        matches!(self, Workload::Fig14Ff | Workload::Fig17PdStream)
    }

    /// The paper's default source configuration of a cycle workload.
    pub fn cycle_config(self, seed: u64) -> SourceConfig {
        let variant = match self {
            Workload::Fig17PdStream => CoreVariant::Pd { unit_luts: 10 },
            _ => CoreVariant::Ff,
        };
        let mut cfg = SourceConfig::new(variant);
        cfg.seed = seed;
        cfg
    }

    /// Campaign `i` of a round.
    pub fn campaign(self, traces: u64, seed: u64, i: usize) -> Campaign {
        Campaign { traces, threads: self.threads(), seed: seed ^ i as u64 }
    }
}

/// The Table I bank with its sampled delays, and the 24 orders.
pub struct Orders {
    pub bank: Arc<SecAnd2Bank>,
    pub delays: Arc<DelayModel>,
    pub seqs: Vec<ArrivalSequence>,
}

/// The Fig. 15 gadget with its sampled placement delays.
pub struct Placement {
    pub gadget: Arc<PdGadget>,
    pub delays: Arc<DelayModel>,
}

/// Everything a workload builds before its first trace.
pub enum Built {
    Cycle(SourceConfig, Vec<AnyCycleSource>),
    Orders(Orders, Vec<SequenceSource>),
    Placement(Placement, Vec<PdPlacementSource>),
}

/// Build a workload once; returns it with the seconds spent on netlist
/// and delay construction and on source construction (schedule
/// compilation included).
pub fn build(w: Workload, seed: u64) -> (Built, f64, f64) {
    let t0 = Instant::now();
    match w {
        Workload::Fig14Ff | Workload::Fig17PdStream => {
            let cfg = w.cycle_config(seed);
            let src = AnyCycleSource::new(cfg.clone(), false);
            (Built::Cycle(cfg, vec![src]), 0.0, t0.elapsed().as_secs_f64())
        }
        Workload::Table1Orders => {
            let bank = Arc::new(build_sec_and2_bank(TABLE1_REPLICAS));
            let delays = Arc::new(DelayModel::with_variation(
                &bank.netlist,
                0.15,
                40.0,
                DEVICE_SEED ^ 0x7a51,
            ));
            let netlist_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let seqs = all_sequences();
            let srcs = seqs
                .iter()
                .map(|&seq| SequenceSource::new(Arc::clone(&bank), Arc::clone(&delays), seq, seed))
                .collect();
            let source_s = t1.elapsed().as_secs_f64();
            (Built::Orders(Orders { bank, delays, seqs }, srcs), netlist_s, source_s)
        }
        Workload::Fig15Placement => {
            let gadget = Arc::new(build_pd_gadget(PLACEMENT_UNIT_LUTS));
            let delays = Arc::new(DelayModel::with_variation(
                &gadget.netlist,
                0.85,
                400.0,
                DEVICE_SEED ^ (PLACEMENT_UNIT_LUTS as u64) << 8,
            ));
            let netlist_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let src = PdPlacementSource::new(Arc::clone(&gadget), Arc::clone(&delays), seed);
            let source_s = t1.elapsed().as_secs_f64();
            (Built::Placement(Placement { gadget, delays }, vec![src]), netlist_s, source_s)
        }
    }
}

/// Every timed set-up sample of a run, in seconds per build: whole,
/// netlist part, source part.
#[derive(Debug, Default)]
pub struct SetupTimes {
    totals: Vec<f64>,
    netlists: Vec<f64>,
    sources: Vec<f64>,
}

impl SetupTimes {
    /// Take `reps` samples (at least one), each the mean of
    /// [`Workload::setup_batch`] timed builds; returns the last build.
    pub fn time(&mut self, w: Workload, seed: u64, reps: usize) -> Built {
        let mut last = None;
        let batch = w.setup_batch();
        for _ in 0..reps.max(1) {
            let (mut total, mut netlist, mut source) = (0.0, 0.0, 0.0);
            for _ in 0..batch {
                // Drop the previous build first (untimed) so every build
                // allocates from the same heap state.
                drop(last.take());
                let t = Instant::now();
                let (built, netlist_s, source_s) = build(w, seed);
                total += t.elapsed().as_secs_f64();
                netlist += netlist_s;
                source += source_s;
                last = Some(built);
            }
            let n = batch as f64;
            self.totals.push(total / n);
            self.netlists.push(netlist / n);
            self.sources.push(source / n);
        }
        last.expect("at least one build")
    }

    /// Median seconds of the whole set-up.
    pub fn setup_s(&self) -> f64 {
        median(&self.totals)
    }

    /// Median seconds of netlist and delay construction.
    pub fn netlist_s(&self) -> f64 {
        median(&self.netlists)
    }

    /// Median seconds of source construction.
    pub fn source_s(&self) -> f64 {
        median(&self.sources)
    }
}

/// One round: every campaign of the workload, then its t-test.
pub struct Round {
    /// Host seconds of the whole round (campaigns and t-tests).
    pub round_s: f64,
    /// Host seconds inside the campaign entry points only.
    pub campaign_s: f64,
    /// Host seconds of the end-of-campaign t-tests.
    pub ttest_s: f64,
    /// Digest of every campaign's final moment state, in order.
    pub digest: String,
    /// First-order t curve per campaign.
    pub t1: Vec<Vec<f64>>,
    /// Final results, per campaign.
    pub results: Vec<TvlaResult>,
    /// Pool observations, per campaign.
    pub obs: Vec<CampaignObs>,
    /// Streamed workload: whether the last snapshot equalled the result.
    pub snapshot_matches: Option<bool>,
}

/// Run one round of `w` over `srcs` (one source per campaign).
pub fn run_round<S: TraceSource>(w: Workload, srcs: &[S], traces: u64, seed: u64) -> Round {
    assert_eq!(srcs.len(), w.campaigns(), "one source per campaign");
    let start = Instant::now();
    let mut digest = Digest::default();
    let mut round = Round {
        round_s: 0.0,
        campaign_s: 0.0,
        ttest_s: 0.0,
        digest: String::new(),
        t1: Vec::new(),
        results: Vec::new(),
        obs: Vec::new(),
        snapshot_matches: None,
    };
    for (i, src) in srcs.iter().enumerate() {
        let campaign = w.campaign(traces, seed, i);
        let t = Instant::now();
        let (result, obs) = if w == Workload::Fig17PdStream {
            let mut last = String::new();
            let (result, obs) = campaign
                .run_streamed_observed(src, STREAM_EVERY, |snap| last = result_digest(snap));
            round.snapshot_matches = Some(last == result_digest(&result));
            (result, obs)
        } else {
            campaign.run_observed(src)
        };
        round.campaign_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        round.t1.push(result.t1());
        round.ttest_s += t.elapsed().as_secs_f64();
        digest.result(&result);
        round.results.push(result);
        round.obs.push(obs);
    }
    round.round_s = start.elapsed().as_secs_f64();
    round.digest = digest.hex();
    round
}

impl Built {
    /// One round over the built sources.
    pub fn round(&self, w: Workload, traces: u64, seed: u64) -> Round {
        match self {
            Built::Cycle(_, srcs) => run_round(w, srcs, traces, seed),
            Built::Orders(_, srcs) => run_round(w, srcs, traces, seed),
            Built::Placement(_, srcs) => run_round(w, srcs, traces, seed),
        }
    }
}

/// Untimed warm-up: a quarter-size campaign on the first source, with a
/// seed no timed round uses.
pub fn warm_up(w: Workload, built: &Built, traces: u64, seed: u64) {
    let c = Campaign { traces: (traces / 4).max(1), threads: w.threads(), seed: !seed };
    match built {
        Built::Cycle(_, srcs) => drop(c.run(&srcs[0])),
        Built::Orders(_, srcs) => drop(c.run(&srcs[0])),
        Built::Placement(_, srcs) => drop(c.run(&srcs[0])),
    }
}

/// Correctness checks run so far; `failed / attempted` is the fail rate.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// `a` and `b` agree to 1e-9 relative (absolute below magnitude 1).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// Check the fast path of `w` against its scalar oracle on a prefix
/// campaign (cycle workloads: bit-identical moment state; gate
/// workloads: statistics within 1e-9 relative).
pub fn oracle_check(w: Workload, built: &Built, traces: u64, seed: u64, checks: &mut Checks) {
    match built {
        Built::Cycle(cfg, srcs) => {
            let c = w.campaign(traces.min(CYCLE_ORACLE_TRACES), seed, 0);
            let fast = result_digest(&c.run(&srcs[0]));
            let oracle = result_digest(&c.run(&AnyCycleSource::new(cfg.clone(), true)));
            checks.check(fast == oracle, || {
                format!("{}: first {} traces differ from the scalar oracle", w.name(), c.traces)
            });
        }
        Built::Placement(p, srcs) => {
            let c = w.campaign(traces.min(PLACEMENT_ORACLE_TRACES), seed, 0);
            let scalar =
                PdPlacementSource::scalar(Arc::clone(&p.gadget), Arc::clone(&p.delays), seed);
            let (fast, oracle) =
                (placement_bias(&c.run(&srcs[0])), placement_bias(&c.run(&scalar)));
            checks.check(close(fast, oracle), || {
                format!("{}: placement bias {fast} vs scalar wheel {oracle}", w.name())
            });
        }
        Built::Orders(o, srcs) => {
            // The order is picked by the seed, so different seeds cover
            // different orders.
            let k = (seed % srcs.len() as u64) as usize;
            let c = w.campaign(traces, seed, k);
            let scalar =
                SequenceSource::scalar(Arc::clone(&o.bank), Arc::clone(&o.delays), o.seqs[k], seed);
            let (fast, oracle) = (c.run(&srcs[k]), c.run(&scalar));
            let agree = |a: &gm_leakage::TraceMoments, b: &gm_leakage::TraceMoments| {
                a.count() == b.count() && a.mean().iter().zip(b.mean()).all(|(&x, &y)| close(x, y))
            };
            checks.check(
                agree(&fast.fixed, &oracle.fixed) && agree(&fast.random, &oracle.random),
                || format!("{}: order {k} class means differ from the scalar wheel", w.name()),
            );
        }
    }
}

/// Checks on one round's outputs against the first round's digest and
/// the paper's expectations. `first` is `None` for the first round.
pub fn round_checks(
    w: Workload,
    built: &Built,
    round: &Round,
    first: Option<&str>,
    inject_wrong_verdict: bool,
    checks: &mut Checks,
) {
    if let Some(first) = first {
        checks.check(round.digest == first, || {
            format!("{}: round digest {} differs from {first}", w.name(), round.digest)
        });
    }
    if let Some(matches) = round.snapshot_matches {
        checks.check(matches, || format!("{}: final snapshot differs from the result", w.name()));
    }
    // Verdicts are a function of the digest, so checking them on the
    // first round covers every round.
    if let (Built::Orders(o, _), None) = (built, first) {
        let mut leaky = 0;
        for (i, (seq, t1)) in o.seqs.iter().zip(&round.t1).enumerate() {
            let measured = leaks(t1);
            let predicted = predicted_leaky(seq) != (inject_wrong_verdict && i == 0);
            leaky += usize::from(measured);
            checks.check(measured == predicted, || {
                format!("{}: order {i} {seq:?} leaks={measured}, predicted {predicted}", w.name())
            });
        }
        checks.check(leaky == TABLE1_LEAKY, || {
            format!("{}: {leaky} leaky orders, expected {TABLE1_LEAKY}", w.name())
        });
    }
}
