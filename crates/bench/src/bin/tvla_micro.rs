//! Phase-attribution microbenchmark for the cycle-model TVLA pipeline:
//! drives the 64-way bitsliced FF engine through its lane-major
//! statistics tail outside the campaign stack and times each phase
//! separately, so the throughput floor is measured, not estimated by
//! subtraction.
//!
//! ```text
//! cargo run --release -p gm-bench --bin tvla_micro -- \
//!     [--traces N] [--quick] [--metrics PATH]
//! ```
//!
//! Phases, per 64-lane group (fig14 FF configuration, σ = 12):
//!
//! * `eval` (bitsliced encrypt, records skipped);
//! * `widen` ([`PowerModel::trace_group_into`] + one row copy per lane);
//! * `moments` ([`TraceMoments::add_block`] per 256-trace row-major
//!   block);
//! * **noise-fill**: the bulk ziggurat tile alone — the irreducible
//!   measurement-noise floor at σ > 0.
//!
//! The campaign tests in `gm-des` pin this chain bit for bit against the
//! scalar cycle model; this binary only times it.

use gm_bench::{Args, MetricsSink};
use gm_core::MaskRng;
use gm_des::masked::{BitslicedDes, MaskedDesFf};
use gm_des::power::{CycleLaneCounters, GroupScratch, PowerModel};
use gm_leakage::{BlockScratch, TraceMoments};
use gm_obs::Report;
use gm_sim::MeasurementModel;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const KEY: u64 = 0x133457799BBCDFF1;
const SIGMA: f64 = 12.0;
const NS: usize = MaskedDesFf::TOTAL_CYCLES;
const LANES: usize = 64;
/// Traces per moments fold — the campaign's acquisition block size.
const BLOCK: usize = 256;

#[derive(Default)]
struct Phases {
    eval: f64,
    widen: f64,
    moments: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.eval + self.widen + self.moments
    }
}

fn draw_group(pt_rng: &mut SmallRng, pts: &mut [u64; LANES]) {
    for p in pts.iter_mut() {
        *p = pt_rng.random();
    }
}

/// Lane-major tail: no records, group-wide power conversion, one row
/// copy per lane, row-major `add_block` fold.
fn run_wide(groups: usize, seed: u64, timed: bool) -> (Phases, TraceMoments) {
    let engine = BitslicedDes::new(KEY);
    let mut counters = CycleLaneCounters::new();
    let mut power = PowerModel::ff(SIGMA, seed);
    let mut mask_rng = MaskRng::new(seed ^ 0x9e37_79b9);
    let mut pt_rng = SmallRng::seed_from_u64(seed ^ 0x60be_e2be);
    let mut pts = [0u64; LANES];
    let mut gscratch = GroupScratch::new();
    let mut block = vec![0.0f64; BLOCK * NS];
    let mut rows = 0usize;
    let mut m = TraceMoments::new(NS);
    let mut scratch = BlockScratch::new(NS);
    let mut ph = Phases::default();
    let clock = |on: bool| if on { Some(Instant::now()) } else { None };
    let lap = |t: Option<Instant>, acc: &mut f64| {
        if let Some(t) = t {
            *acc += t.elapsed().as_secs_f64();
        }
    };
    for _ in 0..groups {
        draw_group(&mut pt_rng, &mut pts);
        let t = clock(timed);
        counters.skip_records = true;
        engine.encrypt_ff_group(&pts, &mut mask_rng, &mut counters);
        lap(t, &mut ph.eval);
        let t = clock(timed);
        power.trace_group_into(&mut counters, LANES, &mut gscratch, |_, trace| {
            block[rows * NS..][..NS].copy_from_slice(trace);
            rows += 1;
        });
        lap(t, &mut ph.widen);
        if rows == BLOCK {
            let t = clock(timed);
            m.add_block(&block, &mut scratch);
            lap(t, &mut ph.moments);
            rows = 0;
        }
    }
    if rows > 0 {
        let t = clock(timed);
        m.add_block(&block[..rows * NS], &mut scratch);
        lap(t, &mut ph.moments);
    }
    (ph, m)
}

fn main() {
    let args = Args::parse();
    let mut sink = MetricsSink::from_args("tvla_micro", &args);
    let traces = args.trace_count(12_800, 102_400);
    let groups = (traces as usize).div_ceil(LANES);
    let traces = (groups * LANES) as u64;
    println!("tvla_micro: fig14 FF pipeline, {traces} traces ({groups} groups of {LANES})");

    // Untimed warm-up at a reduced size.
    std::hint::black_box(run_wide((groups / 8).max(4), args.seed, false));

    let t0 = Instant::now();
    let (wide, mw) = run_wide(groups, args.seed, true);
    let wide_wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(&mw);

    // Standalone noise floor: the bulk ziggurat tile alone.
    let mut meas = MeasurementModel::new(1.0, SIGMA, 16, args.seed ^ 0x5f35);
    let mut noise = vec![0.0f64; LANES * NS];
    let t0 = Instant::now();
    for _ in 0..groups {
        meas.fill_gauss(&mut noise);
    }
    let noise_dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(&noise);

    let per = |dt: f64| dt * 1e9 / traces as f64;
    println!("\nphase breakdown (ns/trace):");
    println!("  {:<22} {:>8.1}", "eval (bitsliced DES)", per(wide.eval));
    println!("  {:<22} {:>8.1}", "widen (group power)", per(wide.widen));
    println!("  {:<22} {:>8.1}", "moments (block fold)", per(wide.moments));
    println!("  {:<22} {:>8.1}", "TOTAL (sum)", per(wide.total()));
    println!("  {:<22} {:>8.1}", "TOTAL (wall)", per(wide_wall));
    println!(
        "  noise-fill floor alone: {:.1} ns/trace ({} ziggurat draws/trace)",
        per(noise_dt),
        NS
    );
    println!("\nthroughput: {:.0} traces/s, single thread", traces as f64 / wide_wall);

    for (name, dt) in [
        ("wide/eval", wide.eval),
        ("wide/widen", wide.widen),
        ("wide/moments", wide.moments),
        ("noise-fill", noise_dt),
    ] {
        sink.record_phase(name, dt, traces, Report::new());
    }
    sink.finish().expect("metrics written");
}
