//! Ablations of the paper's design decisions — each security measure is
//! removed in isolation and the leakage consequence measured:
//!
//! 1. **Refresh layer off** (§III-C): the XOR stage recombines dependent
//!    sharings and the FF core leaks in first order.
//! 2. **Randomness recycling** (§VI-A): sharing the 14 fresh bits across
//!    the eight S-boxes has *no* first-order impact — the paper's
//!    justification for its randomness budget.
//! 3. **secAND2-FF reset discipline** (§II-C): evaluating back-to-back
//!    multiplications without resetting the gadget leaks the *previous*
//!    operation's unshared operand.

use gm_bench::{Args, MetricsSink};
use gm_core::gadgets::sec_and2::build_sec_and2;
use gm_core::gadgets::AndInputs;
use gm_core::{MaskRng, MaskedBit};
use gm_des::masked::{MaskedDes, MaskedDesFf};
use gm_des::power::PowerModel;
use gm_leakage::{Campaign, Class, TraceSource, TvlaResult, THRESHOLD};
use gm_netlist::Netlist;
use gm_sim::power::CountingSink;
use gm_sim::{DelayModel, SimCore, SimGraph};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

// ----------------------------------------------------------------------
// Ablation 1: refresh layer removed.
// ----------------------------------------------------------------------

struct FfSource {
    core: MaskedDesFf,
    power: PowerModel,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    fixed_pt: u64,
    seed: u64,
}

impl FfSource {
    fn new(core: MaskedDesFf, seed: u64) -> Self {
        FfSource {
            core,
            power: PowerModel::ff(12.0, seed),
            mask_rng: MaskRng::new(seed ^ 0x1),
            pt_rng: SmallRng::seed_from_u64(seed ^ 0x2),
            fixed_pt: 0x0123456789ABCDEF,
            seed,
        }
    }
}

impl TraceSource for FfSource {
    fn fork(&self, stream: u64) -> Self {
        FfSource::new(self.core.clone(), self.seed ^ stream.wrapping_mul(0x9e37_79b9))
    }
    fn num_samples(&self) -> usize {
        MaskedDesFf::TOTAL_CYCLES
    }
    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let pt = match class {
            Class::Fixed => self.fixed_pt,
            Class::Random => self.pt_rng.random(),
        };
        let (_, cycles) = self.core.encrypt_with_cycles(pt, &mut self.mask_rng);
        out.copy_from_slice(&self.power.trace(&cycles));
    }
}

fn ablation_refresh(metrics: &mut MetricsSink, traces: u64, seed: u64) {
    println!("=== ablation 1: refresh layer (§III-C) ===");
    let with = metrics.run(
        "refresh-on",
        &Campaign::sequential(traces, seed),
        &FfSource::new(MaskedDesFf::new(0x133457799BBCDFF1), seed),
    );
    let without = metrics.run(
        "refresh-off",
        &Campaign::sequential(traces, seed ^ 0x10),
        &FfSource::new(MaskedDesFf::without_refresh(0x133457799BBCDFF1), seed),
    );
    let m = |r: &TvlaResult| r.max_abs_t1();
    println!("  with refresh (14 bits/round): max|t1| = {:.2}", m(&with));
    println!("  without refresh (0 bits):     max|t1| = {:.2}", m(&without));
    println!(
        "  ⇒ {}\n",
        if m(&without) > THRESHOLD && m(&with) < THRESHOLD {
            "removing the refresh breaks first-order security — the 14 bits \
             per round are load-bearing, exactly as §III-C argues"
        } else {
            "UNEXPECTED outcome"
        }
    );
}

// ----------------------------------------------------------------------
// Ablation 2: randomness recycling across the eight S-boxes.
// ----------------------------------------------------------------------

struct ValueSource {
    core: MaskedDes,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    noise: SmallRng,
    seed: u64,
}

impl ValueSource {
    fn new(recycle: bool, seed: u64) -> Self {
        let mut core = MaskedDes::new(0x133457799BBCDFF1);
        core.recycle_randomness = recycle;
        ValueSource {
            core,
            mask_rng: MaskRng::new(seed ^ 0x3),
            pt_rng: SmallRng::seed_from_u64(seed ^ 0x4),
            noise: SmallRng::seed_from_u64(seed ^ 0x5),
            seed,
        }
    }
}

impl TraceSource for ValueSource {
    fn fork(&self, stream: u64) -> Self {
        ValueSource::new(self.core.recycle_randomness, self.seed ^ stream.wrapping_mul(0xa076))
    }
    fn num_samples(&self) -> usize {
        16
    }
    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let pt = match class {
            Class::Fixed => 0x0123456789ABCDEF,
            Class::Random => self.pt_rng.random(),
        };
        let mut samples = [0.0f64; 16];
        let _ = self.core.encrypt_traced(pt, &mut self.mask_rng, |round, l, r| {
            // Per-round power: share-wise HW of the state registers.
            samples[round] = f64::from(
                l.s0.count_ones() + l.s1.count_ones() + r.s0.count_ones() + r.s1.count_ones(),
            );
        });
        for (o, s) in out.iter_mut().zip(samples) {
            *o = s + self.noise.random::<f64>() * 4.0;
        }
    }
}

fn ablation_recycling(metrics: &mut MetricsSink, traces: u64, seed: u64) {
    println!("=== ablation 2: randomness recycling (§VI-A) ===");
    let recycled =
        metrics.run("recycled", &Campaign::sequential(traces, seed), &ValueSource::new(true, seed));
    let fresh = metrics.run(
        "fresh-per-sbox",
        &Campaign::sequential(traces, seed ^ 0x20),
        &ValueSource::new(false, seed),
    );
    println!("  14 bits/round (recycled):  max|t1| = {:.2}", recycled.max_abs_t1());
    println!("  112 bits/round (per-sbox): max|t1| = {:.2}", fresh.max_abs_t1());
    println!(
        "  ⇒ {}\n",
        if recycled.max_abs_t1() < THRESHOLD && fresh.max_abs_t1() < THRESHOLD {
            "both configurations are first-order clean: recycling the 14 bits \
             across S-boxes costs nothing, as the paper claims"
        } else {
            "UNEXPECTED outcome"
        }
    );
}

// ----------------------------------------------------------------------
// Ablation 3: secAND2-FF reset discipline between computations.
// ----------------------------------------------------------------------

fn ablation_reset(trials: u64, seed: u64) {
    println!("=== ablation 3: reset between consecutive multiplications (§II-C) ===");
    // Bare secAND2 on the event simulator. First multiplication (m, n)
    // settles; then the second operation's a0 arrives BEFORE the fresh b
    // shares. Without reset, a0's edge can toggle z0 by HD = n0 ⊕ n1 = n.
    let mut n = Netlist::new("g");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build_sec_and2(&mut n, io);
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    n.validate().unwrap();
    let delays = DelayModel::with_variation(&n, 0.15, 40.0, seed);
    let graph = SimGraph::new(&n);
    let mut sim = SimCore::new(&graph, seed);

    for reset in [false, true] {
        // E[toggles after a0 arrives | previous n].
        let mut rng = MaskRng::new(seed ^ 0x30);
        let mut sums = [0.0f64; 2];
        let mut counts = [0u64; 2];
        for t in 0..trials {
            let n_val = rng.bit();
            let m = MaskedBit::mask(rng.bit(), &mut rng);
            let nn = MaskedBit::mask(n_val, &mut rng);
            let a = MaskedBit::mask(rng.bit(), &mut rng);

            sim.reset(&graph, seed ^ t);
            // First multiplication settles.
            sim.schedule(io.y0, 1_000, nn.s0);
            sim.schedule(io.x0, 2_000, m.s0);
            sim.schedule(io.x1, 3_000, m.s1);
            sim.schedule(io.y1, 4_000, nn.s1);
            let mut sink = CountingSink::default();
            sim.run_until(&graph, &delays, 40_000, &mut sink);

            if reset {
                // Clear the inputs (and let the gadget settle) first.
                for net in [io.x0, io.x1, io.y0, io.y1] {
                    sim.schedule(net, 41_000, false);
                }
                sim.run_until(&graph, &delays, 80_000, &mut sink);
            }

            // Second multiplication: a0 arrives first.
            let t0 = sim.time();
            sim.schedule(io.x0, t0 + 1_000, a.s0);
            let mut second = CountingSink::default();
            sim.run_until(&graph, &delays, t0 + 30_000, &mut second);

            sums[usize::from(n_val)] += second.count as f64;
            counts[usize::from(n_val)] += 1;
        }
        let e0 = sums[0] / counts[0] as f64;
        let e1 = sums[1] / counts[1] as f64;
        println!(
            "  {}: E[toggles|n=0] = {e0:.3}, E[toggles|n=1] = {e1:.3}, bias = {:.3}",
            if reset { "with reset   " } else { "without reset" },
            (e0 - e1).abs()
        );
    }
    println!(
        "  ⇒ without reset, the late a0 exposes the previous operation's \
         unshared n;\n    resetting the inputs removes the bias — the cost \
         the paper's secAND2-PD avoids.\n"
    );
}

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("ablations", &args);
    let traces = args.trace_count(8_000, 60_000);
    ablation_refresh(&mut metrics, traces, args.seed);
    ablation_recycling(&mut metrics, traces, args.seed ^ 0xaa);
    let reset_trials = args.trace_count(4_000, 20_000);
    let t0 = std::time::Instant::now();
    ablation_reset(reset_trials, args.seed ^ 0xbb);
    metrics.record_phase(
        "reset-discipline",
        t0.elapsed().as_secs_f64(),
        2 * reset_trials,
        gm_obs::Report::new(),
    );
    metrics.finish().expect("write metrics");
}
