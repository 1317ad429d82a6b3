//! Microbenchmark for the compiled-schedule sweep: times
//! [`SchedRunner::run_pass`] on the fig15-gate PD gadget in isolation,
//! outside the campaign stack, and splits the cost into the sweep,
//! divergent-lane `fallback`, and energy `pack` phases — the two
//! post-sweep floors are measured per-run, not estimated by subtraction.
//!
//! ```text
//! cargo run --release -p gm-bench --bin sched_micro -- \
//!     [--traces PASSES] [--metrics PATH] [--progress]
//! ```
//!
//! `--traces` counts *passes* here (64 lanes each; default 20 000).
//! Divergent lanes of each pass are queued and drained in one batch on
//! the scalar wheel, as the campaign sources do. The draw-count and
//! repair/pack breakdowns come from the runner's own `sim.sched.*` /
//! `sim.pack.*` counters and land in the `--metrics` JSONL, not just
//! stdout.

use gm_bench::{Args, MetricsSink};
use gm_core::gadgets::sec_and2_pd::{build_sec_and2_pd, PdConfig};
use gm_core::gadgets::AndInputs;
use gm_netlist::{NetId, Netlist};
use gm_obs::Report;
use gm_sim::{
    CompiledSchedule, DelayModel, LaneEnergy, RepairQueue, SchedRunner, SimCore, SimGraph, LANES,
};
use std::time::Instant;

/// Scalar-wheel rerun of one divergent lane: bit-identical to the lane
/// it replaces (same seed, same order-invariant jitter stream).
fn scalar_energy(
    sim: &mut SimCore,
    graph: &SimGraph,
    delays: &DelayModel,
    stim_nets: [NetId; 4],
    window_ps: u64,
    stim_bits: u32,
    seed: u64,
) -> f64 {
    sim.reset(graph, seed);
    for (s, net) in stim_nets.into_iter().enumerate() {
        if stim_bits >> s & 1 != 0 {
            sim.schedule(net, 1_000, true);
        }
    }
    let mut sink = gm_sim::CountingSink::default();
    sim.run_until(graph, delays, window_ps, &mut sink);
    sink.weighted
}

fn main() {
    let args = Args::parse();
    let passes: u64 = args.trace_count(2_000, 20_000);
    let mut sink = MetricsSink::from_args("sched_micro", &args);

    let mut n = Netlist::new("pd");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build_sec_and2_pd(&mut n, io, PdConfig { unit_luts: 3 });
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    n.validate().unwrap();
    let window_ps = (2 * 3u64 * 1_150) * 3 + 30_000;
    let graph = SimGraph::new(&n);
    let delays = DelayModel::with_variation(&n, 0.85, 400.0, 0x5eed ^ (3u64) << 8);
    let stims = [(io.x0, 1_000), (io.x1, 1_000), (io.y0, 1_000), (io.y1, 1_000)];
    let stim_nets = [io.x0, io.x1, io.y0, io.y1];
    let sched = CompiledSchedule::compile(&graph, &delays, &stims).expect("compiles");
    println!(
        "schedule: {} nodes, {} stims, {} jitter slots",
        sched.num_nodes(),
        sched.num_stims(),
        sched.num_jitter_slots(),
    );

    let mut runner = SchedRunner::new();
    let mut energy_sink = LaneEnergy::new(graph.weights());
    let mut sim = SimCore::new(&graph, 0);
    let mut repairs = RepairQueue::new();
    let mut seeds = [0u64; LANES];
    let mut stim_values = [0u64; 4];
    // Per-pass varying seeds, like a campaign draws them — fixed seeds
    // would pin the jitter streams and show 0% divergence, leaving the
    // fallback phase unexercised.
    let lane_seed = |p: u64, l: u64| {
        (p ^ l.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(7)
    };
    let mut run = |runner: &mut SchedRunner,
                   energy_sink: &mut LaneEnergy,
                   sim: &mut SimCore,
                   repairs: &mut RepairQueue,
                   passes: u64,
                   measure: bool| {
        let mut energy = 0.0f64;
        let mut divergent_total = 0u64;
        let mut fallback_dt = 0.0f64;
        let mut pack_dt = 0.0f64;
        for p in 0..passes {
            for (l, s) in seeds.iter_mut().enumerate() {
                *s = lane_seed(p, l as u64);
            }
            for (s, v) in stim_values.iter_mut().enumerate() {
                *v = (p ^ s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            energy_sink.clear();
            let div = runner.run_pass(
                &sched,
                &graph,
                &delays,
                graph.weights(),
                &seeds,
                &stim_values,
                window_ps,
                energy_sink,
            );
            divergent_total += div.count_ones() as u64;
            // Pack phase: one word→f64 conversion per pass.
            let t_pack = measure.then(Instant::now);
            let mut energies = [0.0f64; LANES];
            energy_sink.energies_into(&mut energies);
            for (l, e) in energies.iter().enumerate() {
                if div >> l & 1 == 0 {
                    energy += e;
                }
            }
            if let Some(t) = t_pack {
                pack_dt += t.elapsed().as_secs_f64();
            }
            // Fallback phase: repair the divergent lanes in one batch and
            // fold their scalar energies into the checksum.
            if div != 0 {
                let t_fb = measure.then(Instant::now);
                for (l, &seed) in seeds.iter().enumerate() {
                    if div >> l & 1 != 0 {
                        let mut sb = 0u32;
                        for (s, &v) in stim_values.iter().enumerate() {
                            sb |= ((v >> l as u64 & 1) as u32) << s;
                        }
                        repairs.push(seed, sb, l as u32);
                    }
                }
                let mut repaired = 0.0f64;
                repairs.drain(&mut runner.stats, |t| {
                    repaired += scalar_energy(
                        sim,
                        &graph,
                        &delays,
                        stim_nets,
                        window_ps,
                        t.stim_bits,
                        t.seed,
                    );
                });
                energy += repaired;
                if let Some(t) = t_fb {
                    fallback_dt += t.elapsed().as_secs_f64();
                }
            }
        }
        (energy, divergent_total, fallback_dt, pack_dt)
    };
    // Warm-up.
    run(&mut runner, &mut energy_sink, &mut sim, &mut repairs, passes / 10 + 1, false);
    runner.stats = Default::default();
    energy_sink.stats = Default::default();
    let start = Instant::now();
    let (energy, divergent_total, fallback_dt, pack_dt) =
        run(&mut runner, &mut energy_sink, &mut sim, &mut repairs, passes, true);
    let dt = start.elapsed().as_secs_f64();
    let traces = passes * LANES as u64;
    println!(
        "{passes} passes ({traces} lanes) in {dt:.3} s: {:.0} ns/pass, {:.1} ns/lane, \
         divergent {:.2}% (checksum {energy:.1})",
        dt * 1e9 / passes as f64,
        dt * 1e9 / traces as f64,
        100.0 * divergent_total as f64 / traces as f64,
    );
    println!(
        "floors: fallback {:.1} ns/lane ({} lanes repaired), pack {:.1} ns/lane",
        fallback_dt * 1e9 / traces as f64,
        divergent_total,
        pack_dt * 1e9 / traces as f64,
    );
    // Jitter-vs-sweep split from the runner's own counters (all zero
    // under obs-off; the wall-clock numbers above still stand).
    let mut counters = Report::new();
    runner.obs_report("sim.sched", &mut counters);
    energy_sink.stats.report_into("sim.pack", &mut counters);
    let pass_ns = counters.get("sim.sched.pass_ns").unwrap_or(0);
    if pass_ns > 0 {
        let batched = counters.get("sim.sched.jitter.batched").unwrap_or(0);
        let scalar = counters.get("sim.sched.jitter.scalar").unwrap_or(0);
        println!(
            "breakdown: pass {:.1} ns/lane, {:.2} batched + {:.2} scalar draws/lane",
            pass_ns as f64 / traces as f64,
            batched as f64 / traces as f64,
            scalar as f64 / traces as f64,
        );
    }
    sink.record_phase("sched-micro", dt, traces, counters);
    sink.record_phase("fallback", fallback_dt, divergent_total.max(1), Report::new());
    sink.record_phase("pack", pack_dt, traces, Report::new());
    sink.finish().expect("metrics written");
}
