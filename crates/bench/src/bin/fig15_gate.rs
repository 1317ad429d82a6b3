//! **Fig. 15, gate-level mechanism check** — DelayUnit size vs the
//! probability that a *placement* of `secAND2-PD` is insecure, measured
//! on the event simulator with no parametric leak model anywhere.
//!
//! The paper motivates manual placement (§V) by noting that without it
//! "the amount of delay would vary depending on where the LUTs are
//! placed … an inconsistent outcome". This experiment quantifies that:
//! sample many placements (per-instance delay factors at a rough ±85 %
//! routing spread) and measure each placement's first-order exposure —
//! the y-dependence of its switching energy. Small DelayUnits lose the
//! safe ordering on a sizeable fraction of placements; by a few LUTs the
//! margin dwarfs the spread and every placement's exposure collapses to
//! the noise floor — the monotone mechanism behind Fig. 15, obtained
//! from pure event timing.
//!
//! Acquisition goes through the shared [`gm_bench::gate`] sources and
//! the campaign's chunk loop: one simulator per chunk, reset per trace.

use gm_bench::gate::{build_pd_gadget, placement_bias, PdPlacementSource};
use gm_bench::{Args, MetricsSink};
use gm_sim::DelayModel;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("fig15_gate", &args);
    let trials = args.campaign_trace_count(8_000, 20_000);
    let placements = if args.quick { 15 } else { 30 };
    let backend = if args.scalar { "scalar event wheel" } else { "compiled schedule" };
    println!("FIG. 15 (gate level) — per-placement first-order exposure of secAND2-PD");
    println!(
        "(±85% routing spread, 400 ps jitter; {placements} placements × {trials} runs each, {backend})\n"
    );
    println!("  LUTs/unit  worst |bias|  mean |bias|   placements > 0.1");
    println!("  ---------  ------------  -----------   ----------------");

    let mut series = Vec::new();
    for unit in [1usize, 2, 3, 5, 7, 10] {
        let gadget = Arc::new(build_pd_gadget(unit));
        let mut biases = Vec::new();
        // One metrics phase per unit size: the 30 per-placement campaigns
        // would drown the JSONL, so their counters are merged here.
        let t0 = Instant::now();
        let mut unit_counters = gm_obs::Report::new();
        let phase = MetricsSink::phase_span();
        for p in 0..placements {
            let device_seed = args.seed ^ (unit as u64) << 8 ^ p as u64;
            let delays =
                Arc::new(DelayModel::with_variation(&gadget.netlist, 0.85, 400.0, device_seed));
            let src = if args.scalar {
                PdPlacementSource::scalar(Arc::clone(&gadget), delays, device_seed)
            } else {
                PdPlacementSource::new(Arc::clone(&gadget), delays, device_seed)
            };
            let (result, obs) = args.campaign(trials, device_seed).run_observed(&src);
            unit_counters.merge(&obs.report());
            biases.push(placement_bias(&result));
        }
        drop(phase);
        metrics.record_phase(
            &format!("unit{unit}"),
            t0.elapsed().as_secs_f64(),
            trials * placements as u64,
            unit_counters,
        );
        let worst = biases.iter().cloned().fold(0.0f64, f64::max);
        let mean = biases.iter().sum::<f64>() / biases.len() as f64;
        let over = biases.iter().filter(|&&b| b > 0.1).count();
        println!("  {unit:>9}  {worst:>12.3}  {mean:>11.3}   {over:>7} / {placements}");
        series.push((unit as f64, worst));
    }
    println!();
    println!("No leak model is involved: a placement's exposure is decided by its");
    println!("sampled gate delays alone. Undersized DelayUnits make the safe order");
    println!("a placement lottery — the paper's motivation for fixing LUT locations");
    println!("by constraint (§V) and for the 10-LUT margin (Fig. 15). The DES-scale");
    println!("sweep in `fig15` folds this lottery into a calibrated per-evaluation");
    println!("violation probability for trace throughput.");
    let units: Vec<f64> = series.iter().map(|s| s.0).collect();
    let ws: Vec<f64> = series.iter().map(|s| s.1).collect();
    gm_leakage::report::write_csv(
        format!("{}/fig15_gate.csv", args.out_dir),
        &["idx", "unit_luts", "worst_bias"],
        &[&units, &ws],
    )
    .expect("write CSV");
    println!("CSV written to {}/fig15_gate.csv", args.out_dir);
    metrics.finish().expect("write metrics");
}
