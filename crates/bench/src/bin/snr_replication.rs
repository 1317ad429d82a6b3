//! The paper's SNR instrumentation trick, quantified (§II-B):
//! "To improve the signal-to-noise ratio (SNR), we replicated multiple
//! parallel instances of secAND2 on the FPGA, each receiving identical
//! inputs."
//!
//! This experiment sweeps the replica count and reports the measured
//! SNR of the leaky arrival sequence: SNR grows with the replica count
//! while the instrument noise dominates, then saturates at the intrinsic
//! share-activity noise floor (which replicates coherently too).

use gm_bench::gate::{build_sec_and2_bank, sequence_bits, sequence_plan, CYCLE_PS};
use gm_bench::{Args, MetricsSink};
use gm_core::schedule::InputShare;
use gm_core::{MaskRng, MaskedBit};
use gm_leakage::Snr;
use gm_sim::power::PowerTrace;
use gm_sim::{DelayModel, LaneSweep, MeasurementModel};
use std::sync::Arc;

/// The leaky arrival order of Table I: an `x` share last.
const LEAKY_ORDER: [InputShare; 4] =
    [InputShare::Y1, InputShare::Y0, InputShare::X1, InputShare::X0];

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("snr_replication", &args);
    let traces = args.trace_count(3_000, 20_000);
    println!("SNR vs. replica count — the paper's §II-B instrumentation trick");
    println!("(leaky sequence y1 y0 x1 x0; {traces} traces per point; noise σ = 3.0)\n");
    println!("  replicas   SNR(worst cycle)   gain vs 1x");
    println!("  --------   ----------------   ----------");

    let mut base = None;
    for replicas in [1usize, 2, 4, 8, 16] {
        let t0 = std::time::Instant::now();
        // The scalar stimulus body the Table I campaign sources ride.
        let bank = build_sec_and2_bank(replicas);
        let delays = Arc::new(DelayModel::with_variation(&bank.netlist, 0.15, 40.0, args.seed));
        let plan = sequence_plan(&bank, &LEAKY_ORDER);
        let mut sweep = LaneSweep::new(Arc::clone(&bank.graph), delays, plan, 4 * CYCLE_PS, false);
        let mut trace = PowerTrace::new(0, CYCLE_PS, 4);
        let mut mask_rng = MaskRng::new(args.seed ^ replicas as u64);
        let mut meas = MeasurementModel::new(1.0, 3.0, 18, args.seed ^ 0x77);
        let mut snr = Snr::new();
        let mut samples = vec![0.0f64; 4];
        for t in 0..traces {
            let xv = mask_rng.bit();
            let yv = mask_rng.bit();
            let mx = MaskedBit::mask(xv, &mut mask_rng);
            let my = MaskedBit::mask(yv, &mut mask_rng);
            trace.clear();
            sweep.run_scalar(args.seed ^ t ^ 0x51, sequence_bits(&LEAKY_ORDER, mx, my), &mut trace);
            samples.copy_from_slice(trace.samples());
            meas.apply(&mut samples);
            // Label = the unshared y (what the final cycle exposes).
            snr.add(u64::from(yv), &samples);
        }
        let s = snr.snr();
        let worst = s.iter().cloned().fold(0.0f64, f64::max);
        let gain = base.map_or(1.0, |b: f64| worst / b);
        if base.is_none() {
            base = Some(worst);
        }
        println!("  {replicas:>8}   {worst:>16.4}   {gain:>9.1}x");
        let mut counters = gm_obs::Report::new();
        sweep.obs_report(&mut counters);
        counters.set_nonzero("rng.mask_words", mask_rng.obs_words_drawn());
        metrics.record_phase(
            &format!("replicas{replicas}"),
            t0.elapsed().as_secs_f64(),
            traces,
            counters,
        );
    }
    println!();
    println!("SNR grows with the replica count while measurement noise dominates");
    println!("(replicas add signal coherently, instrument noise incoherently) and");
    println!("saturates once the masked shares' own switching randomness — which");
    println!("also replicates coherently — becomes the noise floor. This is why the");
    println!("paper could resolve Table I with half a million traces per sequence.");
    metrics.finish().expect("write metrics");
}
