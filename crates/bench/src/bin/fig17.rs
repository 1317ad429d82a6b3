//! **Fig. 17** — leakage assessment of the protected DES design using
//! secAND2-PD with the optimal (10-LUT) DelayUnit.
//!
//! Panels a–c: PRNG on, the same three fixed plaintexts as Fig. 14. The
//! paper observes *marginal but consistent* first-order crossings of
//! ±4.5 — appearing only around 15 M traces — and attributes them to
//! physical coupling between the long delay lines, not to insufficient
//! delay. Panel d: PRNG off flags within 33 k traces.
//!
//! This binary reproduces all of that, including the attribution: the
//! same campaign re-run with the coupling term disabled stays clean.

use gm_bench::panel::{max_abs, print_panel};
use gm_bench::{Args, MetricsSink};
use gm_des::power::PdLeakModel;
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, GateLevelSource, SourceConfig};
use gm_leakage::detect::{consistent_leaks, first_detection};

const FIXED_PLAINTEXTS: [u64; 3] = [0x0123456789ABCDEF, 0xDA39A3EE5E6B4B0D, 0x0000000000000000];

/// Gate-level cross-validation of panels a–c: the same campaigns on the
/// event-driven netlist (coupling on), one simulator per campaign
/// chunk. Traces are scaled down — the event
/// simulation resolves the same coupling mechanism with far fewer traces
/// than the calibrated cycle model needs.
fn gate_level_panels(args: &Args, metrics: &mut MetricsSink, traces: u64) {
    let variant = CoreVariant::Pd { unit_luts: 10 };
    println!("--- gate-level cross-validation (event-driven netlist, coupling on) ---");
    // The DES netlist is clocked, so it refuses schedule compilation
    // (`CompiledSchedule::compile` returns `None` on flip-flops) and the
    // campaign stays on the dynamic event wheel; `--scalar` is a no-op here.
    println!("(clocked netlist: dynamic event wheel; schedule compilation does not apply)");
    for (i, (panel, pt)) in ["a", "b", "c"].iter().zip(FIXED_PLAINTEXTS).enumerate() {
        if !(args.panel.is_none() || args.panel.as_deref() == Some(*panel)) {
            continue;
        }
        let mut cfg = SourceConfig::new(variant);
        cfg.fixed_pt = pt;
        cfg.seed = args.seed ^ (i as u64) << 8;
        let src = GateLevelSource::new(cfg, 1, 0.4);
        let campaign = args.campaign(traces, args.seed ^ (0x17 + i as u64));
        let r = metrics.run_streamed(&format!("fig17{panel}-gate"), &campaign, &src);
        print_panel(
            &format!("panel ({panel}) gate level: PRNG on, fixed plaintext {pt:#018x}"),
            &r,
            &args.out_dir,
            &format!("fig17{panel}_gate"),
        );
    }
}

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("fig17", &args);
    let run_all = args.panel.is_none();
    if args.gate_level {
        let traces = args.campaign_trace_count(2_000, 30_000);
        println!("FIG. 17 (gate level) — protected DES with secAND2-PD (10-LUT units)");
        println!("(campaign: {traces} traces; threshold ±4.5)\n");
        gate_level_panels(&args, &mut metrics, traces);
        metrics.finish().expect("write metrics");
        return;
    }
    let traces = args.campaign_trace_count(40_000, 400_000);
    let backend = if args.scalar { "scalar reference" } else { "256-way bitsliced" };
    println!("FIG. 17 — leakage assessment, protected DES with secAND2-PD (10-LUT units)");
    println!("(campaign: {traces} traces ≙ the paper's 50M; threshold ±4.5; {backend} backend)\n");

    let variant = CoreVariant::Pd { unit_luts: 10 };

    // Panels (a)-(c): PRNG on.
    let mut t1_curves = Vec::new();
    for (i, (panel, pt)) in ["a", "b", "c"].iter().zip(FIXED_PLAINTEXTS).enumerate() {
        if !(run_all || args.panel.as_deref() == Some(*panel)) {
            continue;
        }
        let mut cfg = SourceConfig::new(variant);
        cfg.fixed_pt = pt;
        cfg.seed = args.seed ^ (i as u64) << 8;
        let src = AnyCycleSource::new(cfg.clone(), args.scalar);
        let r = metrics.run_streamed(
            &format!("fig17{panel}-pt{i}"),
            &args.campaign(traces, args.seed ^ (0x17 + i as u64)),
            &src,
        );
        print_panel(
            &format!("panel ({panel}): PRNG on, fixed plaintext {pt:#018x}"),
            &r,
            &args.out_dir,
            &format!("fig17{panel}"),
        );
        t1_curves.push(r.t1());

        if i == 0 {
            // When does the first-order crossing appear?
            let det = first_detection(
                &args.campaign(traces, args.seed ^ 0x171),
                &AnyCycleSource::new(cfg, args.scalar),
                1024,
            );
            match det.traces {
                Some(n) => println!(
                    "first-order crossing appears after ~{n} traces \
                     (paper: ~15M of 50M ⇒ ~{} here)\n",
                    15_000_000u64 * traces / 50_000_000
                ),
                None => println!("no first-order crossing within the campaign\n"),
            }
        }
    }

    if t1_curves.len() == 3 {
        let consistent = consistent_leaks(&t1_curves);
        let worst = t1_curves.iter().map(|t| max_abs(t)).fold(0.0f64, f64::max);
        println!("=== Fig. 17 verdict (panels a-c) ===");
        println!(
            "worst max|t1| = {worst:.2} — {} (paper: marginal but real crossings)",
            if worst > 4.5 {
                "crossings beyond ±4.5 present"
            } else {
                "no crossing at this (reduced) budget; run the full campaign"
            }
        );
        println!("consistent leaking samples across plaintexts: {consistent:?}\n");
    }

    // Panel (d): PRNG off.
    if run_all || args.panel.as_deref() == Some("d") {
        let mut cfg = SourceConfig::new(variant);
        cfg.prng_on = false;
        cfg.seed = args.seed ^ 0xd;
        let det = first_detection(
            &args.campaign(traces.min(50_000), args.seed ^ 0x17d),
            &AnyCycleSource::new(cfg.clone(), args.scalar),
            16,
        );
        println!("--- panel (d): PRNG off (sanity check) ---");
        match det.traces {
            Some(n) => println!(
                "first-order leakage detected after {n} traces (paper: 33k of 50M scale ⇒ ~{})",
                33_000 * traces / 50_000_000
            ),
            None => println!("NO DETECTION — setup broken!"),
        }
        let src = AnyCycleSource::new(cfg, args.scalar);
        let r = metrics.run_streamed(
            "fig17d-prng-off",
            &args.campaign(12_000.min(traces), args.seed ^ 0x17e),
            &src,
        );
        print_panel("panel (d) t-curves @12k traces", &r, &args.out_dir, "fig17d");
    }

    // Attribution ablation (the paper's §VII-C hypothesis, made testable):
    // same core, coupling term off.
    if run_all {
        let mut cfg = SourceConfig::new(variant);
        cfg.seed = args.seed ^ 0xab1;
        let mut leak = PdLeakModel::optimal();
        leak.coupling_eps = 0.0;
        let src = AnyCycleSource::with_pd_leak(cfg, leak, args.scalar);
        let r = metrics.run_streamed(
            "ablation-no-coupling",
            &args.campaign(traces, args.seed ^ 0xab2),
            &src,
        );
        let m1 = max_abs(&r.t1());
        println!("=== attribution ablation: coupling term disabled ===");
        println!(
            "max|t1| = {m1:.2} over {traces} traces — {}",
            if m1 < 4.5 {
                "clean: the residual first-order leakage is the coupling, \
                 exactly the paper's §VII-C explanation"
            } else {
                "still leaking — attribution NOT confirmed"
            }
        );
    }
    metrics.finish().expect("write metrics");
}
