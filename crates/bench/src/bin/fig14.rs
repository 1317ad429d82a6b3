//! **Fig. 14** — leakage assessment of the protected DES design using
//! secAND2-FF.
//!
//! Four panels, as in the paper:
//!
//! * **a** — PRNG off: first-order leakage flags almost immediately
//!   (the paper: very significant peaks within 12 000 of 50 M traces);
//! * **b, c, d** — PRNG on, three different fixed plaintexts: no
//!   first-order leakage over the full campaign, second-order t-values
//!   up to ≈ 60, third-order weaker. The paper's cross-plaintext
//!   consistency rule is applied to the few spurious 1st-order
//!   crossings.
//!
//! Trace scale: the campaign default (400 k) is calibrated to correspond
//! to the paper's 50 M-trace assessment (see EXPERIMENTS.md).
//!
//! Exits 1, after writing the CSVs and the metrics, when a claim does
//! not hold for the panels that ran (`gm_bench::panel::fig14_misses`).

use gm_bench::panel::{fig14_misses, max_abs, print_panel, Fig14Panel};
use gm_bench::{Args, MetricsSink};
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, SourceConfig};
use gm_leakage::detect::{consistent_leaks, first_detection};
use gm_leakage::Campaign;

const FIXED_PLAINTEXTS: [u64; 3] = [0x0123456789ABCDEF, 0xDA39A3EE5E6B4B0D, 0x0000000000000000];

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("fig14", &args);
    let traces = args.trace_count(40_000, 400_000);
    let run_all = args.panel.is_none();
    let backend = if args.scalar { "scalar reference" } else { "64-way bitsliced" };
    println!("FIG. 14 — leakage assessment, protected DES with secAND2-FF");
    println!("(campaign: {traces} traces ≙ the paper's 50M; threshold ±4.5; {backend} backend)\n");

    // Panel (a): PRNG off.
    let mut prng_off = None;
    if run_all || args.panel.as_deref() == Some("a") {
        let mut cfg = SourceConfig::new(CoreVariant::Ff);
        cfg.prng_on = false;
        cfg.seed = args.seed;
        let campaign = Campaign::parallel(traces.min(50_000), args.seed);
        let det = first_detection(&campaign, &AnyCycleSource::new(cfg.clone(), args.scalar), 16);
        println!("--- panel (a): PRNG off (sanity check) ---");
        match det.traces {
            Some(n) => println!(
                "first-order leakage detected after {n} traces (paper: 12k of 50M scale ⇒ ~{} here)",
                12_000 * traces / 50_000_000
            ),
            None => println!("NO DETECTION — setup broken!"),
        }
        let src = AnyCycleSource::new(cfg, args.scalar);
        let r = metrics.run_streamed(
            "fig14a-prng-off",
            &Campaign::parallel(12_000.min(traces), args.seed ^ 0xa),
            &src,
        );
        print_panel("panel (a) t-curves @12k traces", &r, &args.out_dir, "fig14a");
        prng_off = Some(det);
    }

    // Panels (b)-(d): PRNG on, three fixed plaintexts.
    let mut panels = Vec::new();
    for (i, (panel, pt)) in ["b", "c", "d"].iter().zip(FIXED_PLAINTEXTS).enumerate() {
        if !(run_all || args.panel.as_deref() == Some(*panel)) {
            continue;
        }
        let mut cfg = SourceConfig::new(CoreVariant::Ff);
        cfg.fixed_pt = pt;
        cfg.seed = args.seed ^ (i as u64) << 8;
        let src = AnyCycleSource::new(cfg, args.scalar);
        let r = metrics.run_streamed(
            &format!("fig14{panel}-pt{i}"),
            &Campaign::parallel(traces, args.seed ^ (0xb + i as u64)),
            &src,
        );
        print_panel(
            &format!("panel ({panel}): PRNG on, fixed plaintext {pt:#018x}"),
            &r,
            &args.out_dir,
            &format!("fig14{panel}"),
        );
        let (m1, m2, m3) = gm_bench::panel::summary_line(&r);
        println!("summary: max|t1|={m1:.2} max|t2|={m2:.2} max|t3|={m3:.2}\n");
        panels.push(Fig14Panel { name: (*panel).to_owned(), t1: r.t1(), t2: r.t2() });
    }

    let misses = fig14_misses(prng_off.as_ref(), &panels);
    if panels.len() == 3 {
        let t1_curves: Vec<Vec<f64>> = panels.iter().map(|p| p.t1.clone()).collect();
        let consistent = consistent_leaks(&t1_curves);
        println!("=== Fig. 14 verdict ===");
        println!(
            "first-order crossings consistent across all three plaintexts: {} \
             (paper: none — crossings are not at the same time indexes)",
            if consistent.is_empty() { "NONE".to_owned() } else { format!("{consistent:?}") }
        );
        let worst_t1 = t1_curves.iter().map(|t| max_abs(t)).fold(0.0f64, f64::max);
        println!("worst single-plaintext max|t1| = {worst_t1:.2}");
        if misses.is_empty() {
            println!("⇒ no evidence of first-order leakage; strong second-order leakage,");
            println!("   as the paper argues a second-order attack would be the better route.");
        }
    }
    metrics.finish().expect("write metrics");
    if !misses.is_empty() {
        eprintln!("fig14: {} claim(s) do not hold: {}", misses.len(), misses.join("; "));
        std::process::exit(1);
    }
}
