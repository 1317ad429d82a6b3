//! Calibration tool: sweeps the leak-model constants against the TVLA
//! pipeline so the trace-scaling story in EXPERIMENTS.md stays honest.
//! Usage: `calibrate [sigma] [--traces N | --quick] [--scalar --metrics PATH ...]`.
//! Stdout depends on the flags only; the measured speed goes to stderr.
use gm_bench::MetricsSink;
use gm_des::tvla_src::{AnyCycleSource, CoreVariant, SourceConfig};
use std::time::Instant;

fn main() {
    // Positional [sigma] first, then the shared flags.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = raw.iter().take_while(|a| !a.starts_with("--")).collect();
    let args = gm_bench::Args::parse_from(raw.iter().skip(positional.len()).cloned());
    let n = args.campaign_trace_count(5_000, 20_000);
    let mut metrics = MetricsSink::from_args("calibrate", &args);
    let sigma: f64 = positional.first().map(|s| s.parse().unwrap()).unwrap_or(60.0);

    // Speed.
    let mut cfg = SourceConfig::new(CoreVariant::Ff);
    cfg.noise_sigma = sigma;
    let src = AnyCycleSource::new(cfg.clone(), args.scalar);
    let t0 = Instant::now();
    let r = metrics.run("ff-prng-on", &args.campaign(n, 1), &src);
    let dt = t0.elapsed();
    let t1m = r.max_abs_t1();
    let t2m = r.t2().iter().fold(0.0f64, |m, t| m.max(t.abs()));
    let t3m = r.t3().iter().fold(0.0f64, |m, t| m.max(t.abs()));
    println!(
        "FF prng-on  n={n} sigma={sigma}: t1={t1m:.2} t2={t2m:.2} t3={t3m:.2} ({})",
        src.backend_name()
    );
    eprintln!("FF prng-on: {:.0} traces/s", n as f64 / dt.as_secs_f64());
    let t1 = r.t1();
    let mut idx: Vec<usize> = (0..t1.len()).collect();
    idx.sort_by(|&a, &b| t1[b].abs().partial_cmp(&t1[a].abs()).unwrap());
    for &i in idx.iter().take(6) {
        let phase = if i < 3 {
            format!("lead-in {i}")
        } else {
            format!("round {} cyc {}", (i - 3) / 7, (i - 3) % 7)
        };
        println!("   sample {i} ({phase}): t1={:.2}", t1[i]);
    }

    let mut cfg_off = cfg.clone();
    cfg_off.prng_on = false;
    let src_off = AnyCycleSource::new(cfg_off, args.scalar);
    let d = gm_leakage::first_detection(&args.campaign(n, 2), &src_off, 32);
    println!(
        "FF prng-off detection at {:?} (history {:?})",
        d.traces,
        &d.history[..d.history.len().min(6)]
    );

    {
        // PD(10) with coupling disabled must stay clean (fig17 ablation).
        use gm_des::power::PdLeakModel;
        let mut c = SourceConfig::new(CoreVariant::Pd { unit_luts: 10 });
        c.noise_sigma = sigma;
        let mut leak = PdLeakModel::optimal();
        leak.coupling_eps = 0.0;
        let src = AnyCycleSource::with_pd_leak(c, leak, args.scalar);
        let r = metrics.run("pd10-coupling-off", &args.campaign(n, 77), &src);
        println!("PD(10) coupling-off: max|t1|={:.2} at n={n}", r.max_abs_t1());
    }
    for unit in [1usize, 2, 3, 5, 7, 10] {
        let mut c = SourceConfig::new(CoreVariant::Pd { unit_luts: unit });
        c.noise_sigma = sigma;
        let src = AnyCycleSource::new(c, args.scalar);
        let d = gm_leakage::first_detection(&args.campaign(n, 3), &src, 256);
        let last = d.history.last().unwrap();
        println!(
            "PD unit={unit:2}: detect={:?} final max|t1|={:.2} at n={}",
            d.traces, last.1, last.0
        );
    }
    metrics.finish().expect("write metrics");
}
