//! **Table III** — utilisation of the full masked DES implementations
//! (including the masked key schedule).
//!
//! Generates both gate-level cores, runs the area report and static
//! timing analysis, and prints the paper's table side by side with the
//! reproduced numbers. The DOM-indep / DOM-dep rows echo the paper's
//! citation \[17\] of Sasdrich & Hutter's DOM-protected TDES: nothing here
//! builds a DOM gadget, and the per-AND fresh-bit costs in the randomness
//! note are the two constants below, taken from Groß et al.

use gm_bench::{Args, MetricsSink};
use gm_des::masked::{MaskedDesFf, MaskedDesPd};
use gm_des::netlist_gen::{build_des_core, driver, SboxStyle};
use gm_netlist::{area, timing, GateKind};
use gm_obs::Report;
use std::time::Instant;

/// Fresh random bits per DOM-indep AND: one bit `r` blinds both
/// cross-domain terms (Groß et al., "Domain-Oriented Masking", TIS 2016).
const DOM_INDEP_FRESH_BITS: usize = 1;
/// Fresh random bits per DOM-dep AND: DOM-indep's bit plus two that
/// re-mask one operand, so inputs may share randomness (Groß et al.).
const DOM_DEP_FRESH_BITS: usize = 3;

struct Row {
    name: &'static str,
    asic_ge: String,
    fpga: String,
    rand_bits: String,
    cycles: String,
    max_freq: String,
}

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("table3", &args);

    println!("TABLE III — utilisation of full DES implementations (incl. masked key schedule)");
    println!();

    let mut rows = Vec::new();

    // --- secAND2-FF core -------------------------------------------------
    let t0 = Instant::now();
    let ff = build_des_core(SboxStyle::Ff);
    let ff_area = area::report(&ff.netlist);
    let ff_timing = timing::analyze(&ff.netlist).expect("valid core");
    let mut counters = Report::new();
    counters.set("netlist.gates", ff.netlist.gates().len() as u64);
    metrics.record_phase(
        "ff-core-sta",
        t0.elapsed().as_secs_f64(),
        ff.netlist.gates().len() as u64,
        counters,
    );
    rows.push(Row {
        name: "secAND2-FF (ours)",
        asic_ge: format!("{:.0}", ff_area.total_ge),
        fpga: format!("{}/{}", ff_area.ff_count, ff_area.lut_estimate),
        rand_bits: format!("{}", MaskedDesFf::FRESH_BITS_PER_ROUND),
        cycles: format!("{}", MaskedDesFf::CYCLES_PER_ROUND),
        max_freq: format!("{:.0}", ff_timing.max_freq_mhz()),
    });

    // --- secAND2-PD core -------------------------------------------------
    let t0 = Instant::now();
    let pd = build_des_core(SboxStyle::Pd { unit_luts: 10 });
    let pd_area = area::report(&pd.netlist);
    let pd_timing = timing::analyze(&pd.netlist).expect("valid core");
    let mut counters = Report::new();
    counters.set("netlist.gates", pd.netlist.gates().len() as u64);
    metrics.record_phase(
        "pd-core-sta",
        t0.elapsed().as_secs_f64(),
        pd.netlist.gates().len() as u64,
        counters,
    );
    rows.push(Row {
        name: "secAND2-PD (ours)",
        asic_ge: format!("{:.0}", pd_area.total_ge),
        fpga: format!("{}/{}", pd_area.ff_count, pd_area.lut_estimate),
        rand_bits: format!("{}", MaskedDesPd::FRESH_BITS_PER_ROUND),
        cycles: format!("{}", MaskedDesPd::CYCLES_PER_ROUND),
        max_freq: format!("{:.0}", pd_timing.max_freq_mhz()),
    });

    // --- paper's reported numbers ---------------------------------------
    let paper = [
        ("secAND2-FF (paper)", "7671", "819/2129", "14", "7", "183"),
        ("secAND2-PD (paper)", "52273", "672/7428", "14", "2", "21"),
        ("DOM-indep [17] (paper)", "13800", "-", "176", "5", "-"),
        ("DOM-dep [17] (paper)", "22400", "-", "528", "5", "-"),
    ];

    println!(
        "  {:<24} {:>9} {:>11} {:>11} {:>12} {:>10}",
        "Version", "ASIC[GE]", "FPGA[FF/LUT]", "Rand/round", "Cycles/round", "MaxF[MHz]"
    );
    println!("  {}", "-".repeat(84));
    for r in &rows {
        println!(
            "  {:<24} {:>9} {:>11} {:>11} {:>12} {:>10}",
            r.name, r.asic_ge, r.fpga, r.rand_bits, r.cycles, r.max_freq
        );
    }
    for (name, ge, fpga, rand, cyc, freq) in paper {
        println!("  {name:<24} {ge:>9} {fpga:>11} {rand:>11} {cyc:>12} {freq:>10}");
    }

    // --- detail: PD with and without DelayUnits --------------------------
    println!();
    println!("secAND2-PD detail (the paper reports 12592 GE without DelayUnits):");
    println!(
        "  logic only: {:.0} GE; DelayUnits: {:.0} GE over {} delay elements",
        pd_area.logic_ge(),
        pd_area.delay_ge,
        pd_area.delay_buf_count
    );
    println!(
        "  DelayUnits in the design: {} (paper: ~493 of 10 LUTs each)",
        pd_area.delay_buf_count / 10
    );

    // --- randomness accounting -------------------------------------------
    println!();
    println!("Randomness (per round, recycled across 8 S-boxes):");
    println!("  ours: 14 bits (10 product refresh + 4 MUX-stage-1 refresh)");
    println!("  without recycling: 112 bits; DOM-indep: 22 ANDs × {DOM_INDEP_FRESH_BITS} bit; DOM-dep: × {DOM_DEP_FRESH_BITS} bits");

    // --- block latency ----------------------------------------------------
    println!();
    println!("Block latency:");
    println!(
        "  secAND2-FF: {} cycles/block (paper: 115); gate-level driver: {} cycles",
        MaskedDesFf::TOTAL_CYCLES,
        driver::total_cycles(SboxStyle::Ff)
    );
    println!(
        "  secAND2-PD: {} cycles/block; gate-level driver: {} cycles",
        MaskedDesPd::TOTAL_CYCLES,
        driver::total_cycles(SboxStyle::Pd { unit_luts: 10 })
    );

    // --- per-module area breakdown ---------------------------------------
    println!();
    println!("FF-core area by module (GE):");
    let mut mods: Vec<(String, f64)> = area::by_module(&ff.netlist).into_iter().collect();
    mods.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let key_ge: f64 =
        mods.iter().filter(|(m, _)| m.starts_with("key_schedule")).map(|(_, g)| g).sum();
    for (m, g) in mods.iter().take(6) {
        println!("  {:<28} {:>8.0}", if m.is_empty() { "(top)" } else { m }, g);
    }
    println!("  masked key schedule total: {key_ge:.0} GE (paper: ~900 GE overhead)");

    // --- delay element sanity --------------------------------------------
    let ff_delay_gates = ff.netlist.gates().iter().filter(|g| g.kind == GateKind::DelayBuf).count();
    assert_eq!(ff_delay_gates, 0, "the FF core has no delay elements");
    metrics.finish().expect("write metrics");
}
