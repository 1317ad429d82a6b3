//! Glitch census of the two masked DES cores.
//!
//! Records full waveforms of one encryption per core and counts narrow
//! pulses (glitches) per module. The census quantifies the paper's
//! qualitative picture: the FF core confines evaluation waves behind
//! enables, while the PD core's single-cycle S-box — with its
//! deliberately skewed arrivals — generates far more transient activity
//! per cycle, all of it (by construction) on safe wires.

use gm_bench::{Args, MetricsSink};
use gm_core::MaskRng;
use gm_des::netlist_gen::driver::EncryptionInputs;
use gm_des::netlist_gen::{build_des_core, DesCoreDriver, SboxStyle};
use gm_netlist::netlist::Driver;
use gm_netlist::timing::analyze;
use gm_sim::{DelayModel, WaveformRecorder};
use std::collections::BTreeMap;

fn census(style: SboxStyle, seed: u64) -> (usize, usize, BTreeMap<String, usize>) {
    let core = build_des_core(style);
    let timing = analyze(&core.netlist).expect("valid core");
    let period = timing.critical_path_ps * 6 / 5;
    let delays = DelayModel::with_variation(&core.netlist, 0.15, 40.0, seed);
    let mut drv = DesCoreDriver::new(&core, &delays, period, seed ^ 1);
    let mut rng = MaskRng::new(seed ^ 2);
    let inputs = EncryptionInputs::draw(0x0123456789ABCDEF, 0x133457799BBCDFF1, &mut rng);
    let mut rec = WaveformRecorder::new(core.netlist.num_nets());
    let _ = drv.encrypt(&inputs, &mut rec);

    // A "glitch" is a pulse narrower than half a logic level (< 600 ps):
    // wide enough to have propagated, too narrow to be a data wave.
    let mut per_module: BTreeMap<String, usize> = BTreeMap::new();
    let mut total_glitches = 0;
    for (id, count) in rec.glitch_summary(600) {
        if let Driver::Gate(g) = core.netlist.driver(id) {
            let module = core.netlist.module_of(g);
            let top = module.split('/').next().unwrap_or("(top)").to_owned();
            *per_module.entry(top).or_default() += count;
            total_glitches += count;
        }
    }
    (total_glitches, rec.total_transitions(), per_module)
}

fn main() {
    let args = Args::parse();
    let mut metrics = MetricsSink::from_args("glitch_census", &args);
    println!("GLITCH CENSUS — one full encryption per core, gate-level waveforms\n");
    for (name, style, phase) in [
        ("secAND2-FF core", SboxStyle::Ff, "ff-core"),
        ("secAND2-PD core (10-LUT units)", SboxStyle::Pd { unit_luts: 10 }, "pd-core"),
    ] {
        let t0 = std::time::Instant::now();
        let (glitches, transitions, by_module) = census(style, args.seed);
        let mut counters = gm_obs::Report::new();
        counters.set("census.transitions", transitions as u64);
        counters.set("census.glitches", glitches as u64);
        for (module, &count) in by_module.iter().filter(|(_, &c)| c > 0) {
            let m = if module.is_empty() { "top" } else { module };
            counters.set(&format!("census.module.{m}"), count as u64);
        }
        metrics.record_phase(phase, t0.elapsed().as_secs_f64(), 1, counters);
        println!("{name}: {transitions} transitions, {glitches} glitch pulses (<600 ps)");
        for (module, count) in by_module.iter().filter(|(_, &c)| c > 0) {
            let m = if module.is_empty() { "(top)" } else { module };
            println!("    {m:<16} {count:>6}");
        }
        println!();
    }
    println!("Both cores glitch — masking that *survives* glitches, not masking");
    println!("without glitches, is the paper's contribution. What differs is where");
    println!("the energy lands: the PD core's transients ride on the delay-ordered");
    println!("wires whose arrival sequence keeps them data-independent.");
    metrics.finish().expect("write metrics");
}
