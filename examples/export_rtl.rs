//! Export the generated masked DES cores as structural Verilog, plus a
//! VCD waveform of a glitchy secAND2 evaluation — the artefacts you'd
//! take to a real FPGA/ASIC flow or open in GTKWave.
//!
//! ```sh
//! cargo run --release --example export_rtl
//! ls target/experiments/rtl/
//! ```

use glitchmask::des::netlist_gen::{build_des_core, SboxStyle};
use glitchmask::masking::gadgets::sec_and2::build_sec_and2;
use glitchmask::masking::gadgets::AndInputs;
use glitchmask::netlist::{to_verilog, Netlist};
use glitchmask::sim::{DelayModel, SimCore, SimGraph, VcdSink};
use std::fs;
use std::path::Path;

fn main() -> std::io::Result<()> {
    let dir = Path::new("target/experiments/rtl");
    fs::create_dir_all(dir)?;

    for (file, style) in
        [("masked_des_ff.v", SboxStyle::Ff), ("masked_des_pd.v", SboxStyle::Pd { unit_luts: 10 })]
    {
        let core = build_des_core(style);
        let v = to_verilog(&core.netlist);
        let path = dir.join(file);
        fs::write(&path, &v)?;
        println!(
            "{}: {} gates -> {} ({} lines)",
            core.netlist.name(),
            core.netlist.num_gates(),
            path.display(),
            v.lines().count()
        );
    }

    // A VCD showing the Table I leak: x0 arriving last.
    let mut n = Netlist::new("secand2_glitch");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build_sec_and2(&mut n, io);
    n.name_net(out.z0, "z0");
    n.name_net(out.z1, "z1");
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    n.validate().unwrap();

    let delays = DelayModel::nominal(&n);
    let graph = SimGraph::new(&n);
    let mut sim = SimCore::new(&graph, 0);
    let mut vcd = VcdSink::all_nets(&n);
    // Shares of x = 1, y = 0 with y0 = y1 = 1: the leaky order ends in x0.
    sim.schedule(io.y1, 10_000, true);
    sim.schedule(io.y0, 20_000, true);
    sim.schedule(io.x1, 30_000, false); // stays 0
    sim.schedule(io.x0, 40_000, true);
    sim.run_until(&graph, &delays, 60_000, &mut vcd);
    let path = dir.join("secand2_x0_last.vcd");
    vcd.write_to(fs::File::create(&path)?, "secand2_glitch", "1ps")?;
    println!("glitch waveform ({} transitions) -> {}", vcd.num_events(), path.display());
    println!("\nopen the VCD in GTKWave and watch z0 pulse when x0 lands.");
    Ok(())
}
