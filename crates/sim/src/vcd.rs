//! VCD (Value Change Dump) waveform export.
//!
//! A [`VcdSink`] records every applied transition during simulation and
//! renders an IEEE-1364 VCD file viewable in GTKWave & co. — the
//! debugging loop any RTL engineer expects when chasing a glitch.
//! Symbols are precomputed per watched net, and [`VcdSink::write_to`]
//! streams through a [`std::io::BufWriter`] so large dumps never build
//! per-transition strings.

use crate::engine::PowerSink;
use gm_netlist::{NetId, Netlist};
use std::io;

/// Records transitions for a chosen set of nets and renders VCD.
#[derive(Debug, Clone)]
pub struct VcdSink {
    /// (net, symbol index into watched) lookup.
    watch_index: Vec<Option<u32>>,
    /// Watched nets with their display name and precomputed VCD symbol.
    watched: Vec<(NetId, String, String)>,
    initial: Vec<bool>,
    events: Vec<(u64, u32, bool)>,
}

impl VcdSink {
    /// Watch the given nets; names come from the netlist (or `n<id>`).
    /// `initial_values` are the pre-simulation values (e.g. after reset).
    pub fn new(netlist: &Netlist, nets: &[NetId], initial_values: &[bool]) -> Self {
        assert_eq!(nets.len(), initial_values.len(), "one initial value per net");
        let mut watch_index = vec![None; netlist.num_nets()];
        let watched = nets
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                watch_index[id.index()] = Some(i as u32);
                let name =
                    netlist.net_name(id).map(str::to_owned).unwrap_or_else(|| format!("n{}", id.0));
                (id, name, symbol(i))
            })
            .collect();
        VcdSink { watch_index, watched, initial: initial_values.to_vec(), events: Vec::new() }
    }

    /// Watch every net of the design (initial values all zero).
    pub fn all_nets(netlist: &Netlist) -> Self {
        let nets: Vec<NetId> = (0..netlist.num_nets() as u32).map(NetId).collect();
        let init = vec![false; nets.len()];
        Self::new(netlist, &nets, &init)
    }

    /// Number of recorded transitions.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Drop recorded transitions (between traces; the watch set stays).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Stream the VCD file contents into `writer` (buffered internally).
    pub fn write_to<W: io::Write>(
        &self,
        writer: W,
        design_name: &str,
        timescale: &str,
    ) -> io::Result<()> {
        use io::Write as _;
        let mut out = io::BufWriter::new(writer);
        writeln!(out, "$date synthetic $end")?;
        writeln!(out, "$version gm-sim $end")?;
        writeln!(out, "$timescale {timescale} $end")?;
        writeln!(out, "$scope module {design_name} $end")?;
        for (_, name, sym) in &self.watched {
            writeln!(out, "$var wire 1 {sym} {name} $end")?;
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;
        writeln!(out, "$dumpvars")?;
        for (i, &v) in self.initial.iter().enumerate() {
            writeln!(out, "{}{}", u8::from(v), self.watched[i].2)?;
        }
        writeln!(out, "$end")?;
        let mut last_time = u64::MAX;
        for &(t, sym, v) in &self.events {
            if t != last_time {
                writeln!(out, "#{t}")?;
                last_time = t;
            }
            writeln!(out, "{}{}", u8::from(v), self.watched[sym as usize].2)?;
        }
        out.flush()
    }

    /// Render the VCD file contents as a `String`.
    pub fn render(&self, design_name: &str, timescale: &str) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf, design_name, timescale).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("VCD output is ASCII")
    }
}

/// VCD short identifiers: printable ASCII 33..=126, base-94.
fn symbol(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

impl PowerSink for VcdSink {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, _weight: f64) {
        if let Some(sym) = self.watch_index[net.index()] {
            self.events.push((time_ps, sym, new_value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayModel, SimCore, SimGraph};
    use gm_netlist::Netlist;

    #[test]
    fn symbols_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000 {
            let s = symbol(i);
            assert!(s.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(s));
        }
    }

    #[test]
    fn vcd_of_a_glitchy_run() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0);
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.name_net(y, "y");
        n.output("y", y);
        n.validate().unwrap();

        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        let mut vcd = VcdSink::all_nets(&n);
        sim.schedule(a, 1_000, true);
        sim.schedule(b, 1_000, true);
        sim.run_until(&g, &delays, 50_000, &mut vcd);
        assert!(vcd.num_events() >= 5);

        let text = vcd.render("t", "1ps");
        assert!(text.starts_with("$date"));
        assert!(text.contains("$var wire 1"));
        assert!(text.contains(" y $end"));
        assert!(text.contains("#1000"));
        // The glitch on y appears as both a rise and a fall.
        let y_sym = {
            // y is the last watched net by id order; find its symbol line.
            let line = text.lines().find(|l| l.ends_with(" y $end")).expect("y declared");
            line.split_whitespace().nth(3).unwrap().to_owned()
        };
        let rises = text.lines().filter(|l| *l == format!("1{y_sym}")).count();
        let falls = text.lines().filter(|l| *l == format!("0{y_sym}")).count();
        assert!(rises >= 1 && falls >= 1, "glitch pulse visible in VCD");
    }

    #[test]
    fn watch_subset_only() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        n.output("x", x);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        let mut vcd = VcdSink::new(&n, &[a], &[false]);
        sim.schedule(a, 100, true);
        sim.run_until(&g, &delays, 10_000, &mut vcd);
        assert_eq!(vcd.num_events(), 1, "only the watched net recorded");

        // clear() drops events but keeps the watch set.
        vcd.clear();
        assert_eq!(vcd.num_events(), 0);
        sim.schedule(a, 20_000, false);
        sim.run_until(&g, &delays, 30_000, &mut vcd);
        assert_eq!(vcd.num_events(), 1);
    }

    #[test]
    fn write_to_matches_render() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        n.output("x", x);
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        let mut vcd = VcdSink::all_nets(&n);
        sim.schedule(a, 100, true);
        sim.run_until(&g, &delays, 10_000, &mut vcd);
        let mut buf = Vec::new();
        vcd.write_to(&mut buf, "t", "1ps").unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), vcd.render("t", "1ps"));
    }
}
