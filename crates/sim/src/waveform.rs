//! Full waveform recording with glitch-oriented queries.
//!
//! Where [`crate::PowerTrace`] aggregates activity into power samples,
//! a [`WaveformRecorder`] keeps every transition of every watched net so
//! you can interrogate the simulation like a logic analyser: value at a
//! time, toggle counts in a window, pulse widths — and, the query this
//! workspace exists for, *glitch detection*: pulses narrower than a
//! threshold that a zero-delay analysis would never show.

use crate::engine::PowerSink;
use gm_netlist::NetId;

/// Records `(time, new_value)` transitions per net.
#[derive(Debug, Clone)]
pub struct WaveformRecorder {
    initial: Vec<bool>,
    transitions: Vec<Vec<(u64, bool)>>,
}

impl WaveformRecorder {
    /// Recorder for a design with `num_nets` nets, all initially
    /// `initial_values[i]` (pass the post-reset settle state).
    pub fn new(initial_values: Vec<bool>) -> Self {
        WaveformRecorder {
            transitions: vec![Vec::new(); initial_values.len()],
            initial: initial_values,
        }
    }

    /// Recorder with all-zero initial state.
    pub fn all_zero(num_nets: usize) -> Self {
        Self::new(vec![false; num_nets])
    }

    /// The recorded transitions of one net.
    pub fn transitions(&self, net: NetId) -> &[(u64, bool)] {
        &self.transitions[net.index()]
    }

    /// Value of `net` at time `t` (after applying all transitions ≤ t).
    pub fn value_at(&self, net: NetId, t: u64) -> bool {
        let trs = &self.transitions[net.index()];
        match trs.partition_point(|&(time, _)| time <= t) {
            0 => self.initial[net.index()],
            k => trs[k - 1].1,
        }
    }

    /// Number of transitions of `net` inside `[from, to)`.
    pub fn toggles_in(&self, net: NetId, from: u64, to: u64) -> usize {
        let trs = &self.transitions[net.index()];
        trs.partition_point(|&(t, _)| t < to) - trs.partition_point(|&(t, _)| t < from)
    }

    /// Widths of all complete pulses of `net` (time between consecutive
    /// transitions), in order.
    pub fn pulse_widths(&self, net: NetId) -> Vec<u64> {
        self.transitions[net.index()].windows(2).map(|w| w[1].0 - w[0].0).collect()
    }

    /// Glitch query: pulses of `net` narrower than `max_width_ps`.
    pub fn glitches(&self, net: NetId, max_width_ps: u64) -> Vec<(u64, u64)> {
        let trs = &self.transitions[net.index()];
        trs.windows(2)
            .filter(|w| w[1].0 - w[0].0 < max_width_ps)
            .map(|w| (w[0].0, w[1].0))
            .collect()
    }

    /// Nets that glitched (any pulse `< max_width_ps`), with counts.
    pub fn glitch_summary(&self, max_width_ps: u64) -> Vec<(NetId, usize)> {
        (0..self.transitions.len())
            .filter_map(|i| {
                let id = NetId(i as u32);
                let count = self.glitches(id, max_width_ps).len();
                (count > 0).then_some((id, count))
            })
            .collect()
    }

    /// Total transitions across all nets.
    pub fn total_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }
}

impl PowerSink for WaveformRecorder {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, _weight: f64) {
        self.transitions[net.index()].push((time_ps, new_value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayModel, SimCore, SimGraph};
    use gm_netlist::Netlist;

    fn record_glitchy_xor() -> (Netlist, NetId, WaveformRecorder) {
        // y = (a&b) ^ buf(buf(a|b)): skewed XOR inputs pulse y when a,b
        // rise together.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let p = n.and2(a, b);
        let q0 = n.or2(a, b);
        let q1 = n.buf(q0);
        let q = n.buf(q1);
        let y = n.xor2(p, q);
        n.output("y", y);
        n.validate().unwrap();
        let delays = DelayModel::nominal(&n);
        let g = SimGraph::new(&n);
        let mut sim = SimCore::new(&g, 0);
        let mut rec = WaveformRecorder::all_zero(n.num_nets());
        sim.schedule(a, 1_000, true);
        sim.schedule(b, 1_000, true);
        sim.run_until(&g, &delays, 50_000, &mut rec);
        (n, y, rec)
    }

    #[test]
    fn records_and_queries_values() {
        let (_, y, rec) = record_glitchy_xor();
        assert!(!rec.value_at(y, 0), "initial 0");
        // Steady state: (1&1) ^ (1|1) = 0.
        assert!(!rec.value_at(y, 49_999));
        // But it pulsed in between.
        assert_eq!(rec.transitions(y).len(), 2, "rise then fall");
        assert!(rec.value_at(y, rec.transitions(y)[0].0), "high during the pulse");
    }

    #[test]
    fn glitch_detection() {
        let (_, y, rec) = record_glitchy_xor();
        let pulses = rec.pulse_widths(y);
        assert_eq!(pulses.len(), 1);
        // The pulse is about two buffer delays (350 ps each) wide.
        assert!((200..=700).contains(&pulses[0]), "width {}", pulses[0]);
        assert_eq!(rec.glitches(y, 1_000).len(), 1);
        assert!(rec.glitches(y, 100).is_empty(), "not narrower than 100 ps");
        let summary = rec.glitch_summary(1_000);
        assert!(summary.iter().any(|&(net, c)| net == y && c == 1));
    }

    #[test]
    fn toggle_window_counts() {
        let (_, y, rec) = record_glitchy_xor();
        let total = rec.total_transitions();
        assert!(total >= 6, "a,b,p,q0..q,y all move: {total}");
        let (start, end) = (rec.transitions(y)[0].0, rec.transitions(y)[1].0);
        assert_eq!(rec.toggles_in(y, start, end + 1), 2);
        assert_eq!(rec.toggles_in(y, end + 1, 50_000), 0);
    }
}
