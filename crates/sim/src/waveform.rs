//! Full waveform recording with glitch-oriented queries.
//!
//! Where [`crate::PowerTrace`] aggregates activity into power samples,
//! a [`WaveformRecorder`] keeps every transition of every watched net for
//! *glitch detection*: pulses narrower than a threshold that a zero-delay
//! analysis would never show.

use crate::engine::PowerSink;
use gm_netlist::NetId;

/// Records `(time, new_value)` transitions per net.
#[derive(Debug, Clone)]
pub struct WaveformRecorder {
    transitions: Vec<Vec<(u64, bool)>>,
}

impl WaveformRecorder {
    /// An empty recorder for a design with `num_nets` nets.
    pub fn new(num_nets: usize) -> Self {
        WaveformRecorder { transitions: vec![Vec::new(); num_nets] }
    }

    /// The recorded transitions of one net.
    pub fn transitions(&self, net: NetId) -> &[(u64, bool)] {
        &self.transitions[net.index()]
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
        let mut rec = WaveformRecorder::new(n.num_nets());
        sim.schedule(a, 1_000, true);
        sim.schedule(b, 1_000, true);
        sim.run_until(&g, &delays, 50_000, &mut rec);
        (n, y, rec)
    }

    #[test]
    fn records_and_queries_values() {
        let (_, y, rec) = record_glitchy_xor();
        // Steady state: (1&1) ^ (1|1) = 0, but y pulsed in between.
        let trs = rec.transitions(y);
        assert_eq!(trs.len(), 2, "rise then fall");
        assert_eq!((trs[0].1, trs[1].1), (true, false));
        assert!(trs[0].0 > 1_000 && trs[0].0 < trs[1].0);
    }

    #[test]
    fn glitch_detection() {
        let (_, y, rec) = record_glitchy_xor();
        let pulses = rec.glitches(y, 1_000);
        assert_eq!(pulses.len(), 1);
        // The pulse is about two buffer delays (350 ps each) wide.
        let width = pulses[0].1 - pulses[0].0;
        assert!((200..=700).contains(&width), "width {width}");
        assert!(rec.glitches(y, 100).is_empty(), "not narrower than 100 ps");
        let summary = rec.glitch_summary(1_000);
        assert!(summary.iter().any(|&(net, c)| net == y && c == 1));
    }

    #[test]
    fn toggle_window_counts() {
        let (n, y, rec) = record_glitchy_xor();
        let total = rec.total_transitions();
        assert!(total >= 6, "a,b,p,q0..q,y all move: {total}");
        let per_net: usize =
            (0..n.num_nets()).map(|i| rec.transitions(NetId(i as u32)).len()).sum();
        assert_eq!(per_net, total);
        assert_eq!(rec.transitions(y).len(), 2);
    }
}
