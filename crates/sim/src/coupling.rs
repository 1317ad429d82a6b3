//! Crosstalk (coupling) between designated nets.
//!
//! Section VII-C of the paper attributes the residual first-order leakage
//! of the secAND2-PD DES core to *coupling*: the long LUT-chain delay lines
//! run close together, so the effective switching capacitance of one wire
//! depends on what its neighbour is doing (the Miller effect). This module
//! implements that mechanism:
//!
//! * if the aggressor toggles while the victim is **static**, the coupling
//!   capacitance adds `±k/2` depending on whether the wires end up at the
//!   same or opposite level;
//! * if both wires toggle within a small window, a same-direction pair
//!   switches the coupling capacitance not at all (`-k`), while an
//!   opposite-direction pair switches it twice (`+k`).
//!
//! The per-transition extra weight is therefore a function of *pairs* of
//! signal values — which is precisely how a first-order-secure sharing can
//! leak first-order information through physical adjacency.

use crate::engine::PowerSink;
use gm_netlist::{Csr, NetId};

/// Static description of which nets couple, and how strongly.
#[derive(Debug, Clone, Default)]
pub struct CouplingModel {
    pairs: Vec<(NetId, NetId, f64)>,
    /// Two transitions closer than this count as simultaneous.
    pub window_ps: u64,
}

impl CouplingModel {
    /// Empty model (no crosstalk).
    pub fn new(window_ps: u64) -> Self {
        CouplingModel { pairs: Vec::new(), window_ps }
    }

    /// Declare that `a` and `b` are routed adjacently with coupling
    /// strength `k` (in toggle-weight units).
    pub fn add_pair(&mut self, a: NetId, b: NetId, k: f64) {
        self.pairs.push((a, b, k));
    }

    /// Build the runtime sink wrapping `inner`. The sink owns flat copies
    /// of the pair tables (no borrow of the model), so it can persist
    /// inside campaign workers and be [`CouplingSink::reset`] per trace.
    pub fn sink<S: PowerSink>(&self, inner: S) -> CouplingSink<S> {
        // Dense-index the coupled nets so per-transition state lives in a
        // small flat array instead of hash maps.
        let mut coupled: Vec<u32> = Vec::new();
        let dense_of = |coupled: &mut Vec<u32>, n: NetId| -> u32 {
            match coupled.iter().position(|&c| c == n.0) {
                Some(i) => i as u32,
                None => {
                    coupled.push(n.0);
                    coupled.len() as u32 - 1
                }
            }
        };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut ks: Vec<f64> = Vec::new();
        for &(a, b, k) in &self.pairs {
            let da = dense_of(&mut coupled, a);
            let db = dense_of(&mut coupled, b);
            edges.push((da, db));
            edges.push((db, da));
            ks.push(k);
            ks.push(k);
        }
        let partners = Csr::from_pairs(coupled.len(), &edges);
        // Csr preserves pair order per row, but rows interleave: rebuild
        // the k payload aligned with the flat value order.
        let mut partner_k = vec![0.0f64; edges.len()];
        let mut cursor: Vec<usize> =
            (0..coupled.len()).map(|d| partners.row_range(d).start).collect();
        for (&(d, _), &k) in edges.iter().zip(&ks) {
            partner_k[cursor[d as usize]] = k;
            cursor[d as usize] += 1;
        }
        let max_net = coupled.iter().max().map_or(0, |&m| m as usize + 1);
        let mut dense_index = vec![u32::MAX; max_net];
        for (d, &n) in coupled.iter().enumerate() {
            dense_index[n as usize] = d as u32;
        }
        CouplingSink {
            window_ps: self.window_ps,
            dense_index,
            partners,
            partner_k,
            state: vec![IDLE; coupled.len()],
            inner,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NetState {
    level: bool,
    last_edge_ps: u64,
    last_dir_rising: bool,
}

/// The never-toggled state (matches a missing entry of the old hash map).
const IDLE: NetState = NetState { level: false, last_edge_ps: u64::MAX, last_dir_rising: false };

/// Runtime coupling sink; forwards every transition to `inner`, adding
/// crosstalk weight for transitions on coupled nets. Self-contained (no
/// borrow of the [`CouplingModel`]): build once, [`CouplingSink::reset`]
/// between traces.
pub struct CouplingSink<S: PowerSink> {
    window_ps: u64,
    /// net id -> dense coupled-net index (`u32::MAX` = uncoupled).
    dense_index: Vec<u32>,
    /// dense index -> dense partner indices.
    partners: Csr,
    /// Coupling strength per `partners` value slot.
    partner_k: Vec<f64>,
    /// Per coupled net, dense-indexed.
    state: Vec<NetState>,
    inner: S,
}

impl<S: PowerSink> CouplingSink<S> {
    /// Access the wrapped sink (e.g. to read accumulated power).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Access the wrapped sink mutably (e.g. to clear a persistent trace).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Consume the wrapper, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Forget transition history (between independent traces).
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|s| *s = IDLE);
    }
}

impl<S: PowerSink> PowerSink for CouplingSink<S> {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
        let mut extra = 0.0;
        let dense = self.dense_index.get(net.index()).copied().unwrap_or(u32::MAX);
        if dense != u32::MAX {
            let range = self.partners.row_range(dense as usize);
            for (&other, &k) in self.partners.row(dense as usize).iter().zip(&self.partner_k[range])
            {
                let other_state = self.state[other as usize];
                let simultaneous = other_state.last_edge_ps != u64::MAX
                    && time_ps.abs_diff(other_state.last_edge_ps) <= self.window_ps;
                if simultaneous {
                    // Same-direction pair: coupling cap does not switch.
                    // Opposite: it switches twice.
                    extra += if other_state.last_dir_rising == new_value { -k } else { k };
                } else {
                    // Victim static: Miller cap charges toward/away from it.
                    extra += if other_state.level == new_value { -0.5 * k } else { 0.5 * k };
                }
            }
            self.state[dense as usize] =
                NetState { level: new_value, last_edge_ps: time_ps, last_dir_rising: new_value };
        }
        self.inner.transition(time_ps, net, new_value, weight + extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::CountingSink;

    fn fire(sink: &mut impl PowerSink, t: u64, net: u32, v: bool) {
        sink.transition(t, NetId(net), v, 1.0);
    }

    #[test]
    fn uncoupled_nets_pass_through() {
        let model = CouplingModel::new(100);
        let mut sink = model.sink(CountingSink::default());
        fire(&mut sink, 10, 0, true);
        fire(&mut sink, 20, 1, true);
        let c = sink.into_inner();
        assert_eq!(c.count, 2);
        assert!((c.weighted - 2.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_simultaneous_edges_cost_more() {
        let mut model = CouplingModel::new(100);
        model.add_pair(NetId(0), NetId(1), 0.4);

        // Same direction: total = 1.0 (first, vs silent partner at level 0,
        // rising => opposite level => +0.2) + second rising within window,
        // same dir => -0.4.
        let mut s = model.sink(CountingSink::default());
        fire(&mut s, 10, 0, true);
        fire(&mut s, 20, 1, true);
        let same = s.into_inner().weighted;

        // Opposite direction: net1 first set high (outside window), then
        // net0 rises while net1 falls simultaneously.
        let mut s = model.sink(CountingSink::default());
        fire(&mut s, 10, 1, true); // prep, far in the past
        fire(&mut s, 10_000, 0, true);
        fire(&mut s, 10_020, 1, false);
        let opp = s.into_inner().weighted;

        assert!(opp > same, "opposite-direction crosstalk must cost more: opp={opp} same={same}");
    }

    #[test]
    fn static_victim_level_matters() {
        let mut model = CouplingModel::new(10);
        model.add_pair(NetId(0), NetId(1), 1.0);

        // Victim at level 0, aggressor rises to 1 (opposite): +0.5.
        let mut s = model.sink(CountingSink::default());
        fire(&mut s, 1_000, 0, true);
        let toward_opposite = s.into_inner().weighted;

        // Victim raised to 1 long before, aggressor rises to 1 (same): -0.5.
        let mut s = model.sink(CountingSink::default());
        fire(&mut s, 10, 1, true);
        fire(&mut s, 100_000, 0, true);
        let toward_same = s.into_inner().weighted - 1.5; // subtract net1's own event (1.0 + 0.5)

        assert!(toward_opposite > toward_same);
    }

    #[test]
    fn reset_clears_history() {
        let mut model = CouplingModel::new(100);
        model.add_pair(NetId(0), NetId(1), 1.0);
        let mut s = model.sink(CountingSink::default());
        fire(&mut s, 10, 0, true);
        s.reset();
        // After reset the partner looks static-low again.
        fire(&mut s, 20, 1, true);
        let w = s.into_inner().weighted;
        // Both events saw "static low partner, rising": +0.5 each => 3.0.
        assert!((w - 3.0).abs() < 1e-12, "weighted={w}");
    }
}
