//! Exact first-order probing oracle, stationary and glitch-extended.
//!
//! A gadget netlist is driven through the `gm-sim` event engine by an
//! arrival schedule: each entry puts one share bit of a masked variable,
//! a fresh bit or a constant on a primary input at a given time. The
//! oracle runs *every* assignment of unshared values, masks and fresh
//! bits on one reused [`SimCore`] under a jitter-free [`DelayModel`], so
//! each assignment has exactly one timed outcome and nothing is sampled.
//!
//! Each distinct arrival time opens a window; a window ends just before
//! the next arrival, and the last one runs to quiescence. Per window the
//! oracle records every net's value at the window's end and its toggle
//! count within it, and reports two kinds of violation:
//!
//! * **stationary** — `P(net = 1)` at a window's end depends on the
//!   unshared values (`secAND2` has none; the classical masked AND does);
//! * **glitch-extended** — the mean toggle count within a window depends
//!   on them. This is what a power probe integrates, and it is the
//!   mechanism behind Table I: `secAND2` leaks exactly when an `x` share
//!   arrives last.
//!
//! Every value class holds the same number of assignments, so a
//! violation is an integer difference between class sums: exact, with no
//! threshold.

use gm_netlist::{NetId, Netlist};
use gm_sim::power::NetToggleSink;
use gm_sim::{DelayModel, SimCore, SimGraph};

/// The bit one scheduled arrival drives onto its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Share `share` (0 or 1) of masked variable `var`: share 0 is the
    /// mask, share 1 the value XOR the mask.
    Share {
        /// Masked-variable index.
        var: usize,
        /// Share index, 0 or 1.
        share: usize,
    },
    /// Fresh uniform bit `i` (refresh randomness).
    Fresh(usize),
    /// A constant level, such as a reset to 0.
    Const(bool),
}

/// One entry of an arrival schedule: `net` takes `drive`'s bit at
/// `time_ps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Primary-input net driven.
    pub net: NetId,
    /// Arrival time in ps.
    pub time_ps: u64,
    /// The bit it carries.
    pub drive: Drive,
}

/// A net whose statistic in one window depends on the unshared values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Window index (into [`ProbeReport::windows`]).
    pub window: usize,
    /// The dependent net.
    pub net: NetId,
    /// Largest minus smallest per-class value: a probability for a
    /// stationary violation, a mean toggle count for a glitch-extended
    /// one.
    pub gap: f64,
}

/// Result of [`probe_check`].
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Start time of each window: the distinct arrival times, ascending.
    pub windows: Vec<u64>,
    /// Assignments enumerated.
    pub assignments: u64,
    /// Nets whose value at a window's end depends on the unshared values.
    pub stationary: Vec<Violation>,
    /// Nets whose mean toggle count in a window depends on them.
    pub glitch: Vec<Violation>,
}

impl ProbeReport {
    /// True when no net violates either notion in any window.
    pub fn secure(&self) -> bool {
        self.stationary.is_empty() && self.glitch.is_empty()
    }

    /// Largest glitch-extended gap in toggles (0 when there is none).
    pub fn max_glitch_gap(&self) -> f64 {
        self.glitch.iter().map(|v| v.gap).fold(0.0, f64::max)
    }
}

/// Run the exhaustive oracle.
///
/// The masked-variable and fresh-bit counts come from the schedule (the
/// highest index used, plus one); primary inputs the schedule never
/// drives stay 0.
///
/// # Panics
///
/// Panics when the netlist fails validation or has flip-flops (the
/// event core never clocks them), when `delays` has jitter, when a
/// scheduled net is not a primary input, or when there are more than 16
/// free bits to enumerate (`2·vars + fresh`).
pub fn probe_check(n: &Netlist, schedule: &[Arrival], delays: &DelayModel) -> ProbeReport {
    n.validate().expect("netlist must validate before probing");
    assert!(
        n.gates().iter().all(|g| !g.kind.is_sequential()),
        "the exact oracle runs combinational gadgets only"
    );
    assert!(
        delays.jitter_sigma_ps() == 0.0,
        "the exact oracle needs a jitter-free delay model (one outcome per assignment)"
    );
    for a in schedule {
        assert!(n.inputs().contains(&a.net), "scheduled net {:?} is not a primary input", a.net);
    }
    let count = |f: fn(Drive) -> Option<usize>| {
        schedule.iter().filter_map(|a| f(a.drive)).map(|i| i + 1).max().unwrap_or(0)
    };
    let v = count(|d| if let Drive::Share { var, .. } = d { Some(var) } else { None });
    let f = count(|d| if let Drive::Fresh(i) = d { Some(i) } else { None });
    assert!(v + v + f <= 16, "exhaustive enumeration limited to 16 free bits");

    let mut windows: Vec<u64> = schedule.iter().map(|a| a.time_ps).collect();
    windows.sort_unstable();
    windows.dedup();

    let graph = SimGraph::new(n);
    let mut sim = SimCore::new(&graph, 0);
    let mut sink = NetToggleSink::new(n.num_nets());
    let num_nets = n.num_nets();
    let num_vals = 1usize << v;
    // Class sums, laid out [window][value class][net].
    let at = |w: usize, class: usize| (w * num_vals + class) * num_nets;
    let mut ones = vec![0u32; windows.len() * num_vals * num_nets];
    let mut toggles = vec![0u32; ones.len()];

    // Enumerate: unshared values (v bits) × masks (v bits) × fresh (f bits).
    for vals in 0..num_vals {
        for masks in 0..num_vals {
            for fr in 0..(1usize << f) {
                let bit = |d: Drive| match d {
                    Drive::Share { var, share } => {
                        (masks ^ if share == 1 { vals } else { 0 }) >> var & 1 == 1
                    }
                    Drive::Fresh(i) => fr >> i & 1 == 1,
                    Drive::Const(b) => b,
                };
                sim.reset(&graph, 0);
                for a in schedule {
                    sim.schedule(a.net, a.time_ps, bit(a.drive));
                }
                for w in 0..windows.len() {
                    sink.clear();
                    match windows.get(w + 1) {
                        Some(&next) => sim.run_until(&graph, delays, next - 1, &mut sink),
                        None => sim.run_to_quiescence(&graph, delays, &mut sink),
                    }
                    let base = at(w, vals);
                    for net in 0..num_nets {
                        ones[base + net] += u32::from(sim.value(NetId(net as u32)));
                        toggles[base + net] += sink.counts[net];
                    }
                }
            }
        }
    }

    let per_class = (num_vals << f) as f64;
    let violations = |sums: &[u32]| {
        let mut out = Vec::new();
        for w in 0..windows.len() {
            for net in 0..num_nets {
                let class = |c: usize| sums[at(w, c) + net];
                let (lo, hi) = (0..num_vals)
                    .map(class)
                    .fold((u32::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
                if hi > lo {
                    let gap = f64::from(hi - lo) / per_class;
                    out.push(Violation { window: w, net: NetId(net as u32), gap });
                }
            }
        }
        out
    };
    ProbeReport {
        assignments: ((num_vals * num_vals) << f) as u64,
        stationary: violations(&ones),
        glitch: violations(&toggles),
        windows,
    }
}

/// The schedule that drives every share of `vars` (share-net pairs) at
/// one instant: the stationary check's setting, plus whatever glitches
/// a simultaneous arrival causes.
pub fn simultaneous(vars: &[(NetId, NetId)], time_ps: u64) -> Vec<Arrival> {
    vars.iter()
        .enumerate()
        .flat_map(|(var, &(s0, s1))| {
            [(s0, 0), (s1, 1)].map(|(net, share)| Arrival {
                net,
                time_ps,
                drive: Drive::Share { var, share },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::sec_and2::{build_insecure_and2, build_sec_and2};
    use crate::gadgets::trichina::build_trichina_and;
    use crate::gadgets::AndInputs;

    fn two_var_fixture(
        build: impl FnOnce(&mut Netlist, AndInputs) -> crate::gadgets::AndOutputs,
    ) -> (Netlist, AndInputs) {
        let mut n = Netlist::new("g");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let out = build(&mut n, io);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        (n, io)
    }

    fn both_vars(io: AndInputs) -> Vec<Arrival> {
        simultaneous(&[(io.x0, io.x1), (io.y0, io.y1)], 1_000)
    }

    /// secAND2 is first-order probing secure in the stationary model —
    /// the property Biryukov et al. prove, checked here exhaustively.
    #[test]
    fn sec_and2_passes() {
        let (n, io) = two_var_fixture(build_sec_and2);
        let r = probe_check(&n, &both_vars(io), &DelayModel::nominal(&n));
        assert!(r.stationary.is_empty(), "violations: {:?}", r.stationary);
        assert_eq!((r.windows.len(), r.assignments), (1, 16));
    }

    /// The classical masked AND leaks: its XOR output equals x0·y.
    #[test]
    fn insecure_and2_fails() {
        let (n, io) = two_var_fixture(build_insecure_and2);
        let r = probe_check(&n, &both_vars(io), &DelayModel::nominal(&n));
        assert!(!r.secure());
        // z0 = x0·y is 0 with certainty when y = 0 and 1 half the time
        // when y = 1: a gap of exactly 0.5.
        let z0 = r.stationary.iter().find(|v| v.net == n.outputs()[0].1).expect("z0 flagged");
        assert_eq!(z0.gap, 0.5);
    }

    /// Trichina's gadget passes the stationary check when the fresh bit
    /// is uniform (its insecurity is purely an evaluation-order/glitch
    /// phenomenon).
    #[test]
    fn trichina_passes_stationary() {
        let mut n = Netlist::new("t");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let r = n.input("r");
        let out = build_trichina_and(&mut n, io, r);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        let mut schedule = both_vars(io);
        schedule.push(Arrival { net: r, time_ps: 1_000, drive: Drive::Fresh(0) });
        let rep = probe_check(&n, &schedule, &DelayModel::nominal(&n));
        // The intermediate XOR chain exposes partial sums like
        // r ⊕ x0y0 ⊕ x0y1 = r ⊕ x0·y, which r masks: every wire passes.
        assert!(rep.stationary.is_empty(), "violations: {:?}", rep.stationary);
        assert_eq!(rep.assignments, 32);
    }

    /// Table I's mechanism on one gadget: with `x0` last, `z0` toggles
    /// in the last window exactly when `x0` rises and `y = 1`, so its
    /// mean toggle count is `y/2` — a gap of 0.5 toggles; with `y1`
    /// last nothing depends on the unshared values.
    #[test]
    fn table1_spot_check() {
        let (n, io) = two_var_fixture(build_sec_and2);
        let delays = DelayModel::nominal(&n);
        let order = |nets: [(NetId, usize, usize); 4]| -> Vec<Arrival> {
            nets.iter()
                .enumerate()
                .map(|(c, &(net, var, share))| Arrival {
                    net,
                    time_ps: 1_000 + 50_000 * c as u64,
                    drive: Drive::Share { var, share },
                })
                .collect()
        };
        let leaky = order([(io.y1, 1, 1), (io.y0, 1, 0), (io.x1, 0, 1), (io.x0, 0, 0)]);
        let r = probe_check(&n, &leaky, &delays);
        assert!(r.stationary.is_empty());
        let z0 = n.outputs()[0].1;
        assert!(r.glitch.contains(&Violation { window: 3, net: z0, gap: 0.5 }), "{r:?}");
        assert_eq!(r.max_glitch_gap(), 0.5);

        let safe = order([(io.x0, 0, 0), (io.x1, 0, 1), (io.y0, 1, 0), (io.y1, 1, 1)]);
        let r = probe_check(&n, &safe, &delays);
        assert!(r.secure(), "{r:?}");
        assert_eq!(r.windows.len(), 4);
    }

    #[test]
    #[should_panic(expected = "jitter-free")]
    fn jittered_model_panics() {
        let (n, io) = two_var_fixture(build_sec_and2);
        let _ = probe_check(&n, &both_vars(io), &DelayModel::with_variation(&n, 0.1, 40.0, 1));
    }

    #[test]
    #[should_panic(expected = "combinational gadgets only")]
    fn clocked_netlist_panics() {
        let mut n = Netlist::new("t");
        let d = n.input("d");
        let q = n.dff(d);
        n.output("q", q);
        let _ = probe_check(&n, &simultaneous(&[(d, d)], 0), &DelayModel::nominal(&n));
    }

    #[test]
    #[should_panic(expected = "16 free bits")]
    fn too_many_vars_panics() {
        let mut n = Netlist::new("t");
        let pairs: Vec<(NetId, NetId)> =
            (0..9).map(|i| (n.input(format!("a{i}")), n.input(format!("b{i}")))).collect();
        let x = n.xor2(pairs[0].0, pairs[1].0);
        n.output("x", x);
        let _ = probe_check(&n, &simultaneous(&pairs, 0), &DelayModel::nominal(&n));
    }
}
