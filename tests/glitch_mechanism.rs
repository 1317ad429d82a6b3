//! Cross-crate integration: the Table I mechanism — glitch leakage as a
//! pure consequence of event timing — holds end-to-end through netlist
//! and simulator, with no leakage-specific code anywhere on that path.
//! Every verdict here comes from the exact probing oracle, which runs
//! all share assignments on a jitter-free device, so the asserts are
//! exact rather than statistical.

use glitchmask::masking::analysis::probing::simultaneous;
use glitchmask::masking::analysis::{probe_check, Arrival, ProbeReport};
use glitchmask::masking::gadgets::sec_and2::build_sec_and2;
use glitchmask::masking::gadgets::sec_and2_pd::{build_sec_and2_pd, PdConfig};
use glitchmask::masking::gadgets::{AndInputs, AndOutputs};
use glitchmask::masking::schedule::{all_sequences, predicted_leaky, InputShare};
use glitchmask::netlist::Netlist;
use glitchmask::sim::DelayModel;

fn gadget(build: impl FnOnce(&mut Netlist, AndInputs) -> AndOutputs) -> (Netlist, AndInputs) {
    let mut n = Netlist::new("g");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let out = build(&mut n, io);
    n.output("z0", out.z0);
    n.output("z1", out.z1);
    n.validate().unwrap();
    (n, io)
}

/// The oracle schedule of one arrival order: share `c` of `order`
/// arrives at `start + step·c`.
fn schedule(io: AndInputs, order: &[InputShare], start: u64, step: u64) -> Vec<Arrival> {
    order
        .iter()
        .enumerate()
        .map(|(c, &s)| {
            let net = match s {
                InputShare::X0 => io.x0,
                InputShare::X1 => io.x1,
                InputShare::Y0 => io.y0,
                InputShare::Y1 => io.y1,
            };
            Arrival { net, time_ps: start + step * c as u64, drive: s.drive() }
        })
        .collect()
}

/// Every one of the 24 sequences is classified exactly as the paper's
/// rule predicts — the full Table I, as an automated test. A leaky
/// order leaks in its last window, when the last `x` share meets both
/// `y` shares, through a toggle-count gap of exactly half a toggle; no
/// order has a stationary violation.
#[test]
fn table1_all_24_sequences_agree_with_the_rule() {
    let (n, io) = gadget(build_sec_and2);
    for delays in [DelayModel::nominal(&n), DelayModel::with_variation(&n, 0.15, 0.0, 99)] {
        for seq in all_sequences() {
            let rep = probe_check(&n, &schedule(io, &seq, 10_000, 50_000), &delays);
            assert!(rep.stationary.is_empty(), "{seq:?}: {:?}", rep.stationary);
            if predicted_leaky(&seq) {
                assert_eq!(rep.max_glitch_gap(), 0.5, "{seq:?}");
                assert!(rep.glitch.iter().any(|v| v.window == 3), "{seq:?}: {:?}", rep.glitch);
            } else {
                assert!(rep.secure(), "{seq:?}: {:?}", rep.glitch);
            }
        }
    }
}

fn pd_gadget() -> (Netlist, AndInputs) {
    gadget(|n, io| build_sec_and2_pd(n, io, PdConfig::OPTIMAL))
}

/// The secAND2-PD delay assignment turns a *simultaneous* arrival into a
/// safe sequence: all shares fired at once, no dependence in any wire's
/// settled value or toggle count.
#[test]
fn pd_gadget_is_safe_under_simultaneous_arrival() {
    let (n, io) = pd_gadget();
    let shares = [(io.x0, io.x1), (io.y0, io.y1)];
    let rep = probe_check(&n, &simultaneous(&shares, 5_000), &DelayModel::nominal(&n));
    assert!(rep.secure(), "PD gadget must not leak: {rep:?}");
}

/// A sub-nanosecond *routing skew* that puts `x₀` last (what
/// uncontrolled FPGA place-and-route can produce, §II-A) makes the bare
/// combinational `secAND2` leak, while the PD gadget under identical
/// external skew stays clean — its 11.5 ns DelayUnits dwarf the skew and
/// re-impose the safe internal order.
#[test]
fn naive_uncontrolled_routing_leaks_pd_does_not() {
    // Routing detours of ~0.8 ns per hop; x0's path is the longest.
    let order = [InputShare::Y0, InputShare::Y1, InputShare::X1, InputShare::X0];
    const SKEW_PS: u64 = 800;
    let check = |(n, io): (Netlist, AndInputs)| -> ProbeReport {
        probe_check(&n, &schedule(io, &order, 5_000, SKEW_PS), &DelayModel::nominal(&n))
    };
    let naive = check(gadget(build_sec_and2));
    assert!(!naive.glitch.is_empty() && naive.max_glitch_gap() >= 0.5, "naive: {naive:?}");
    let pd = check(pd_gadget());
    assert!(pd.secure(), "PD under the same skew: {pd:?}");
}
