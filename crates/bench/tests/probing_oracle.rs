//! The exact probing oracle on the devices the Table I, Table II and
//! ablation binaries build: every share assignment on the jitter-free
//! twin of each device, so each verdict below is exact.
//!
//! Devices come from master seeds the way the binaries derive them
//! (`table1`: `seed ^ 0x7a51`; `table2`: `seed ^ k << 4 | inverted`),
//! plus nominal delays. 2023 is the binaries' default seed.

use gm_bench::gate::{build_chain_bank, build_sec_and2_bank, reset_ablation, sequence_arrivals};
use gm_core::analysis::probe_check;
use gm_core::schedule::{all_sequences, predicted_leaky};
use gm_netlist::Netlist;
use gm_sim::DelayModel;

const SEEDS: [u64; 8] = [2023, 0, 1, 2, 3, 7, 42, 0x7a51];

/// The nominal device, then one jitter-free device per master seed.
fn devices(n: &Netlist, device_seed: impl Fn(u64) -> u64) -> Vec<(String, DelayModel)> {
    let mut out = vec![("nominal".to_owned(), DelayModel::nominal(n))];
    for s in SEEDS {
        out.push((format!("seed {s}"), DelayModel::with_variation(n, 0.15, 0.0, device_seed(s))));
    }
    out
}

/// Table I on `table1`'s 8-replica bank: exactly the 12 orders with
/// `x₀` or `x₁` last are flagged, each by a half-toggle gap; the other
/// 12 show no violation of either kind, on every device.
#[test]
fn table1_flags_exactly_the_x_last_orders() {
    let bank = build_sec_and2_bank(8);
    for (device, delays) in devices(&bank.netlist, |s| s ^ 0x7a51) {
        let mut flagged = 0;
        for seq in all_sequences() {
            let r = probe_check(&bank.netlist, &sequence_arrivals(&bank, &seq), &delays);
            assert_eq!(r.assignments, 16);
            assert!(r.stationary.is_empty(), "{device} {seq:?}: {:?}", r.stationary);
            if predicted_leaky(&seq) {
                assert_eq!(r.max_glitch_gap(), 0.5, "{device} {seq:?}");
                flagged += 1;
            } else {
                assert!(r.secure(), "{device} {seq:?}: {:?}", r.glitch);
            }
        }
        assert_eq!(flagged, 12, "{device}");
    }
}

/// Table II on `table2`'s chain banks: the DelayUnit schedule is clean
/// and the inverted ablation row (an `x` share last) is flagged, for
/// 2, 3 and 4 variables, on every device.
#[test]
fn table2_schedules_clean_inverted_rows_flagged() {
    for k in [2usize, 3, 4] {
        for inverted in [false, true] {
            let bank = build_chain_bank(k, inverted);
            let seed = |s: u64| s ^ (k as u64) << 4 | u64::from(inverted);
            for (device, delays) in devices(&bank.netlist, seed) {
                let r = probe_check(&bank.netlist, &bank.arrivals(), &delays);
                assert_eq!(r.assignments, 1 << (2 * k));
                if inverted {
                    assert!(!r.glitch.is_empty(), "{k} vars inverted, {device}: clean");
                } else {
                    assert!(r.secure(), "{k} vars schedule, {device}: {r:?}");
                }
            }
        }
    }
}

/// Ablation 3: back-to-back multiplications leak the previous operand
/// without a reset, and with it no window shows any dependence.
#[test]
fn reset_ablation_flagged_without_reset_clean_with_it() {
    for reset in [false, true] {
        let (n, schedule) = reset_ablation(reset);
        for (device, delays) in devices(&n, |s| s ^ 0xbb) {
            let r = probe_check(&n, &schedule, &delays);
            if reset {
                assert!(r.secure(), "with reset, {device}: {r:?}");
            } else {
                let last = r.windows.len() - 1;
                assert!(
                    r.glitch.iter().any(|v| v.window == last && v.gap == 0.5),
                    "without reset, {device}: {r:?}"
                );
            }
        }
    }
}
