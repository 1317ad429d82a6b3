//! Property tests for the timing-wheel event queue and the reusable
//! simulator core.
//!
//! These pin the two contracts the event engine relies on:
//!
//! 1. the wheel is a drop-in priority queue — identical `(time, seq)`
//!    pop order to a `BinaryHeap` model for any push / pop /
//!    `pop_at_most` / `clear` interleaving the engine can produce
//!    (pushes never precede the last popped time);
//! 2. `reset()` + rerun on a recycled simulator core is bit-identical to
//!    a freshly constructed core.

use gm_netlist::{NetId, Netlist};
use gm_sim::{DelayModel, PowerSink, SimCore, SimGraph, TimingWheel};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Records every applied transition exactly (weight compared by bits).
#[derive(Default)]
struct RecordingSink(Vec<(u64, u32, bool, u64)>);

impl PowerSink for RecordingSink {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
        self.0.push((time_ps, net.0, new_value, weight.to_bits()));
    }
}

/// Build a random combinational cone over 4 primary inputs: each gate
/// draws its operands from any earlier net, so the graph is acyclic by
/// construction and fans out freely (reconvergence included).
fn random_cone(gates: &[(u8, u8, u8)]) -> (Netlist, [NetId; 4]) {
    let mut n = Netlist::new("cone");
    let inputs = [n.input("i0"), n.input("i1"), n.input("i2"), n.input("i3")];
    let mut nets: Vec<NetId> = inputs.to_vec();
    for &(kind, a, b) in gates {
        let x = nets[a as usize % nets.len()];
        let y = nets[b as usize % nets.len()];
        let out = match kind % 8 {
            0 => n.and2(x, y),
            1 => n.or2(x, y),
            2 => n.xor2(x, y),
            3 => n.nand2(x, y),
            4 => n.nor2(x, y),
            5 => n.xnor2(x, y),
            6 => n.inv(x),
            _ => n.buf(x),
        };
        nets.push(out);
    }
    let z = *nets.last().expect("at least the inputs");
    n.output("z", z);
    n.validate().expect("random cone validates");
    (n, inputs)
}

/// Schedule the stimulus list on `sim` (input index, time, value).
fn apply_stimuli(sim: &mut SimCore, inputs: &[NetId; 4], stims: &[(u8, u64, bool)]) {
    for &(i, t, v) in stims {
        sim.schedule(inputs[i as usize % 4], t, v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wheel ≡ heap pop order under the engine's push contract: every
    /// push is at or after the most recently popped time, and pushes
    /// interleave arbitrarily with the three ways `SimCore` drains the
    /// queue — bare pops (`run_to_quiescence`), horizon-bounded
    /// `pop_at_most` drains (`run_until`, which leave the cursor alone
    /// when the front lies past the horizon) and `clear` (between
    /// traces). Push offsets and horizons each land, with equal odds,
    /// within one bucket, across the ring, or in the overflow region
    /// (bucket span is 512 ps × 256).
    #[test]
    fn wheel_matches_heap_order(
        ops in prop::collection::vec(
            ((0u64..300_000, 0u32..3), 0u8..9, (0u64..300_000, 0u32..3)),
            1..300,
        ),
    ) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut floor = 0u64; // last popped time
        for (seq, ((dt, dt_shift), op, (horizon, h_shift))) in ops.into_iter().enumerate() {
            let seq = seq as u64;
            let t = floor + (dt >> (6 * dt_shift));
            wheel.push(t, seq, seq);
            heap.push(Reverse((t, seq)));
            match op {
                0..=3 => {
                    for _ in 0..op {
                        prop_assert_eq!(wheel.peek_time(), heap.peek().map(|r| r.0 .0));
                        let Some(Reverse(want)) = heap.pop() else { break };
                        let (wt, ws, payload) = wheel.pop().expect("wheel matches heap length");
                        prop_assert_eq!((wt, ws), want);
                        prop_assert_eq!(payload, ws);
                        floor = wt;
                    }
                }
                4..=7 => {
                    let t_max = floor + (horizon >> (6 * h_shift));
                    loop {
                        let want = match heap.peek() {
                            Some(&Reverse(front)) if front.0 <= t_max => heap.pop().map(|r| r.0),
                            _ => None,
                        };
                        let got = wheel.pop_at_most(t_max);
                        prop_assert_eq!(got.map(|(wt, ws, _)| (wt, ws)), want);
                        let Some((wt, ws, payload)) = got else { break };
                        prop_assert_eq!(payload, ws);
                        floor = wt;
                    }
                    prop_assert_eq!(wheel.peek_time(), heap.peek().map(|r| r.0 .0));
                }
                _ => {
                    wheel.clear();
                    heap.clear();
                    prop_assert!(wheel.is_empty());
                    prop_assert_eq!(wheel.peek_time(), None);
                    floor = 0;
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(Reverse(want)) = heap.pop() {
            let (wt, ws, _) = wheel.pop().expect("wheel matches heap length");
            prop_assert_eq!((wt, ws), want);
        }
        prop_assert!(wheel.pop().is_none());
        prop_assert!(wheel.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `reset()` + rerun on a recycled core is bit-identical to a fresh
    /// construction: same transitions, same final values — even after a
    /// first run with unrelated stimuli and a different seed.
    #[test]
    fn reset_rerun_matches_fresh(
        gates in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 3..24),
        warmup in prop::collection::vec((0u8..4, 0u64..60_000, any::<bool>()), 1..12),
        stims in prop::collection::vec((0u8..4, 0u64..60_000, any::<bool>()), 1..24),
        seed in any::<u64>(),
    ) {
        let (n, inputs) = random_cone(&gates);
        let delays = DelayModel::with_variation(&n, 0.3, 60.0, seed ^ 0x5eed);
        let graph = SimGraph::new(&n);

        let mut fresh = SimCore::new(&graph, seed);
        apply_stimuli(&mut fresh, &inputs, &stims);
        let mut want = RecordingSink::default();
        fresh.run_until(&graph, &delays, 500_000, &mut want);

        let mut reused = SimCore::new(&graph, seed ^ 0xbad);
        apply_stimuli(&mut reused, &inputs, &warmup);
        reused.run_until(&graph, &delays, 500_000, &mut RecordingSink::default());

        reused.reset(&graph, seed);
        apply_stimuli(&mut reused, &inputs, &stims);
        let mut got = RecordingSink::default();
        reused.run_until(&graph, &delays, 500_000, &mut got);

        prop_assert_eq!(got.0, want.0);
        for net in 0..n.num_nets() as u32 {
            prop_assert_eq!(reused.value(NetId(net)), fresh.value(NetId(net)));
        }
    }
}
