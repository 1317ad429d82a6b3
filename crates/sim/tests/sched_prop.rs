//! Property tests for the compiled-schedule lane backend: on random
//! combinational cones with random stimulus plans and jittered delay
//! models, every non-divergent lane of [`SchedRunner::run_pass`] must
//! reproduce the dynamic wheel's timed-transition multiset and final
//! net values bit-for-bit under the same per-trace seed (the wheel is
//! itself pinned against a `BinaryHeap` model in `prop.rs`, so the chain
//! closes transitively). Divergent lanes are the documented fallback:
//! [`LaneSweep`] queues them for a batched rerun on the wheel, and the
//! composition tests below pin every lane it lands against a fresh
//! wheel.

use gm_netlist::{NetId, Netlist};
use gm_sim::{
    CompiledSchedule, DelayModel, LaneSink, LaneSweep, PowerSink, SchedRunner, SimCore, SimGraph,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Lanes per property case: enough to exercise the lane-word paths
/// (including bits past 32) while keeping the scalar reference cheap.
const TEST_LANES: usize = 40;

/// One sorted (time, net, value, weight-bits) transition stream.
type Stream = Vec<(u64, u32, bool, u64)>;

#[derive(Default)]
struct RecordingSink(Stream);

impl PowerSink for RecordingSink {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, weight: f64) {
        self.0.push((time_ps, net.0, new_value, weight.to_bits()));
    }
}

struct LaneRecording(Vec<Stream>);

impl LaneSink for LaneRecording {
    fn transitions(&mut self, net: NetId, weight: f64, applied: u64, values: u64, times: &[u64]) {
        let mut m = applied;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.0[l].push((times[l], net.0, values >> l & 1 != 0, weight.to_bits()));
        }
    }
}

/// Same generator as `prop.rs`: a random combinational cone over 4
/// primary inputs, acyclic by construction, reconvergence included.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled lanes ≡ scalar wheel: per-lane sorted transition
    /// multiset and final values, across jitter-free and jittered delay
    /// models, arbitrary stimulus plans (narrow pulses included — that
    /// exercises inertial annihilation under compilation), and a
    /// mid-cascade window cut.
    #[test]
    fn compiled_lanes_match_wheel(
        gates in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 3..20),
        slots in prop::collection::vec((0u8..4, 0u64..60_000), 1..12),
        lane_vals in prop::collection::vec(any::<u64>(), 12..13),
        jitter_idx in 0usize..3,
        seed in any::<u64>(),
        t_end in 2_000u64..120_000,
    ) {
        let (n, inputs) = random_cone(&gates);
        let jitter = [0.0f64, 60.0, 250.0][jitter_idx];
        let delays = DelayModel::with_variation(&n, 0.3, jitter, seed);
        let graph = SimGraph::new(&n);
        let stims: Vec<(NetId, u64)> =
            slots.iter().map(|&(i, t)| (inputs[i as usize % 4], t)).collect();
        let sched = CompiledSchedule::compile(&graph, &delays, &stims)
            .expect("combinational input-driven cone compiles");
        prop_assert_eq!(sched.num_stims(), stims.len());

        let seeds: Vec<u64> = (0..TEST_LANES as u64)
            .map(|l| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(l * 1729 + 5))
            .collect();
        let stim_values: Vec<u64> = lane_vals[..stims.len()].to_vec();

        let mut runner = SchedRunner::new();
        let mut rec = LaneRecording(vec![Vec::new(); gm_sim::LANES]);
        let div = runner.run_pass(
            &sched, &graph, &delays, graph.weights(), &seeds, &stim_values, t_end, &mut rec,
        );
        prop_assert_eq!(div >> TEST_LANES, 0, "divergence outside the lane mask");

        let mut scalar = SimCore::new(&graph, 0);
        for (l, &lane_seed) in seeds.iter().enumerate().take(TEST_LANES) {
            if div >> l & 1 != 0 {
                continue; // documented fallback: caller reruns on the wheel
            }
            scalar.reset(&graph, lane_seed);
            for (s, &(net, t)) in stims.iter().enumerate() {
                scalar.schedule(net, t, stim_values[s] >> l & 1 != 0);
            }
            let mut want = RecordingSink::default();
            scalar.run_until(&graph, &delays, t_end, &mut want);
            want.0.sort_unstable();
            let mut got = rec.0[l].clone();
            got.sort_unstable();
            prop_assert_eq!(&got, &want.0, "lane {} transition multiset", l);
            for net in 0..graph.num_nets() as u32 {
                prop_assert_eq!(
                    runner.value(NetId(net)) >> l & 1 != 0,
                    scalar.value(NetId(net)),
                    "lane {} final value of net {}", l, net
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// High-sigma campaign composition: with jitter far above the
    /// process spread the base order lies often, so lanes diverge —
    /// and [`LaneSweep`] (a compiled pass for the clean lanes, a
    /// *reused* scalar core re-run per divergent lane, exactly what the
    /// bench trace sources run) must reproduce a fresh-core wheel
    /// reference bit-for-bit on **every** lane, divergent or not.
    #[test]
    fn high_sigma_fallback_composes_exactly(
        gates in prop::collection::vec((0u8..8, 0u8..32, 0u8..32), 8..24),
        slots in prop::collection::vec((0u8..4, 0u64..8_000), 2..10),
        lane_bits in prop::collection::vec(any::<u32>(), TEST_LANES..TEST_LANES + 1),
        seed in any::<u64>(),
    ) {
        let (n, inputs) = random_cone(&gates);
        // Sigma of 500 ps against ~350-1200 ps base delays: adjacent
        // arrivals swap routinely, which is what forces divergence.
        let delays = Arc::new(DelayModel::with_variation(&n, 0.3, 500.0, seed));
        let graph = Arc::new(SimGraph::new(&n));
        let stims: Vec<(NetId, u64)> =
            slots.iter().map(|&(i, t)| (inputs[i as usize % 4], t)).collect();
        let t_end = 400_000u64;
        let mut sweep =
            LaneSweep::new(Arc::clone(&graph), Arc::clone(&delays), stims.clone(), t_end, true);
        prop_assert!(sweep.is_compiled(), "combinational input-driven cone compiles");

        let lanes: Vec<(u64, u32)> = lane_bits
            .iter()
            .enumerate()
            .map(|(l, &bits)| {
                (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(l as u64 * 1729 + 5), bits)
            })
            .collect();
        let mut rec = LaneRecording(vec![Vec::new(); gm_sim::LANES]);
        let div = sweep.run_pass(&lanes, &mut rec, |l| l as u32);

        // The drain must land each rerun in its original slot, and
        // reset-reuse of the one scalar core must not leak state
        // between lanes.
        let mut composed: Vec<Option<Stream>> = vec![None; TEST_LANES];
        let drained = sweep.drain(&mut RecordingSink::default(), |slot, sink| {
            sink.0.sort_unstable();
            let slot = &mut composed[slot as usize];
            assert!(slot.is_none(), "lane repaired twice");
            *slot = Some(std::mem::take(&mut sink.0));
        });
        prop_assert_eq!(drained, div.count_ones() as usize, "every divergent lane repaired");
        let again = sweep.drain(&mut RecordingSink::default(), |_, _| {});
        prop_assert_eq!(again, 0, "drain must empty the queue");
        for (l, slot) in composed.iter_mut().enumerate() {
            prop_assert_eq!(slot.is_some(), div >> l & 1 != 0, "lane {} repaired iff divergent", l);
            slot.get_or_insert_with(|| {
                let mut lane = rec.0[l].clone();
                lane.sort_unstable();
                lane
            });
        }

        for (l, &(lane_seed, bits)) in lanes.iter().enumerate() {
            let mut fresh = SimCore::new(&graph, lane_seed);
            for (s, &(net, t)) in stims.iter().enumerate() {
                fresh.schedule(net, t, bits >> s & 1 != 0);
            }
            let mut want = RecordingSink::default();
            fresh.run_until(&graph, &delays, t_end, &mut want);
            want.0.sort_unstable();
            prop_assert_eq!(
                composed[l].as_ref().expect("every lane composed"),
                &want.0,
                "lane {} composed transition multiset", l
            );
        }
    }
}

/// High jitter must *actually* force divergence — otherwise the
/// composition property above would pass vacuously. A deterministic
/// seed sweep over a reconvergent cone: some pass within the budget has
/// to report a non-empty divergent mask.
#[test]
fn high_sigma_actually_diverges() {
    let gates: Vec<(u8, u8, u8)> = (0..18u8).map(|k| (k % 6, k % 7, (k * 5 + 2) % 11)).collect();
    let (n, inputs) = random_cone(&gates);
    let graph = SimGraph::new(&n);
    let stims: Vec<(NetId, u64)> = (0..4).map(|i| (inputs[i], 1_000 + 40 * i as u64)).collect();
    let mut total_div = 0u64;
    for device in 0..20u64 {
        let delays = DelayModel::with_variation(&n, 0.3, 600.0, device);
        let sched = CompiledSchedule::compile(&graph, &delays, &stims).expect("cone compiles");
        let mut runner = SchedRunner::new();
        let seeds: Vec<u64> = (0..TEST_LANES as u64)
            .map(|l| device.wrapping_mul(0x243f_6a88_85a3_08d3) ^ (l * 977 + 13))
            .collect();
        let stim_values = vec![!0u64, 0x5555_5555_5555_5555, 0x0f0f_0f0f_0f0f_0f0f, !0u64];
        let mut rec = LaneRecording(vec![Vec::new(); gm_sim::LANES]);
        let div = runner.run_pass(
            &sched,
            &graph,
            &delays,
            graph.weights(),
            &seeds,
            &stim_values,
            400_000,
            &mut rec,
        );
        total_div += div.count_ones() as u64;
    }
    assert!(
        total_div > 0,
        "600 ps sigma over 20 devices x {TEST_LANES} lanes never diverged — \
         the fallback path is untested dead code"
    );
}

/// Deferred repair must actually amortise: at least one per-pass drain
/// has to carry more than one lane, or the batched path degenerates to
/// per-lane reruns with extra bookkeeping and the hoisted-span
/// accounting measures nothing. Same deterministic sweep as
/// [`high_sigma_actually_diverges`], run through [`LaneSweep`]; every
/// drained rerun must match a fresh per-lane wheel run bit-for-bit.
#[test]
fn repair_drain_batches_multiple_lanes() {
    let gates: Vec<(u8, u8, u8)> = (0..18u8).map(|k| (k % 6, k % 7, (k * 5 + 2) % 11)).collect();
    let (n, inputs) = random_cone(&gates);
    let graph = Arc::new(SimGraph::new(&n));
    let stims: Vec<(NetId, u64)> = (0..4).map(|i| (inputs[i], 1_000 + 40 * i as u64)).collect();
    let words = [!0u64, 0x5555_5555_5555_5555, 0x0f0f_0f0f_0f0f_0f0f, !0u64];
    let mut max_batch = 0usize;
    for device in 0..20u64 {
        let delays = Arc::new(DelayModel::with_variation(&n, 0.3, 600.0, device));
        let mut sweep =
            LaneSweep::new(Arc::clone(&graph), Arc::clone(&delays), stims.clone(), 400_000, true);
        let lanes: Vec<(u64, u32)> = (0..TEST_LANES as u64)
            .map(|l| {
                let bits = (0..4).fold(0u32, |b, s| b | ((words[s] >> l & 1) as u32) << s);
                (device.wrapping_mul(0x243f_6a88_85a3_08d3) ^ (l * 977 + 13), bits)
            })
            .collect();
        let mut rec = LaneRecording(vec![Vec::new(); gm_sim::LANES]);
        let div = sweep.run_pass(&lanes, &mut rec, |l| l as u32);
        let batch = sweep.drain(&mut RecordingSink::default(), |slot, got| {
            got.0.sort_unstable();
            let (seed, bits) = lanes[slot as usize];
            let mut fresh = SimCore::new(&graph, seed);
            for (s, &(net, t)) in stims.iter().enumerate() {
                fresh.schedule(net, t, bits >> s & 1 != 0);
            }
            let mut want = RecordingSink::default();
            fresh.run_until(&graph, &delays, 400_000, &mut want);
            want.0.sort_unstable();
            assert_eq!(got.0, want.0, "device {device} lane {slot} drained repair");
            got.0.clear();
        });
        assert_eq!(batch, div.count_ones() as usize);
        max_batch = max_batch.max(batch);
    }
    assert!(
        max_batch > 1,
        "no drain ever carried more than one lane — deferred repair \
         never amortises over this sweep and the batching is untested"
    );
}

/// Clocked netlists must refuse to compile — flip-flop sequencing
/// belongs to the clocked harness, and the caller falls back to the
/// dynamic engine wholesale.
#[test]
fn clocked_netlist_refuses_compilation() {
    let mut n = Netlist::new("clk");
    let d = n.input("d");
    let q = n.dff(d);
    let y = n.xor2(d, q);
    n.output("y", y);
    n.validate().unwrap();
    let graph = SimGraph::new(&n);
    let delays = DelayModel::nominal(&n);
    assert!(CompiledSchedule::compile(&graph, &delays, &[(d, 1_000)]).is_none());
}
