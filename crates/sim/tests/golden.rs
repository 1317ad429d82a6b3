//! Golden transition streams: pin the event engine's observable output
//! (time, net, value per applied transition) across refactors of the
//! queue, fanout, and delay-table internals. The nominal train was
//! recorded from the original `BinaryHeap` + `Vec<Vec<u32>>` engine and
//! must never move; the jittered train additionally pins the
//! order-invariant per-event jitter sampler (counter hash + quantile
//! table, see `DelayModel::sample_event_ps`). Any change to them means
//! glitch trains moved.

use gm_netlist::{NetId, Netlist};
use gm_sim::{DelayModel, PowerSink, SimCore, SimGraph};

#[derive(Default)]
struct Recorder {
    events: Vec<(u64, u32, bool)>,
}

impl PowerSink for Recorder {
    fn transition(&mut self, time_ps: u64, net: NetId, new_value: bool, _weight: f64) {
        self.events.push((time_ps, net.0, new_value));
    }
}

/// Static-1-hazard circuit: y = (a & b) ^ buf(buf(a | b)).
fn hazard_netlist() -> (Netlist, NetId, NetId) {
    let mut n = Netlist::new("golden");
    let a = n.input("a");
    let b = n.input("b");
    let p = n.and2(a, b);
    let q0 = n.or2(a, b);
    let q1 = n.buf(q0);
    let q = n.buf(q1);
    let y = n.xor2(p, q);
    n.output("y", y);
    n.validate().unwrap();
    (n, a, b)
}

fn run(delays: &DelayModel, n: &Netlist, a: NetId, b: NetId, seed: u64) -> Vec<(u64, u32, bool)> {
    let graph = SimGraph::new(n);
    let mut sim = SimCore::new(&graph, seed);
    // Narrow skew (rejected pulse on y), then wide skew (surviving glitch).
    sim.schedule(a, 1_000, true);
    sim.schedule(b, 1_200, true);
    sim.schedule(a, 20_000, false);
    sim.schedule(b, 28_000, false);
    let mut rec = Recorder::default();
    sim.run_until(&graph, delays, 100_000, &mut rec);
    rec.events
}

#[test]
fn nominal_glitch_train_pinned() {
    let (n, a, b) = hazard_netlist();
    let delays = DelayModel::nominal(&n);
    let got = run(&delays, &n, a, b, 0);
    let want = vec![
        (1000, 0, true),
        (1200, 1, true),
        (1350, 3, true),
        (1525, 4, true),
        (1550, 2, true),
        (1700, 5, true),
        (20000, 0, false),
        (20350, 2, false),
        (20800, 6, true),
        (28000, 1, false),
        (28350, 3, false),
        (28525, 4, false),
        (28700, 5, false),
        (29150, 6, false),
    ];
    assert_eq!(got, want, "nominal glitch train moved");
}

#[test]
fn varied_jittered_glitch_train_pinned() {
    let (n, a, b) = hazard_netlist();
    let delays = DelayModel::with_variation(&n, 0.3, 40.0, 5);
    let got = run(&delays, &n, a, b, 7);
    let want = vec![
        (1000, 0, true),
        (1200, 1, true),
        (1281, 3, true),
        (1436, 4, true),
        (1490, 2, true),
        (1605, 5, true),
        (20000, 0, false),
        (20274, 2, false),
        (20767, 6, true),
        (28000, 1, false),
        (28361, 3, false),
        (28528, 4, false),
        (28754, 5, false),
        (29258, 6, false),
    ];
    assert_eq!(got, want, "jittered glitch train moved");
}

#[test]
#[ignore = "generator: prints golden vectors"]
fn print_golden() {
    let (n, a, b) = hazard_netlist();
    for (name, delays, seed) in [
        ("GOLDEN_NOMINAL", DelayModel::nominal(&n), 0),
        ("GOLDEN_JITTER", DelayModel::with_variation(&n, 0.3, 40.0, 5), 7),
    ] {
        println!("// {name}");
        for (t, net, v) in run(&delays, &n, a, b, seed) {
            println!("({t}, {net}, {v}),");
        }
    }
}
