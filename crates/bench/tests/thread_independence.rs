//! A campaign's result depends on its seed, trace count and checkpoints,
//! never on how many workers ran it: every entry point gives the same
//! moment state, bit for bit, at 1, 2, 3 and 5 threads, on a toy source,
//! the bitsliced cycle model and a gate-level source, over two or more
//! 16 384-trace chunks.

use gm_bench::gate::{build_pd_gadget, PdPlacementSource};
use gm_des::tvla_src::{BitslicedCycleSource, CoreVariant, SourceConfig};
use gm_leakage::detect::first_detection;
use gm_leakage::{Campaign, Class, TraceSource, TvlaResult};
use gm_sim::DelayModel;
use std::sync::Arc;

/// A synthetic device leaking into sample 1 of 2.
struct LeakyToy(u64);

impl TraceSource for LeakyToy {
    fn fork(&self, stream: u64) -> Self {
        LeakyToy(stream ^ 0x1ea4)
    }
    fn num_samples(&self) -> usize {
        2
    }
    fn trace(&mut self, class: Class, out: &mut [f64]) {
        for o in out.iter_mut() {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *o = (self.0 >> 40) as f64 / (1u64 << 24) as f64;
        }
        out[1] += if class == Class::Fixed { 0.05 } else { 0.0 };
    }
}

/// Every bit of a result's moment state.
fn bits(r: &TvlaResult) -> Vec<u64> {
    let mut v = Vec::new();
    for m in [&r.fixed, &r.random] {
        v.push(m.count());
        for i in 0..m.len() {
            v.push(m.mean()[i].to_bits());
            v.extend((2..=6).map(|p| m.central_sum(p, i).to_bits()));
        }
    }
    v
}

/// The moment bits of `run`, `run_observed` and every
/// `run_streamed_observed` snapshot, and `first_detection`'s trace count
/// and (traces, max|t1| bits) history.
type Outcomes = (Vec<Vec<u64>>, Option<u64>, Vec<(u64, u64)>);

fn outcomes<S: TraceSource>(src: &S, traces: u64, threads: usize) -> Outcomes {
    let c = Campaign { traces, threads, seed: 2023 };
    let mut all = vec![bits(&c.run(src)), bits(&c.run_observed(src).0)];
    c.run_streamed_observed(src, 4_000, |snap| all.push(bits(snap)));
    let det = first_detection(&c, src, 1_000);
    (all, det.traces, det.history.iter().map(|&(n, t)| (n, t.to_bits())).collect())
}

fn assert_thread_independent<S: TraceSource>(name: &str, src: &S, traces: u64) {
    let one = outcomes(src, traces, 1);
    assert_eq!(one.0[0], one.0[1], "{name}: run vs run_observed");
    assert_eq!(one.0[0], *one.0.last().unwrap(), "{name}: run vs last streamed snapshot");
    for threads in [2, 3, 5] {
        assert!(outcomes(src, traces, threads) == one, "{name}: {threads} threads differ from 1");
    }
}

#[test]
fn leaky_toy_is_thread_independent() {
    assert_thread_independent("toy", &LeakyToy(0), 40_000);
}

#[test]
fn bitsliced_cycle_model_is_thread_independent() {
    let mut cfg = SourceConfig::new(CoreVariant::Ff);
    cfg.prng_on = false;
    assert_thread_independent("bitsliced FF", &BitslicedCycleSource::new(cfg), 20_000);
}

#[test]
fn gate_level_source_is_thread_independent() {
    let gadget = Arc::new(build_pd_gadget(1));
    let delays = Arc::new(DelayModel::with_variation(&gadget.netlist, 0.85, 400.0, 0x5eed));
    let src = PdPlacementSource::new(gadget, delays, 9);
    assert_thread_independent("fig15 placement", &src, 40_000);
}
