//! Property tests for live convergence streaming: over random campaign
//! shapes (trace counts, cadences, seeds, thread counts) the snapshot
//! sequence must be strictly increasing in trace count and end in a
//! snapshot bit-equal to the one-shot `run_observed` result — the
//! contract `gm-bench`'s `progress` records are built on.

use gm_leakage::{Campaign, Class, TraceSource};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A synthetic device leaking `leak` into sample 1 of 3.
#[derive(Clone)]
struct LeakyToy {
    rng: SmallRng,
    leak: f64,
}

impl TraceSource for LeakyToy {
    fn fork(&self, stream: u64) -> Self {
        LeakyToy { rng: SmallRng::seed_from_u64(stream.wrapping_mul(0x9e37) ^ 7), leak: self.leak }
    }
    fn num_samples(&self) -> usize {
        3
    }
    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let noise = |r: &mut SmallRng| r.random::<f64>() - 0.5;
        out[0] = noise(&mut self.rng);
        out[1] = noise(&mut self.rng) + if class == Class::Fixed { self.leak } else { 0.0 };
        out[2] = noise(&mut self.rng);
    }
}

fn check_streamed(threads: usize, traces: u64, every: u64, seed: u64) {
    let campaign = Campaign { traces, threads, seed };
    let src = LeakyToy { rng: SmallRng::seed_from_u64(0), leak: 0.15 };

    let mut snapshots: Vec<(u64, Option<Vec<f64>>)> = Vec::new();
    let (streamed, _obs) = campaign.run_streamed_observed(&src, every, |snap| {
        let t1 = (snap.fixed.count() >= 2 && snap.random.count() >= 2).then(|| snap.t1());
        snapshots.push((snap.total_traces(), t1));
    });
    let (one_shot, _obs) = campaign.run_observed(&src);

    assert!(!snapshots.is_empty(), "at least the final snapshot streams");
    assert!(
        snapshots.windows(2).all(|w| w[0].0 < w[1].0),
        "snapshot counts increasing: {:?}",
        snapshots.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    let (last_count, last_t1) = snapshots.last().unwrap();
    assert_eq!(*last_count, traces, "final snapshot covers the whole campaign");

    // Streaming never perturbs the campaign result itself.
    assert_eq!(streamed.t1(), one_shot.t1());
    assert_eq!(streamed.fixed.count(), one_shot.fixed.count());
    assert_eq!(streamed.random.count(), one_shot.random.count());

    // The final snapshot is the one-shot result, bit for bit.
    let last_t1 = last_t1.as_ref().expect("final snapshot has both classes populated");
    assert_eq!(last_t1.clone(), one_shot.t1());

    // Intermediate snapshots are statistically sane: finite t-values.
    for (count, t1) in &snapshots {
        if let Some(t1) = t1 {
            assert!(
                t1.iter().all(|t| t.is_finite()),
                "snapshot at {count} traces has non-finite t"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One worker.
    #[test]
    fn streamed_sequential_ends_at_one_shot(
        traces in 600u64..40_000,
        every in 50u64..400,
        seed in 0u64..1_000,
    ) {
        check_streamed(1, traces, every, seed);
    }

    /// Several workers.
    #[test]
    fn streamed_parallel_ends_at_one_shot(
        traces in 600u64..40_000,
        every in 50u64..400,
        seed in 0u64..1_000,
        threads in 2usize..5,
    ) {
        check_streamed(threads, traces, every, seed);
    }
}
