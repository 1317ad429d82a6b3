//! The host-speed probe: a fixed integer computation, owned by the
//! benchmark and independent of the program under test, timed between
//! rounds.
//!
//! The host is a VM that shares its cores with other tenants. Its speed
//! drifts by up to ±30 % within seconds and over minutes, and a whole run
//! can fall in a slow phase. The probe slows with it. On a 2-vCPU Xeon VM,
//! ten 25 s runs per workload gave raw median throughputs that spread
//! 9–28 % (quartile distance over median); scaling each round by the
//! probes on either side of it brought that to 2–7 %. Scaling removes the
//! host's drift and keeps the program's: a change to the program moves the
//! rounds but not the probe.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one probe: 12–18 ms on a 2-vCPU Xeon VM.
const PROBE_ITERS: u64 = 8_000_000;
/// Probe seconds at the reference host speed: one probe on an idle core
/// of a 2-vCPU Xeon VM in its fast phases (`-C target-cpu=native`).
/// Throughput is reported as if every round had run at this speed.
pub const REFERENCE_PROBE_S: f64 = 0.012;

/// splitmix64 steps folded through popcount and rotate: ALU-bound, no
/// memory traffic, the same work on every call.
#[inline(never)]
fn kernel(iters: u64) -> u64 {
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0u64;
    for i in 0..iters {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc =
            acc.wrapping_add(u64::from((z ^ (z >> 31)).count_ones())).rotate_left((i & 63) as u32);
    }
    acc
}

/// Mean seconds of `threads` copies of the probe run at once, one per
/// campaign worker, so every core the campaign runs on is sampled. Each
/// copy times itself: timing the whole scope instead adds thread start-up
/// and join delays, which on the two-thread workload doubled the spread.
pub fn probe_s(threads: usize) -> f64 {
    let timed = || {
        let start = Instant::now();
        black_box(kernel(black_box(PROBE_ITERS)));
        start.elapsed().as_secs_f64()
    };
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(timed)).collect();
        let mine = timed();
        mine + others.into_iter().map(|h| h.join().expect("probe thread")).sum::<f64>()
    });
    total / threads.max(1) as f64
}

/// Host slowness over a run: the median probe time as a multiple of
/// [`REFERENCE_PROBE_S`] (2.0: the host ran at half the reference speed).
pub fn slowness(probes_s: &[f64]) -> f64 {
    median(probes_s) / REFERENCE_PROBE_S
}

/// Median round throughput at the reference host speed. Each round is
/// scaled by the mean of the probes just before and just after it, so a
/// round is judged by the host speed of its own few seconds.
/// `probes_s` holds one probe before the first round and one after each.
///
/// # Panics
///
/// Panics unless there is one more probe than rounds.
pub fn at_reference(tps: &[f64], probes_s: &[f64]) -> f64 {
    assert_eq!(probes_s.len(), tps.len() + 1, "one probe before each round and after the last");
    let scaled: Vec<f64> = tps
        .iter()
        .zip(probes_s.windows(2))
        .map(|(t, p)| t * (p[0] + p[1]) / 2.0 / REFERENCE_PROBE_S)
        .collect();
    median(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_fixed_work() {
        assert_eq!(kernel(1000), kernel(1000));
        assert_ne!(kernel(1000), kernel(1001));
        let s = probe_s(2);
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(slowness(&[REFERENCE_PROBE_S, 9.0, REFERENCE_PROBE_S]), 1.0);
    }

    /// Rounds run while the host was at half speed, between probes that
    /// took twice as long, count as fast as the round before them.
    #[test]
    fn rounds_are_scaled_by_their_own_probes() {
        let r = REFERENCE_PROBE_S;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        assert!(close(at_reference(&[100.0, 50.0, 100.0], &[r, r, r, r]), 100.0));
        assert!(close(at_reference(&[100.0, 50.0, 50.0], &[r, r, 2.0 * r, 2.0 * r]), 100.0));
        assert!(close(at_reference(&[80.0], &[r, 1.5 * r]), 100.0));
    }
}
