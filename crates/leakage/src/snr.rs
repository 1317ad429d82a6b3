//! Signal-to-noise ratio over labelled trace partitions.
//!
//! `SNR = Var_label( E[trace | label] ) / E_label( Var[trace | label] )`,
//! the standard metric for how strongly an intermediate value modulates
//! the power consumption. The paper uses replicated parallel gadget
//! instances to raise SNR in its Table I experiments; we use this module
//! to quantify the same effect in simulation.

use crate::moments::TraceMoments;
use std::collections::BTreeMap;

/// Streaming SNR accumulator over an arbitrary label set.
#[derive(Debug, Clone, Default)]
pub struct Snr {
    groups: BTreeMap<u64, TraceMoments>,
    len: Option<usize>,
}

impl Snr {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one trace under `label`.
    pub fn add(&mut self, label: u64, trace: &[f64]) {
        let len = *self.len.get_or_insert(trace.len());
        assert_eq!(trace.len(), len, "trace length mismatch");
        self.groups.entry(label).or_insert_with(|| TraceMoments::new(len)).add(trace);
    }

    /// Per-sample SNR. Labels with fewer than 2 traces are ignored.
    ///
    /// Returns an empty vector when fewer than two labels qualify.
    pub fn snr(&self) -> Vec<f64> {
        let Some(len) = self.len else {
            return Vec::new();
        };
        let qualified: Vec<&TraceMoments> =
            self.groups.values().filter(|g| g.count() >= 2).collect();
        if qualified.len() < 2 {
            return Vec::new();
        }
        let g = qualified.len() as f64;
        (0..len)
            .map(|i| {
                let mean_of_means = qualified.iter().map(|m| m.mean()[i]).sum::<f64>() / g;
                let var_of_means = qualified
                    .iter()
                    .map(|m| {
                        let d = m.mean()[i] - mean_of_means;
                        d * d
                    })
                    .sum::<f64>()
                    / g;
                let mean_of_vars = qualified.iter().map(|m| m.variance(i)).sum::<f64>() / g;
                if mean_of_vars == 0.0 {
                    if var_of_means == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    var_of_means / mean_of_vars
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn informative_sample_has_higher_snr() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut snr = Snr::new();
        for _ in 0..4_000 {
            let label = rng.random::<u64>() % 2;
            let noise0 = rng.random::<f64>() - 0.5;
            let noise1 = rng.random::<f64>() - 0.5;
            // Sample 0 carries the label, sample 1 is pure noise.
            snr.add(label, &[label as f64 + noise0, noise1]);
        }
        let s = snr.snr();
        assert!(s[0] > 1.0, "signal sample SNR {}", s[0]);
        assert!(s[1] < 0.05, "noise sample SNR {}", s[1]);
    }

    #[test]
    fn replication_raises_snr() {
        // K parallel replicated instances: signal scales with K, noise
        // with sqrt(K) -> SNR scales with K (the paper's Table I trick).
        let mut rng = SmallRng::seed_from_u64(6);
        let gauss = |r: &mut SmallRng| {
            let u1: f64 = r.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = r.random();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let run = |k: usize, rng: &mut SmallRng| {
            let mut snr = Snr::new();
            for _ in 0..4_000 {
                let label = rng.random::<u64>() % 2;
                let mut v = 0.0;
                for _ in 0..k {
                    v += label as f64 * 0.3 + gauss(rng);
                }
                snr.add(label, &[v]);
            }
            snr.snr()[0]
        };
        let s1 = run(1, &mut rng);
        let s8 = run(8, &mut rng);
        assert!(s8 > 3.0 * s1, "8x replication should raise SNR: {s1} -> {s8}");
    }

    #[test]
    fn degenerate_cases() {
        let snr = Snr::new();
        assert!(snr.snr().is_empty(), "no data");
        let mut one = Snr::new();
        one.add(0, &[1.0]);
        one.add(0, &[2.0]);
        assert!(one.snr().is_empty(), "single label");
    }
}
