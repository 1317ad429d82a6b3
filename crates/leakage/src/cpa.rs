//! Correlation Power Analysis (CPA).
//!
//! TVLA tells you *that* an implementation leaks; CPA shows the leak is
//! *exploitable*: for every key hypothesis, correlate a predicted
//! leakage value (e.g. the Hamming weight of a hypothesised S-box
//! output) against the measured traces — the right hypothesis produces
//! the highest correlation. The workspace uses it to demonstrate key
//! recovery from the PRNG-off DES cores, and its failure against the
//! properly masked ones.
//!
//! The accumulator is one-pass: per trace it ingests the vector of
//! per-hypothesis predictions plus the trace, maintaining the sums
//! needed for Pearson correlation at every (hypothesis, sample) pair.

/// Streaming CPA accumulator.
#[derive(Debug, Clone)]
pub struct Cpa {
    num_hypotheses: usize,
    num_samples: usize,
    n: u64,
    sum_h: Vec<f64>,
    sum_h2: Vec<f64>,
    sum_t: Vec<f64>,
    sum_t2: Vec<f64>,
    /// Row-major `[hypothesis][sample]`.
    sum_ht: Vec<f64>,
}

impl Cpa {
    /// An accumulator for `num_hypotheses` key guesses over traces of
    /// `num_samples` points.
    pub fn new(num_hypotheses: usize, num_samples: usize) -> Self {
        Cpa {
            num_hypotheses,
            num_samples,
            n: 0,
            sum_h: vec![0.0; num_hypotheses],
            sum_h2: vec![0.0; num_hypotheses],
            sum_t: vec![0.0; num_samples],
            sum_t2: vec![0.0; num_samples],
            sum_ht: vec![0.0; num_hypotheses * num_samples],
        }
    }

    /// Number of traces ingested.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Ingest one trace with its per-hypothesis leakage predictions.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn add(&mut self, predictions: &[f64], trace: &[f64]) {
        assert_eq!(predictions.len(), self.num_hypotheses, "prediction count");
        assert_eq!(trace.len(), self.num_samples, "trace length");
        self.n += 1;
        for (k, &h) in predictions.iter().enumerate() {
            self.sum_h[k] += h;
            self.sum_h2[k] += h * h;
            let row = &mut self.sum_ht[k * self.num_samples..(k + 1) * self.num_samples];
            for (acc, &t) in row.iter_mut().zip(trace) {
                *acc += h * t;
            }
        }
        for (i, &t) in trace.iter().enumerate() {
            self.sum_t[i] += t;
            self.sum_t2[i] += t * t;
        }
    }

    /// Pearson correlation for hypothesis `k` at sample `i`.
    pub fn correlation(&self, k: usize, i: usize) -> f64 {
        let n = self.n as f64;
        if self.n < 2 {
            return 0.0;
        }
        let cov = self.sum_ht[k * self.num_samples + i] - self.sum_h[k] * self.sum_t[i] / n;
        let var_h = self.sum_h2[k] - self.sum_h[k] * self.sum_h[k] / n;
        let var_t = self.sum_t2[i] - self.sum_t[i] * self.sum_t[i] / n;
        let denom = (var_h * var_t).sqrt();
        if denom <= 0.0 {
            0.0
        } else {
            cov / denom
        }
    }

    /// Peak *signed* correlation over all samples, per hypothesis.
    ///
    /// Signed, because under a Hamming-weight model the bitwise
    /// *complement* of the right key predicts `b − HW` and is perfectly
    /// anti-correlated: ranking by |ρ| would tie it with the true key.
    /// When the leakage polarity is genuinely unknown, rank by
    /// [`Cpa::correlation`]'s magnitude instead and expect that ambiguity.
    pub fn peak_per_hypothesis(&self) -> Vec<f64> {
        (0..self.num_hypotheses)
            .map(|k| (0..self.num_samples).map(|i| self.correlation(k, i)).fold(f64::MIN, f64::max))
            .collect()
    }

    /// The winning hypothesis and its peak |correlation|.
    pub fn best(&self) -> (usize, f64) {
        self.peak_per_hypothesis()
            .into_iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one hypothesis")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// A device leaking HW(x ^ k*) at sample 1; CPA over all k must
    /// recover k*.
    #[test]
    fn recovers_the_key() {
        let k_star = 0x2Au8;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cpa = Cpa::new(64, 3);
        for _ in 0..2_000 {
            let x: u8 = (rng.random::<u8>()) & 0x3F;
            let leak = f64::from((x ^ k_star).count_ones());
            let noise = rng.random::<f64>() * 2.0;
            let trace = [rng.random::<f64>(), leak + noise, rng.random::<f64>()];
            let preds: Vec<f64> = (0..64).map(|k| f64::from((x ^ k as u8).count_ones())).collect();
            cpa.add(&preds, &trace);
        }
        let (best, peak) = cpa.best();
        assert_eq!(best, usize::from(k_star));
        assert!(peak > 0.8, "peak {peak}");
        // The complement key is perfectly anti-correlated at the leaky
        // sample, so only the signed peak tells it from the true key.
        let complement = usize::from(!k_star & 0x3F);
        assert!((cpa.correlation(complement, 1) + peak).abs() < 0.05);
        assert!(cpa.peak_per_hypothesis()[complement] < 0.5 * peak);
    }

    /// Pure noise: no hypothesis stands out.
    #[test]
    fn noise_gives_no_winner() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cpa = Cpa::new(16, 2);
        for _ in 0..4_000 {
            let x: u8 = rng.random::<u8>() & 0xF;
            let trace = [rng.random::<f64>(), rng.random::<f64>()];
            let preds: Vec<f64> = (0..16).map(|k| f64::from((x ^ k as u8).count_ones())).collect();
            cpa.add(&preds, &trace);
        }
        let (_, peak) = cpa.best();
        assert!(peak < 0.1, "no correlation expected: {peak}");
    }

    #[test]
    fn constant_inputs_are_degenerate_not_nan() {
        let mut cpa = Cpa::new(2, 1);
        for _ in 0..10 {
            cpa.add(&[1.0, 2.0], &[5.0]);
        }
        assert_eq!(cpa.correlation(0, 0), 0.0);
        assert_eq!(cpa.correlation(1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "trace length")]
    fn length_mismatch_panics() {
        let mut cpa = Cpa::new(2, 3);
        cpa.add(&[0.0, 1.0], &[0.0]);
    }
}
