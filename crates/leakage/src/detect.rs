//! Leak decision rules and traces-to-detection estimation.

use crate::tvla::{Campaign, TraceSource, TvlaResult};

/// The commonly applied TVLA threshold, ±4.5 (the red lines in the
/// paper's figures).
pub const THRESHOLD: f64 = 4.5;

/// Simple leak decision: any sample beyond the threshold.
pub fn leaks(t: &[f64]) -> bool {
    t.iter().any(|v| v.abs() > THRESHOLD)
}

/// The paper's consistency rule (§VII-A): an implementation is deemed
/// leaking only when the threshold is exceeded **at the same time indexes**
/// across repetitions with different fixed plaintexts. Returns those
/// consistently-leaking sample indices.
pub fn consistent_leaks(t_curves: &[Vec<f64>]) -> Vec<usize> {
    let Some(first) = t_curves.first() else {
        return Vec::new();
    };
    (0..first.len()).filter(|&i| t_curves.iter().all(|t| t[i].abs() > THRESHOLD)).collect()
}

/// Outcome of a traces-to-detection estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Cumulative traces at the first checkpoint that flagged, when any.
    pub traces: Option<u64>,
    /// max |t| (first order) at each checkpoint, for reporting.
    pub history: Vec<(u64, f64)>,
}

/// Run `campaign` with geometric checkpoints (factor ~2 starting at
/// `first_checkpoint`) and report the first cumulative trace count at
/// which the first-order t-test exceeds the threshold.
///
/// This is how statements like "signs of first-order leakage only after
/// approximately 15 M traces" are produced.
pub fn first_detection<S: TraceSource>(
    campaign: &Campaign,
    source: &S,
    first_checkpoint: u64,
) -> Detection {
    let mut ends = Vec::new();
    let mut c = first_checkpoint.max(16);
    while c < campaign.traces {
        ends.push(c);
        c = c.saturating_mul(2);
    }
    ends.push(campaign.traces);

    let mut history = Vec::new();
    let mut detected = None;
    campaign.run_chunked(source, &ends, |n, r: &TvlaResult| {
        let max_t = r.max_abs_t1();
        history.push((n, max_t));
        if max_t > THRESHOLD && detected.is_none() {
            detected = Some(n);
            return false;
        }
        true
    });
    Detection { traces: detected, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvla::Class;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn exceeding_and_leaks() {
        assert!(leaks(&[0.0, 5.0, 4.4]));
        assert!(leaks(&[0.0, -4.6]));
        assert!(!leaks(&[1.0, -2.0]));
        // The threshold itself does not exceed.
        assert!(!leaks(&[THRESHOLD, -THRESHOLD]));
    }

    #[test]
    fn consistency_rule_requires_same_indices() {
        let a = vec![5.0, 0.0, 5.0];
        let b = vec![5.0, 5.0, 0.0];
        assert_eq!(consistent_leaks(std::slice::from_ref(&a)), vec![0, 2]);
        assert_eq!(consistent_leaks(&[a, b]), vec![0]);
        assert!(consistent_leaks(&[]).is_empty());
    }

    #[derive(Clone)]
    struct Toy {
        rng: SmallRng,
        leak: f64,
    }
    impl TraceSource for Toy {
        fn fork(&self, stream: u64) -> Self {
            Toy { rng: SmallRng::seed_from_u64(stream ^ 0xabc), leak: self.leak }
        }
        fn num_samples(&self) -> usize {
            1
        }
        fn trace(&mut self, class: Class, out: &mut [f64]) {
            out[0] = self.rng.random::<f64>() - 0.5
                + if class == Class::Fixed { self.leak } else { 0.0 };
        }
    }

    #[test]
    fn weaker_leaks_need_more_traces() {
        let campaign = Campaign::sequential(200_000, 7);
        let strong =
            first_detection(&campaign, &Toy { rng: SmallRng::seed_from_u64(0), leak: 0.3 }, 64);
        let weak =
            first_detection(&campaign, &Toy { rng: SmallRng::seed_from_u64(0), leak: 0.03 }, 64);
        let s = strong.traces.expect("strong leak detected");
        let w = weak.traces.expect("weak leak detected");
        assert!(s < w, "strong {s} should detect before weak {w}");
    }

    #[test]
    fn clean_source_never_detects() {
        let campaign = Campaign::sequential(20_000, 9);
        let d = first_detection(&campaign, &Toy { rng: SmallRng::seed_from_u64(0), leak: 0.0 }, 64);
        assert_eq!(d.traces, None);
        assert_eq!(d.history.last().unwrap().0, 20_000);
    }
}
