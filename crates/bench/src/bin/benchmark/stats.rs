//! Order statistics and result digests.

use gm_leakage::{TraceMoments, TvlaResult};

/// Median, with the mean of the middle pair for an even count (Python's
/// `statistics.median`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so the spreads printed here are the ones the
/// repeatability acceptance computes. A single value is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // After clamping, `delta` can leave 0..4 (extrapolation at the
        // ends of short samples), exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Quartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over 64-bit words: the exact-identity fingerprint of campaign
/// state (any changed bit of any moment changes the digest).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold the complete moment state of a campaign result in: both
    /// classes' counts, means and central sums of orders 2–6.
    pub fn result(&mut self, r: &TvlaResult) {
        for m in [&r.fixed, &r.random] {
            self.moments(m);
        }
    }

    fn moments(&mut self, m: &TraceMoments) {
        self.word(m.count());
        self.word(m.len() as u64);
        for &x in m.mean() {
            self.word(x.to_bits());
        }
        for p in 2..=6 {
            for i in 0..m.len() {
                self.word(m.central_sum(p, i).to_bits());
            }
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one campaign result.
pub fn result_digest(r: &TvlaResult) -> String {
    let mut d = Digest::default();
    d.result(r);
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Reference values from CPython 3.12:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        let eleven = [11.0, 1.0, 10.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0];
        assert_eq!(quartiles(&eleven), (3.0, 6.0, 9.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_relative_quartile_distance() {
        let v = [90.0, 95.0, 100.0, 105.0, 110.0];
        let (q1, q2, q3) = quartiles(&v);
        assert_eq!((q1, q2, q3), (92.5, 100.0, 107.5));
        assert!((spread(&v) - 0.15).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = TvlaResult::new(2);
        a.fixed.add(&[1.0, 2.0]);
        a.random.add(&[3.0, 4.0]);
        let mut b = a.clone();
        assert_eq!(result_digest(&a), result_digest(&b));
        b.random.add(&[3.0, 4.0 + f64::EPSILON * 4.0]);
        a.random.add(&[3.0, 4.0]);
        assert_ne!(result_digest(&a), result_digest(&b));
    }
}
