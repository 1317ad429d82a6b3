//! Masking/refresh randomness source.
//!
//! A thin wrapper over a seeded PRNG with one crucial extra: the **off
//! switch**. The paper validates its measurement setup by re-running every
//! TVLA campaign with the PRNG disabled (all masks zero), which must light
//! up immediately (Fig. 14a, Fig. 17d). [`MaskRng::disabled`] reproduces
//! that mode: every "random" bit is 0, so shares degenerate to
//! `(value, 0)`.

use gm_obs::Counter;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Source of masking and refresh randomness.
#[derive(Debug, Clone)]
pub struct MaskRng {
    rng: SmallRng,
    enabled: bool,
    /// Buffered word for [`MaskRng::bit`]; refilled 64 bits at a time so
    /// per-bit refresh randomness costs one PRNG step per 64 calls.
    bit_buf: u64,
    bits_left: u32,
    words: Counter,
}

impl MaskRng {
    /// An enabled PRNG with the given seed.
    pub fn new(seed: u64) -> Self {
        MaskRng {
            rng: SmallRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d),
            enabled: true,
            bit_buf: 0,
            bits_left: 0,
            words: Counter::new(),
        }
    }

    /// The paper's "PRNG switched off" sanity-check mode: every bit is 0.
    pub fn disabled() -> Self {
        MaskRng {
            rng: SmallRng::seed_from_u64(0),
            enabled: false,
            bit_buf: 0,
            bits_left: 0,
            words: Counter::new(),
        }
    }

    /// Lifetime count of 64-bit PRNG words drawn from this stream (0
    /// under `obs-off`; forks start their own count at 0).
    pub fn obs_words_drawn(&self) -> u64 {
        self.words.get()
    }

    /// One random bit (always `false` when disabled).
    ///
    /// Bits are served low-to-high from a buffered PRNG word. Gadget
    /// refresh pulls hundreds of single bits per encryption, so paying
    /// one full PRNG step per bit dominated cycle-model campaigns; the
    /// buffer amortises that to one step per 64 bits while keeping the
    /// call-sequence → value mapping deterministic per seed.
    pub fn bit(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        if self.bits_left == 0 {
            self.words.inc();
            self.bit_buf = self.rng.random();
            self.bits_left = 64;
        }
        let b = self.bit_buf & 1 != 0;
        self.bit_buf >>= 1;
        self.bits_left -= 1;
        b
    }

    /// `n ≤ 64` bits from the **buffered** [`MaskRng::bit`] stream,
    /// packed low-to-high in draw order: bit `k` of the result equals
    /// the `k`-th of `n` successive [`MaskRng::bit`] calls, and the
    /// buffer state afterwards is identical. The bitsliced engines pull
    /// each lane's per-round refresh pool through this in word-sized
    /// gulps instead of hundreds of single-bit calls.
    pub fn bits_buffered(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 bits at a time");
        if !self.enabled {
            return 0;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            if self.bits_left == 0 {
                self.words.inc();
                self.bit_buf = self.rng.random();
                self.bits_left = 64;
            }
            let take = (n - got).min(self.bits_left);
            if take == 64 {
                out = self.bit_buf;
                self.bit_buf = 0;
            } else {
                out |= (self.bit_buf & ((1u64 << take) - 1)) << got;
                self.bit_buf >>= take;
            }
            self.bits_left -= take;
            got += take;
        }
        out
    }

    /// `n ≤ 64` random bits in the low positions.
    ///
    /// Always draws a fresh PRNG word; the [`MaskRng::bit`] buffer is
    /// left untouched.
    pub fn bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most 64 bits at a time");
        if !self.enabled || n == 0 {
            return 0;
        }
        self.words.inc();
        let raw: u64 = self.rng.random();
        if n == 64 {
            raw
        } else {
            raw & ((1u64 << n) - 1)
        }
    }

    /// An independent stream for a worker thread / parallel instance.
    pub fn fork(&self, stream: u64) -> Self {
        if !self.enabled {
            return MaskRng::disabled();
        }
        // Derive a child seed from our own stream deterministically.
        let mut rng = self.rng.clone();
        let base: u64 = rng.random();
        MaskRng::new(base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_all_zero() {
        let mut r = MaskRng::disabled();
        assert!((0..100).all(|_| !r.bit()));
        assert_eq!(r.bits(64), 0);
    }

    #[test]
    fn enabled_is_balanced() {
        let mut r = MaskRng::new(1);
        let ones = (0..10_000).filter(|_| r.bit()).count();
        assert!((4_500..5_500).contains(&ones), "ones={ones}");
    }

    #[test]
    fn bits_masked_to_width() {
        let mut r = MaskRng::new(2);
        for _ in 0..100 {
            assert!(r.bits(6) < 64);
        }
        assert_eq!(r.bits(0), 0);
    }

    #[test]
    fn deterministic_and_fork_independent() {
        let mut a = MaskRng::new(7);
        let mut b = MaskRng::new(7);
        assert!((0..64).all(|_| a.bit() == b.bit()));
        let mut f0 = MaskRng::new(7).fork(0);
        let mut f1 = MaskRng::new(7).fork(1);
        let same = (0..64).filter(|_| f0.bit() == f1.bit()).count();
        assert!(same < 56, "forked streams should differ");
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_bits_panics() {
        MaskRng::new(0).bits(65);
    }

    /// `bits_buffered` serves the exact [`MaskRng::bit`] stream: same
    /// values LSB-first, same buffer state afterwards, across refills
    /// and interleaved with fresh-word `bits` draws.
    #[test]
    fn bits_buffered_matches_bit_stream() {
        let mut a = MaskRng::new(31337);
        let mut b = MaskRng::new(31337);
        for round in 0..40u32 {
            let n = [64u32, 32, 1, 17, 63, 5, 64, 40][round as usize % 8];
            let mut want = 0u64;
            for k in 0..n {
                want |= u64::from(a.bit()) << k;
            }
            assert_eq!(b.bits_buffered(n), want, "round {round}, n {n}");
            assert_eq!(a.bits(7), b.bits(7), "fresh-word draws stay in lockstep");
        }
        assert_eq!(a.bits_buffered(0), 0);
        let mut d = MaskRng::disabled();
        assert_eq!(d.bits_buffered(64), 0, "disabled mode stays all-zero");
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn words_drawn_counts_prng_steps() {
        let mut r = MaskRng::new(9);
        for _ in 0..65 {
            r.bit(); // two buffer refills
        }
        r.bits(13); // one fresh word
        assert_eq!(r.obs_words_drawn(), 3);
        assert_eq!(r.fork(1).obs_words_drawn(), 0, "forks start fresh");
        let mut d = MaskRng::disabled();
        d.bit();
        d.bits(64);
        assert_eq!(d.obs_words_drawn(), 0, "disabled mode draws nothing");
    }
}
