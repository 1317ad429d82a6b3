//! 64-way bitsliced evaluation of the masked DES cycle cores.
//!
//! [`BitslicedDes`] runs **64 independent masked encryptions at once**:
//! every sensitive bit of the design is held as a [`LaneBit`] — two
//! `u64` shares whose bit `ℓ` belongs to trace lane `ℓ` — so one word
//! operation advances all 64 traces through a gate or gadget. The DES
//! bit permutations (IP, E, P, PC1, PC2, FP) become index remaps of
//! `[LaneBit; N]` arrays and cost nothing at run time.
//!
//! The engine replicates the *exact* cycle schedules of
//! [`super::MaskedDesFf`] (3 lead-in + 16 × 7 = 115 cycles) and
//! [`super::MaskedDesPd`] (2 lead-in + 16 × 2 = 34 cycles): every
//! register/combinational toggle contribution a scalar core records is
//! one toggle word fed to a [`CycleLaneCounters`], whose
//! carry-save bit-plane counters reduce them to per-lane
//! [`CycleRecord`](crate::masked::core_ff::CycleRecord)s. Randomness is
//! drawn from the *same* [`MaskRng`] in per-lane trace order (key mask,
//! plaintext mask, then 16 × 14 refresh bits per lane), so lane `ℓ` of a
//! group consumes the identical mask stream as the `ℓ`-th sequential
//! scalar encryption — ciphertexts *and* cycle records are bit-identical,
//! which the workspace's `tests/bitsliced_cycle_model.rs` and the
//! campaign golden tests pin.
//!
//! A group may hold fewer than 64 lanes (the campaign tail): inactive
//! lanes draw no randomness, compute with all-zero inputs, and are
//! discarded at demux.

use crate::power::CycleLaneCounters;
use crate::sbox::masked::xor_plans;
use crate::sbox::mini::TEN_PRODUCTS;
use crate::tables::{E, FP, IP, P, PC1, PC2, SHIFTS};
use gm_core::bitslice::{
    lanes_to_bits, sec_and2_lanes, splat, transpose64, LaneBit, SegLaneCounter,
};
use gm_core::MaskRng;

/// Apply a 1-based-from-MSB DES permutation table as an index remap.
///
/// Mirrors `crate::tables::permute` on LSB-indexed `[LaneBit]` arrays:
/// output bit `k` (LSB-first) is source bit `src_width − table[L−1−k]`.
fn bs_permute<const L: usize>(src: &[LaneBit], src_width: usize, table: &[u8; L]) -> [LaneBit; L] {
    std::array::from_fn(|k| src[src_width - table[L - 1 - k] as usize])
}

/// Rotate-left of a 28-bit half, as an index remap: out bit `i` is in
/// bit `(i + 28 − by) mod 28` (mirrors `crate::tables::rotl`).
fn rot28(v: &[LaneBit; 28], by: usize) -> [LaneBit; 28] {
    std::array::from_fn(|i| v[(i + 28 - by) % 28])
}

/// One clock cycle's toggle words for one counter, built in place and
/// fed to the counter as one slice: whole 64-word blocks then fold
/// straight from the buffer. The largest cycle, the PD core's first
/// round cycle, puts 480 words into its combinational counter.
struct Toggles {
    w: [u64; 512],
    n: usize,
}

impl Toggles {
    fn new() -> Self {
        Toggles { w: [0; 512], n: 0 }
    }

    /// Add one toggle word.
    fn push(&mut self, w: u64) {
        self.w[self.n] = w;
        self.n += 1;
    }

    /// Add the share-wise Hamming weight of a word: one toggle word per
    /// share bit.
    fn hw(&mut self, w: &[LaneBit]) -> &mut Self {
        let out = &mut self.w[self.n..][..2 * w.len()];
        for (o, b) in out.chunks_exact_mut(2).zip(w) {
            o.copy_from_slice(&[b.s0, b.s1]);
        }
        self.n += 2 * w.len();
        self
    }

    /// Add the share-wise Hamming distance between two words.
    fn hd(&mut self, a: &[LaneBit], b: &[LaneBit]) -> &mut Self {
        let out = &mut self.w[self.n..][..2 * a.len()];
        for (o, (x, y)) in out.chunks_exact_mut(2).zip(a.iter().zip(b)) {
            o.copy_from_slice(&[x.s0 ^ y.s0, x.s1 ^ y.s1]);
        }
        self.n += 2 * a.len();
        self
    }

    /// Feed the words to `c`'s open cycle and empty the buffer.
    fn feed(&mut self, c: &mut SegLaneCounter) {
        c.extend_from_slice(&self.w[..self.n]);
        self.n = 0;
    }
}

/// A round's glitch and coupling exposure words, one per `secAND2`
/// evaluation (the PD core's; the FF core passes `None` — its gadget
/// never exposes).
struct Exposures {
    /// Bit `ℓ` = the gadget's unshared *y* in lane `ℓ`.
    glitch: Toggles,
    /// Bit `ℓ` = the gadget's unshared *x*.
    coupling: Toggles,
}

/// Record one `secAND2` evaluation's glitch/coupling exposure.
fn count_gadget(exp: &mut Option<&mut Exposures>, x: LaneBit, y: LaneBit) {
    if let Some(e) = exp {
        e.glitch.push(y.unmask());
        e.coupling.push(x.unmask());
    }
}

/// Lane-parallel masked key schedule (all linear, applied per share).
struct BsKs {
    c: [LaneBit; 28],
    d: [LaneBit; 28],
    round: usize,
}

impl BsKs {
    /// Mask `key` with per-lane mask words `km_t` (bit-major: `km_t[b]`
    /// holds bit `b` of every lane's mask) and apply PC1.
    fn new(key: u64, km_t: &[u64; 64]) -> Self {
        let key_word: [LaneBit; 64] = std::array::from_fn(|b| LaneBit {
            s0: km_t[b],
            s1: splat((key >> b) & 1 == 1) ^ km_t[b],
        });
        let pc1 = bs_permute(&key_word, 64, &PC1);
        let mut c = [LaneBit::default(); 28];
        let mut d = [LaneBit::default(); 28];
        d.copy_from_slice(&pc1[..28]);
        c.copy_from_slice(&pc1[28..]);
        BsKs { c, d, round: 0 }
    }

    fn next_round_key(&mut self) -> [LaneBit; 48] {
        let by = usize::from(SHIFTS[self.round]);
        self.c = rot28(&self.c, by);
        self.d = rot28(&self.d, by);
        self.round += 1;
        let mut cd = [LaneBit::default(); 56];
        cd[..28].copy_from_slice(&self.d);
        cd[28..].copy_from_slice(&self.c);
        bs_permute(&cd, 56, &PC2)
    }
}

/// All intermediates of one lane-parallel S-box evaluation (the word
/// form of [`crate::sbox::masked::SboxTrace`]; the exposure words go to
/// the caller's [`Exposures`] instead of per-trace sums).
#[derive(Debug, Clone, Copy)]
struct BsSboxTrace {
    products: [LaneBit; 10],
    sel: [LaneBit; 4],
    mini_out: [[LaneBit; 4]; 4],
    out: [LaneBit; 4],
}

impl Default for BsSboxTrace {
    fn default() -> Self {
        let z = LaneBit::default();
        BsSboxTrace { products: [z; 10], sel: [z; 4], mini_out: [[z; 4]; 4], out: [z; 4] }
    }
}

/// Lane-parallel [`crate::sbox::masked::masked_sbox_trace`]: identical
/// gadget composition and refresh points, word-wide. `pm`/`mm` are the
/// per-lane fresh-mask words of the round's shared pool.
fn bs_sbox_trace(
    sbox: usize,
    bits: &[LaneBit; 6],
    pm: &[u64; 10],
    mm: &[u64; 4],
    mut exp: Option<&mut Exposures>,
) -> BsSboxTrace {
    let v = [bits[4], bits[3], bits[2], bits[1]];

    // AND stage: the ten products, then per-product refresh.
    let mut products = [LaneBit::default(); 10];
    for (i, &mask) in TEN_PRODUCTS.iter().enumerate() {
        let mut acc: Option<LaneBit> = None;
        for (k, &var) in v.iter().enumerate() {
            if mask & (1 << k) != 0 {
                acc = Some(match acc {
                    None => var,
                    Some(a) => {
                        count_gadget(&mut exp, a, var);
                        sec_and2_lanes(a, var)
                    }
                });
            }
        }
        let p = acc.expect("every product has at least two variables");
        products[i] = p.refresh_with(pm[i]);
    }

    // XOR stage via the same precompiled per-output recipes.
    let rows = &xor_plans()[sbox];
    let mut mini_out = [[LaneBit::default(); 4]; 4];
    for (r, plans) in rows.iter().enumerate() {
        for (j, plan) in plans.iter().enumerate() {
            let mut acc = LaneBit::constant(plan.constant);
            for (k, &var) in v.iter().enumerate() {
                if plan.lin & (1 << k) != 0 {
                    acc = acc.xor(var);
                }
            }
            for (idx, &p) in products.iter().enumerate() {
                if plan.prods & (1 << idx) != 0 {
                    acc = acc.xor(p);
                }
            }
            mini_out[r][j] = acc;
        }
    }

    // MUX stage 1: select products of (b0, b5), refreshed.
    let mut sel = [LaneBit::default(); 4];
    for (r, s) in sel.iter_mut().enumerate() {
        let hi = if r & 0b10 != 0 { bits[0] } else { bits[0].not() };
        let lo = if r & 0b01 != 0 { bits[5] } else { bits[5].not() };
        count_gadget(&mut exp, hi, lo);
        *s = sec_and2_lanes(hi, lo).refresh_with(mm[r]);
    }

    // MUX stages 2 and 3.
    let mut out = [LaneBit::default(); 4];
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = LaneBit::constant(false);
        for r in 0..4 {
            count_gadget(&mut exp, sel[r], mini_out[r][j]);
            acc = acc.xor(sec_and2_lanes(sel[r], mini_out[r][j]));
        }
        *o = acc;
    }
    BsSboxTrace { products, sel, mini_out, out }
}

/// Lane-parallel S-box layer on the mixed 48-bit word (LSB-indexed).
fn bs_sbox_layer(
    ir: &[LaneBit; 48],
    pm: &[u64; 10],
    mm: &[u64; 4],
    traces: &mut [BsSboxTrace; 8],
    mut exp: Option<&mut Exposures>,
) -> [LaneBit; 32] {
    let mut out = [LaneBit::default(); 32];
    for s in 0..8 {
        let bits: [LaneBit; 6] = std::array::from_fn(|i| ir[47 - (6 * s + i)]);
        let t = bs_sbox_trace(s, &bits, pm, mm, exp.as_deref_mut());
        for (j, b) in t.out.iter().enumerate() {
            out[31 - (4 * s + j)] = *b;
        }
        traces[s] = t;
    }
    out
}

/// One group's pre-drawn randomness, in per-lane trace order.
struct GroupRandomness {
    /// Lane-major key-mask words.
    km: [u64; 64],
    /// Lane-major plaintext-mask words.
    ptm: [u64; 64],
    /// Per-round fresh-mask words, already lane-transposed:
    /// `pools[round][k]` bit `ℓ` = lane `ℓ`'s `k`-th drawn bit
    /// (0–9 product masks, 10–13 MUX masks).
    pools: [[u64; 14]; 16],
}

impl GroupRandomness {
    /// Draw everything `active` sequential scalar encryptions would,
    /// in the same per-lane order. Inactive lanes stay all-zero.
    fn draw(rng: &mut MaskRng, active: usize, refresh_enabled: bool) -> Self {
        let mut g = GroupRandomness { km: [0; 64], ptm: [0; 64], pools: [[0; 14]; 16] };
        // 16 rounds × 14 = 224 refresh bits per lane, pulled from the
        // buffered bit stream in word gulps (same values the scalar
        // cores' 224 single `bit()` calls would see) into lane-major
        // chunk words, then lane-transposed once per 64 stream
        // positions. `pools[round][k]` bit ℓ is lane ℓ's stream bit
        // `q = 14·round + k`, i.e. bit `q % 64` of chunk `q / 64`.
        let mut chunks = [[0u64; 64]; 4];
        for lane in 0..active {
            g.km[lane] = rng.bits(64);
            g.ptm[lane] = rng.bits(64);
            if refresh_enabled {
                let mut left = 16 * 14u32;
                for chunk in chunks.iter_mut() {
                    chunk[lane] = rng.bits_buffered(left.min(64));
                    left = left.saturating_sub(64);
                }
            }
        }
        if refresh_enabled {
            for chunk in chunks.iter_mut() {
                transpose64(chunk);
            }
            for (round, pool) in g.pools.iter_mut().enumerate() {
                for (k, w) in pool.iter_mut().enumerate() {
                    let q = 14 * round + k;
                    *w = chunks[q / 64][q % 64];
                }
            }
        }
        g
    }

    fn round_pool(&self, round: usize) -> (&[u64; 14], [u64; 10], [u64; 4]) {
        let w = &self.pools[round];
        let pm: [u64; 10] = w[..10].try_into().expect("10 product masks");
        let mm: [u64; 4] = w[10..].try_into().expect("4 mux masks");
        (w, pm, mm)
    }
}

/// Unmask a 64-bit word array and transpose to lane-major values.
fn bs_unmask_to_lanes(word: &[LaneBit; 64]) -> [u64; 64] {
    let mut t: [u64; 64] = std::array::from_fn(|b| word[b].unmask());
    transpose64(&mut t);
    t
}

/// The 64-lane bitsliced masked DES engine (FF and PD schedules).
#[derive(Debug, Clone)]
pub struct BitslicedDes {
    key: u64,
    /// When false, the 14-bit refresh layer is skipped (no pool draws),
    /// matching the scalar cores' §III-C ablation.
    pub refresh_enabled: bool,
}

impl BitslicedDes {
    /// An engine for a fixed key (re-masked per encryption, per lane).
    pub fn new(key: u64) -> Self {
        BitslicedDes { key, refresh_enabled: true }
    }

    /// Encrypt up to 64 plaintexts through the secAND2-FF schedule,
    /// appending 115 cycles × 64 lanes of records to `counters`
    /// (reset first). Returns the 64 lane ciphertexts (lanes beyond
    /// `pts.len()` are meaningless).
    pub fn encrypt_ff_group(
        &self,
        pts: &[u64],
        rng: &mut MaskRng,
        counters: &mut CycleLaneCounters,
    ) -> [u64; 64] {
        assert!(!pts.is_empty() && pts.len() <= 64, "1..=64 lanes per group");
        counters.reset();
        let rnd = GroupRandomness::draw(rng, pts.len(), self.refresh_enabled);
        let mut km_t = [0u64; 64];
        let mut ptm_t = [0u64; 64];
        let mut pt_t = [0u64; 64];
        lanes_to_bits(&rnd.km, &mut km_t);
        lanes_to_bits(&rnd.ptm, &mut ptm_t);
        lanes_to_bits(pts, &mut pt_t);

        // Each cycle builds one counter's toggle words at a time in `t`
        // and feeds them in one slice.
        let mut t = Toggles::new();

        // Lead-in cycle 0: key masking + key register load.
        let mut ks = BsKs::new(self.key, &km_t);
        t.hw(&ks.c).hw(&ks.d).feed(&mut counters.reg);
        counters.end_cycle();

        // Lead-in cycle 1: plaintext masking + IP (wiring only).
        let pt_word: [LaneBit; 64] =
            std::array::from_fn(|b| LaneBit { s0: ptm_t[b], s1: pt_t[b] ^ ptm_t[b] });
        t.hw(&pt_word).feed(&mut counters.comb);
        counters.end_cycle();

        // Lead-in cycle 2: initial L/R load.
        let ip = bs_permute(&pt_word, 64, &IP);
        let mut r: [LaneBit; 32] = ip[..32].try_into().expect("R half");
        let mut l: [LaneBit; 32] = ip[32..].try_into().expect("L half");
        t.hw(&l).hw(&r).feed(&mut counters.reg);
        counters.end_cycle();

        let mut ir = [LaneBit::default(); 48];
        let mut sel_regs = [LaneBit::default(); 32];
        let mut sbox_out_reg = [LaneBit::default(); 32];
        let mut traces = [BsSboxTrace::default(); 8];

        for round in 0..16 {
            let (c_old, d_old) = (ks.c, ks.d);
            let rk = ks.next_round_key();
            let (c_new, d_new) = (ks.c, ks.d);

            // Cycle 0: IR load + key rotation.
            let e = bs_permute(&r, 32, &E);
            let mixed: [LaneBit; 48] = std::array::from_fn(|i| e[i].xor(rk[i]));
            t.hd(&ir, &mixed).hd(&c_old, &c_new).hd(&d_old, &d_new).feed(&mut counters.reg);
            t.hw(&mixed).feed(&mut counters.comb);
            counters.end_cycle();
            ir = mixed;

            let (_, pm, mm) = rnd.round_pool(round);
            // The FF gadget enforces the safe arrival order: no exposure.
            let sout_raw = bs_sbox_layer(&ir, &pm, &mm, &mut traces, None);

            // Each cycle feeds all eight S-boxes' words in one slice.
            // Cycle 1: AND stage layer 1 (the six pair products).
            for s in &traces {
                t.hw(&s.products[..6]);
            }
            t.feed(&mut counters.comb);
            counters.end_cycle();

            // Cycle 2: AND stage layer 2 + MUX stage-1 register.
            let sel: [LaneBit; 32] = std::array::from_fn(|i| traces[i / 4].sel[i % 4]);
            t.hd(&sel_regs, &sel).feed(&mut counters.reg);
            sel_regs = sel;
            for s in &traces {
                t.hw(&s.products[6..]);
            }
            t.feed(&mut counters.comb);
            counters.end_cycle();

            // Cycle 3: AND-stage settle (y1 FF captures).
            for s in &traces {
                t.hw(&s.products);
            }
            t.feed(&mut counters.comb);
            counters.end_cycle();

            // Cycle 4: XOR stage (mini S-box outputs).
            for m in traces.iter().flat_map(|s| &s.mini_out) {
                t.hw(m);
            }
            t.feed(&mut counters.comb);
            counters.end_cycle();

            // Cycle 5: MUX stages 2/3 + S-box output register.
            t.hd(&sbox_out_reg, &sout_raw).feed(&mut counters.reg);
            t.hw(&sout_raw).feed(&mut counters.comb);
            counters.end_cycle();
            sbox_out_reg = sout_raw;

            // Cycle 6: Feistel combine + state registers.
            let fr = bs_permute(&sbox_out_reg, 32, &P);
            let new_r: [LaneBit; 32] = std::array::from_fn(|i| l[i].xor(fr[i]));
            t.hd(&l, &r).hd(&r, &new_r).feed(&mut counters.reg);
            t.hw(&fr).feed(&mut counters.comb);
            counters.end_cycle();
            l = r;
            r = new_r;
        }

        counters.finish();
        debug_assert_eq!(counters.num_cycles(), super::MaskedDesFf::TOTAL_CYCLES);
        self.final_lanes(&l, &r)
    }

    /// Encrypt up to 64 plaintexts through the secAND2-PD schedule,
    /// appending 34 cycles × 64 lanes of records (including glitch and
    /// coupling exposure) to `counters` (reset first).
    pub fn encrypt_pd_group(
        &self,
        pts: &[u64],
        rng: &mut MaskRng,
        counters: &mut CycleLaneCounters,
    ) -> [u64; 64] {
        assert!(!pts.is_empty() && pts.len() <= 64, "1..=64 lanes per group");
        counters.reset();
        let rnd = GroupRandomness::draw(rng, pts.len(), self.refresh_enabled);
        let mut km_t = [0u64; 64];
        let mut ptm_t = [0u64; 64];
        let mut pt_t = [0u64; 64];
        lanes_to_bits(&rnd.km, &mut km_t);
        lanes_to_bits(&rnd.ptm, &mut ptm_t);
        lanes_to_bits(pts, &mut pt_t);

        let mut t = Toggles::new();
        let mut exp = Exposures { glitch: Toggles::new(), coupling: Toggles::new() };

        // Lead-in cycle 0: key masking + load.
        let mut ks = BsKs::new(self.key, &km_t);
        t.hw(&ks.c).hw(&ks.d).feed(&mut counters.reg);
        counters.end_cycle();

        // Lead-in cycle 1: plaintext masking, IP, initial L/R load.
        let pt_word: [LaneBit; 64] =
            std::array::from_fn(|b| LaneBit { s0: ptm_t[b], s1: pt_t[b] ^ ptm_t[b] });
        let ip = bs_permute(&pt_word, 64, &IP);
        let mut r: [LaneBit; 32] = ip[..32].try_into().expect("R half");
        let mut l: [LaneBit; 32] = ip[32..].try_into().expect("L half");
        t.hw(&l).hw(&r).feed(&mut counters.reg);
        t.hw(&pt_word).feed(&mut counters.comb);
        counters.end_cycle();

        let mut ir = [LaneBit::default(); 48];
        let mut mid_prev = [LaneBit::default(); 8 * 20];
        let mut traces = [BsSboxTrace::default(); 8];

        for round in 0..16 {
            let rk = ks.next_round_key();
            let (_, pm, mm) = rnd.round_pool(round);

            // Cycle 0: IR load; AND/XOR/MUX-1 evaluate combinationally.
            // The round's 272 gadget exposures go to their counters in
            // one slice each.
            let e = bs_permute(&r, 32, &E);
            let mixed: [LaneBit; 48] = std::array::from_fn(|i| e[i].xor(rk[i]));
            t.hd(&ir, &mixed);
            ir = mixed;
            let sout_raw = bs_sbox_layer(&ir, &pm, &mm, &mut traces, Some(&mut exp));
            exp.glitch.feed(&mut counters.glitch);
            exp.coupling.feed(&mut counters.coupling);
            // The MUX-1 and XOR-stage outputs of all eight S-boxes, each
            // S-box's 4 + 16 in a row.
            let mids: [LaneBit; 8 * 20] = std::array::from_fn(|i| {
                let (tr, j) = (&traces[i / 20], i % 20);
                if j < 4 {
                    tr.sel[j]
                } else {
                    tr.mini_out[(j - 4) / 4][j % 4]
                }
            });
            t.hd(&mid_prev, &mids).feed(&mut counters.reg);
            t.hw(&mids);
            for s in &traces {
                t.hw(&s.products);
            }
            t.feed(&mut counters.comb);
            mid_prev = mids;
            counters.end_cycle();

            // Cycle 1: MUX stage 2/3, P, combine; state + key registers.
            // (The scalar core's key-register HD here brackets no
            // rotation and is structurally zero — nothing to feed.)
            let fr = bs_permute(&sout_raw, 32, &P);
            let new_r: [LaneBit; 32] = std::array::from_fn(|i| l[i].xor(fr[i]));
            t.hd(&l, &r).hd(&r, &new_r).feed(&mut counters.reg);
            t.hw(&sout_raw).hw(&fr).feed(&mut counters.comb);
            counters.end_cycle();
            l = r;
            r = new_r;
        }

        counters.finish();
        debug_assert_eq!(counters.num_cycles(), super::MaskedDesPd::TOTAL_CYCLES);
        self.final_lanes(&l, &r)
    }

    /// FP on the pre-output halves and per-lane unmasking.
    fn final_lanes(&self, l: &[LaneBit; 32], r: &[LaneBit; 32]) -> [u64; 64] {
        let mut pre = [LaneBit::default(); 64];
        pre[..32].copy_from_slice(l);
        pre[32..].copy_from_slice(r);
        let ct_word = bs_permute(&pre, 64, &FP);
        bs_unmask_to_lanes(&ct_word)
    }
}
