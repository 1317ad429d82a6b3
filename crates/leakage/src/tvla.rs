//! Non-specific (fixed-vs-random) TVLA campaign harness.
//!
//! Mirrors the paper's methodology (§VII): per acquisition the device gets
//! either the fixed or a random plaintext, chosen uniformly at random, and
//! per-class trace statistics are accumulated. Acquisition parallelises
//! across threads; every worker owns an independently-forked
//! [`TraceSource`] (its own simulated "device" RNG streams) and the
//! per-class moment accumulators merge at synchronisation points.

use crate::moments::{BlockScratch, TraceMoments};
use crate::ttest::{t_first_order, t_second_order, t_third_order};
use gm_obs::{Counter, LogHist, Report, Stopwatch, Timer, HIST_BUCKETS};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// TVLA trace class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The fixed plaintext.
    Fixed,
    /// A fresh random plaintext.
    Random,
}

/// Memory layout a [`TraceSource::trace_block`] override fills the class
/// buffers in. Every source fills row-major buffers, which the acquisition
/// loop folds with [`TraceMoments::add_block`]; the enum has one variant
/// and survives only because the repository benchmark (`benchmark` bin of
/// `gm-bench`) implements [`TraceSource::block_layout`] for its traced
/// sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLayout {
    /// `buf[row * num_samples + sample]` — one contiguous trace per row.
    RowMajor,
}

/// A source of power traces for a TVLA campaign.
///
/// Implementors wrap a simulated device (gadget test-bench, masked DES
/// core, …). A source is *stateful*: consecutive calls may share device
/// state, exactly like consecutive acquisitions on a real target.
pub trait TraceSource: Send {
    /// Create an independent copy for worker `stream` (distinct RNG
    /// streams, same circuit).
    fn fork(&self, stream: u64) -> Self
    where
        Self: Sized;

    /// Number of samples per trace.
    fn num_samples(&self) -> usize;

    /// Acquire one trace of the given class into `out`
    /// (`out.len() == self.num_samples()`).
    fn trace(&mut self, class: Class, out: &mut [f64]);

    /// Acquire one block of traces: for each label, in order, fill the
    /// next row of that class's buffer (`labels.len() × num_samples`
    /// capacity each). Returns the `(fixed, random)` row counts.
    ///
    /// The default forwards to [`TraceSource::trace`] per label. Sources
    /// that amortise work across many traces (the 64-way bitsliced cycle
    /// model in `gm-des`) override this; an override must consume its
    /// per-trace RNG streams in label order so campaign results stay
    /// bit-identical with the per-trace path.
    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let num_samples = self.num_samples();
        let (mut nf, mut nr) = (0usize, 0usize);
        for &class in labels {
            let (buf, row) = match class {
                Class::Fixed => (&mut *fixed, &mut nf),
                Class::Random => (&mut *random, &mut nr),
            };
            let start = *row * num_samples;
            self.trace(class, &mut buf[start..start + num_samples]);
            *row += 1;
        }
        (nf, nr)
    }

    /// Layout of the buffers [`TraceSource::trace_block`] fills; always
    /// [`BlockLayout::RowMajor`]. Kept for the benchmark's sources only:
    /// the acquisition loop does not consult it.
    fn block_layout(&self) -> BlockLayout {
        BlockLayout::RowMajor
    }

    /// Export source-internal counters (simulator event census, wheel
    /// stats, RNG draw counts, lane utilisation, …) accumulated since the
    /// source was forked. Called once per worker at campaign end; entries
    /// with the same name are *summed* across workers. The default
    /// exports nothing.
    fn obs_report(&self, report: &mut Report) {
        let _ = report;
    }
}

/// Accumulated result of a TVLA campaign.
#[derive(Debug, Clone)]
pub struct TvlaResult {
    /// Moments of the fixed class.
    pub fixed: TraceMoments,
    /// Moments of the random class.
    pub random: TraceMoments,
}

impl TvlaResult {
    /// Empty result for traces of `len` samples.
    pub fn new(len: usize) -> Self {
        TvlaResult { fixed: TraceMoments::new(len), random: TraceMoments::new(len) }
    }

    /// Total traces over both classes.
    pub fn total_traces(&self) -> u64 {
        self.fixed.count() + self.random.count()
    }

    /// First-order t curve.
    pub fn t1(&self) -> Vec<f64> {
        t_first_order(&self.fixed, &self.random)
    }

    /// Second-order t curve.
    pub fn t2(&self) -> Vec<f64> {
        t_second_order(&self.fixed, &self.random)
    }

    /// Third-order t curve.
    pub fn t3(&self) -> Vec<f64> {
        t_third_order(&self.fixed, &self.random)
    }

    /// Largest |t| of the order-`order` curve (1, 2, or 3), computed
    /// sample-by-sample without materialising the curve. Detection
    /// checkpoints call this on every chunk, so it must not allocate.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not 1–3 or either class has < 2 traces.
    pub fn max_abs_t(&self, order: usize) -> f64 {
        crate::ttest::check_pair(&self.fixed, &self.random);
        let t_at = match order {
            1 => crate::ttest::t_first_order_at,
            2 => crate::ttest::t_second_order_at,
            3 => crate::ttest::t_third_order_at,
            _ => panic!("t-test orders 1-3 supported, got {order}"),
        };
        (0..self.fixed.len()).fold(0.0f64, |m, i| m.max(t_at(&self.fixed, &self.random, i).abs()))
    }

    /// Largest |t| of the first-order curve.
    pub fn max_abs_t1(&self) -> f64 {
        self.max_abs_t(1)
    }

    /// Merge a partial result (from a worker).
    pub fn merge(&mut self, other: &TvlaResult) {
        self.fixed.merge(&other.fixed);
        self.random.merge(&other.random);
    }

    /// Overwrite `self` with `other`, reusing allocations. The streaming
    /// snapshot publish path runs this once per acquisition block.
    pub fn copy_from(&mut self, other: &TvlaResult) {
        self.fixed.copy_from(&other.fixed);
        self.random.copy_from(&other.random);
    }
}

/// Campaign configuration.
///
/// # Examples
///
/// ```
/// use gm_leakage::{Campaign, Class, TraceSource};
///
/// // A device that leaks nothing: one flat noisy sample.
/// #[derive(Clone)]
/// struct Quiet(u64);
/// impl TraceSource for Quiet {
///     fn fork(&self, stream: u64) -> Self { Quiet(self.0 ^ stream) }
///     fn num_samples(&self) -> usize { 1 }
///     fn trace(&mut self, _class: Class, out: &mut [f64]) {
///         self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
///         out[0] = (self.0 >> 33) as f64 / 1e9;
///     }
/// }
///
/// let result = Campaign::sequential(2_000, 42).run(&Quiet(7));
/// assert!(result.max_abs_t1() < 4.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Total number of traces to acquire.
    pub traces: u64,
    /// Worker threads (1 = fully sequential and deterministic).
    pub threads: usize,
    /// Master seed for class selection and source forking.
    pub seed: u64,
}

/// Traces acquired per accumulation block: large enough that the blocked
/// moment passes amortise and auto-vectorise, small enough that the two
/// per-class block buffers stay cache-resident for typical trace lengths.
const BLOCK_TRACES: usize = 256;

/// Seeded per-worker campaign RNG (class labels), stream `w`.
fn worker_rng(seed: u64, w: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642fu64.wrapping_mul(w as u64 + 1))
}

/// What one campaign worker observed about its own acquisition loop.
///
/// Plain data (no live counters): a snapshot taken when the worker
/// retires. Under `obs-off` every field is zero except `worker`.
#[derive(Debug, Clone, Default)]
pub struct WorkerObs {
    /// Worker index (= the source's fork stream).
    pub worker: usize,
    /// Acquisition blocks processed.
    pub blocks: u64,
    /// Traces acquired (fixed + random).
    pub traces: u64,
    /// Fixed-class traces acquired.
    pub traces_fixed: u64,
    /// Random-class traces acquired.
    pub traces_random: u64,
    /// Wall nanoseconds spent acquiring (trace blocks + moment folds).
    pub acquire_ns: u64,
    /// Wall nanoseconds spent waiting for a quota (0 in sequential mode;
    /// the terminal wait before shutdown is not counted).
    pub idle_ns: u64,
    /// Chunks for which this worker received no quota (quota exhausted
    /// by the chunk size before reaching it).
    pub zero_quota_chunks: u64,
    /// Log2 histogram of per-block acquire nanoseconds
    /// ([`gm_obs::bucket_lo`] gives each bucket's lower bound).
    pub block_ns_hist: [u64; HIST_BUCKETS],
}

/// Aggregate observations of one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignObs {
    /// Wall nanoseconds of the whole campaign (0 under `obs-off`).
    pub wall_ns: u64,
    /// Worker pool size (1 = sequential).
    pub threads: usize,
    /// Per-worker snapshots, in worker order.
    pub workers: Vec<WorkerObs>,
    /// Source-internal counters ([`TraceSource::obs_report`]), summed
    /// across workers.
    pub source: Report,
}

impl CampaignObs {
    /// Total acquisition blocks over all workers.
    pub fn total_blocks(&self) -> u64 {
        self.workers.iter().map(|w| w.blocks).sum()
    }

    /// Total traces over all workers.
    pub fn total_traces(&self) -> u64 {
        self.workers.iter().map(|w| w.traces).sum()
    }

    /// Worker balance: min/max acquired traces over workers that were
    /// scheduled at all (1.0 for a perfectly even split, 1.0 when at
    /// most one worker ran, 0.0 with no observations).
    pub fn worker_balance(&self) -> f64 {
        let scheduled: Vec<u64> =
            self.workers.iter().map(|w| w.traces).filter(|&t| t > 0).collect();
        match (scheduled.iter().min(), scheduled.iter().max()) {
            (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
            _ if self.workers.is_empty() => 0.0,
            _ => 1.0,
        }
    }

    /// Flatten the pool aggregates into `pool.*` entries and fold in the
    /// merged source counters.
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        r.set_nonzero("pool.wall_ns", self.wall_ns);
        r.set("pool.workers", self.threads as u64);
        r.set_nonzero("pool.blocks", self.total_blocks());
        r.set_nonzero("pool.traces", self.total_traces());
        r.set_nonzero("pool.acquire_ns", self.workers.iter().map(|w| w.acquire_ns).sum());
        r.set_nonzero("pool.idle_ns", self.workers.iter().map(|w| w.idle_ns).sum());
        r.set_nonzero("pool.zero_quota", self.workers.iter().map(|w| w.zero_quota_chunks).sum());
        r.set_nonzero("pool.balance_pct", (self.worker_balance() * 100.0).round() as u64);
        let mut buckets = [0u64; HIST_BUCKETS];
        for w in &self.workers {
            for (b, &v) in buckets.iter_mut().zip(w.block_ns_hist.iter()) {
                *b += v;
            }
        }
        for (i, &n) in buckets.iter().enumerate() {
            if n != 0 {
                r.set(&format!("pool.block_ns.ge{}", gm_obs::bucket_lo(i)), n);
            }
        }
        r.merge(&self.source);
        r
    }
}

/// Live per-worker counters behind [`WorkerObs`]; compile to ZSTs under
/// `obs-off`.
#[derive(Debug, Default)]
struct WorkerTally {
    blocks: Counter,
    traces: Counter,
    fixed: Counter,
    random: Counter,
    acquire: Stopwatch,
    idle: Stopwatch,
    block_hist: LogHist,
}

impl WorkerTally {
    fn snapshot(&self, worker: usize) -> WorkerObs {
        WorkerObs {
            worker,
            blocks: self.blocks.get(),
            traces: self.traces.get(),
            traces_fixed: self.fixed.get(),
            traces_random: self.random.get(),
            acquire_ns: self.acquire.ns(),
            idle_ns: self.idle.ns(),
            zero_quota_chunks: 0, // tracked by the coordinator
            block_ns_hist: self.block_hist.buckets(),
        }
    }
}

/// Shared state for live convergence streaming: one snapshot slot per
/// worker plus a published-trace watermark and the next cadence target.
///
/// The ordering contract (DESIGN.md §2.12): workers only ever *publish*
/// — a block boundary copies the worker's cumulative accumulator into
/// its slot under `try_lock` (never blocking the hot path; a contended
/// publish is simply skipped and the next block retries) and bumps the
/// watermark. The coordinator *merges on read*: when a publish crosses
/// the cadence target it is notified and folds the slots together in
/// worker-index order. Snapshots are therefore monotone in trace count
/// but may lag the watermark by up to one block per worker; the final
/// emission always comes from the authoritative chunk-merged result, so
/// the last snapshot of a campaign equals the one-shot result exactly.
///
/// Slots hold per-worker *cumulative* results, which is why streaming
/// campaigns run as a single chunk (`run_streamed_observed`).
struct StreamShared {
    slots: Vec<Mutex<TvlaResult>>,
    published: AtomicU64,
    next_target: AtomicU64,
    every: u64,
}

impl StreamShared {
    fn new(threads: usize, num_samples: usize, every: u64) -> Self {
        StreamShared {
            slots: (0..threads).map(|_| Mutex::new(TvlaResult::new(num_samples))).collect(),
            published: AtomicU64::new(0),
            next_target: AtomicU64::new(every),
            every,
        }
    }

    /// Worker-side block-boundary publish of `worker`'s cumulative
    /// result after acquiring `block` more traces. Returns `true` when
    /// this publish crossed the cadence target and the coordinator
    /// should be notified.
    fn publish(&self, worker: usize, block: u64, cumulative: &TvlaResult) -> bool {
        if let Ok(mut slot) = self.slots[worker].try_lock() {
            slot.copy_from(cumulative);
        }
        let total = self.published.fetch_add(block, Ordering::AcqRel) + block;
        let mut target = self.next_target.load(Ordering::Relaxed);
        while target <= total {
            let next = (total / self.every + 1) * self.every;
            match self.next_target.compare_exchange(
                target,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(current) => target = current,
            }
        }
        false
    }

    /// Coordinator-side merge-on-read: fold every worker slot together
    /// in worker-index order.
    fn merged(&self, num_samples: usize) -> TvlaResult {
        let _span = gm_obs::trace::span("tvla.snapshot");
        let mut merged = TvlaResult::new(num_samples);
        for slot in &self.slots {
            merged.merge(&slot.lock().unwrap());
        }
        merged
    }
}

/// Cadence (traces) + sink for live convergence streaming.
type StreamSink<'a> = (u64, &'a mut dyn FnMut(&TvlaResult));

/// Messages workers send the coordinator.
// Partial dwarfs Progress, but one Partial per worker per chunk makes
// the indirection of boxing pure overhead.
#[allow(clippy::large_enum_variant)]
enum WorkerMsg {
    /// A finished quota's partial result.
    Partial(usize, TvlaResult),
    /// A block-boundary publish crossed the progress cadence target.
    Progress,
}

/// Per-worker acquisition workspace: the class-label block, the two
/// contiguous per-class `BLOCK_TRACES × num_samples` buffers, and the
/// blocked-moments scratch. Allocated once per worker; the steady-state
/// acquisition loop allocates nothing.
struct AcquireBufs {
    labels: Vec<Class>,
    fixed: Vec<f64>,
    random: Vec<f64>,
    scratch: BlockScratch,
}

impl AcquireBufs {
    fn new(num_samples: usize) -> Self {
        AcquireBufs {
            labels: Vec::with_capacity(BLOCK_TRACES),
            fixed: vec![0.0; BLOCK_TRACES * num_samples],
            random: vec![0.0; BLOCK_TRACES * num_samples],
            scratch: BlockScratch::new(num_samples),
        }
    }
}

/// Draw `n` class labels, one PRNG word per 64 labels.
fn draw_labels(rng: &mut SmallRng, n: usize, labels: &mut Vec<Class>) {
    labels.clear();
    while labels.len() < n {
        let mut word: u64 = rng.random();
        for _ in 0..(n - labels.len()).min(64) {
            labels.push(if word & 1 == 1 { Class::Fixed } else { Class::Random });
            word >>= 1;
        }
    }
}

/// Acquire `quota` traces block-wise: draw a block of labels, acquire the
/// traces in label order into the per-class buffers, then fold each class
/// buffer into `local` with one blocked-moments update per class. Each
/// block is timed into `tally` (one clock pair per 256 traces; zero cost
/// under `obs-off`) and reported to `on_block` with the cumulative state
/// of `local` — the streaming publish hook (a no-op closure on the
/// non-streaming paths).
#[allow(clippy::too_many_arguments)]
fn acquire_quota<S: TraceSource>(
    src: &mut S,
    rng: &mut SmallRng,
    quota: u64,
    num_samples: usize,
    bufs: &mut AcquireBufs,
    local: &mut TvlaResult,
    tally: &mut WorkerTally,
    mut on_block: impl FnMut(u64, &TvlaResult),
) {
    let _quota_span = gm_obs::trace::span("tvla.quota");
    let mut remaining = quota;
    while remaining > 0 {
        let _block_span = gm_obs::trace::span("tvla.block");
        let n = remaining.min(BLOCK_TRACES as u64) as usize;
        draw_labels(rng, n, &mut bufs.labels);
        let block_timer = Timer::start();
        let (nf, nr) = src.trace_block(&bufs.labels, &mut bufs.fixed, &mut bufs.random);
        local.fixed.add_block(&bufs.fixed[..nf * num_samples], &mut bufs.scratch);
        local.random.add_block(&bufs.random[..nr * num_samples], &mut bufs.scratch);
        if gm_obs::ENABLED {
            let ns = block_timer.elapsed_ns();
            tally.acquire.add_ns(ns);
            tally.block_hist.record(ns);
            tally.blocks.inc();
            tally.traces.add(n as u64);
            tally.fixed.add(nf as u64);
            tally.random.add(nr as u64);
        }
        remaining -= n as u64;
        on_block(n as u64, local);
    }
}

impl Campaign {
    /// A single-threaded campaign (deterministic trace order).
    pub fn sequential(traces: u64, seed: u64) -> Self {
        Campaign { traces, threads: 1, seed }
    }

    /// A campaign using all available parallelism.
    pub fn parallel(traces: u64, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Campaign { traces, threads, seed }
    }

    /// Run the whole campaign and return the accumulated result.
    pub fn run<S: TraceSource>(&self, source: &S) -> TvlaResult {
        self.run_observed(source).0
    }

    /// Like [`Campaign::run`], additionally returning what the worker
    /// pool observed about itself ([`CampaignObs`]).
    pub fn run_observed<S: TraceSource>(&self, source: &S) -> (TvlaResult, CampaignObs) {
        self.run_chunked_observed(source, &[self.traces], |_, _| true)
            .expect("single checkpoint provided")
    }

    /// Run the campaign in chunks, invoking `checkpoint` after every chunk
    /// with the cumulative trace count and result. Returning `false` stops
    /// the campaign early (used by traces-to-detection estimation).
    ///
    /// `chunk_ends` are cumulative trace counts, strictly increasing; the
    /// last entry is the campaign total.
    ///
    /// With `threads == 1` the whole campaign runs inline on the caller
    /// thread (deterministic trace order, bit-identical across runs).
    /// Otherwise a pool of persistent workers is spawned once and fed a
    /// quota per chunk over channels — no thread respawn per chunk — and
    /// workers whose quota would be zero are simply not scheduled.
    ///
    /// Returns `None` when `chunk_ends` is empty.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_ends` is not strictly increasing.
    pub fn run_chunked<S: TraceSource>(
        &self,
        source: &S,
        chunk_ends: &[u64],
        checkpoint: impl FnMut(u64, &TvlaResult) -> bool,
    ) -> Option<TvlaResult> {
        self.run_chunked_observed(source, chunk_ends, checkpoint).map(|(result, _)| result)
    }

    /// Like [`Campaign::run_chunked`], additionally returning a
    /// [`CampaignObs`] with per-worker acquisition counts, acquire/idle
    /// wall time, and the merged [`TraceSource::obs_report`] counters.
    ///
    /// The observability is passive: trace order, RNG streams, and the
    /// statistical result are bit-identical with the unobserved entry
    /// points. Under `obs-off` the pool's own observations are all zero
    /// (the source report still carries whatever the source exports
    /// unconditionally).
    pub fn run_chunked_observed<S: TraceSource>(
        &self,
        source: &S,
        chunk_ends: &[u64],
        mut checkpoint: impl FnMut(u64, &TvlaResult) -> bool,
    ) -> Option<(TvlaResult, CampaignObs)> {
        self.run_engine(source, chunk_ends, &mut checkpoint, None)
    }

    /// Run the whole campaign while streaming live convergence
    /// snapshots: `on_progress` is invoked with a merged block-boundary
    /// snapshot roughly every `every` acquired traces, and once more
    /// with the final result. Returns the result together with the
    /// [`CampaignObs`] of the run.
    ///
    /// Workers publish their cumulative per-class moments into lock-free
    /// (`try_lock`, never blocking) per-worker slots at block boundaries;
    /// the coordinator merges the slots on read whenever the published
    /// trace count crosses a multiple of `every` — see `StreamShared`
    /// for the ordering contract. Snapshot trace counts are monotone
    /// non-decreasing across callbacks, and the final callback receives
    /// the campaign result itself, so the last snapshot is always
    /// *bit-identical* to what [`Campaign::run_observed`] returns for the
    /// same configuration. The statistical result is unaffected by
    /// streaming: trace order and RNG streams are exactly those of the
    /// non-streamed entry points.
    ///
    /// # Panics
    ///
    /// Panics when `every` is 0.
    pub fn run_streamed_observed<S: TraceSource>(
        &self,
        source: &S,
        every: u64,
        mut on_progress: impl FnMut(&TvlaResult),
    ) -> (TvlaResult, CampaignObs) {
        assert!(every > 0, "progress cadence must be positive");
        self.run_engine(source, &[self.traces], &mut |_, _| true, Some((every, &mut on_progress)))
            .expect("single chunk provided")
    }

    /// The shared campaign engine behind the chunked and streamed entry
    /// points. `stream` carries the progress cadence and sink when live
    /// convergence streaming is on (single-chunk campaigns only).
    fn run_engine<S: TraceSource>(
        &self,
        source: &S,
        chunk_ends: &[u64],
        checkpoint: &mut dyn FnMut(u64, &TvlaResult) -> bool,
        mut stream: Option<StreamSink<'_>>,
    ) -> Option<(TvlaResult, CampaignObs)> {
        if chunk_ends.is_empty() {
            return None;
        }
        debug_assert!(
            stream.is_none() || chunk_ends.len() == 1,
            "streaming campaigns run as a single chunk"
        );
        let wall = Timer::start();
        let threads = self.threads.max(1);
        let num_samples = source.num_samples();
        let mut result = TvlaResult::new(num_samples);
        let mut done = 0u64;

        if threads == 1 {
            let mut src = source.fork(0);
            let mut rng = worker_rng(self.seed, 0);
            let mut bufs = AcquireBufs::new(num_samples);
            let mut tally = WorkerTally::default();
            // Inline streaming: the caller-thread accumulator *is* the
            // campaign state, so snapshots come straight from it at
            // cadence-crossing block boundaries.
            let mut next_target = stream.as_ref().map(|&(every, _)| every);
            let mut last_emitted = u64::MAX;
            for &end in chunk_ends {
                assert!(end > done, "chunk ends must be strictly increasing");
                acquire_quota(
                    &mut src,
                    &mut rng,
                    end - done,
                    num_samples,
                    &mut bufs,
                    &mut result,
                    &mut tally,
                    |_, cumulative| {
                        if let (Some(target), Some((every, on_progress))) =
                            (next_target.as_mut(), stream.as_mut())
                        {
                            let total = cumulative.total_traces();
                            if total >= *target {
                                *target = (total / *every + 1) * *every;
                                last_emitted = total;
                                on_progress(cumulative);
                            }
                        }
                    },
                );
                done = end;
                if !checkpoint(done, &result) {
                    break;
                }
            }
            if let Some((_, on_progress)) = stream.as_mut() {
                if last_emitted != result.total_traces() {
                    on_progress(&result);
                }
            }
            let mut obs = CampaignObs {
                wall_ns: wall.elapsed_ns(),
                threads: 1,
                workers: vec![tally.snapshot(0)],
                source: Report::new(),
            };
            src.obs_report(&mut obs.source);
            return Some((result, obs));
        }

        let stream_shared =
            stream.as_ref().map(|&(every, _)| StreamShared::new(threads, num_samples, every));

        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<WorkerMsg>();
            let (obs_tx, obs_rx) = mpsc::channel::<(usize, WorkerObs, Report)>();
            // One persistent worker per thread, fed per-chunk quotas over
            // its own order channel; partial results come back on the
            // shared result channel, and each worker's observations on the
            // obs channel when its order channel closes.
            let order_txs: Vec<mpsc::Sender<u64>> = (0..threads)
                .map(|w| {
                    let (order_tx, order_rx) = mpsc::channel::<u64>();
                    let mut src = source.fork(w as u64);
                    let mut rng = worker_rng(self.seed, w);
                    let res_tx = res_tx.clone();
                    let obs_tx = obs_tx.clone();
                    let shared = stream_shared.as_ref();
                    scope.spawn(move || {
                        let mut bufs = AcquireBufs::new(num_samples);
                        let mut tally = WorkerTally::default();
                        loop {
                            // Time the quota wait as idle; the terminal
                            // wait (channel closed) is not counted.
                            let wait = Timer::start();
                            let Ok(quota) = order_rx.recv() else { break };
                            tally.idle.add_ns(wait.elapsed_ns());
                            let mut local = TvlaResult::new(num_samples);
                            acquire_quota(
                                &mut src,
                                &mut rng,
                                quota,
                                num_samples,
                                &mut bufs,
                                &mut local,
                                &mut tally,
                                |block, cumulative| {
                                    if let Some(shared) = shared {
                                        if shared.publish(w, block, cumulative) {
                                            let _ = res_tx.send(WorkerMsg::Progress);
                                        }
                                    }
                                },
                            );
                            if res_tx.send(WorkerMsg::Partial(w, local)).is_err() {
                                break;
                            }
                        }
                        // Flush this worker's spans before it reports: the
                        // scope may join the thread before its TLS
                        // destructor runs, and capture stops once every
                        // worker has reported.
                        gm_obs::trace::flush_thread();
                        let mut src_report = Report::new();
                        src.obs_report(&mut src_report);
                        let _ = obs_tx.send((w, tally.snapshot(w), src_report));
                    });
                    order_tx
                })
                .collect();
            drop(res_tx);
            drop(obs_tx);

            let mut zero_quota = vec![0u64; threads];
            let mut last_emitted = u64::MAX;
            for &end in chunk_ends {
                assert!(end > done, "chunk ends must be strictly increasing");
                let todo = end - done;
                let per = todo / threads as u64;
                let extra = (todo % threads as u64) as usize;
                let mut outstanding = 0usize;
                for (w, order_tx) in order_txs.iter().enumerate() {
                    let quota = per + u64::from(w < extra);
                    if quota > 0 {
                        order_tx.send(quota).expect("worker alive");
                        outstanding += 1;
                    } else if gm_obs::ENABLED {
                        zero_quota[w] += 1;
                    }
                }
                // Partials arrive in scheduler-dependent completion
                // order; merging them as they land would reorder the
                // floating-point moment sums and move the campaign
                // result by a few ULPs between identical runs. Sorting
                // by worker index first makes the whole parallel
                // campaign a pure function of (seed, traces, threads) —
                // the reproducibility `placement_bias_is_seed_stable`
                // asserts.
                // Progress notifications interleave with the partials on
                // the same channel and are handled here, on the
                // coordinator thread, by merging the published slots on
                // read — the acquisition hot path never waits for them.
                let mut partials: Vec<(usize, TvlaResult)> = Vec::with_capacity(outstanding);
                while partials.len() < outstanding {
                    match res_rx.recv().expect("worker panicked") {
                        WorkerMsg::Partial(w, local) => partials.push((w, local)),
                        WorkerMsg::Progress => {
                            if let (Some(shared), Some((_, on_progress))) =
                                (stream_shared.as_ref(), stream.as_mut())
                            {
                                let snapshot = shared.merged(num_samples);
                                last_emitted = snapshot.total_traces();
                                on_progress(&snapshot);
                            }
                        }
                    }
                }
                partials.sort_by_key(|&(w, _)| w);
                {
                    let _span = gm_obs::trace::span("tvla.merge");
                    for (_, partial) in &partials {
                        result.merge(partial);
                    }
                }
                done = end;
                if !checkpoint(done, &result) {
                    break;
                }
            }
            // Final emission from the authoritative chunk-merged result:
            // the last snapshot a streaming campaign delivers is exactly
            // the result the campaign returns.
            if let Some((_, on_progress)) = stream.as_mut() {
                if last_emitted != result.total_traces() {
                    on_progress(&result);
                }
            }
            // Dropping the order channels ends the workers' receive loops;
            // each worker then reports its observations and the scope
            // joins them on exit.
            drop(order_txs);
            let mut workers: Vec<WorkerObs> = Vec::with_capacity(threads);
            let mut source_report = Report::new();
            for _ in 0..threads {
                let (w, mut wobs, src_report) = obs_rx.recv().expect("worker observations");
                wobs.zero_quota_chunks = zero_quota[w];
                source_report.merge(&src_report);
                workers.push(wobs);
            }
            workers.sort_by_key(|w| w.worker);
            let obs =
                CampaignObs { wall_ns: wall.elapsed_ns(), threads, workers, source: source_report };
            Some((result, obs))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic device leaking `class` into sample 1 only.
    #[derive(Clone)]
    struct LeakyToy {
        rng: SmallRng,
        leak: f64,
    }

    impl LeakyToy {
        fn new(leak: f64) -> Self {
            LeakyToy { rng: SmallRng::seed_from_u64(99), leak }
        }
    }

    impl TraceSource for LeakyToy {
        fn fork(&self, stream: u64) -> Self {
            LeakyToy {
                rng: SmallRng::seed_from_u64(stream.wrapping_mul(0x9e37) ^ 7),
                leak: self.leak,
            }
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

    #[test]
    fn leak_detected_at_leaky_sample_only() {
        let c = Campaign::sequential(8_000, 1);
        let r = c.run(&LeakyToy::new(0.2));
        let t = r.t1();
        assert!(t[1].abs() > 4.5, "t at leaky sample: {}", t[1]);
        assert!(t[0].abs() < 4.5 && t[2].abs() < 4.5, "clean samples stay clean");
    }

    #[test]
    fn clean_device_passes() {
        let c = Campaign::sequential(8_000, 2);
        let r = c.run(&LeakyToy::new(0.0));
        assert!(r.max_abs_t1() < 4.5);
    }

    #[test]
    fn classes_roughly_balanced() {
        let c = Campaign::sequential(10_000, 3);
        let r = c.run(&LeakyToy::new(0.0));
        let f = r.fixed.count() as f64;
        let n = r.total_traces() as f64;
        assert_eq!(r.total_traces(), 10_000);
        assert!((f / n - 0.5).abs() < 0.05, "fixed fraction {}", f / n);
    }

    #[test]
    fn parallel_equals_more_threads() {
        let seq = Campaign { traces: 6_000, threads: 1, seed: 4 }.run(&LeakyToy::new(0.3));
        let par = Campaign { traces: 6_000, threads: 4, seed: 4 }.run(&LeakyToy::new(0.3));
        // Different trace partitioning, same statistics up to sampling noise.
        assert!(seq.t1()[1].abs() > 4.5);
        assert!(par.t1()[1].abs() > 4.5);
        assert_eq!(par.total_traces(), 6_000);
    }

    /// `Campaign { threads: 1 }` must be bit-identical across runs.
    #[test]
    fn sequential_campaign_deterministic_across_runs() {
        let c = Campaign::sequential(4_000, 11);
        let a = c.run(&LeakyToy::new(0.1));
        let b = c.run(&LeakyToy::new(0.1));
        assert_eq!(a.fixed.count(), b.fixed.count());
        assert_eq!(a.t1(), b.t1());
        assert_eq!(a.t2(), b.t2());
        assert_eq!(a.t3(), b.t3());
    }

    /// The blocked accumulation path must agree with a per-trace scalar
    /// reference (same acquisition order, `TraceMoments::add`) to 1e-9
    /// relative on all order-1..3 t-statistics.
    #[test]
    fn blocked_accumulation_matches_scalar_reference() {
        let traces = 10_000u64;
        let seed = 21u64;
        let blocked = Campaign::sequential(traces, seed).run(&LeakyToy::new(0.15));

        // Reconstruct the sequential path's acquisition order exactly,
        // accumulating one trace at a time.
        let mut src = LeakyToy::new(0.15).fork(0);
        let mut rng = worker_rng(seed, 0);
        let mut labels = Vec::new();
        let mut scalar = TvlaResult::new(3);
        let mut buf = vec![0.0f64; 3];
        let mut remaining = traces;
        while remaining > 0 {
            let n = remaining.min(BLOCK_TRACES as u64) as usize;
            draw_labels(&mut rng, n, &mut labels);
            for &class in &labels {
                src.trace(class, &mut buf);
                match class {
                    Class::Fixed => scalar.fixed.add(&buf),
                    Class::Random => scalar.random.add(&buf),
                }
            }
            remaining -= n as u64;
        }

        assert_eq!(blocked.fixed.count(), scalar.fixed.count());
        assert_eq!(blocked.random.count(), scalar.random.count());
        for order in 1..=3usize {
            for i in 0..3 {
                let (a, b) = match order {
                    1 => (
                        t_first_order(&blocked.fixed, &blocked.random)[i],
                        t_first_order(&scalar.fixed, &scalar.random)[i],
                    ),
                    2 => (
                        t_second_order(&blocked.fixed, &blocked.random)[i],
                        t_second_order(&scalar.fixed, &scalar.random)[i],
                    ),
                    _ => (
                        t_third_order(&blocked.fixed, &blocked.random)[i],
                        t_third_order(&scalar.fixed, &scalar.random)[i],
                    ),
                };
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "order {order} sample {i}: blocked {a} vs scalar {b}"
                );
            }
        }
    }

    /// More workers than traces: zero-quota workers are not scheduled and
    /// the campaign still delivers every trace.
    #[test]
    fn more_threads_than_traces() {
        let c = Campaign { traces: 3, threads: 8, seed: 13 };
        let r = c.run(&LeakyToy::new(0.0));
        assert_eq!(r.total_traces(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn equal_chunk_ends_panic() {
        let c = Campaign::sequential(100, 1);
        let _ = c.run_chunked(&LeakyToy::new(0.0), &[50, 50, 100], |_, _| true);
    }

    /// A toy that also exports a source-side counter (plain `u64`, so it
    /// reports in every configuration — like a real source would with
    /// `gm_obs::Counter` it would read zero under `obs-off`).
    #[derive(Clone)]
    struct CountingToy {
        inner: LeakyToy,
        acquired: u64,
    }

    impl TraceSource for CountingToy {
        fn fork(&self, stream: u64) -> Self {
            CountingToy { inner: self.inner.fork(stream), acquired: 0 }
        }
        fn num_samples(&self) -> usize {
            self.inner.num_samples()
        }
        fn trace(&mut self, class: Class, out: &mut [f64]) {
            self.acquired += 1;
            self.inner.trace(class, out);
        }
        fn obs_report(&self, report: &mut Report) {
            report.add("toy.traces", self.acquired);
        }
    }

    #[test]
    fn observed_sequential_counts_reconcile() {
        let c = Campaign::sequential(1_000, 6);
        let (r, obs) = c.run_observed(&LeakyToy::new(0.0));
        assert_eq!(r.total_traces(), 1_000);
        assert_eq!(obs.threads, 1);
        assert_eq!(obs.workers.len(), 1);
        if gm_obs::ENABLED {
            assert_eq!(obs.total_traces(), 1_000);
            assert_eq!(obs.workers[0].traces_fixed, r.fixed.count());
            assert_eq!(obs.workers[0].traces_random, r.random.count());
            assert_eq!(obs.total_blocks(), 1_000u64.div_ceil(BLOCK_TRACES as u64));
            assert!(obs.wall_ns > 0);
            assert!(obs.workers[0].acquire_ns <= obs.wall_ns);
            assert_eq!(obs.workers[0].idle_ns, 0, "sequential mode never waits");
            assert_eq!(obs.workers[0].block_ns_hist.iter().sum::<u64>(), obs.total_blocks());
            assert!((obs.worker_balance() - 1.0).abs() < 1e-12);
        } else {
            assert_eq!(obs.total_traces(), 0);
            assert_eq!(obs.wall_ns, 0);
        }
    }

    #[test]
    fn observed_result_identical_to_unobserved() {
        let c = Campaign::sequential(2_000, 17);
        let plain = c.run(&LeakyToy::new(0.2));
        let (observed, _) = c.run_observed(&LeakyToy::new(0.2));
        assert_eq!(plain.fixed.count(), observed.fixed.count());
        assert_eq!(plain.t1(), observed.t1());
    }

    #[test]
    fn observed_parallel_merges_worker_and_source_reports() {
        let c = Campaign { traces: 5_000, threads: 4, seed: 8 };
        let toy = CountingToy { inner: LeakyToy::new(0.0), acquired: 0 };
        let (r, obs) = c.run_observed(&toy);
        assert_eq!(r.total_traces(), 5_000);
        assert_eq!(obs.threads, 4);
        let ids: Vec<usize> = obs.workers.iter().map(|w| w.worker).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "snapshots in worker order");
        assert_eq!(obs.source.get("toy.traces"), Some(5_000), "source counters sum over workers");
        if gm_obs::ENABLED {
            assert_eq!(obs.total_traces(), 5_000);
            assert_eq!(obs.workers.iter().map(|w| w.traces_fixed).sum::<u64>(), r.fixed.count());
            assert!(obs.worker_balance() > 0.9, "even split expected: {}", obs.worker_balance());
            let report = obs.report();
            assert_eq!(report.get("pool.traces"), Some(5_000));
            assert_eq!(report.get("pool.workers"), Some(4));
            assert_eq!(report.get("toy.traces"), Some(5_000));
            assert!(report.get("pool.wall_ns").is_some());
        }
    }

    #[test]
    fn observed_zero_quota_chunks_counted() {
        // 3 traces over 8 workers: workers 3..8 receive no quota.
        let c = Campaign { traces: 3, threads: 8, seed: 13 };
        let (r, obs) = c.run_observed(&LeakyToy::new(0.0));
        assert_eq!(r.total_traces(), 3);
        assert_eq!(obs.workers.len(), 8);
        if gm_obs::ENABLED {
            let zero: u64 = obs.workers.iter().map(|w| w.zero_quota_chunks).sum();
            assert_eq!(zero, 5);
            assert_eq!(obs.worker_balance(), 1.0, "unscheduled workers don't count");
        }
    }

    /// Sequential streaming: snapshot counts are monotone, cross every
    /// cadence multiple, and the final snapshot is bit-identical to the
    /// one-shot campaign result.
    #[test]
    fn streamed_sequential_matches_one_shot() {
        let c = Campaign::sequential(4_000, 23);
        let mut counts = Vec::new();
        let mut final_t1 = Vec::new();
        let r = c
            .run_streamed_observed(&LeakyToy::new(0.2), 200, |snap| {
                counts.push(snap.total_traces());
                if snap.fixed.count() >= 2 && snap.random.count() >= 2 {
                    final_t1 = snap.t1();
                }
            })
            .0;
        let one_shot = c.run(&LeakyToy::new(0.2));
        assert!(counts.len() >= 10, "4000 traces / 256-blocks at cadence 200: {counts:?}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotone counts: {counts:?}");
        assert_eq!(*counts.last().unwrap(), 4_000);
        assert_eq!(final_t1, one_shot.t1(), "final snapshot bit-equal to one-shot");
        assert_eq!(r.t1(), one_shot.t1(), "streaming does not perturb the result");
    }

    /// Parallel streaming: same contract with merge-on-read snapshots.
    #[test]
    fn streamed_parallel_matches_one_shot() {
        let c = Campaign { traces: 6_000, threads: 4, seed: 29 };
        let mut counts = Vec::new();
        let r = c
            .run_streamed_observed(&LeakyToy::new(0.2), 500, |snap| {
                counts.push(snap.total_traces());
            })
            .0;
        let one_shot = c.run(&LeakyToy::new(0.2));
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotone counts: {counts:?}");
        assert_eq!(*counts.last().unwrap(), 6_000, "final snapshot covers every trace");
        assert_eq!(r.t1(), one_shot.t1(), "streaming does not perturb the result");
        assert_eq!(r.fixed.count(), one_shot.fixed.count());
    }

    #[test]
    #[should_panic(expected = "progress cadence must be positive")]
    fn zero_cadence_panics() {
        let c = Campaign::sequential(100, 1);
        let _ = c.run_streamed_observed(&LeakyToy::new(0.0), 0, |_| {}).0;
    }

    #[test]
    fn chunked_checkpoints_cumulative_and_stoppable() {
        let c = Campaign::sequential(10_000, 5);
        let mut seen = Vec::new();
        let r = c
            .run_chunked(&LeakyToy::new(0.5), &[1_000, 2_000, 10_000], |n, res| {
                seen.push((n, res.total_traces()));
                n < 2_000 // stop after the second checkpoint
            })
            .unwrap();
        assert_eq!(seen, vec![(1_000, 1_000), (2_000, 2_000)]);
        assert_eq!(r.total_traces(), 2_000);
    }
}
