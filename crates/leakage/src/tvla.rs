//! Non-specific (fixed-vs-random) TVLA campaign harness.
//!
//! Mirrors the paper's methodology (§VII): per acquisition the device gets
//! either the fixed or a random plaintext, chosen uniformly at random, and
//! per-class trace statistics are accumulated.
//!
//! A campaign is cut into chunks of 16 384 traces (and at every
//! checkpoint). Chunk `i` acquires on its own fork `source.fork(i)` (its
//! own simulated "device" RNG streams) with class labels drawn from an
//! RNG keyed by `(seed, i)`. Each worker thread claims the next chunk
//! when it becomes idle and forks that chunk's source itself, and the
//! calling thread merges the chunks' per-class moment accumulators in
//! chunk order, so a campaign's result depends on the seed, the trace
//! count and the checkpoints, not on the thread count.

use crate::moments::{BlockScratch, TraceMoments};
use crate::ttest::{t_first_order, t_second_order, t_third_order};
use gm_obs::{Counter, LogHist, Report, Stopwatch, Timer, HIST_BUCKETS};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
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
/// state, exactly like consecutive acquisitions on a real target. A
/// campaign never acquires on the prototype it is given: its worker
/// threads share it (hence `Sync`) and each forks its own copy per chunk.
pub trait TraceSource: Send + Sync {
    /// Create an independent copy for campaign chunk `stream` (distinct
    /// RNG streams, same circuit). Campaign workers call this on the
    /// shared prototype concurrently, each on its own thread; the copy's
    /// output must depend only on the prototype and `stream`.
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
    /// that amortise work across many traces (the 256-way bitsliced cycle
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
    /// snapshot path runs this once per snapshot.
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
    /// Worker threads. Sets the speed only: the result is the same for
    /// every thread count.
    pub threads: usize,
    /// Master seed for class selection.
    pub seed: u64,
}

/// Traces acquired per accumulation block: large enough that the blocked
/// moment passes amortise and auto-vectorise, small enough that the two
/// per-class block buffers stay cache-resident for typical trace lengths.
const BLOCK_TRACES: usize = 256;

/// Traces per campaign chunk, the unit of work a worker claims. A
/// campaign is cut at every multiple of this and at every checkpoint;
/// chunk `i` forks its source with stream `i` and draws its class labels
/// from [`chunk_rng`]`(seed, i)`, so the result depends on the seed, the
/// trace count and the checkpoints, never on how many workers ran.
const CHUNK_TRACES: u64 = 64 * BLOCK_TRACES as u64;

/// Seeded class-label RNG of campaign chunk `chunk`.
fn chunk_rng(seed: u64, chunk: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642fu64.wrapping_mul(chunk + 1))
}

/// The chunks of a campaign with checkpoints at `ends`, in order:
/// `(start, end, checkpoint)` trace ranges cut at every multiple of
/// [`CHUNK_TRACES`] and at every checkpoint; `checkpoint` marks the
/// chunks that end at one. Lazy, so a long campaign keeps no chunk table.
fn plan_chunks(ends: &[u64]) -> impl Iterator<Item = (u64, u64, bool)> + Clone + '_ {
    let (mut start, mut ends) = (0, ends.iter().peekable());
    std::iter::from_fn(move || {
        let end = **ends.peek()?;
        let cut = (start / CHUNK_TRACES + 1) * CHUNK_TRACES;
        let chunk = (start, cut.min(end), cut >= end);
        if chunk.2 {
            ends.next();
        }
        start = chunk.1;
        Some(chunk)
    })
}

/// What one campaign worker observed about its own acquisition loop.
///
/// Plain data (no live counters): a snapshot taken when the worker
/// retires. Under `obs-off` every field is zero except `worker`.
#[derive(Debug, Clone, Default)]
pub struct WorkerObs {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Acquisition blocks processed.
    pub blocks: u64,
    /// Traces acquired (fixed + random).
    pub traces: u64,
    /// Wall nanoseconds spent acquiring (trace blocks + moment folds).
    pub acquire_ns: u64,
    /// Log2 histogram of per-block acquire nanoseconds
    /// ([`gm_obs::bucket_lo`] gives each bucket's lower bound).
    pub block_ns_hist: [u64; HIST_BUCKETS],
}

/// Aggregate observations of one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignObs {
    /// Wall nanoseconds of the whole campaign (0 under `obs-off`).
    pub wall_ns: u64,
    /// Worker pool size.
    pub threads: usize,
    /// Per-worker snapshots, in worker order.
    pub workers: Vec<WorkerObs>,
    /// Source-internal counters ([`TraceSource::obs_report`]), summed
    /// over the merged chunks.
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

    /// Worker balance: min/max acquired traces over workers that
    /// acquired any (1.0 for a perfectly even split, 1.0 when at most
    /// one worker ran, 0.0 with no observations).
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
    acquire: Stopwatch,
    block_hist: LogHist,
}

impl WorkerTally {
    fn snapshot(&self, worker: usize) -> WorkerObs {
        WorkerObs {
            worker,
            blocks: self.blocks.get(),
            traces: self.traces.get(),
            acquire_ns: self.acquire.ns(),
            block_ns_hist: self.block_hist.buckets(),
        }
    }
}

/// Cadence (traces) + sink for live convergence streaming.
type StreamSink<'a> = (u64, &'a mut dyn FnMut(&TvlaResult));

/// Messages workers send the coordinator.
enum WorkerMsg {
    /// Chunk `chunk`'s partial result at a block boundary that crossed
    /// a multiple of the streaming cadence.
    Snapshot { chunk: u64, partial: TvlaResult },
    /// A worker finished chunk `chunk` and dropped its source: the
    /// chunk's partial result and the source's counters.
    Done { chunk: u64, partial: TvlaResult, report: Report },
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

/// Acquire `traces` traces block-wise: draw a block of labels, acquire
/// the traces in label order into the per-class buffers, then fold each
/// class buffer into `local` with one blocked-moments update per class.
/// Each block is timed into `tally` (one clock pair per 256 traces; zero
/// cost under `obs-off`) and reported to `on_block` with its size and the
/// cumulative state of `local`.
#[allow(clippy::too_many_arguments)]
fn acquire_chunk<S: TraceSource>(
    src: &mut S,
    rng: &mut SmallRng,
    traces: u64,
    num_samples: usize,
    bufs: &mut AcquireBufs,
    local: &mut TvlaResult,
    tally: &mut WorkerTally,
    mut on_block: impl FnMut(u64, &TvlaResult),
) {
    let _chunk_span = gm_obs::trace::span("tvla.chunk");
    let mut remaining = traces;
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
        }
        remaining -= n as u64;
        on_block(n as u64, local);
    }
}

impl Campaign {
    /// A single-threaded campaign.
    pub fn sequential(traces: u64, seed: u64) -> Self {
        Campaign { traces, threads: 1, seed }
    }

    /// Run the whole campaign and return the accumulated result.
    pub fn run<S: TraceSource>(&self, source: &S) -> TvlaResult {
        self.run_observed(source).0
    }

    /// Like [`Campaign::run`], additionally returning what the worker
    /// pool observed about itself ([`CampaignObs`]): per-worker
    /// acquisition counts and time, and the merged
    /// [`TraceSource::obs_report`] counters.
    ///
    /// The observability is passive: trace order, RNG streams, and the
    /// statistical result are bit-identical with [`Campaign::run`].
    /// Under `obs-off` the pool's own observations are all zero (the
    /// source report still carries whatever the source exports
    /// unconditionally).
    pub fn run_observed<S: TraceSource>(&self, source: &S) -> (TvlaResult, CampaignObs) {
        self.run_engine(source, &[self.traces], &mut |_, _| true, None)
            .expect("single checkpoint provided")
    }

    /// Run the campaign with checkpoints, invoking `checkpoint` at every
    /// entry of `chunk_ends` with the cumulative trace count and result.
    /// Returning `false` stops the campaign early (used by
    /// traces-to-detection estimation).
    ///
    /// `chunk_ends` are cumulative trace counts, strictly increasing; the
    /// last entry is the campaign total. The campaign is also cut at
    /// every checkpoint, so a checkpointed campaign differs from an
    /// uncheckpointed one of the same size, but the result at every
    /// checkpoint is the same for any thread count.
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
        mut checkpoint: impl FnMut(u64, &TvlaResult) -> bool,
    ) -> Option<TvlaResult> {
        self.run_engine(source, chunk_ends, &mut checkpoint, None).map(|(result, _)| result)
    }

    /// Run the whole campaign while streaming live convergence
    /// snapshots: `on_progress` is invoked with a snapshot at the first
    /// block boundary at or past every multiple of `every` acquired
    /// traces, and once more with the final result unless the last
    /// snapshot already was it. Returns the result together with the
    /// [`CampaignObs`] of the run.
    ///
    /// A snapshot is every earlier chunk merged with the partial result
    /// of the chunk in which the cadence was crossed, copied by its
    /// worker at that block boundary. Snapshot counts strictly increase,
    /// the sequence does not depend on the thread count, and the last
    /// snapshot is *bit-identical* to what [`Campaign::run_observed`]
    /// returns; streaming does not perturb the result.
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
            .expect("single checkpoint provided")
    }

    /// The shared campaign engine behind every entry point. Each of the
    /// `threads` scoped workers claims the next chunk from one shared
    /// lazy plan, forks that chunk's source itself and drops it before it
    /// claims another. The calling thread only merges the chunks' partial
    /// results, strictly in chunk order, and runs the checkpoints.
    /// `stream` carries the progress cadence and sink when live
    /// convergence streaming is on.
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
        assert!(
            chunk_ends[0] > 0 && chunk_ends.windows(2).all(|w| w[0] < w[1]),
            "chunk ends must be strictly increasing"
        );
        let wall = Timer::start();
        let threads = self.threads.max(1);
        let num_samples = source.num_samples();
        let (seed, every) = (self.seed, stream.as_ref().map(|&(every, _)| every));
        let to_merge = plan_chunks(chunk_ends).zip(0u64..);
        let plan = Mutex::new(Some(to_merge.clone()));

        std::thread::scope(|scope| {
            // Bounded, so the pool's heap stays flat.
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(threads);
            let mut workers = Vec::with_capacity(threads);
            for w in 0..threads {
                let (tx, plan) = (tx.clone(), &plan);
                workers.push(scope.spawn(move || {
                    // However this worker retires, a panic in its
                    // source included, no chunk is claimed after it.
                    let _stop = StopPlan(plan);
                    let mut bufs = AcquireBufs::new(num_samples);
                    let mut tally = WorkerTally::default();
                    while let Some(((start, end, _), chunk)) = claim(plan) {
                        // Boxed: with the source in this frame instead,
                        // `fig17-pd-stream` ran ~15 % slower on a 2-vCPU
                        // Xeon VM (same code, other placement of its state).
                        let mut src = Box::new(source.fork(chunk));
                        let mut partial = TvlaResult::new(num_samples);
                        acquire_chunk(
                            &mut *src,
                            &mut chunk_rng(seed, chunk),
                            end - start,
                            num_samples,
                            &mut bufs,
                            &mut partial,
                            &mut tally,
                            |block, partial| {
                                let Some(every) = every else { return };
                                let at = start + partial.total_traces();
                                if (at - block) / every < at / every {
                                    let partial = partial.clone();
                                    let _ = tx.send(WorkerMsg::Snapshot { chunk, partial });
                                }
                            },
                        );
                        let mut report = Report::new();
                        src.obs_report(&mut report);
                        // A worker holds one source at a time.
                        drop(src);
                        if tx.send(WorkerMsg::Done { chunk, partial, report }).is_err() {
                            break;
                        }
                    }
                    // Flush this worker's spans before it retires: the
                    // scope may join the thread before its TLS destructor
                    // runs.
                    gm_obs::trace::flush_thread();
                    tally.snapshot(w)
                }));
            }
            drop(tx);

            // Merge strictly in chunk order, whatever order the chunks
            // finish in: floating-point moment merges do not commute bit
            // for bit. A chunk's messages wait in `held` until every
            // earlier chunk has merged.
            let mut result = TvlaResult::new(num_samples);
            let mut snapshot = TvlaResult::new(num_samples);
            let mut source_report = Report::new();
            let mut held: BTreeMap<u64, VecDeque<WorkerMsg>> = BTreeMap::new();
            let mut last_emitted = 0u64;
            'merge: for ((_, end, is_checkpoint), chunk) in to_merge {
                loop {
                    let msg = match held.get_mut(&chunk).and_then(VecDeque::pop_front) {
                        Some(msg) => msg,
                        None => {
                            // Every worker is gone before its chunks are:
                            // one panicked, and joining it re-raises that.
                            let Ok(msg) = rx.recv() else { break 'merge };
                            let (WorkerMsg::Snapshot { chunk: of, .. }
                            | WorkerMsg::Done { chunk: of, .. }) = msg;
                            if of != chunk {
                                held.entry(of).or_default().push_back(msg);
                                continue;
                            }
                            msg
                        }
                    };
                    match msg {
                        WorkerMsg::Snapshot { partial, .. } => {
                            let _span = gm_obs::trace::span("tvla.snapshot");
                            snapshot.copy_from(&result);
                            snapshot.merge(&partial);
                            last_emitted = snapshot.total_traces();
                            if let Some((_, on_progress)) = stream.as_mut() {
                                on_progress(&snapshot);
                            }
                        }
                        WorkerMsg::Done { partial, report, .. } => {
                            held.remove(&chunk);
                            {
                                let _span = gm_obs::trace::span("tvla.merge");
                                result.merge(&partial);
                            }
                            source_report.merge(&report);
                            if is_checkpoint {
                                // Decided with the plan locked, so no chunk
                                // is claimed after a `false`.
                                let mut plan = plan.lock().expect("chunk plan lock");
                                if !checkpoint(end, &result) {
                                    *plan = None;
                                    break 'merge;
                                }
                            }
                            break;
                        }
                    }
                }
            }
            // Closing the channel retires the workers; a stopped
            // campaign's in-flight chunks finish and are discarded.
            drop(rx);
            let workers = workers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            // The last snapshot a streaming campaign delivers is exactly
            // the result the campaign returns.
            if let Some((_, on_progress)) = stream.as_mut() {
                if last_emitted != result.total_traces() {
                    on_progress(&result);
                }
            }
            let obs =
                CampaignObs { wall_ns: wall.elapsed_ns(), threads, workers, source: source_report };
            Some((result, obs))
        })
    }
}

/// The next chunk of a shared plan, `None` once it is used up or stopped.
fn claim<I: Iterator>(plan: &Mutex<Option<I>>) -> Option<I::Item> {
    plan.lock().ok()?.as_mut()?.next()
}

/// Stops a shared chunk plan when dropped.
struct StopPlan<'a, I>(&'a Mutex<Option<I>>);

impl<I> Drop for StopPlan<'_, I> {
    fn drop(&mut self) {
        if let Ok(mut plan) = self.0.lock() {
            *plan = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;

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

    /// Bit-equal moment state: counts and every order-1..3 t-value.
    fn assert_bit_equal(a: &TvlaResult, b: &TvlaResult) {
        assert_eq!(a.fixed.count(), b.fixed.count());
        assert_eq!(a.random.count(), b.random.count());
        assert_eq!(a.t1(), b.t1());
        assert_eq!(a.t2(), b.t2());
        assert_eq!(a.t3(), b.t3());
    }

    /// A three-chunk campaign gives the same bits at any thread count.
    #[test]
    fn parallel_equals_more_threads() {
        let seq = Campaign { traces: 40_000, threads: 1, seed: 4 }.run(&LeakyToy::new(0.3));
        let par = Campaign { traces: 40_000, threads: 4, seed: 4 }.run(&LeakyToy::new(0.3));
        assert!(seq.t1()[1].abs() > 4.5);
        assert_eq!(par.total_traces(), 40_000);
        assert_bit_equal(&seq, &par);
    }

    #[test]
    fn chunks_cut_at_chunk_multiples_and_checkpoints() {
        let c = CHUNK_TRACES;
        let plan = |ends: &[u64]| plan_chunks(ends).collect::<Vec<_>>();
        assert_eq!(plan(&[100]), vec![(0, 100, true)]);
        assert_eq!(plan(&[c]), vec![(0, c, true)]);
        assert_eq!(
            plan(&[10, 2 * c + 5]),
            vec![(0, 10, true), (10, c, false), (c, 2 * c, false), (2 * c, 2 * c + 5, true)]
        );
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

        // Reconstruct the single chunk's acquisition order exactly,
        // accumulating one trace at a time.
        let mut src = LeakyToy::new(0.15).fork(0);
        let mut rng = chunk_rng(seed, 0);
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

    /// More workers than chunks: 3 traces are one chunk, one of the 8
    /// workers acquires them all, and the idle workers retire without
    /// work and without counting against the balance.
    #[test]
    fn more_threads_than_traces() {
        let c = Campaign { traces: 3, threads: 8, seed: 13 };
        let (r, obs) = c.run_observed(&LeakyToy::new(0.0));
        assert_eq!(r.total_traces(), 3);
        assert_eq!(obs.workers.len(), 8);
        if gm_obs::ENABLED {
            assert_eq!(obs.workers.iter().filter(|w| w.traces > 0).count(), 1);
            assert_eq!(obs.worker_balance(), 1.0, "workers without a chunk don't count");
        }
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
            assert_eq!(obs.total_blocks(), 1_000u64.div_ceil(BLOCK_TRACES as u64));
            assert!(obs.wall_ns > 0);
            assert!(obs.workers[0].acquire_ns <= obs.wall_ns);
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
            assert!(obs.worker_balance() > 0.9, "even split expected: {}", obs.worker_balance());
            let report = obs.report();
            assert_eq!(report.get("pool.traces"), Some(5_000));
            assert_eq!(report.get("pool.workers"), Some(4));
            assert_eq!(report.get("toy.traces"), Some(5_000));
            assert!(report.get("pool.wall_ns").is_some());
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

    /// Streaming a multi-chunk campaign over four workers: one snapshot
    /// per cadence crossing, and the last one is the one-shot result.
    #[test]
    fn streamed_parallel_matches_one_shot() {
        let c = Campaign { traces: 40_000, threads: 4, seed: 29 };
        let mut snaps = Vec::new();
        let r = c.run_streamed_observed(&LeakyToy::new(0.2), 5_000, |s| snaps.push(s.clone())).0;
        let counts: Vec<u64> = snaps.iter().map(TvlaResult::total_traces).collect();
        assert_eq!(counts.len(), 8, "one snapshot per 5000-trace crossing: {counts:?}");
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "increasing counts: {counts:?}");
        let one_shot = Campaign::sequential(40_000, 29).run(&LeakyToy::new(0.2));
        assert_bit_equal(&r, &one_shot);
        assert_bit_equal(snaps.last().unwrap(), &one_shot);
    }

    #[test]
    #[should_panic(expected = "progress cadence must be positive")]
    fn zero_cadence_panics() {
        let c = Campaign::sequential(100, 1);
        let _ = c.run_streamed_observed(&LeakyToy::new(0.0), 0, |_| {}).0;
    }

    /// Wait until `gate` opens, or 2 s have passed.
    fn wait_for(gate: &AtomicBool) {
        let waited = std::time::Instant::now();
        while !gate.load(Ordering::SeqCst) && waited.elapsed().as_secs() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A toy that logs which thread forked each stream. With a `gate`,
    /// forks of every stream but 0 wait (up to 2 s) until it opens. With
    /// `panics`, stream 0 panics in its 101st trace and opens the gate as
    /// its source is dropped: the panic hook may take long (a backtrace),
    /// and the plan stops only as the worker unwinds.
    struct ForkLog {
        inner: LeakyToy,
        forks: Arc<Mutex<Vec<(u64, ThreadId)>>>,
        gate: Option<Arc<AtomicBool>>,
        panics: bool,
        stream: u64,
        traces: u64,
    }

    impl ForkLog {
        fn new(gate: Option<Arc<AtomicBool>>, panics: bool) -> Self {
            let inner = LeakyToy::new(0.0);
            ForkLog { inner, forks: Arc::default(), gate, panics, stream: u64::MAX, traces: 0 }
        }

        fn forks(&self) -> Vec<(u64, ThreadId)> {
            self.forks.lock().unwrap().clone()
        }
    }

    impl TraceSource for ForkLog {
        fn fork(&self, stream: u64) -> Self {
            if let Some(gate) = self.gate.as_ref().filter(|_| stream > 0) {
                wait_for(gate);
            }
            self.forks.lock().unwrap().push((stream, std::thread::current().id()));
            let (forks, gate) = (self.forks.clone(), self.gate.clone());
            let inner = self.inner.fork(stream);
            ForkLog { inner, forks, gate, panics: self.panics, stream, traces: 0 }
        }
        fn num_samples(&self) -> usize {
            self.inner.num_samples()
        }
        fn trace(&mut self, class: Class, out: &mut [f64]) {
            self.traces += 1;
            if self.panics && self.stream == 0 && self.traces > 100 {
                panic!("toy source failed");
            }
            self.inner.trace(class, out);
        }
    }

    impl Drop for ForkLog {
        fn drop(&mut self) {
            if let Some(gate) = self.gate.as_ref().filter(|_| self.panics && self.stream == 0) {
                gate.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Workers fork their own chunks: none on the calling thread, and
    /// each of the five chunks exactly once.
    #[test]
    fn workers_fork_each_chunk_once() {
        for threads in [1, 3] {
            let toy = ForkLog::new(None, false);
            let traces = 4 * CHUNK_TRACES + 100;
            let r = Campaign { traces, threads, seed: 3 }.run(&toy);
            assert_eq!(r.total_traces(), traces);
            let forks = toy.forks();
            let me = std::thread::current().id();
            assert!(forks.iter().all(|&(_, t)| t != me), "{threads} threads: fork on caller");
            let mut streams: Vec<u64> = forks.iter().map(|&(s, _)| s).collect();
            streams.sort_unstable();
            assert_eq!(streams, vec![0, 1, 2, 3, 4], "{threads} threads");
        }
    }

    /// A `false` checkpoint stops the claims: past the stopping chunk,
    /// only the at most one chunk per worker already claimed is forked.
    /// The forks past chunk 0 wait for the checkpoint, so no worker can
    /// race through the plan before it is decided.
    #[test]
    fn false_checkpoint_stops_claims() {
        for threads in [1, 3] {
            let gate = Arc::new(AtomicBool::new(false));
            let toy = ForkLog::new(Some(gate.clone()), false);
            let ends = [1_000, 40 * CHUNK_TRACES];
            let c = Campaign { traces: ends[1], threads, seed: 9 };
            let r = c.run_chunked(&toy, &ends, |_, _| {
                gate.store(true, Ordering::SeqCst);
                false
            });
            assert_eq!(r.unwrap().total_traces(), 1_000);
            let past = toy.forks().iter().filter(|&&(s, _)| s > 0).count();
            assert!(past <= threads, "{threads} threads forked {past} chunks past the stop");
        }
    }

    /// A source's panic stops a 40-chunk campaign within a few forks and
    /// surfaces with the source's own message.
    #[test]
    fn source_panic_stops_the_campaign() {
        let threads = 2;
        let toy = ForkLog::new(Some(Arc::default()), true);
        let c = Campaign { traces: 40 * CHUNK_TRACES, threads, seed: 1 };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run(&toy)))
            .expect_err("the source panics");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"toy source failed"));
        let forks = toy.forks().len();
        assert!(forks <= 2 * threads, "{forks} forks after the panic");
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
