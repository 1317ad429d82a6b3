//! The traced run: benchmark-owned wrapper sources that time every call
//! into a layer's public function, and the per-layer metrics computed
//! from them.
//!
//! The wrappers export their accumulated nanoseconds through
//! [`TraceSource::obs_report`], which the campaign pool sums across
//! workers in every build (`obs-off` included). They also keep their
//! spans in memory and hand them to a shared [`SpanSink`] when dropped;
//! [`SpanSink::finish`] merges them with the in-program spans
//! (`tvla.*`, `sched.*`) onto one timeline.

use crate::workload::{build, run_round, Built, Round, SetupTimes, Workload};
use gm_core::MaskRng;
use gm_des::masked::{BitslicedDes, MaskedDesFf, MaskedDesPd};
use gm_des::power::{CycleLaneCounters, GroupScratch, PdLeakModel, PowerModel};
use gm_des::tvla_src::{CoreVariant, SourceConfig};
use gm_leakage::{BlockLayout, Class, TraceSource};
use gm_obs::trace::SpanEvent;
use gm_obs::Report;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Lanes of one bitsliced group.
const LANES: usize = 64;
/// Largest accepted `trace.layer_gap_pct`: the share of the workers' wall
/// time inside their active windows that the pool's acquire stopwatch
/// does not cover.
pub const MAX_LAYER_GAP_PCT: f64 = 5.0;

/// Collects the spans of every wrapper of one traced round.
#[derive(Clone)]
pub struct SpanSink(Arc<SinkInner>);

struct SinkInner {
    anchor: Instant,
    in_program: bool,
    events: Mutex<Vec<SpanEvent>>,
}

impl SpanSink {
    /// Start a round's span collection. With `in_program`, also arm the
    /// program's own span recorder and anchor the wrapper timeline to
    /// it: the `bench.anchor` span marks the wrappers' time zero on the
    /// recorder's timeline.
    pub fn start(in_program: bool) -> Self {
        if in_program {
            gm_obs::trace::start_capture();
            let _anchor = gm_obs::trace::span("bench.anchor");
        }
        SpanSink(Arc::new(SinkInner {
            anchor: Instant::now(),
            in_program,
            events: Mutex::new(Vec::new()),
        }))
    }

    /// Stop capture and return every span of the round on one timeline,
    /// ordered by time (stable, so each thread keeps its edge order).
    pub fn finish(self) -> Vec<SpanEvent> {
        let mut events = if self.0.in_program { gm_obs::trace::stop_capture() } else { Vec::new() };
        let offset =
            events.iter().find(|e| e.name == "bench.anchor" && !e.begin).map_or(0, |e| e.ts_ns);
        events.retain(|e| e.name != "bench.anchor");
        let mine = std::mem::take(&mut *self.0.events.lock().expect("span sink lock"));
        events.extend(mine.into_iter().map(|e| SpanEvent { ts_ns: e.ts_ns + offset, ..e }));
        events.sort_by_key(|e| e.ts_ns);
        events
    }
}

/// Per-wrapper timers, counters and span buffer.
struct Clock {
    sink: SpanSink,
    tid: u32,
    events: Vec<SpanEvent>,
    block_ns: u64,
    eval_ns: u64,
    power_ns: u64,
    groups: u64,
    lanes: u64,
    /// The worker's active window: first `trace_block` start to last end.
    window: Option<(Instant, Instant)>,
}

impl Clock {
    fn new(sink: &SpanSink, tid: u32) -> Self {
        Clock {
            sink: sink.clone(),
            tid,
            events: Vec::new(),
            block_ns: 0,
            eval_ns: 0,
            power_ns: 0,
            groups: 0,
            lanes: 0,
            window: None,
        }
    }

    /// Account one finished `trace_block` call.
    fn block(&mut self, start: Instant, end: Instant) {
        self.block_ns += end.duration_since(start).as_nanos() as u64;
        let first = self.window.map_or(start, |(first, _)| first);
        self.window = Some((first, end));
    }

    /// The clock of the wrapper forked for campaign worker `stream`.
    /// Wrapper spans get their own thread ids, clear of the recorder's
    /// (which count up from 1 per recording thread).
    fn fork(&self, stream: u64) -> Self {
        Clock::new(&self.sink, 10_000 + stream as u32)
    }

    fn edge(&mut self, name: &'static str, at: Instant, begin: bool) {
        let ts_ns = at.saturating_duration_since(self.sink.0.anchor).as_nanos() as u64;
        self.events.push(SpanEvent { name, tid: self.tid, ts_ns, begin });
    }

    /// Record a finished leaf span; returns its nanoseconds.
    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.edge(name, start, true);
        self.edge(name, end, false);
        end.duration_since(start).as_nanos() as u64
    }

    fn report(&self, r: &mut Report) {
        r.add("bench.block_ns", self.block_ns);
        r.add("bench.eval_ns", self.eval_ns);
        r.add("bench.power_ns", self.power_ns);
        r.add("bench.groups", self.groups);
        r.add("bench.lanes", self.lanes);
        let window = self.window.map_or(0, |(first, last)| last.duration_since(first).as_nanos());
        r.add("bench.window_ns", window as u64);
    }
}

impl Drop for Clock {
    fn drop(&mut self) {
        if self.events.is_empty() {
            return;
        }
        // A poisoned lock means a campaign worker panicked; its spans
        // are dropped rather than panicking again here.
        if let Ok(mut all) = self.sink.0.events.lock() {
            all.append(&mut self.events);
        }
    }
}

/// The wide bitsliced cycle-model source, recomposed from its public
/// layers so each is timed: `BitslicedDes::encrypt_{ff,pd}_group` (the
/// `gm-des` evaluator) and `PowerModel::trace_group_into` (power and
/// measurement noise). Seed derivation and RNG consumption follow
/// `BitslicedCycleSource` exactly, so a campaign over this wrapper is
/// bit-identical to one over `AnyCycleSource` — checked on every traced
/// round.
///
/// This is a copy: it must track the wide branch of
/// `gm_des::tvla_src::BitslicedCycleSource::trace_block` and that
/// source's `with_stream` seed constants. A change there that alters RNG
/// consumption fails the traced-digest check until this copy follows, and
/// a speed-up there shows in `throughput_tps` but not in the `des.*`
/// layers, which time this copy. Timing the layers inside the real source
/// (counters exported through its `obs_report`) would retire it.
pub struct TracedCycle {
    cfg: SourceConfig,
    engine: BitslicedDes,
    is_ff: bool,
    power: PowerModel,
    mask_rng: MaskRng,
    pt_rng: SmallRng,
    num_samples: usize,
    counters: CycleLaneCounters,
    scratch: GroupScratch,
    pts: Vec<u64>,
    clock: Clock,
}

impl TracedCycle {
    /// The prototype a campaign forks its workers from.
    pub fn new(cfg: SourceConfig, sink: &SpanSink) -> Self {
        Self::with_stream(cfg, 0, Clock::new(sink, 0))
    }

    fn with_stream(cfg: SourceConfig, stream: u64, clock: Clock) -> Self {
        let seed = cfg.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let (is_ff, power, num_samples) = match cfg.variant {
            CoreVariant::Ff => {
                (true, PowerModel::ff(cfg.noise_sigma, seed), MaskedDesFf::TOTAL_CYCLES)
            }
            CoreVariant::Pd { unit_luts } => (
                false,
                PowerModel::pd(PdLeakModel::with_unit_luts(unit_luts), cfg.noise_sigma, seed),
                MaskedDesPd::TOTAL_CYCLES,
            ),
        };
        let mask_rng = if cfg.prng_on {
            MaskRng::new(cfg.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        } else {
            MaskRng::disabled()
        };
        let mut counters = CycleLaneCounters::new();
        counters.skip_records = true;
        TracedCycle {
            engine: BitslicedDes::new(cfg.key),
            pt_rng: SmallRng::seed_from_u64(seed ^ 0x60be_e2be_e120_fc15),
            cfg,
            is_ff,
            power,
            mask_rng,
            num_samples,
            counters,
            scratch: GroupScratch::new(),
            pts: Vec::with_capacity(LANES),
            clock,
        }
    }
}

impl TraceSource for TracedCycle {
    fn fork(&self, stream: u64) -> Self {
        // The real source offsets worker streams by one (stream 0 is the
        // prototype's own).
        Self::with_stream(self.cfg.clone(), stream.wrapping_add(1), self.clock.fork(stream))
    }

    fn num_samples(&self) -> usize {
        self.num_samples
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        let _ = match class {
            Class::Fixed => self.trace_block(&[class], out, &mut []),
            Class::Random => self.trace_block(&[class], &mut [], out),
        };
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let block_start = Instant::now();
        self.clock.edge("bench.trace_block", block_start, true);
        let ns = self.num_samples;
        let (mut nf, mut nr) = (0usize, 0usize);
        for chunk in labels.chunks(LANES) {
            self.pts.clear();
            for &class in chunk {
                let pt = match class {
                    Class::Fixed => self.cfg.fixed_pt,
                    Class::Random => self.pt_rng.random(),
                };
                self.pts.push(pt);
            }
            let t0 = Instant::now();
            if self.is_ff {
                self.engine.encrypt_ff_group(&self.pts, &mut self.mask_rng, &mut self.counters);
            } else {
                self.engine.encrypt_pd_group(&self.pts, &mut self.mask_rng, &mut self.counters);
            }
            let t1 = Instant::now();
            self.power.trace_group_into(
                &mut self.counters,
                chunk.len(),
                &mut self.scratch,
                |lane, trace| {
                    let (buf, row) = match chunk[lane] {
                        Class::Fixed => (&mut *fixed, &mut nf),
                        Class::Random => (&mut *random, &mut nr),
                    };
                    buf[*row * ns..][..ns].copy_from_slice(trace);
                    *row += 1;
                },
            );
            let t2 = Instant::now();
            self.clock.eval_ns += self.clock.leaf("des.eval", t0, t1);
            self.clock.power_ns += self.clock.leaf("des.power", t1, t2);
            self.clock.groups += 1;
            self.clock.lanes += chunk.len() as u64;
        }
        let end = Instant::now();
        self.clock.edge("bench.trace_block", end, false);
        self.clock.block(block_start, end);
        (nf, nr)
    }

    fn block_layout(&self) -> BlockLayout {
        BlockLayout::RowMajor
    }

    fn obs_report(&self, report: &mut Report) {
        report.set_nonzero("rng.mask_words", self.mask_rng.obs_words_drawn());
        self.clock.report(report);
    }
}

/// A gate-level source with its `trace_block` timed.
pub struct Timed<S> {
    inner: S,
    clock: Clock,
}

impl<S: TraceSource> Timed<S> {
    /// Wrap a prototype source.
    pub fn new(inner: S, sink: &SpanSink) -> Self {
        Timed { inner, clock: Clock::new(sink, 0) }
    }
}

impl<S: TraceSource> TraceSource for Timed<S> {
    fn fork(&self, stream: u64) -> Self {
        Timed { inner: self.inner.fork(stream), clock: self.clock.fork(stream) }
    }

    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        self.inner.trace(class, out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let start = Instant::now();
        let rows = self.inner.trace_block(labels, fixed, random);
        let end = Instant::now();
        self.clock.leaf("gate.trace_block", start, end);
        self.clock.block(start, end);
        rows
    }

    fn block_layout(&self) -> BlockLayout {
        self.inner.block_layout()
    }

    fn obs_report(&self, report: &mut Report) {
        self.inner.obs_report(report);
        self.clock.report(report);
    }
}

/// One traced round and every span it recorded.
pub struct TracedRound {
    pub round: Round,
    pub events: Vec<SpanEvent>,
}

/// Run one round of `w` over freshly built wrapper sources.
///
/// `in_program` also records the program's own spans. The streamed
/// workload always needs them (its snapshot time is the `tvla.snapshot`
/// span). The gate-level sweep records millions of `sched.*` spans a
/// round and runs about a third slower while it does, so the gate
/// workloads record them only when a Chrome trace is asked for.
pub fn traced_round(w: Workload, traces: u64, seed: u64, in_program: bool) -> TracedRound {
    let (built, _, _) = build(w, seed);
    let sink = SpanSink::start(in_program || w == Workload::Fig17PdStream);
    let round = match built {
        Built::Cycle(cfg, _) => run_round(w, &[TracedCycle::new(cfg, &sink)], traces, seed),
        Built::Orders(_, srcs) => {
            let srcs: Vec<_> = srcs.into_iter().map(|s| Timed::new(s, &sink)).collect();
            run_round(w, &srcs, traces, seed)
        }
        Built::Placement(_, srcs) => {
            let srcs: Vec<_> = srcs.into_iter().map(|s| Timed::new(s, &sink)).collect();
            run_round(w, &srcs, traces, seed)
        }
    };
    TracedRound { round, events: sink.finish() }
}

/// Total nanoseconds inside spans named `name`.
fn span_ns(events: &[SpanEvent], name: &str) -> u64 {
    let mut open: Vec<(u32, u64)> = Vec::new();
    let mut total = 0;
    for e in events.iter().filter(|e| e.name == name) {
        if e.begin {
            open.push((e.tid, e.ts_ns));
        } else if let Some(i) = open.iter().rposition(|&(tid, _)| tid == e.tid) {
            total += e.ts_ns.saturating_sub(open.swap_remove(i).1);
        }
    }
    total
}

/// Per-layer values of one traced round, in [`crate::PER_LAYER`] order
/// except `trace.overhead_pct`, which needs the untraced rounds. `None`
/// marks a value read from an in-program counter that this build
/// compiled out (`obs-off`).
pub fn layer_values(
    w: Workload,
    traced: &TracedRound,
    setup: &SetupTimes,
) -> Vec<(&'static str, Option<f64>)> {
    let round = &traced.round;
    let mut rep = Report::new();
    for o in &round.obs {
        rep.merge(&o.source);
    }
    let get = |k: &str| rep.get(k).unwrap_or(0) as f64;
    let obs = |v: f64| gm_obs::ENABLED.then_some(v);
    let traces: f64 = round.results.iter().map(|r| r.total_traces() as f64).sum();
    let per = |v: f64| v / traces;
    let (block, eval, power) = (get("bench.block_ns"), get("bench.eval_ns"), get("bench.power_ns"));
    let (pass, repair) = (get("sim.sched.pass_ns"), get("sim.sched.repair.ns"));
    // Workers' wall time, and the part of it inside each worker's active
    // window (first block start to last block end). Outside the window a
    // worker waits: for its quota, for thread start-up, for the slowest
    // worker to finish.
    let busy_ns = w.threads() as f64 * round.campaign_s * 1e9;
    let window = get("bench.window_ns");
    let acquire: f64 = round.obs.iter().flat_map(|o| &o.workers).map(|w| w.acquire_ns as f64).sum();
    let swept = get("sim.sched.lanes");
    let jitter = get("sim.sched.jitter.batched")
        + get("sim.sched.jitter.scalar")
        + get("sim.jitter.batched")
        + get("sim.jitter.scalar");
    let groups = get("bench.groups");
    vec![
        ("des.eval_ns_per_trace", Some(per(eval))),
        ("des.power_ns_per_trace", Some(per(power))),
        ("des.self_ns_per_trace", Some(if w.is_cycle() { per(block - eval - power) } else { 0.0 })),
        (
            "des.lane_fill_pct",
            Some(if groups > 0.0 {
                100.0 * get("bench.lanes") / (LANES as f64 * groups)
            } else {
                0.0
            }),
        ),
        ("rng.mask_words_per_trace", obs(per(get("rng.mask_words")))),
        ("leakage.self_ns_per_trace", Some(per(busy_ns - block))),
        ("leakage.idle_ns_per_trace", Some(per(busy_ns - window))),
        (
            "leakage.snapshot_ns_per_trace",
            obs(per(span_ns(&traced.events, "tvla.snapshot") as f64)),
        ),
        ("leakage.ttest_us", Some(round.ttest_s * 1e6)),
        ("sim.pass_ns_per_trace", obs(per(pass))),
        ("sim.repair_ns_per_trace", obs(per(repair))),
        (
            "gate.self_ns_per_trace",
            if w.is_cycle() { Some(0.0) } else { obs(per(block - pass - repair)) },
        ),
        (
            "sim.divergent_pct",
            obs(if swept > 0.0 { 100.0 * get("sim.sched.repair.lanes") / swept } else { 0.0 }),
        ),
        ("sim.jitter_draws_per_trace", obs(per(jitter))),
        ("setup.netlist_us", Some(setup.netlist_s() * 1e6)),
        ("setup.source_us", Some(setup.source_s() * 1e6)),
        // Two independent stopwatches over nearly the same span: the
        // wrappers' active windows and the pool's acquire stopwatch
        // (source layers plus the fold). Their difference is the time in
        // the windows the pool does not attribute (label draws, snapshot
        // publishing, the block loop) plus clock disagreement. It cannot
        // see time inside a remainder (`*.self_*`) or outside the windows
        // (reported as idle).
        ("trace.layer_gap_pct", obs(100.0 * (window - acquire).abs() / busy_ns)),
    ]
}

/// Write the round's spans as Chrome trace JSON into `dir`.
pub fn write_chrome_trace(
    dir: &Path,
    w: Workload,
    events: &[SpanEvent],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, gm_obs::trace::chrome_trace_json(events))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ns_pairs_edges_per_thread() {
        let e = |tid, ts_ns, begin| SpanEvent { name: "s", tid, ts_ns, begin };
        let events = [e(1, 10, true), e(2, 12, true), e(1, 15, false), e(2, 30, false)];
        assert_eq!(span_ns(&events, "s"), 5 + 18);
        assert_eq!(span_ns(&events, "other"), 0);
    }
}
