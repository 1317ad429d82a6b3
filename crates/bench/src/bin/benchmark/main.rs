//! The repository benchmark: four paper campaigns through the real
//! `Campaign` stack, end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run, and every output checked against
//! the scalar oracles. See README.md in this directory.
//!
//! ```text
//! # all four workloads, 11 interleaved rounds, one traced round each
//! cargo run --release -p gm-bench --bin benchmark -- --seed 2023
//! # one workload for 10 s, last stdout line is the JSON result
//! cargo run --release -p gm-bench --bin benchmark -- \
//!     --workload fig14-ff --seed 7 --seconds 10 --trace 0
//! # compare two full runs saved with --json
//! cargo run --release -p gm-bench --bin benchmark -- --compare a.json b.json
//! ```
//!
//! `BENCHMARK.json` builds the same sources through the package manifest
//! in this directory instead (`--manifest-path .../Cargo.toml`).

mod heap;
mod layers;
mod probe;
mod report;
mod stats;
mod workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use crate::layers::{layer_values, traced_round, write_chrome_trace, MAX_LAYER_GAP_PCT};
use crate::probe::probe_s;
use crate::stats::median;
use crate::workload::{
    build, oracle_check, round_checks, warm_up, Checks, SetupTimes, Workload, SETUP_REPS,
    SETUP_REPS_PER_ROUND,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A reported metric: name, unit, direction.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 3] = [
    metric("throughput_tps", "traces/s", Better::Higher),
    metric("setup_s", "s", Better::Lower),
    metric("peak_heap_mib", "MiB", Better::Lower),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Metric; 18] = [
    metric("des.eval_ns_per_trace", "ns/trace", Better::Lower),
    metric("des.power_ns_per_trace", "ns/trace", Better::Lower),
    metric("des.self_ns_per_trace", "ns/trace", Better::Lower),
    metric("des.lane_fill_pct", "%", Better::Higher),
    metric("rng.mask_words_per_trace", "words/trace", Better::Lower),
    metric("leakage.self_ns_per_trace", "ns/trace", Better::Lower),
    metric("leakage.idle_ns_per_trace", "ns/trace", Better::Lower),
    metric("leakage.snapshot_ns_per_trace", "ns/trace", Better::Lower),
    metric("leakage.ttest_us", "us", Better::Lower),
    metric("sim.pass_ns_per_trace", "ns/trace", Better::Lower),
    metric("sim.repair_ns_per_trace", "ns/trace", Better::Lower),
    metric("gate.self_ns_per_trace", "ns/trace", Better::Lower),
    metric("sim.divergent_pct", "%", Better::Lower),
    metric("sim.jitter_draws_per_trace", "draws/trace", Better::Lower),
    metric("setup.netlist_us", "us", Better::Lower),
    metric("setup.source_us", "us", Better::Lower),
    metric("trace.overhead_pct", "%", Better::Lower),
    metric("trace.layer_gap_pct", "%", Better::Lower),
];

const USAGE: &str = "usage:
  benchmark [--seed N] [--rounds N] [--seconds S] [--quick] [--json PATH] [--trace-dir DIR]
      all workloads: interleaved rounds, one child process per workload per
      round measuring for S seconds, then one traced child per workload
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-dir DIR]
      one workload, measured for S seconds; the last stdout line is the result JSON
  S defaults to 3; every run measures at least one round
  benchmark --compare A.json B.json
      apply the BENCHMARK.json bounds to two saved full runs
workloads: fig14-ff, fig17-pd-stream, table1-orders, fig15-placement";

/// Options of a single-workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub trace_dir: Option<PathBuf>,
    /// Flip one expected Table I verdict (tests prove a wrong output is
    /// caught).
    pub inject_wrong_verdict: bool,
}

/// Everything a single-workload run measured and checked.
pub struct Outcome {
    pub checks: Checks,
    pub setup_s: f64,
    /// Throughput of each untraced round, traces per host second.
    pub tps: Vec<f64>,
    /// Seconds of each host-speed probe: one before the first round and
    /// one after every round.
    pub probes: Vec<f64>,
    /// Throughput of each traced round.
    pub traced_tps: Vec<f64>,
    /// Peak live heap of each untraced round.
    pub heap_mib: Vec<f64>,
    pub digest: String,
    /// Per-layer medians over the traced rounds (`None`: compiled out).
    pub layers: Vec<(&'static str, Option<f64>)>,
}

impl Outcome {
    /// End-to-end values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, Option<f64>)> {
        vec![
            ("throughput_tps", Some(probe::at_reference(&self.tps, &self.probes))),
            ("setup_s", Some(self.setup_s)),
            ("peak_heap_mib", Some(median(&self.heap_mib))),
        ]
    }

    /// The result line: one JSON object with the end-to-end metrics
    /// (`trace` off) or the per-layer metrics (`trace` on). Metrics
    /// compiled out of this build are left out.
    pub fn result_line(&self, trace: bool) -> String {
        let (defs, values) = if trace {
            (&PER_LAYER[..], self.layers.clone())
        } else {
            (&END_TO_END[..], self.end_to_end())
        };
        let metrics: Vec<String> = defs
            .iter()
            .filter_map(|m| {
                let v = value_of(&values, m.name)?;
                Some(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// Process exit code: non-zero when any check failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.checks.failed > 0)
    }
}

/// Run one workload: timed set-up, untimed warm-up, the oracle check,
/// then timed rounds with a host-speed probe after each (alternating with
/// traced rounds when `trace`), until `seconds` have passed — at least
/// one of each.
pub fn run_workload(o: &RunOpts) -> Outcome {
    let w = o.workload;
    let traces = w.traces(o.quick);
    let total = traces as f64 * w.campaigns() as f64;
    let mut setup = SetupTimes::default();
    // The first build pays the process's one-time costs, such as
    // first-touch page faults; it is not timed.
    drop(build(w, o.seed));
    let built = setup.time(w, o.seed, SETUP_REPS);
    let mut checks = Checks::default();
    warm_up(w, &built, traces, o.seed);
    oracle_check(w, &built, traces, o.seed, &mut checks);

    let start = Instant::now();
    let mut digest: Option<String> = None;
    let (mut tps, mut traced_tps, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_events = Vec::new();
    let mut heap_mib = Vec::new();
    let mut probes = vec![probe_s(w.threads())];
    loop {
        if !tps.is_empty() {
            drop(setup.time(w, o.seed, SETUP_REPS_PER_ROUND));
        }
        heap::reset_peak();
        let round = built.round(w, traces, o.seed);
        heap_mib.push(heap::peak_mib());
        probes.push(probe_s(w.threads()));
        round_checks(w, &built, &round, digest.as_deref(), o.inject_wrong_verdict, &mut checks);
        tps.push(total / round.round_s);
        let first = digest.get_or_insert_with(|| round.digest.clone()).clone();
        if o.trace {
            let traced = traced_round(w, traces, o.seed, o.trace_dir.is_some());
            checks.check(traced.round.digest == first, || {
                format!("{}: traced digest {} differs from {first}", w.name(), traced.round.digest)
            });
            traced_tps.push(total / traced.round.round_s);
            let values = layer_values(w, &traced, &setup);
            if let Some(gap) = value_of(&values, "trace.layer_gap_pct") {
                checks.check(gap <= MAX_LAYER_GAP_PCT, || {
                    format!("{}: {gap:.2}% of the workers' active time is unattributed", w.name())
                });
            }
            samples.push(values);
            last_events = traced.events;
        }
        if start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }

    let mut layers: Vec<(&'static str, Option<f64>)> = Vec::new();
    if let Some(first) = samples.first() {
        for &(name, _) in first {
            let vals: Option<Vec<f64>> = samples.iter().map(|s| value_of(s, name)).collect();
            layers.push((name, vals.map(|v| median(&v))));
        }
        let overhead = (median(&tps) / median(&traced_tps) - 1.0) * 100.0;
        layers.push(("trace.overhead_pct", Some(overhead)));
    }
    if let Some(dir) = &o.trace_dir {
        match write_chrome_trace(dir, w, &last_events) {
            Ok(path) => println!("chrome trace: {}", path.display()),
            Err(e) => {
                eprintln!("warning: could not write the Chrome trace into {}: {e}", dir.display())
            }
        }
    }
    let mut outcome = Outcome {
        checks,
        setup_s: setup.setup_s(),
        tps,
        probes,
        traced_tps,
        heap_mib,
        digest: digest.expect("at least one round"),
        layers,
    };
    for (name, v) in outcome.end_to_end().into_iter().chain(outcome.layers.clone()) {
        if let Some(v) = v {
            outcome.checks.check(v.is_finite(), || format!("{}: {name} = {v}", w.name()));
        }
    }
    outcome
}

/// Print the human report of a single-workload run, then the result
/// line last.
fn print_outcome(o: &RunOpts, out: &Outcome) {
    let w = o.workload;
    println!(
        "workload {}: seed {}, {} traces x {} campaign(s), {} thread(s), {} round(s), \
         {} traced, obs {}",
        w.name(),
        o.seed,
        w.traces(o.quick),
        w.campaigns(),
        w.threads(),
        out.tps.len(),
        out.traced_tps.len(),
        if gm_obs::ENABLED { "on" } else { "off" }
    );
    println!("digest {}", out.digest);
    let rounds: Vec<String> = out.tps.iter().map(|t| format!("{t:.0}")).collect();
    println!("  untraced rounds, traces/s: {}", rounds.join(" "));
    let probes: Vec<String> = out.probes.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    println!("  host-speed probes, ms: {}", probes.join(" "));
    println!("  host slowness (median probe / reference): {:.4}", probe::slowness(&out.probes));
    let values = if o.trace { out.layers.clone() } else { out.end_to_end() };
    let defs = if o.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for m in defs {
        match value_of(&values, m.name) {
            Some(v) => println!("  {:<32} {:>16} {}", m.name, num(v), m.unit),
            None => println!("  {:<32} {:>16} (obs-off build)", m.name, "unavailable"),
        }
    }
    println!("checks: {} attempted, {} failed", out.checks.attempted, out.checks.failed);
    for f in &out.checks.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.result_line(o.trace));
}

/// The value of metric `name` in a list of named values (`None` when
/// absent or compiled out).
fn value_of(values: &[(&'static str, Option<f64>)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).and_then(|&(_, v)| v)
}

/// A value for the human report: four decimals, or four significant
/// digits for small values such as a set-up time in seconds.
pub fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Names of set `GM_*` variables. The benchmark measures the defaults
/// only, so any runtime knob of the workspace makes it refuse to start.
fn gm_vars(names: impl IntoIterator<Item = String>) -> Vec<String> {
    names.into_iter().filter(|n| n.starts_with("GM_")).collect()
}

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    rounds: usize,
    quick: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2023,
        seconds: 3.0,
        trace: false,
        trace_dir: None,
        rounds: 11,
        quick: false,
        json: None,
        compare: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => cli.trace_dir = Some(value()?.into()),
            "--rounds" => {
                cli.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if cli.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--json" => cli.json = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.is_some() && cli.json.is_some() {
        return Err("--json saves a full run; it does not apply with --workload".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return ExitCode::from(report::compare(a, b));
    }
    let set = gm_vars(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !set.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set; it measures the defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match cli.workload {
        Some(workload) => {
            let opts = RunOpts {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                quick: cli.quick,
                trace_dir: cli.trace_dir,
                inject_wrong_verdict: false,
            };
            let outcome = run_workload(&opts);
            print_outcome(&opts, &outcome);
            ExitCode::from(outcome.exit_code())
        }
        None => ExitCode::from(report::run_all(&report::AllOpts {
            seed: cli.seed,
            seconds: cli.seconds,
            rounds: cli.rounds,
            quick: cli.quick,
            json: cli.json,
            trace_dir: cli.trace_dir,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_bench::json::{self, Json};
    use std::sync::{Mutex, MutexGuard};

    /// Campaign tests share the process-global span recorder and the
    /// two cores; run them one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick(workload: Workload, trace: bool) -> RunOpts {
        RunOpts {
            workload,
            seed: 2023,
            seconds: 0.0,
            trace,
            quick: true,
            trace_dir: None,
            inject_wrong_verdict: false,
        }
    }

    /// Parse a result line and check it names every metric of `defs`
    /// with its unit and a finite value; obs-only metrics may be absent
    /// in an `obs-off` build.
    fn assert_every_metric(line: &str, defs: &[Metric]) -> Json {
        let v = json::parse(line).expect("result line is JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap();
        for m in defs {
            match metrics.get(m.name) {
                Some(entry) => {
                    let value = entry.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value.is_finite(), "{} = {value}", m.name);
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                }
                None if gm_obs::ENABLED => panic!("{} missing from {line}", m.name),
                None => {}
            }
        }
        v
    }

    /// The `--quick` end-to-end run of every workload, traced: every
    /// metric is printed, finite, and no check fails (the traced digest
    /// equals the untraced one, the layers cover the wall time).
    #[test]
    fn quick_run_prints_every_metric_and_passes_every_check() {
        let _serial = serial();
        for w in Workload::ALL {
            let outcome = run_workload(&quick(w, true));
            assert_eq!(outcome.checks.failures, Vec::<String>::new(), "{}", w.name());
            assert_eq!(outcome.exit_code(), 0);
            let e2e = assert_every_metric(&outcome.result_line(false), &END_TO_END);
            assert_eq!(e2e.get("correct"), Some(&Json::Bool(true)));
            assert!(e2e.get("attempted").and_then(Json::as_u64).unwrap() >= 3);
            assert_every_metric(&outcome.result_line(true), &PER_LAYER);
            // Self times are remainders; a negative one means a layer
            // was timed twice. Only the overhead may come out negative.
            for &(name, v) in &outcome.layers {
                if let (Some(v), false) = (v, name == "trace.overhead_pct") {
                    assert!(v >= 0.0, "{}: {name} = {v}", w.name());
                }
            }
        }
    }

    /// Tracing is passive: a campaign over the wrapper sources has the
    /// same moment state, bit for bit, as the untraced campaign.
    #[test]
    fn traced_round_digest_equals_untraced_for_every_workload() {
        let _serial = serial();
        for w in Workload::ALL {
            let traces = w.traces(true) / 2;
            let untraced = build(w, 99).0.round(w, traces, 99);
            let traced = traced_round(w, traces, 99, false);
            assert_eq!(traced.round.digest, untraced.digest, "{}", w.name());
            assert!(!traced.events.is_empty(), "{}: wrapper spans recorded", w.name());
        }
    }

    /// A wrong Table I verdict is counted as a failure and makes the run
    /// exit non-zero with `"correct": false`.
    #[test]
    fn injected_wrong_verdict_fails_the_run() {
        let _serial = serial();
        let mut opts = quick(Workload::Table1Orders, false);
        opts.inject_wrong_verdict = true;
        let outcome = run_workload(&opts);
        assert!(outcome.checks.failed > 0);
        assert_ne!(outcome.exit_code(), 0);
        let line = json::parse(&outcome.result_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(outcome.checks.failures.iter().any(|f| f.contains("order 0")));
    }

    #[test]
    fn gm_knobs_are_refused() {
        let names = ["PATH", "GM_REPAIR_BATCH", "HOME", "GM_JITTER_WIDE"].map(String::from);
        assert_eq!(gm_vars(names), ["GM_REPAIR_BATCH", "GM_JITTER_WIDE"]);
    }

    #[test]
    fn cli_parses_the_single_workload_form_and_rejects_bad_input() {
        let args = "--workload fig15-placement --seed 7 --seconds 10 --trace 1";
        let cli = parse_cli(args.split(' ').map(String::from)).unwrap();
        assert_eq!(cli.workload, Some(Workload::Fig15Placement));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        for bad in ["--trace 2", "--workload nope", "--seed", "--seconds -1", "--rounds 0", "--x"] {
            assert!(parse_cli(bad.split(' ').map(String::from)).is_err(), "{bad}");
        }
    }

    /// The repository root: the nearest ancestor of the manifest
    /// directory (gm-bench's or the benchmark package's) that holds
    /// `BENCHMARK.json`.
    fn repo_root() -> &'static std::path::Path {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory")
    }

    fn benchmark_spec() -> Json {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        json::parse(&text).unwrap()
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this binary reports, with the same units
    /// and directions.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let spec = benchmark_spec();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let ws: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), ws);
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let entries = spec.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (e, m) in entries.iter().zip(defs) {
                assert_eq!(e.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit));
                let better = if m.better == Better::Higher { "higher" } else { "lower" };
                assert_eq!(e.get("better").and_then(Json::as_str), Some(better), "{}", m.name);
            }
        }
    }

    /// The settings of `[profile.NAME]` in a manifest, comments and
    /// blank lines dropped, sorted.
    fn profile(manifest: &std::path::Path, name: &str) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap();
        let header = format!("[profile.{name}]");
        let mut lines = text.lines().map(str::trim).skip_while(|l| *l != header).skip(1);
        let mut settings: Vec<String> = lines
            .by_ref()
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.split('#').next().unwrap().split_whitespace().collect::<String>())
            .filter(|l| !l.is_empty())
            .collect();
        settings.sort();
        settings
    }

    /// The benchmark package, a workspace of its own, repeats the root
    /// manifest's profiles, so it measures the shipped code generation.
    #[test]
    fn benchmark_package_profiles_match_the_workspace() {
        let root = repo_root();
        let dir = benchmark_spec().get("paths").and_then(Json::as_arr).unwrap()[0]
            .as_str()
            .unwrap()
            .to_owned();
        let own = root.join(dir).join("Cargo.toml");
        for name in ["dev", "release"] {
            let want = profile(&root.join("Cargo.toml"), name);
            assert!(!want.is_empty(), "[profile.{name}] in the root manifest");
            assert_eq!(profile(&own, name), want, "[profile.{name}] of {}", own.display());
        }
    }
}
