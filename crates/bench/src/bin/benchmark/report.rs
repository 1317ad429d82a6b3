//! The full run — every workload in interleaved rounds, one child
//! process per workload per round, then one traced round per workload —
//! with its report, its `--json` file, and `--compare` of two such files.

use crate::stats::{quartiles, spread};
use crate::workload::Workload;
use crate::{num, Better, END_TO_END, PER_LAYER};
use gm_bench::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Below this absolute change, `setup_s` is never a regression.
const SETUP_FLOOR_S: f64 = 0.002;
/// Per-layer metrics that are exact counts: they must repeat exactly.
const EXACT_LAYERS: [&str; 4] = [
    "des.lane_fill_pct",
    "rng.mask_words_per_trace",
    "sim.divergent_pct",
    "sim.jitter_draws_per_trace",
];

/// Options of a full run.
pub struct AllOpts {
    pub seed: u64,
    /// Measuring time of each child; 0 gives one timed round per child.
    pub seconds: f64,
    pub rounds: usize,
    pub quick: bool,
    pub json: Option<PathBuf>,
    pub trace_dir: Option<PathBuf>,
}

/// What one child run reported.
struct Child {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: String,
    metrics: Vec<(String, f64)>,
}

fn run_child(exe: &Path, w: Workload, o: &AllOpts, trace: bool) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()]).args([
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if o.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(dir)) = (trace, &o.trace_dir) {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Child {
        attempted: v.get("attempted").and_then(Json::as_u64).ok_or("no attempted count")?,
        failed: v.get("failed").and_then(Json::as_u64).ok_or("no failed count")?,
        failures: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("FAILED: "))
            .map(String::from)
            .collect(),
        digest: stdout.lines().find_map(|l| l.strip_prefix("digest ")).unwrap_or("").to_owned(),
        metrics,
    })
}

/// One workload's results over the whole run.
#[derive(Default)]
struct Agg {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: Vec<String>,
    rounds: BTreeMap<String, Vec<f64>>,
    layers: BTreeMap<String, f64>,
}

impl Agg {
    fn add(&mut self, w: Workload, child: Result<Child, String>) -> Option<Child> {
        match child {
            Ok(c) => {
                self.attempted += c.attempted;
                self.failed += c.failed;
                self.failures.extend(c.failures.iter().cloned());
                self.digests.push(c.digest.clone());
                Some(c)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(format!("{}: child run failed: {e}", w.name()));
                None
            }
        }
    }
}

/// Host and build that produced the numbers.
fn envelope(o: &AllOpts) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cpu", cpu),
        ("logical_cores", cores.to_string()),
        ("rustc", rustc_version().unwrap_or_else(|| "unknown".to_owned())),
        ("target_features", target_features()),
        ("git_rev", git_rev().unwrap_or_else(|| "unknown".to_owned())),
        ("seed", o.seed.to_string()),
        ("rounds", o.rounds.to_string()),
        ("quick", o.quick.to_string()),
        ("obs", (if gm_obs::ENABLED { "on" } else { "off" }).to_owned()),
    ]
}

/// `rustc -V` of the compiler on `PATH` (the one `cargo run` built with).
fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").stdin(Stdio::null()).output().ok()?;
    Some(String::from_utf8(out.stdout).ok()?.trim().to_owned()).filter(|v| !v.is_empty())
}

/// The vector and bit-manipulation features this build was compiled
/// for: what `target-cpu` decided for the hot loops.
fn target_features() -> String {
    let features = [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
        ("avx512vpopcntdq", cfg!(target_feature = "avx512vpopcntdq")),
    ];
    let on: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    if on.is_empty() {
        "baseline".to_owned()
    } else {
        on.join(" ")
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// only (a source export without `.git` reports none).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(String::from))
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    gm_obs::escape_into(s, &mut out);
    out.push('"');
    out
}

/// Run every workload, print the report, save `--json`; returns the
/// exit code (non-zero when any check failed).
pub fn run_all(o: &AllOpts) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return 2;
        }
    };
    let env = envelope(o);
    let mut aggs: Vec<(Workload, Agg)> =
        Workload::ALL.iter().map(|&w| (w, Agg::default())).collect();
    // Workloads take turns within each round, so a slow stretch of the
    // host spreads over all of them instead of landing on one.
    for round in 1..=o.rounds {
        for (w, agg) in &mut aggs {
            if let Some(c) = agg.add(*w, run_child(&exe, *w, o, false)) {
                for (k, v) in c.metrics {
                    agg.rounds.entry(k).or_default().push(v);
                }
                let tps = agg.rounds.get("throughput_tps").and_then(|v| v.last()).copied();
                eprintln!(
                    "round {round}/{}: {:<16} {:>12.0} traces/s",
                    o.rounds,
                    w.name(),
                    tps.unwrap_or(0.0)
                );
            }
        }
    }
    for (w, agg) in &mut aggs {
        if let Some(c) = agg.add(*w, run_child(&exe, *w, o, true)) {
            agg.layers = c.metrics.into_iter().collect();
        }
        let first = agg.digests.first().cloned().unwrap_or_default();
        agg.attempted += 1;
        if first.is_empty() || agg.digests.iter().any(|d| *d != first) {
            agg.failed += 1;
            agg.failures.push(format!(
                "{}: digests differ across rounds: {:?}",
                w.name(),
                agg.digests
            ));
        }
    }
    print_report(o, &env, &aggs);
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, to_json(o, &env, &aggs)) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("saved {}", path.display());
    }
    u8::from(aggs.iter().any(|(_, a)| a.failed > 0))
}

fn print_report(o: &AllOpts, env: &[(&str, String)], aggs: &[(Workload, Agg)]) {
    println!(
        "\nbenchmark: {} workloads x {} rounds, closed batch loop, one child process per run",
        aggs.len(),
        o.rounds
    );
    for (k, v) in env {
        println!("  {k:<14} {v}");
    }
    println!(
        "\n{:<16} {:>9} {:>4} {:>4} {:>7}  digest",
        "workload", "traces", "x", "thr", "rounds"
    );
    for (w, a) in aggs {
        let digest = a.digests.first().map_or("-", String::as_str);
        let rounds = a.rounds.get("throughput_tps").map_or(0, Vec::len);
        println!(
            "{:<16} {:>9} {:>4} {:>4} {:>7}  {digest}",
            w.name(),
            w.traces(o.quick),
            w.campaigns(),
            w.threads(),
            rounds
        );
    }
    println!("\nend-to-end: median [q1, q3] over rounds, tracing off");
    for m in &END_TO_END {
        for (w, a) in aggs {
            if let Some(v) = a.rounds.get(m.name) {
                let (q1, q2, q3) = quartiles(v);
                println!(
                    "  {:<14} {:<16} {:>14} [{}, {}] {} (spread {:.1}%, n = {})",
                    m.name,
                    w.name(),
                    num(q2),
                    num(q1),
                    num(q3),
                    m.unit,
                    100.0 * spread(v),
                    v.len()
                );
            }
        }
    }
    println!("\nper-layer: one traced round per workload");
    print!("  {:<30}", "metric");
    for (w, _) in aggs {
        print!(" {:>16}", w.name());
    }
    println!("  unit");
    for m in &PER_LAYER {
        print!("  {:<30}", m.name);
        for (_, a) in aggs {
            match a.layers.get(m.name) {
                Some(&v) => print!(" {:>16}", num(v)),
                None => print!(" {:>16}", "unavailable"),
            }
        }
        println!("  {}", m.unit);
    }
    let (attempted, failed): (u64, u64) =
        aggs.iter().fold((0, 0), |(t, f), (_, a)| (t + a.attempted, f + a.failed));
    println!(
        "\nchecks: {attempted} attempted, {failed} failed (fail_rate {})",
        failed as f64 / attempted.max(1) as f64
    );
    for (_, a) in aggs {
        for f in &a.failures {
            println!("FAILED: {f}");
        }
    }
}

fn to_json(o: &AllOpts, env: &[(&str, String)], aggs: &[(Workload, Agg)]) -> String {
    let env: Vec<String> = env.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let workloads: Vec<String> = aggs
        .iter()
        .map(|(w, a)| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| {
                    let v = a.rounds.get(m.name)?;
                    let (q1, q2, q3) = quartiles(v);
                    let values: Vec<String> = v.iter().map(f64::to_string).collect();
                    Some(format!(
                        "{}: {{\"unit\": {}, \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \"values\": [{}]}}",
                        quote(m.name),
                        quote(m.unit),
                        values.join(", ")
                    ))
                })
                .collect();
            let layers: Vec<String> = PER_LAYER
                .iter()
                .map(|m| {
                    let v = a.layers.get(m.name).map_or("null".to_owned(), f64::to_string);
                    format!("{}: {{\"unit\": {}, \"value\": {v}}}", quote(m.name), quote(m.unit))
                })
                .collect();
            let failures: Vec<String> = a.failures.iter().map(|f| quote(f)).collect();
            format!(
                "{{\"name\": {}, \"traces\": {}, \"campaigns\": {}, \"threads\": {}, \"digest\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}, \
                 \"layers\": {{{}}}}}",
                quote(w.name()),
                w.traces(o.quick),
                w.campaigns(),
                w.threads(),
                quote(a.digests.first().map_or("", String::as_str)),
                a.attempted,
                a.failed,
                failures.join(", "),
                metrics.join(", "),
                layers.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"envelope\": {{{}}},\n\"workloads\": [\n{}\n]}}\n",
        env.join(", "),
        workloads.join(",\n")
    )
}

/// An end-to-end metric's bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = spec.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let better = match e.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = e.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
            Ok(Bound { name: name.to_owned(), better, bound })
        })
        .collect()
}

fn read_run(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Verdict of one (metric, workload) pairing.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// Compare medians under the metric's bound. When either side's
/// quartile spread exceeds the bound the pairing is unresolved, unless
/// every run of `b` reads better than every run of `a`.
fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let change = (mb - ma) / ma;
    let worse = if bound.better == Better::Higher { -change } else { change };
    let all_better = match bound.better {
        Better::Higher => b.iter().all(|&x| a.iter().all(|&y| x > y)),
        Better::Lower => b.iter().all(|&x| a.iter().all(|&y| x < y)),
    };
    let verdict = if bound.name == "setup_s" && (mb - ma).abs() <= SETUP_FLOOR_S {
        Verdict::Ok
    } else if spread(a).max(spread(b)) > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, change)
}

/// `--compare A B`: apply the `BENCHMARK.json` bounds to B's medians
/// against A's, and require identical digests and exact counts. Returns
/// the exit code (0 only when every pairing is within its bound).
pub fn compare(a_path: &Path, b_path: &Path) -> u8 {
    let loaded = (|| {
        Ok::<_, String>((
            read_bounds(Path::new("BENCHMARK.json"))?,
            read_run(a_path)?,
            read_run(b_path)?,
        ))
    })();
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark --compare: {e}");
            return 2;
        }
    };
    let mut bad = 0usize;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for w in Workload::ALL {
        let (Some(wa), Some(wb)) = (workload(&a, w.name()), workload(&b, w.name())) else {
            println!("{:<16} missing from one run", w.name());
            bad += 1;
            continue;
        };
        for bound in &bounds {
            let values = |run: &Json| -> Vec<f64> {
                run.get("metrics")
                    .and_then(|m| m.get(&bound.name))
                    .and_then(|m| m.get("values"))
                    .and_then(Json::as_arr)
                    .map(|v| v.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                println!("{:<16} {:<14} missing", w.name(), bound.name);
                bad += 1;
                continue;
            }
            let (verdict, change) = judge(bound, &va, &vb);
            bad += usize::from(verdict != Verdict::Ok);
            println!(
                "{:<16} {:<14} {:>14} {:>14} {:>+7.2}% {:>7.2}% {:>6.1}%  {verdict:?}",
                w.name(),
                bound.name,
                num(quartiles(&va).1),
                num(quartiles(&vb).1),
                100.0 * change,
                100.0 * spread(&va).max(spread(&vb)),
                100.0 * bound.bound
            );
        }
        let digest = |run: &Json| run.get("digest").and_then(Json::as_str).map(String::from);
        if digest(wa) != digest(wb) {
            println!("{:<16} digest differs: {:?} vs {:?}", w.name(), digest(wa), digest(wb));
            bad += 1;
        }
        for name in EXACT_LAYERS {
            let count = |run: &Json| run.get("layers")?.get(name)?.get("value")?.as_f64();
            if count(wa) != count(wb) {
                println!("{:<16} {name} differs: {:?} vs {:?}", w.name(), count(wa), count(wb));
                bad += 1;
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "all pairings within bounds; digests and counts identical"
        } else {
            "NOT within bounds (see above)"
        }
    );
    u8::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, better: Better, bound: f64) -> Bound {
        Bound { name: name.to_owned(), better, bound }
    }

    #[test]
    fn judge_applies_bound_spread_and_floor() {
        let tps = bound("throughput_tps", Better::Higher, 0.10);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&tps, &base, &[97.0, 98.0, 96.0, 97.5, 96.5]).0, Verdict::Ok);
        assert_eq!(judge(&tps, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]).0, Verdict::Regression);
        let wide = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&tps, &base, &wide).0, Verdict::Unresolved);
        // Every run better: resolved despite the spread.
        assert_eq!(judge(&tps, &base, &[150.0, 250.0, 200.0]).0, Verdict::Ok);
        let setup = bound("setup_s", Better::Lower, 0.10);
        assert_eq!(
            judge(&setup, &[1e-5, 1e-5], &[5e-5, 5e-5]).0,
            Verdict::Ok,
            "under the 2 ms floor"
        );
        assert_eq!(judge(&setup, &[0.01, 0.01], &[0.02, 0.02]).0, Verdict::Regression);
    }

    #[test]
    fn full_run_json_round_trips_through_compare_reader() {
        let o =
            AllOpts { seed: 1, seconds: 0.0, rounds: 2, quick: true, json: None, trace_dir: None };
        let agg = Agg {
            digests: vec!["ab".into(), "ab".into()],
            rounds: [("throughput_tps".into(), vec![1.5, 2.5])].into(),
            layers: [("des.lane_fill_pct".into(), 99.0)].into(),
            ..Agg::default()
        };
        let text = to_json(&o, &[("cpu", "x \"y\"".into())], &[(Workload::Fig14Ff, agg)]);
        let run = json::parse(&text).unwrap();
        let w = workload(&run, "fig14-ff").unwrap();
        assert_eq!(w.get("digest").and_then(Json::as_str), Some("ab"));
        let tps = w.get("metrics").and_then(|m| m.get("throughput_tps")).unwrap();
        assert_eq!(tps.get("median").and_then(Json::as_f64), Some(2.0));
        let lane = w.get("layers").and_then(|l| l.get("des.lane_fill_pct")).unwrap();
        assert_eq!(lane.get("value").and_then(Json::as_f64), Some(99.0));
        assert_eq!(
            w.get("layers").and_then(|l| l.get("sim.divergent_pct")).unwrap().get("value"),
            Some(&Json::Null)
        );
    }
}
