//! Validate `--metrics` JSONL files and `--trace-out` Chrome trace
//! exports (CI gate).
//!
//! Usage: `validate_metrics <file> [more ...]`
//!
//! Each file is sniffed: a whole-file JSON object carrying `traceEvents`
//! is validated as a Chrome trace-event export (a `dropped_events` member
//! of 0, the event envelope, and per-thread begin/end stack discipline;
//! an empty event array is valid — that is what an `obs-off` build
//! exports). A trace whose recorder dropped spans at its store cap is
//! rejected: it is not the whole run. Anything else is validated
//! line-by-line as campaign-metrics JSONL, dispatching on the record's
//! `kind`: `phase` records carry the `traces`/`threads`/`counters`
//! envelope, `progress` records the live-convergence snapshot members.
//!
//! A trace named right after its run's metrics file is also checked
//! against it: the k-th `metrics.phase` span must hold as many
//! `tvla.block` spans as the k-th record with a `pool.blocks` counter
//! counts, so spans lost with an unflushed worker ring are caught.
//!
//! Exits non-zero naming the first offending file/line so CI fails
//! loudly on schema drift.

use gm_bench::json::{self, Json};

fn str_member(v: &Json, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string member '{name}'"))
}

fn u64_member(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing integer member '{name}'"))
}

fn finite_member(v: &Json, name: &str) -> Result<f64, String> {
    let n = v
        .get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number member '{name}'"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!("member '{name}' is not a finite non-negative number"));
    }
    Ok(n)
}

fn validate_envelope(v: &Json) -> Result<(), String> {
    for name in ["bin", "phase", "git_rev"] {
        str_member(v, name)?;
    }
    u64_member(v, "seed")?;
    Ok(())
}

fn validate_phase(v: &Json) -> Result<(), String> {
    validate_envelope(v)?;
    for name in ["traces", "threads", "balance_pct"] {
        u64_member(v, name)?;
    }
    for name in ["seconds", "traces_per_sec"] {
        finite_member(v, name)?;
    }
    let counters =
        v.get("counters").and_then(Json::as_obj).ok_or("missing object member 'counters'")?;
    for (key, val) in counters {
        if val.as_u64().is_none() {
            return Err(format!("counter '{key}' is not a non-negative integer"));
        }
    }
    Ok(())
}

fn validate_progress(v: &Json) -> Result<(), String> {
    validate_envelope(v)?;
    let done = u64_member(v, "traces_done")?;
    let total = u64_member(v, "traces_total")?;
    if done > total {
        return Err(format!("traces_done {done} exceeds traces_total {total}"));
    }
    u64_member(v, "threads")?;
    for name in ["seconds", "traces_per_sec", "max_abs_t1", "max_abs_t2"] {
        finite_member(v, name)?;
    }
    Ok(())
}

fn validate_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    if v.as_obj().is_none() {
        return Err("record is not an object".to_owned());
    }
    // Records before the `kind` member existed are phase records.
    match v.get("kind").and_then(Json::as_str).unwrap_or("phase") {
        "phase" => validate_phase(&v),
        "progress" => validate_progress(&v),
        other => Err(format!("unknown record kind '{other}'")),
    }
}

/// Validate a Chrome trace-event export: the envelope of every event,
/// and begin/end balance per thread (an `E` must close the most recent
/// open `B` of its thread, and nothing may stay open at the end).
fn validate_trace(v: &Json) -> Result<usize, String> {
    let dropped = u64_member(v, "dropped_events")?;
    if dropped > 0 {
        return Err(format!("{dropped} span event(s) were dropped at the store cap"));
    }
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("member 'traceEvents' is not an array")?;
    let mut stacks: Vec<(u64, Vec<String>)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let fail = |e: String| format!("traceEvents[{i}]: {e}");
        ev.as_obj().ok_or_else(|| fail("event is not an object".to_owned()))?;
        let name = str_member(ev, "name").map_err(fail)?;
        let ph = str_member(ev, "ph").map_err(fail)?;
        let tid = u64_member(ev, "tid").map_err(fail)?;
        u64_member(ev, "pid").map_err(fail)?;
        finite_member(ev, "ts").map_err(fail)?;
        let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph.as_str() {
            "B" => stack.push(name),
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| fail(format!("end of '{name}' with no open span")))?;
                if open != name {
                    return Err(fail(format!("end of '{name}' while '{open}' is open")));
                }
            }
            // Complete and metadata events carry no stack obligations.
            "X" | "M" => {}
            other => return Err(fail(format!("unknown phase type '{other}'"))),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("thread {tid}: span '{open}' never ends"));
        }
    }
    Ok(events.len())
}

/// Check a validated trace against the `pool.blocks` of a run's campaign
/// phase records, in order (see the module docs).
fn check_blocks(trace: &Json, blocks: &[u64]) -> Result<(), String> {
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap_or_default();
    let edges = |name: &str, ph: &str| -> Vec<f64> {
        let is = |e: &&Json, k: &str, v: &str| e.get(k).and_then(Json::as_str) == Some(v);
        let at = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap_or_default();
        events.iter().filter(|e| is(e, "name", name) && is(e, "ph", ph)).map(at).collect()
    };
    let (begins, ends) = (edges("metrics.phase", "B"), edges("metrics.phase", "E"));
    if begins.len() != blocks.len() {
        return Err(format!(
            "{} campaign phase record(s) but {} metrics.phase span(s)",
            blocks.len(),
            begins.len()
        ));
    }
    let block_starts = edges("tvla.block", "B");
    for (k, ((b, e), &want)) in begins.into_iter().zip(ends).zip(blocks).enumerate() {
        let got = block_starts.iter().filter(|&&t| (b..=e).contains(&t)).count() as u64;
        if got != want {
            return Err(format!(
                "campaign phase {}: {got} tvla.block span(s) but pool.blocks {want}; \
                 spans were lost",
                k + 1
            ));
        }
    }
    Ok(())
}

/// The `pool.blocks` counters of the phase records in a metrics file.
fn phase_blocks(text: &str) -> Vec<u64> {
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|v| v.get("kind").and_then(Json::as_str).unwrap_or("phase") == "phase")
        .filter_map(|v| v.get("counters")?.get("pool.blocks")?.as_u64())
        .collect()
}

enum Validated {
    Trace(usize, Json),
    Records(usize, Vec<u64>),
}

fn validate_file(path: &str) -> Result<Validated, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    if let Ok(v) = json::parse(&text) {
        if v.get("traceEvents").is_some() {
            let n = validate_trace(&v).map_err(|e| format!("{path}: {e}"))?;
            return Ok(Validated::Trace(n, v));
        }
    }
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        records += 1;
    }
    if records == 0 {
        return Err(format!("{path}: no records"));
    }
    Ok(Validated::Records(records, phase_blocks(&text)))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_metrics <metrics.jsonl|trace.json> [more ...]");
        std::process::exit(2);
    }
    let mut total = 0usize;
    let mut run_blocks: Option<(&str, Vec<u64>)> = None;
    for path in &paths {
        let checked = validate_file(path).and_then(|validated| match validated {
            Validated::Trace(n, trace) => {
                if let Some((records, blocks)) = run_blocks.take() {
                    check_blocks(&trace, &blocks)
                        .map_err(|e| format!("{path} vs {records}: {e}"))?;
                    println!("{path}: span counts match {records}");
                }
                println!("{path}: valid Chrome trace ({n} event(s))");
                Ok(n)
            }
            Validated::Records(n, blocks) => {
                run_blocks = Some((path, blocks));
                println!("{path}: {n} valid record(s)");
                Ok(n)
            }
        });
        match checked {
            Ok(n) => total += n,
            Err(e) => {
                eprintln!("validate_metrics: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("validate_metrics: {total} record(s) across {} file(s): OK", paths.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_real_phase_line() {
        let line = "{\"bin\":\"t\",\"kind\":\"phase\",\"phase\":\"p\",\"git_rev\":\"abc\",\
                    \"seed\":1,\"traces\":10,\"threads\":2,\"seconds\":0.5,\
                    \"traces_per_sec\":20.0,\"balance_pct\":100,\"counters\":{\"pool.traces\":10}}";
        validate_line(line).unwrap();
        // Pre-`kind` records from older runs still validate as phases.
        let legacy = line.replace("\"kind\":\"phase\",", "");
        validate_line(&legacy).unwrap();
    }

    #[test]
    fn accepts_a_progress_line() {
        let line = "{\"bin\":\"fig14\",\"kind\":\"progress\",\"phase\":\"fig14b-pt0\",\
                    \"git_rev\":\"abc\",\"seed\":1,\"traces_done\":512,\"traces_total\":4000,\
                    \"threads\":4,\"seconds\":0.25,\"traces_per_sec\":2048.0,\
                    \"max_abs_t1\":1.25,\"max_abs_t2\":3.5}";
        validate_line(line).unwrap();
    }

    #[test]
    fn rejects_missing_and_mistyped_members() {
        assert!(validate_line("{}").is_err());
        assert!(validate_line("[1]").is_err());
        let bad_counter = "{\"bin\":\"t\",\"phase\":\"p\",\"git_rev\":\"a\",\"seed\":1,\
                           \"traces\":1,\"threads\":1,\"seconds\":0.1,\"traces_per_sec\":10.0,\
                           \"balance_pct\":100,\"counters\":{\"x\":-3}}";
        assert!(validate_line(bad_counter).is_err());
        let bad_kind = "{\"bin\":\"t\",\"kind\":\"mystery\",\"phase\":\"p\",\"git_rev\":\"a\",\
                        \"seed\":1}";
        assert!(validate_line(bad_kind).is_err());
        let done_past_total = "{\"bin\":\"t\",\"kind\":\"progress\",\"phase\":\"p\",\
                               \"git_rev\":\"a\",\"seed\":1,\"traces_done\":10,\
                               \"traces_total\":5,\"threads\":1,\"seconds\":0.1,\
                               \"traces_per_sec\":10.0,\"max_abs_t1\":1.0,\"max_abs_t2\":1.0}";
        assert!(validate_line(done_past_total).is_err());
    }

    fn ev(name: &str, ph: &str, tid: u64, ts: f64) -> String {
        format!("{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}")
    }

    #[test]
    fn accepts_balanced_trace() {
        let body = format!(
            "{{\"displayTimeUnit\":\"ms\",\"dropped_events\":0,\"traceEvents\":[{},{},{},{}]}}",
            ev("a", "B", 1, 0.0),
            ev("b", "B", 1, 1.0),
            ev("b", "E", 1, 2.0),
            ev("a", "E", 1, 3.0),
        );
        assert_eq!(validate_trace(&json::parse(&body).unwrap()).unwrap(), 4);
        // Empty capture (obs-off build) is a valid trace.
        let empty = json::parse("{\"dropped_events\":0,\"traceEvents\":[]}").unwrap();
        assert_eq!(validate_trace(&empty).unwrap(), 0);
    }

    /// A trace that lost spans at the recorder's cap, or does not say
    /// whether it did, is not a whole run.
    #[test]
    fn rejects_traces_with_dropped_or_uncounted_events() {
        let balanced = format!("{},{}", ev("a", "B", 1, 0.0), ev("a", "E", 1, 1.0));
        for (body, want) in [
            (format!("{{\"dropped_events\":3,\"traceEvents\":[{balanced}]}}"), "3 span event(s)"),
            (format!("{{\"traceEvents\":[{balanced}]}}"), "'dropped_events'"),
            (format!("{{\"dropped_events\":-1,\"traceEvents\":[{balanced}]}}"), "'dropped_events'"),
        ] {
            let err = validate_trace(&json::parse(&body).unwrap()).unwrap_err();
            assert!(err.contains(want), "{body}: {err}");
        }
    }

    /// A cheap one-sample source for a real campaign.
    struct Counting(u64);
    impl gm_leakage::TraceSource for Counting {
        fn fork(&self, stream: u64) -> Self {
            Counting(stream << 32)
        }
        fn num_samples(&self) -> usize {
            1
        }
        fn trace(&mut self, _class: gm_leakage::Class, out: &mut [f64]) {
            self.0 += 1;
            out[0] = (self.0 % 7) as f64;
        }
    }

    /// A two-worker, three-chunk campaign's trace matches its phase
    /// record; the same trace with one worker's spans dropped, as when
    /// that worker's span ring is never flushed, is rejected.
    #[test]
    fn trace_with_a_workers_spans_dropped_is_rejected() {
        if !gm_obs::ENABLED {
            return;
        }
        let path = std::env::temp_dir().join("gm_validate_lost_spans.jsonl");
        let path = path.to_str().unwrap();
        let args = gm_bench::Args { metrics: Some(path.to_owned()), ..Default::default() };
        let mut sink = gm_bench::MetricsSink::from_args("t", &args);
        gm_obs::trace::start_capture();
        let campaign = gm_leakage::Campaign { traces: 40_000, threads: 2, seed: 1 };
        sink.run("p", &campaign, &Counting(0));
        let events = gm_obs::trace::stop_capture();
        let blocks = phase_blocks(&std::fs::read_to_string(path).unwrap());
        let _ = std::fs::remove_file(path);
        assert_eq!(blocks, vec![64 + 64 + 29], "three chunks of 64, 64 and 29 blocks");

        let trace = |events: &[gm_obs::trace::SpanEvent]| {
            json::parse(&gm_obs::trace::chrome_trace_json(events)).unwrap()
        };
        check_blocks(&trace(&events), &blocks).unwrap();
        let worker = events.iter().find(|e| e.name == "tvla.block").unwrap().tid;
        let kept: Vec<_> = events.iter().filter(|e| e.tid != worker).copied().collect();
        let err = check_blocks(&trace(&kept), &blocks).unwrap_err();
        assert!(err.contains("spans were lost"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_traces() {
        for events in [
            // E with nothing open.
            vec![ev("a", "E", 1, 0.0)],
            // Mismatched nesting on one thread.
            vec![ev("a", "B", 1, 0.0), ev("b", "B", 1, 1.0), ev("a", "E", 1, 2.0)],
            // Span left open at the end.
            vec![ev("a", "B", 1, 0.0)],
            // Threads do not share stacks.
            vec![ev("a", "B", 1, 0.0), ev("a", "E", 2, 1.0)],
        ] {
            let body = format!("{{\"dropped_events\":0,\"traceEvents\":[{}]}}", events.join(","));
            assert!(validate_trace(&json::parse(&body).unwrap()).is_err(), "{body}");
        }
    }
}
