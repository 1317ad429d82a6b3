//! Minimal flag parsing shared by the experiment binaries
//! (we avoid external CLI crates; see DESIGN.md §4.6).

use gm_leakage::Campaign;

/// Fewest traces a claim binary lets any of its campaigns run. A t-test
/// needs two traces in each class; with 64 traces the chance that a
/// class gets fewer is about 7e-18.
pub const MIN_CAMPAIGN_TRACES: u64 = 64;

/// Parsed command-line arguments of an experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--traces N`: number of traces per TVLA campaign.
    pub traces: Option<u64>,
    /// `--seed S`: master seed.
    pub seed: u64,
    /// `--panel X`: restrict a multi-panel figure to one panel.
    pub panel: Option<String>,
    /// `--out DIR`: directory for CSV dumps (default `target/experiments`).
    pub out_dir: String,
    /// `--quick`: reduced trace counts for CI smoke runs.
    pub quick: bool,
    /// `--threads N`: campaign worker threads (default: all available
    /// parallelism, see [`Args::campaign`]).
    pub threads: Option<usize>,
    /// `--label S`: free-form label attached to every `--metrics`
    /// record.
    pub label: Option<String>,
    /// `--gate-level`: run the campaign on the event-driven gate-level
    /// netlist instead of the cycle model (binaries that support both).
    pub gate_level: bool,
    /// `--scalar`: use the scalar reference backend instead of the
    /// 256-way lane-parallel one (bit-identical results, slower). For
    /// cycle-model campaigns that is the per-trace evaluator instead of
    /// the bitsliced engine; for gate-level campaigns it is the dynamic
    /// event wheel instead of the compiled schedule.
    pub scalar: bool,
    /// `--metrics PATH`: write one JSONL campaign-metrics record per
    /// observed phase to PATH (see `gm_bench::metrics`).
    pub metrics: Option<String>,
    /// `--progress`: print per-phase observability lines as phases
    /// complete, plus the end-of-run summary table.
    pub progress: bool,
    /// `--progress-every N`: stream live convergence records (max-|t|,
    /// traces done, throughput) roughly every N acquired traces for
    /// campaigns that support streaming (`progress` JSONL record kind).
    pub progress_every: Option<u64>,
    /// `--trace-out PATH`: capture begin/end span events across the run
    /// and write them to PATH as Chrome trace-event JSON at exit.
    pub trace_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            traces: None,
            seed: 2023,
            panel: None,
            out_dir: "target/experiments".to_owned(),
            quick: false,
            threads: None,
            label: None,
            gate_level: false,
            scalar: false,
            metrics: None,
            progress: false,
            progress_every: None,
            trace_out: None,
        }
    }
}

impl Args {
    /// Parse `std::env::args()`, panicking with a usage message on
    /// unknown flags.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let grab = &mut || it.next().unwrap_or_else(|| panic!("flag {flag} needs a value"));
            match flag.as_str() {
                "--traces" => {
                    let traces = grab().parse().expect("--traces takes a number");
                    assert!(traces > 0, "--traces takes a positive trace count, not 0");
                    args.traces = Some(traces);
                }
                "--seed" => args.seed = grab().parse().expect("--seed takes a number"),
                "--panel" => args.panel = Some(grab()),
                "--out" => args.out_dir = grab(),
                "--quick" => args.quick = true,
                "--threads" => {
                    let threads = grab().parse().expect("--threads takes a number");
                    assert!(threads > 0, "--threads takes a positive thread count, not 0");
                    args.threads = Some(threads);
                }
                "--label" => args.label = Some(grab()),
                "--gate-level" => args.gate_level = true,
                "--scalar" => args.scalar = true,
                "--metrics" => args.metrics = Some(grab()),
                "--progress" => args.progress = true,
                "--progress-every" => {
                    let every = grab().parse().expect("--progress-every takes a trace count");
                    assert!(every > 0, "--progress-every takes a positive trace count, not 0");
                    args.progress_every = Some(every);
                }
                "--trace-out" => args.trace_out = Some(grab()),
                other => panic!(
                    "unknown flag {other}; supported: --traces N --seed S --panel X --out DIR \
                     --quick --threads N --label S --gate-level --scalar --metrics PATH \
                     --progress --progress-every N --trace-out PATH"
                ),
            }
        }
        args
    }

    /// Trace count to use: explicit `--traces`, else `quick`, else `full`.
    pub fn trace_count(&self, quick: u64, full: u64) -> u64 {
        self.traces.unwrap_or(if self.quick { quick } else { full })
    }

    /// A campaign of `traces` traces under `seed` on `--threads` workers,
    /// or on all available parallelism without the flag. The thread count
    /// sets the speed only; the result is the same for every count.
    pub fn campaign(&self, traces: u64, seed: u64) -> Campaign {
        let host = || std::thread::available_parallelism().map_or(4, |n| n.get());
        Campaign { traces, threads: self.threads.unwrap_or_else(host), seed }
    }

    /// [`Args::trace_count`] for a binary whose smallest campaign runs
    /// that many traces. A count below [`MIN_CAMPAIGN_TRACES`] is
    /// refused, naming the flag and the minimum, before any campaign work.
    pub fn campaign_trace_count(&self, quick: u64, full: u64) -> u64 {
        let traces = self.trace_count(quick, full);
        assert!(
            traces >= MIN_CAMPAIGN_TRACES,
            "--traces {traces} leaves too few traces per class for a t-test; \
             the smallest valid count is {MIN_CAMPAIGN_TRACES}"
        );
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert_eq!(a.seed, 2023);
        assert!(a.traces.is_none());
        assert!(!a.quick);
        assert_eq!(a.trace_count(10, 100), 100);
    }

    #[test]
    fn flags() {
        let a = parse(
            "--traces 5000 --seed 7 --panel d --out /tmp/x --quick --threads 8 --label s \
             --gate-level --scalar --metrics /tmp/m.jsonl --progress --progress-every 500 \
             --trace-out /tmp/t.json",
        );
        assert_eq!(a.traces, Some(5000));
        assert_eq!(a.seed, 7);
        assert_eq!(a.panel.as_deref(), Some("d"));
        assert_eq!(a.out_dir, "/tmp/x");
        assert_eq!(a.trace_count(10, 100), 5000);
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.label.as_deref(), Some("s"));
        assert!(a.gate_level);
        assert!(a.scalar);
        assert_eq!(a.metrics.as_deref(), Some("/tmp/m.jsonl"));
        assert!(a.progress);
        assert_eq!(a.progress_every, Some(500));
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.json"));
    }

    #[test]
    fn metrics_default_off() {
        let a = parse("");
        assert!(a.metrics.is_none());
        assert!(!a.progress);
        assert!(a.progress_every.is_none());
        assert!(a.trace_out.is_none());
    }

    #[test]
    fn campaign_honours_threads() {
        let c = parse("--threads 3").campaign(5_000, 7);
        assert_eq!((c.traces, c.threads, c.seed), (5_000, 3, 7));
        assert!(parse("").campaign(5_000, 7).threads >= 1);
    }

    #[test]
    fn quick_picks_quick_count() {
        let a = parse("--quick");
        assert_eq!(a.trace_count(10, 100), 10);
    }

    /// A zero cadence is refused while parsing, before any campaign
    /// work, with a message naming the flag.
    #[test]
    #[should_panic(expected = "--progress-every takes a positive trace count")]
    fn zero_progress_cadence_panics() {
        let _ = parse("--progress-every 0");
    }

    /// Zero traces would panic deep in the campaign's chunk planner;
    /// it is refused while parsing, naming the flag.
    #[test]
    #[should_panic(expected = "--traces takes a positive trace count")]
    fn zero_traces_panics() {
        let _ = parse("--traces 0");
    }

    #[test]
    fn campaign_trace_count_accepts_the_minimum() {
        let a = parse("--traces 64");
        assert_eq!(a.campaign_trace_count(10, 100), MIN_CAMPAIGN_TRACES);
        assert_eq!(parse("--quick").campaign_trace_count(4_000, 60_000), 4_000);
    }

    /// A campaign too small for a t-test is refused before it starts,
    /// naming the flag and the smallest valid count.
    #[test]
    #[should_panic(expected = "the smallest valid count is 64")]
    fn tiny_campaign_panics() {
        let _ = parse("--traces 63").campaign_trace_count(10, 100);
    }

    /// Zero worker threads is refused while parsing, naming the flag.
    #[test]
    #[should_panic(expected = "--threads takes a positive thread count")]
    fn zero_threads_panics() {
        let _ = parse("--threads 0");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse("--bogus");
    }
}
