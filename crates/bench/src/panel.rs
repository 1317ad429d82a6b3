//! Shared rendering for the TVLA figure panels (Figs. 14, 15, 17):
//! first/second/third-order t curves as ASCII profiles plus CSV dumps,
//! mirroring the three-row subfigures of the paper — and the
//! oscilloscope-style single-trace rendering of Figs. 13/16.

use gm_leakage::detect::{consistent_leaks, Detection};
use gm_leakage::tvla::{Class, TraceSource};
use gm_leakage::{report, TvlaResult, THRESHOLD};
use std::path::Path;

/// Maximum |t| of a curve.
pub fn max_abs(t: &[f64]) -> f64 {
    t.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Print one panel (three t-test orders) and write its CSV.
pub fn print_panel(title: &str, result: &TvlaResult, out_dir: &str, file_stem: &str) {
    let t1 = result.t1();
    let t2 = result.t2();
    let t3 = result.t3();
    println!("--- {title} ({} traces) ---", result.total_traces());
    for (order, t) in [("1st", &t1), ("2nd", &t2), ("3rd", &t3)] {
        let m = max_abs(t);
        let verdict = if m > THRESHOLD { "EXCEEDS ±4.5" } else { "below ±4.5" };
        println!("{order}-order t-test: max|t| = {m:6.2}  ({verdict})");
        println!("{}", report::ascii_curve(t, 72));
    }
    let path = Path::new(out_dir).join(format!("{file_stem}.csv"));
    report::write_csv(&path, &["sample", "t1", "t2", "t3"], &[&t1, &t2, &t3]).expect("write CSV");
    println!("CSV written to {}\n", path.display());
}

/// One-line panel summary (for sweep tables).
pub fn summary_line(result: &TvlaResult) -> (f64, f64, f64) {
    (max_abs(&result.t1()), max_abs(&result.t2()), max_abs(&result.t3()))
}

/// First- and second-order t-curves of one PRNG-on Fig. 14 panel.
#[derive(Debug)]
pub struct Fig14Panel {
    /// Panel letter: `b`, `c` or `d`.
    pub name: String,
    /// First-order t-curve.
    pub t1: Vec<f64>,
    /// Second-order t-curve.
    pub t2: Vec<f64>,
}

/// The Fig. 14 claims that do not hold, one message per miss; empty
/// when every claim holds. Each check covers only the panels that ran:
///
/// * panel (a), PRNG off (`prng_off`, `None` when it did not run), must
///   detect first-order leakage;
/// * no first-order crossing may be consistent across the PRNG-on
///   `panels` ([`consistent_leaks`]). A crossing in one panel alone is
///   the spurious kind the paper discounts, so this needs two panels;
/// * every PRNG-on panel must show second-order leakage,
///   max|t2| > [`THRESHOLD`].
pub fn fig14_misses(prng_off: Option<&Detection>, panels: &[Fig14Panel]) -> Vec<String> {
    let mut misses = Vec::new();
    if prng_off.is_some_and(|d| d.traces.is_none()) {
        misses.push("panel (a), PRNG off: no first-order leakage detected".to_owned());
    }
    if panels.len() > 1 {
        let t1: Vec<Vec<f64>> = panels.iter().map(|p| p.t1.clone()).collect();
        let consistent = consistent_leaks(&t1);
        if !consistent.is_empty() {
            let names: Vec<&str> = panels.iter().map(|p| p.name.as_str()).collect();
            misses.push(format!(
                "first-order crossing consistent across panels {} at samples {consistent:?}",
                names.join(", ")
            ));
        }
    }
    for p in panels {
        let m2 = max_abs(&p.t2);
        if m2 <= THRESHOLD {
            misses.push(format!(
                "panel ({}): max|t2| = {m2:.2} <= {THRESHOLD}, no second-order leakage",
                p.name
            ));
        }
    }
    misses
}

/// Acquire one fixed-class trace from any [`TraceSource`] (the Figs.
/// 13/16 single-shot view).
pub fn single_trace<S: TraceSource>(src: &mut S) -> Vec<f64> {
    let mut trace = vec![0.0; src.num_samples()];
    src.trace(Class::Fixed, &mut trace);
    trace
}

/// Oscilloscope-style ASCII rendering of a power trace
/// (positive-only amplitude rows, peak-hold downsampling).
pub fn ascii_power(trace: &[f64], width: usize) -> String {
    const ROWS: usize = 12;
    let cols = width.min(trace.len()).max(1);
    let window = trace.len().div_ceil(cols);
    let peaks: Vec<f64> =
        trace.chunks(window).map(|c| c.iter().cloned().fold(0.0, f64::max)).collect();
    let max = peaks.iter().cloned().fold(1.0, f64::max);
    let mut out = String::new();
    for row in (1..=ROWS).rev() {
        let level = max * row as f64 / ROWS as f64;
        out.push_str("  ");
        for &p in &peaks {
            out.push(if p >= level { '#' } else { ' ' });
        }
        out.push('\n');
    }
    out.push_str("  ");
    out.push_str(&"-".repeat(peaks.len()));
    out
}

/// Live convergence readout for a streamed TVLA campaign: collects
/// `(traces_done, max|t1|)` snapshots and — when live printing is on —
/// renders one `[conv]` line per snapshot (a bar scaled against the
/// ±4.5 decision threshold) plus an end-of-campaign ASCII curve of
/// max|t1| over acquired traces.
#[derive(Debug)]
pub struct Convergence {
    name: String,
    total: u64,
    live: bool,
    points: Vec<(u64, f64)>,
}

impl Convergence {
    /// New readout for a campaign of `total` traces; `live` enables the
    /// per-snapshot terminal lines (tie this to `--progress`).
    pub fn new(name: &str, total: u64, live: bool) -> Self {
        Convergence { name: name.to_owned(), total, live, points: Vec::new() }
    }

    /// Record one snapshot (and print its live line).
    pub fn observe(&mut self, done: u64, max_t1: f64, seconds: f64) {
        self.points.push((done, max_t1));
        if self.live {
            // 36 columns span twice the threshold, so the gate sits
            // mid-bar: a bar crossing its midpoint marker is a leak.
            const COLS: usize = 36;
            let filled = ((max_t1 / (2.0 * THRESHOLD)) * COLS as f64).round() as usize;
            let mut bar = String::with_capacity(COLS);
            for i in 0..COLS {
                bar.push(if i == COLS / 2 {
                    if filled > i {
                        '|'
                    } else {
                        ':'
                    }
                } else if i < filled {
                    '='
                } else {
                    ' '
                });
            }
            let tps = if seconds > 0.0 { done as f64 / seconds } else { 0.0 };
            println!(
                "[conv] {:<18} {:>9}/{:<9} max|t1| {:6.2} [{bar}] {:>9.0}/s",
                truncate_ascii(&self.name, 18),
                done,
                self.total,
                max_t1,
                tps
            );
        }
    }

    /// Snapshots collected so far.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Render the end-of-campaign convergence curve (live mode only,
    /// needs at least two snapshots to be a curve).
    pub fn finish(&self) {
        if !self.live || self.points.len() < 2 {
            return;
        }
        let t: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        println!(
            "[conv] {}: max|t1| over {} snapshots ({} traces):",
            self.name,
            self.points.len(),
            self.points.last().map_or(0, |&(n, _)| n)
        );
        println!("{}", report::ascii_curve(&t, 72));
    }
}

fn truncate_ascii(s: &str, n: usize) -> &str {
    // Phase names are ASCII; byte truncation is char truncation.
    &s[..s.len().min(n)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_basics() {
        assert_eq!(max_abs(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    /// A PRNG-on panel whose curves cross the threshold nowhere in the
    /// first order, at sample `leak` in the second.
    fn clean_panel(name: &str, leak: usize) -> Fig14Panel {
        let mut t2 = vec![1.0; 8];
        t2[leak] = -9.0;
        Fig14Panel { name: name.to_owned(), t1: vec![0.5; 8], t2 }
    }

    fn detected(traces: Option<u64>) -> Detection {
        Detection { traces, history: Vec::new() }
    }

    #[test]
    fn fig14_claims_hold() {
        let panels = [clean_panel("b", 1), clean_panel("c", 2), clean_panel("d", 3)];
        assert!(fig14_misses(Some(&detected(Some(16))), &panels).is_empty());
        // Panels that did not run are not checked.
        assert!(fig14_misses(None, &panels[..1]).is_empty());
        assert!(fig14_misses(None, &[]).is_empty());
    }

    #[test]
    fn fig14_names_an_undetected_prng_off_panel() {
        let misses = fig14_misses(Some(&detected(None)), &[]);
        assert_eq!(misses.len(), 1, "{misses:?}");
        assert!(misses[0].contains("panel (a), PRNG off"), "{misses:?}");
    }

    #[test]
    fn fig14_names_a_consistent_first_order_crossing() {
        let mut panels = [clean_panel("b", 1), clean_panel("c", 2), clean_panel("d", 3)];
        // Sample 5 crosses in every panel, sample 6 in two of three.
        for p in &mut panels {
            p.t1[5] = -4.6;
        }
        panels[0].t1[6] = 7.0;
        panels[1].t1[6] = 7.0;
        let misses = fig14_misses(None, &panels);
        assert_eq!(misses.len(), 1, "{misses:?}");
        assert!(
            misses[0].contains("consistent across panels b, c, d at samples [5]"),
            "{misses:?}"
        );
        // One panel's crossing alone is not a consistent one.
        assert!(fig14_misses(None, &panels[..1]).is_empty());
    }

    #[test]
    fn fig14_names_a_panel_without_second_order_leakage() {
        let mut panels = [clean_panel("b", 1), clean_panel("c", 2), clean_panel("d", 3)];
        panels[1].t2[2] = 4.5; // at the threshold: not a crossing
        let misses = fig14_misses(Some(&detected(Some(32))), &panels);
        assert_eq!(misses.len(), 1, "{misses:?}");
        assert!(misses[0].contains("panel (c): max|t2| = 4.50"), "{misses:?}");
    }

    #[test]
    fn convergence_collects_points_silently() {
        let mut c = Convergence::new("unit", 1000, false);
        c.observe(200, 1.5, 0.1);
        c.observe(400, 2.5, 0.2);
        c.observe(1000, 3.0, 0.5);
        assert_eq!(c.points(), &[(200, 1.5), (400, 2.5), (1000, 3.0)]);
        c.finish();
    }

    #[test]
    fn convergence_live_lines_do_not_panic() {
        let mut c = Convergence::new("a-rather-long-phase-name", 100, true);
        c.observe(50, 0.0, 0.0);
        c.observe(100, 40.0, 0.1); // bar saturates past 2×threshold
        c.finish();
    }
}
