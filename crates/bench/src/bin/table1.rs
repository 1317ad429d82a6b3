//! **Table I** — leakage behaviour of `secAND2` for all 24 input-arrival
//! sequences.
//!
//! Reproduces the paper's §II-B experiment: the four shares of the two
//! operands are driven into a bank of parallel `secAND2` instances one
//! per clock cycle (from an all-zero reset), in every possible order; a
//! fixed-vs-random TVLA over the four cycles decides which sequences
//! leak. The paper's finding: exactly the 12 sequences in which `x₀` or
//! `x₁` arrives **last** leak.
//!
//! Power comes from the event-driven gate-level simulation — glitch
//! energy arises from timing alone; acquisition goes through the shared
//! [`gm_bench::gate`] sources and the campaign's chunk loop.
//! Every row is also decided by the exact probing oracle
//! (`gm_core::analysis::probe_check`), which enumerates all 16 share
//! assignments on the campaign's own device with its jitter set to 0;
//! its "exact-gap" column is the largest class gap in mean toggle count.
//! The binary exits 1, after printing the table and writing the CSV,
//! when any order's measured or exact verdict disagrees with the
//! analytic rule (`gm_core::schedule::predicted_leaky`).

use gm_bench::gate::{build_sec_and2_bank, sequence_arrivals, SequenceSource};
use gm_bench::{Args, MetricsSink};
use gm_core::analysis::probe_check;
use gm_core::schedule::{all_sequences, predicted_leaky, ArrivalSequence};
use gm_leakage::{leaks, report, THRESHOLD};
use gm_sim::DelayModel;
use std::sync::Arc;

/// Parallel replicated gadget instances (the paper's SNR trick).
const REPLICAS: usize = 8;

fn seq_string(seq: &ArrivalSequence) -> String {
    seq.iter().map(|s| format!("{s:>3}")).collect::<Vec<_>>().join(" ")
}

fn main() {
    let args = Args::parse();
    let traces = args.campaign_trace_count(4_000, 60_000);
    let mut metrics = MetricsSink::from_args("table1", &args);
    let bank = Arc::new(build_sec_and2_bank(REPLICAS));
    let delays =
        Arc::new(DelayModel::with_variation(&bank.netlist, 0.15, 40.0, args.seed ^ 0x7a51));
    // The same device without per-event jitter, for the exact oracle.
    let fixed = DelayModel::with_variation(&bank.netlist, 0.15, 0.0, args.seed ^ 0x7a51);

    let backend = if args.scalar { "scalar event wheel" } else { "compiled schedule" };
    println!("TABLE I — secAND2 arrival-sequence leakage ({traces} traces/sequence, {REPLICAS} replicas, {backend})");
    println!();
    println!("  #  sequence (cycle 1..4)   max|t1|  leaks  exact-gap  predicted  agree");
    println!("  -- ----------------------  -------  -----  ---------  ---------  -----");

    let mut mismatches = Vec::new();
    let mut exact_mismatches = Vec::new();
    let mut rows = Vec::new();
    for (i, seq) in all_sequences().into_iter().enumerate() {
        let src = if args.scalar {
            SequenceSource::scalar(Arc::clone(&bank), Arc::clone(&delays), seq, args.seed)
        } else {
            SequenceSource::new(Arc::clone(&bank), Arc::clone(&delays), seq, args.seed)
        };
        let campaign = args.campaign(traces, args.seed ^ i as u64);
        let result = metrics.run(&format!("seq{:02}", i + 1), &campaign, &src);
        let t1 = result.t1();
        let measured_leak = leaks(&t1);
        let max_t = t1.iter().fold(0.0f64, |m, t| m.max(t.abs()));

        // Exact decision: every share assignment on the jitter-free device.
        let exact = probe_check(&bank.netlist, &sequence_arrivals(&bank, &seq), &fixed);

        let predicted = predicted_leaky(&seq);
        let name = || format!("#{} ({})", i + 1, seq_string(&seq).trim_start());
        let agree = measured_leak == predicted;
        if !agree {
            mismatches.push(name());
        }
        let exact_agree = exact.secure() != predicted;
        if !exact_agree {
            exact_mismatches.push(name());
        }
        println!(
            "  {:>2}  {}  {:>7.2}  {:>5}  {:>9.3}  {:>9}  {}",
            i + 1,
            seq_string(&seq),
            max_t,
            if measured_leak { "YES" } else { "no" },
            exact.max_glitch_gap(),
            if predicted { "YES" } else { "no" },
            match (agree, exact_agree) {
                (true, true) => "  ok",
                (false, _) => "  ** MISMATCH **",
                (true, false) => "  ** EXACT MISMATCH **",
            },
        );
        rows.push((seq, max_t, measured_leak, predicted));
    }

    println!();
    println!(
        "Agreement with the paper's rule (leaks ⇔ x0/x1 last): {}/24 measured, {}/24 exact",
        rows.len() - mismatches.len(),
        rows.len() - exact_mismatches.len()
    );
    println!("Paper's Table I: sequences ending in x0/x1 leak; ending in y0/y1 do not.");
    println!("TVLA threshold ±{THRESHOLD}.");

    // CSV dump.
    let path = format!("{}/table1.csv", args.out_dir);
    let max_ts: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let measured: Vec<f64> = rows.iter().map(|r| f64::from(r.2 as u8)).collect();
    let predicted: Vec<f64> = rows.iter().map(|r| f64::from(r.3 as u8)).collect();
    report::write_csv(
        &path,
        &["seq", "max_t1", "leaks", "predicted"],
        &[&max_ts, &measured, &predicted],
    )
    .expect("write CSV");
    println!("CSV written to {path}");
    metrics.finish().expect("write metrics");
    if !mismatches.is_empty() || !exact_mismatches.is_empty() {
        eprintln!(
            "table1: arrival orders whose verdict disagrees with the predicted leaky/safe one: \
             measured [{}], exact [{}]",
            mismatches.join(", "),
            exact_mismatches.join(", ")
        );
        std::process::exit(1);
    }
}
