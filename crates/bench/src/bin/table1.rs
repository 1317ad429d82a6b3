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
//! [`gm_bench::gate`] sources and the persistent-worker campaign pool.
//! The analytic rule (`gm_core::schedule::predicted_leaky`) and a
//! Monte-Carlo glitch-extended probe cross-check every row. The binary
//! exits 1, after printing the table and writing the CSV, when any
//! order's measured verdict disagrees with the analytic rule.

use gm_bench::gate::{build_sec_and2_bank, sequence_plan, SequenceSource};
use gm_bench::{Args, MetricsSink};
use gm_core::analysis::glitch_probe;
use gm_core::schedule::{all_sequences, predicted_leaky, ArrivalSequence};
use gm_leakage::{leaks, report, Campaign, THRESHOLD};
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

    let backend = if args.scalar { "scalar event wheel" } else { "compiled schedule" };
    println!("TABLE I — secAND2 arrival-sequence leakage ({traces} traces/sequence, {REPLICAS} replicas, {backend})");
    println!();
    println!("  #  sequence (cycle 1..4)   max|t1|  leaks  glitch-bias  predicted  agree");
    println!("  -- ----------------------  -------  -----  -----------  ---------  -----");

    let mut mismatches = Vec::new();
    let mut rows = Vec::new();
    for (i, seq) in all_sequences().into_iter().enumerate() {
        let src = if args.scalar {
            SequenceSource::scalar(Arc::clone(&bank), Arc::clone(&delays), seq, args.seed)
        } else {
            SequenceSource::new(Arc::clone(&bank), Arc::clone(&delays), seq, args.seed)
        };
        let mut campaign = Campaign::parallel(traces, args.seed ^ i as u64);
        if let Some(t) = args.threads {
            campaign.threads = t;
        }
        let result = metrics.run(&format!("seq{:02}", i + 1), &campaign, &src);
        let t1 = result.t1();
        let measured_leak = leaks(&t1);
        let max_t = t1.iter().fold(0.0f64, |m, t| m.max(t.abs()));

        // Independent cross-check: Monte-Carlo glitch-extended probing.
        let arrivals = sequence_plan(&bank, &seq);
        let probe = glitch_probe(
            &bank.netlist,
            &[(bank.x0, bank.x1), (bank.y0, bank.y1)],
            &arrivals,
            2_000,
            40.0,
            args.seed ^ 0x51eb,
        );

        let predicted = predicted_leaky(&seq);
        let agree = measured_leak == predicted;
        if !agree {
            mismatches.push(format!("#{} ({})", i + 1, seq_string(&seq).trim_start()));
        }
        println!(
            "  {:>2}  {}  {:>7.2}  {:>5}  {:>11.3}  {:>9}  {}",
            i + 1,
            seq_string(&seq),
            max_t,
            if measured_leak { "YES" } else { "no" },
            probe.max_bias,
            if predicted { "YES" } else { "no" },
            if agree { "  ok" } else { "  ** MISMATCH **" },
        );
        rows.push((seq, max_t, measured_leak, predicted));
    }

    println!();
    println!(
        "Agreement with the paper's rule (leaks ⇔ x0/x1 last): {}/24",
        rows.len() - mismatches.len()
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
    if !mismatches.is_empty() {
        eprintln!(
            "table1: {} arrival order(s) disagree with the predicted leaky/safe verdict: {}",
            mismatches.len(),
            mismatches.join(", ")
        );
        std::process::exit(1);
    }
}
