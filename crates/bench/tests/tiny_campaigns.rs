//! Every binary whose campaigns end in a t-test refuses a `--traces` too
//! small for one before it prints anything, naming the flag and the
//! smallest valid count, instead of panicking inside the t-test after
//! the header.

use gm_bench::cli::MIN_CAMPAIGN_TRACES;
use std::process::Command;

fn assert_refused(exe: &str) {
    assert_refused_with(exe, &[]);
}

fn assert_refused_with(exe: &str, extra: &[&str]) {
    let out = Command::new(exe)
        .args(["--traces", "3"])
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{exe} --traces 3 exited 0");
    assert!(
        out.stdout.is_empty(),
        "{exe} printed before refusing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("--traces 3")
            && stderr.contains(&format!("smallest valid count is {MIN_CAMPAIGN_TRACES}")),
        "{exe} refusal does not name the flag and the minimum:\n{stderr}"
    );
    assert!(!stderr.contains("need at least two traces per class"), "{exe} reached the t-test");
}

#[test]
fn fig14_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_fig14"));
}

#[test]
fn table2_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_table2"));
}

#[test]
fn table1_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn fig15_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_fig15"));
}

#[test]
fn fig17_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_fig17"));
}

#[test]
fn fig17_gate_level_refuses_tiny_campaigns() {
    assert_refused_with(env!("CARGO_BIN_EXE_fig17"), &["--gate-level"]);
}

#[test]
fn ablations_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_ablations"));
}

#[test]
fn fig15_gate_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_fig15_gate"));
}

#[test]
fn calibrate_refuses_tiny_campaigns() {
    assert_refused(env!("CARGO_BIN_EXE_calibrate"));
}
