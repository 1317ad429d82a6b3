//! `table3` prints only deterministic figures (area, timing, randomness
//! and latency of both DES cores), so its stdout is pinned byte for byte
//! against `golden/table3.stdout`. A change to a netlist generator, the
//! area or timing model, or a constant the table quotes shows up here.
//! After an intended change, regenerate the file with
//! `cargo run --release -p gm-bench --bin table3 > crates/bench/tests/golden/table3.stdout`.

use std::process::Command;

#[test]
fn table3_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_table3")).output().expect("spawn table3");
    assert!(out.status.success(), "table3 failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(got, include_str!("golden/table3.stdout"), "table3 stdout differs from the golden");
}
