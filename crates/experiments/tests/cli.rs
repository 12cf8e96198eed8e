//! The `repro` command line rejects malformed arguments with the usage
//! and exit status 2 instead of falling back to defaults.

use std::process::Command;

/// Runs `repro` with `args` in quick mode and returns its exit code.
fn repro(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("AGB_QUICK", "1")
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    out.status.code()
}

#[test]
fn an_unparsable_seed_is_a_usage_error() {
    assert_eq!(repro(&["churn", "4x2"]), Some(2));
}

#[test]
fn perf_check_with_one_binary_is_a_usage_error() {
    assert_eq!(repro(&["perf-check", env!("CARGO_BIN_EXE_repro")]), Some(2));
}

#[test]
fn perf_check_with_a_missing_binary_is_a_usage_error() {
    assert_eq!(
        repro(&[
            "perf-check",
            env!("CARGO_BIN_EXE_repro"),
            "no/such/benchmark-binary"
        ]),
        Some(2)
    );
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    assert_eq!(repro(&["bogus"]), Some(2));
}
