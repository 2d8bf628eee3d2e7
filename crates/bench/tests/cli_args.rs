//! The experiment binaries' command lines: an argument a binary does
//! not take is a usage error (exit status 2) before any experiment
//! runs, never a silent full run.

use std::process::{Command, Output};

/// Every binary that takes arguments, routed through
/// [`bench::parse_args`].
const BINARIES: [&str; 7] = [
    env!("CARGO_BIN_EXE_e22_native_chaos"),
    env!("CARGO_BIN_EXE_e23_schedule_explore"),
    env!("CARGO_BIN_EXE_e24_native_metrics"),
    env!("CARGO_BIN_EXE_e25_layout_bench"),
    env!("CARGO_BIN_EXE_e26_sharded_bench"),
    env!("CARGO_BIN_EXE_e27_service_bench"),
    env!("CARGO_BIN_EXE_e32_route_sweep"),
];

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .env_remove("BENCH_OUTPUT_DIR")
        .output()
        .expect("the binary starts")
}

fn assert_usage_error(binary: &str, args: &[&str]) {
    let out = run(binary, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{binary} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{binary} {args:?} ran the experiment before rejecting its arguments"
    );
}

/// E22 has no validator: `--validate` used to be ignored, so the binary
/// silently re-ran the whole chaos sweep and exited 0.
#[test]
fn e22_rejects_validate_without_running() {
    assert_usage_error(env!("CARGO_BIN_EXE_e22_native_chaos"), &["--validate", "x"]);
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for binary in BINARIES {
        assert_usage_error(binary, &["--no-such-flag"]);
    }
}

/// The binaries with a validator still route `--validate <path>` to it:
/// a missing file is a validation failure (status 1), not a usage error
/// and not a run.
#[test]
fn validators_still_answer_validate() {
    for binary in &BINARIES[2..6] {
        let out = run(binary, &["--validate", "no/such/artifact.json"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{binary}: {stderr}");
        assert!(stderr.contains("could not read"), "{binary}: {stderr}");
        assert!(out.stdout.is_empty(), "{binary} ran the experiment");
    }
}
