//! The `nfsperf` binary refuses malformed sweep arguments before it runs
//! a single cell.

use std::process::Command;

/// Runs `nfsperf` with `args` and returns (success, stderr).
fn nfsperf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nfsperf"))
        .args(args)
        .output()
        .expect("run nfsperf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_flag_is_not_taken_as_an_option_value() {
    for args in [
        ["fleet", "--out", "--quick"],
        ["fleet", "--out", "--jobs"],
        ["megafleet", "--counts", "--quick"],
        ["netqos", "--port-sched", "--quick"],
    ] {
        let (ok, err) = nfsperf(&args);
        assert!(!ok, "{args:?} was accepted");
        assert!(err.contains("needs a value"), "{args:?}: {err}");
    }
}

#[test]
fn megafleet_counts_must_increase_strictly() {
    for list in ["10000,1000", "1000,1000"] {
        let (ok, err) = nfsperf(&["megafleet", "--quick", "--counts", list]);
        assert!(!ok, "--counts {list} was accepted");
        assert!(err.contains("strictly increasing"), "--counts {list}: {err}");
    }
}
