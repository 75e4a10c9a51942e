//! Reduced-size smoke runs of every workload through the benchmark's own
//! command line: every metric prints with its unit, simulated outputs
//! repeat exactly, probes measure something, and the shares they imply
//! are finite.

use std::process::Command;

use nfsperf_perfbench::bench::{END_TO_END, PER_LAYER};
use nfsperf_perfbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Runs the benchmark at smoke scale and returns its standard output.
fn smoke(workload: Workload, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nfsperf-perfbench"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{}: {}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The value the result line gives `name`, checking its unit.
fn value(stdout: &str, name: &str, unit: &str) -> f64 {
    let last = stdout.lines().last().expect("result line");
    let key = format!("\"{name}\": {{\"value\": ");
    let at = last
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {last}"))
        + key.len();
    let rest = &last[at..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} has the wrong unit in {last}"
    );
    rest[..end].parse().expect("numeric value")
}

fn assert_reports(stdout: &str, expected: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    assert_eq!(last.matches("\"unit\": ").count(), expected.len(), "{last}");
    for (name, unit) in expected {
        assert!(value(stdout, name, unit).is_finite(), "{name}");
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no table row for {name}"));
        assert!(row.ends_with(unit), "{row}");
    }
}

fn simulated(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("simulated: "))
        .expect("simulated outputs line")
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let stdout = smoke(workload, DEFAULT_SEED, false);
        assert_reports(&stdout, END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(value(&stdout, name, unit) > 0.0, "{name} must never read 0");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let stdout = smoke(workload, HELD_OUT_SEED, true);
        assert_reports(&stdout, PER_LAYER);
        for (name, unit) in PER_LAYER.iter().filter(|(_, u)| *u == "ns") {
            assert!(
                value(&stdout, name, unit) > 0.0,
                "{}: probe {name} measured nothing",
                workload.name()
            );
        }
        assert!(value(&stdout, "fleet.calibrate_s", "s") > 0.0);
        assert!(value(&stdout, "sim.events", "count") > 0.0);
        assert!(value(&stdout, "core.index.est_share", "share") > 0.0);
    }
}

#[test]
fn runs_repeat_their_simulated_outputs() {
    for workload in Workload::ALL {
        let a = smoke(workload, HELD_OUT_SEED, false);
        let b = smoke(workload, HELD_OUT_SEED, false);
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
