//! Golden CSVs: the committed quick-size outputs of the megafleet and
//! netqos sweeps are the oracle for every host-side change to the
//! engine. Each test regenerates its sweep with the same cells the CLI's
//! `--quick` mode runs and byte-compares the CSV against
//! `tests/golden/`.
//!
//! To re-record after an intended model change:
//!
//! ```sh
//! nfsperf megafleet --quick --counts 1000,10000 --out tests/golden/megafleet-quick.csv
//! nfsperf netqos --quick --out tests/golden/netqos-quick.csv
//! ```

use nfsperf_experiments::{megafleet_sweep, netqos_sweep, NetSched, ServerKind, TrafficMix};

/// Worker threads for the regenerated sweeps; CSVs are byte-identical
/// at any value.
const JOBS: usize = 2;

/// The one megafleet column excluded from the comparison: `events` is
/// the executor's retired-event count, a host-side engine counter that
/// moves whenever the executor's bookkeeping does (for example, stale
/// wakes that used to retire on reserved task slots), while every
/// simulated column stays fixed.
const ENGINE_COLUMN: &str = "events";

/// Asserts `got` equals `want` line by line, ignoring the columns named
/// in `skip` (looked up in the shared header).
fn assert_csv_matches(name: &str, got: &str, want: &str, skip: &[&str]) {
    let header = want.lines().next().expect("golden has a header");
    assert_eq!(
        got.lines().next(),
        Some(header),
        "{name}: CSV header changed"
    );
    let skipped: Vec<usize> = header
        .split(',')
        .enumerate()
        .filter(|(_, col)| skip.contains(col))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(skipped.len(), skip.len(), "{name}: skipped column missing");
    let keep = |line: &str| -> Vec<String> {
        line.split(',')
            .enumerate()
            .filter(|(i, _)| !skipped.contains(i))
            .map(|(_, field)| field.to_owned())
            .collect()
    };
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{name}: row count changed"
    );
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(keep(g), keep(w), "{name}: line {} differs", n + 1);
    }
}

#[test]
fn megafleet_quick_matches_golden() {
    let sweep = megafleet_sweep(
        &[1_000, 10_000],
        &[ServerKind::Filer, ServerKind::Knfsd],
        true,
        JOBS,
    );
    assert_csv_matches(
        "megafleet-quick.csv",
        &sweep.to_csv(),
        include_str!("golden/megafleet-quick.csv"),
        &[ENGINE_COLUMN],
    );
}

#[test]
fn netqos_quick_matches_golden() {
    let sweep = netqos_sweep(
        &[ServerKind::Knfsd],
        &NetSched::ALL,
        &TrafficMix::ALL,
        7,
        1 << 20,
        JOBS,
    );
    assert_eq!(
        sweep.to_csv(),
        include_str!("golden/netqos-quick.csv"),
        "netqos-quick.csv: simulated output moved"
    );
}
