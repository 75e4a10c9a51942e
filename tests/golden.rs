//! Golden outputs: the committed quick-size outputs of every sweep are
//! the oracle for every host-side change to the engine. Each sweep test
//! regenerates its sweep's quick grid ([`Sweep::quick`], the one the
//! CLI's `--quick` runs), asserts the sweep's quick-size laws
//! ([`Sweep::check_quick`]) and byte-compares the CSV against
//! `tests/golden/<sweep>-quick.csv`. Each law is then shown to bite: a
//! copy of the real rows, doctored to break just that law, must fail.
//!
//! To re-record after an intended model change:
//!
//! ```sh
//! for s in transport fleet qos netqos cawl; do
//!     nfsperf $s --quick --out tests/golden/$s-quick.csv
//! done
//! nfsperf megafleet --quick --counts 1000,10000 --out tests/golden/megafleet-quick.csv
//! ```
//!
//! The transport table (`TransportSweep::render`, which the CLI prints
//! under a one-line heading) and the tiny figure exhibits
//! (`tests/golden/exhibits/`) have no CLI spelling; write them from the
//! same calls the tests below make.

use nfsperf_experiments::figures::{assemble_exhibits, exhibit_cells_with, ExhibitSizes};
use nfsperf_experiments::{
    run, to_csv, CawlSweep, FleetSweep, MegaGrid, MegaSweep, NetQosSweep, NetSched, QosSweep,
    Sweep, TrafficMix, TransportSweep,
};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::run_cells;

/// Worker threads for the regenerated sweeps; CSVs are byte-identical
/// at any value.
const JOBS: usize = 2;

/// Runs `config`, asserts the quick-size laws and byte-compares the CSV
/// with `golden`; returns the rows for further checks.
fn assert_golden<S: Sweep>(config: &S::Config, golden: &str) -> Vec<S::Row> {
    let rows = run::<S>(config, JOBS);
    if let Err(e) = S::check_quick(&rows) {
        panic!("{}: quick-size law broken: {e}", S::NAME);
    }
    assert!(S::check_quick(&[]).is_err(), "{}: no rows pass", S::NAME);
    assert_eq!(
        to_csv::<S>(&rows),
        golden,
        "{}-quick.csv: simulated output moved",
        S::NAME
    );
    rows
}

/// Asserts that `check_quick` rejects `rows` once `doctor` has broken
/// the named law.
fn assert_law_bites<S: Sweep>(rows: &[S::Row], law: &str, doctor: impl FnOnce(&mut Vec<S::Row>))
where
    S::Row: Clone,
{
    let mut bad = rows.to_vec();
    doctor(&mut bad);
    assert!(
        S::check_quick(&bad).is_err(),
        "{}: rows doctored against the {law} law still pass",
        S::NAME
    );
}

#[test]
fn megafleet_quick_matches_golden() {
    // The golden stops at 10k flyweights; the CLI's quick grid adds 100k.
    let config = MegaGrid {
        counts: vec![1_000, 10_000],
        ..MegaSweep::quick()
    };
    let rows = assert_golden::<MegaSweep>(&config, include_str!("golden/megafleet-quick.csv"));
    assert_law_bites::<MegaSweep>(&rows, "throughput", |r| r[1].aggregate_mbps = 0.0);
    assert_law_bites::<MegaSweep>(&rows, "faithful fairness", |r| r[1].faithful_jain = 0.89);
    assert_law_bites::<MegaSweep>(&rows, "memory budget", |r| r[1].bytes_per_client = 257);
}

#[test]
fn netqos_quick_matches_golden() {
    let rows = assert_golden::<NetQosSweep>(
        &NetQosSweep::quick(),
        include_str!("golden/netqos-quick.csv"),
    );
    let fifo_incast = rows
        .iter()
        .position(|r| r.sched == NetSched::Fifo && r.mix == TrafficMix::Incast)
        .expect("port-fifo incast row");
    let fair = rows
        .iter()
        .position(|r| r.sched != NetSched::Fifo)
        .expect("a fair-policy row");
    assert_law_bites::<NetQosSweep>(&rows, "fifo starvation", |r| {
        r[fifo_incast].victim_jain = 0.6
    });
    assert_law_bites::<NetQosSweep>(&rows, "fair-policy fairness", |r| {
        r[fair].victim_jain = 0.89
    });
    assert_law_bites::<NetQosSweep>(&rows, "victim throughput", |r| {
        r[fair].victim_mean_mbps = 0.0
    });
    assert_law_bites::<NetQosSweep>(&rows, "incast cell present", |r| {
        r.remove(fifo_incast);
    });
}

#[test]
fn fleet_quick_matches_golden() {
    let rows =
        assert_golden::<FleetSweep>(&FleetSweep::quick(), include_str!("golden/fleet-quick.csv"));
    assert_law_bites::<FleetSweep>(&rows, "throughput", |r| r[3].aggregate_mbps = 0.0);
    assert_law_bites::<FleetSweep>(&rows, "fairness", |r| r[3].jain = 0.89);
}

#[test]
fn qos_quick_matches_golden() {
    let rows = assert_golden::<QosSweep>(&QosSweep::quick(), include_str!("golden/qos-quick.csv"));
    assert_eq!(rows[0].sched, SchedPolicy::Fifo);
    assert_law_bites::<QosSweep>(&rows, "fifo starvation", |r| r[0].jain_all = 0.6);
    assert_law_bites::<QosSweep>(&rows, "fair-policy fairness", |r| r[1].jain_all = 0.94);
}

#[test]
fn cawl_quick_matches_golden() {
    let rows =
        assert_golden::<CawlSweep>(&CawlSweep::quick(), include_str!("golden/cawl-quick.csv"));
    let sub_ratio = rows
        .iter()
        .position(|r| r.file_halves == 1)
        .expect("a 0.5x cell");
    let throttled = rows
        .iter()
        .position(|r| r.throttle_events > 0)
        .expect("a throttled cell");
    assert_law_bites::<CawlSweep>(&rows, "sub-ratio never throttles", |r| {
        r[sub_ratio].throttle_events = 1;
        r[sub_ratio].peak_dirty_pages = r[sub_ratio].hard_limit_pages;
    });
    assert_law_bites::<CawlSweep>(&rows, "pinned at the hard limit", |r| {
        r[throttled].peak_dirty_pages -= 1
    });
    assert_law_bites::<CawlSweep>(&rows, "throughput", |r| r[throttled].app_mbps = 0.0);
    for regime in ["cache-fit", "writeback-bound"] {
        assert_law_bites::<CawlSweep>(&rows, "both regimes", |r| {
            r.retain(|c| c.regime() != regime)
        });
    }
}

#[test]
fn transport_quick_matches_golden() {
    let rows = assert_golden::<TransportSweep>(
        &TransportSweep::quick(),
        include_str!("golden/transport-quick.csv"),
    );
    assert_eq!(
        TransportSweep::render(&rows),
        include_str!("golden/transport-quick.txt"),
        "transport table: simulated output moved"
    );
    assert_eq!(rows[0].loss, 0.0);
    assert_law_bites::<TransportSweep>(&rows, "throughput", |r| r[1].flush_mbps = 0.0);
    assert_law_bites::<TransportSweep>(&rows, "clean link", |r| r[0].drops = 1);
    assert_law_bites::<TransportSweep>(&rows, "clean link", |r| r[0].rpc_retransmits = 1);
}

/// The phased figure work-list on tiny files: two sub-MB figure-1/7
/// sizes and every fixed-size exhibit at 256 KB.
#[test]
fn tiny_exhibits_match_golden() {
    let sizes = [128 << 10, 256 << 10];
    let parts = run_cells(
        JOBS,
        exhibit_cells_with(&sizes, ExhibitSizes::uniform(256 << 10)),
    );
    let want = [
        ("figure1.csv", include_str!("golden/exhibits/figure1.csv")),
        ("figure2.csv", include_str!("golden/exhibits/figure2.csv")),
        ("figure3.csv", include_str!("golden/exhibits/figure3.csv")),
        ("figure4.csv", include_str!("golden/exhibits/figure4.csv")),
        ("figure5.csv", include_str!("golden/exhibits/figure5.csv")),
        ("figure6.csv", include_str!("golden/exhibits/figure6.csv")),
        ("table1.csv", include_str!("golden/exhibits/table1.csv")),
        ("figure7.csv", include_str!("golden/exhibits/figure7.csv")),
        (
            "slow_server.csv",
            include_str!("golden/exhibits/slow_server.csv"),
        ),
    ];
    let got = assemble_exhibits(&sizes, parts);
    assert_eq!(
        got.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        want.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        "exhibit file list changed"
    );
    for ((name, body), (_, golden)) in got.iter().zip(want) {
        assert_eq!(body, golden, "{name}: simulated output moved");
    }
}
