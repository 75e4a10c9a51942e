//! Golden outputs: the committed quick-size outputs of every sweep are
//! the oracle for every host-side change to the engine. Each test
//! regenerates its sweep with the same cells the CLI's `--quick` mode
//! runs and byte-compares the result against `tests/golden/`.
//!
//! To re-record after an intended model change:
//!
//! ```sh
//! nfsperf megafleet --quick --counts 1000,10000 --out tests/golden/megafleet-quick.csv
//! nfsperf netqos --quick --out tests/golden/netqos-quick.csv
//! nfsperf fleet --quick --out tests/golden/fleet-quick.csv
//! nfsperf qos --quick --out tests/golden/qos-quick.csv
//! nfsperf cawl --quick --out tests/golden/cawl-quick.csv
//! ```
//!
//! The transport table (`transport_sweep(..).render()`, which the CLI
//! prints under a one-line heading) and the tiny figure exhibits
//! (`tests/golden/exhibits/`) have no CLI spelling; write them from the
//! same calls the tests below make.

use nfsperf_experiments::figures::{assemble_exhibits, exhibit_cells_with, ExhibitSizes};
use nfsperf_experiments::{
    cawl_sweep, fleet_sweep, megafleet_sweep, netqos_sweep, qos_sweep, transport_sweep, NetSched,
    ServerKind, TrafficMix, CAWL_QUICK_RAM_SIZES, CAWL_QUICK_SERVERS, LOSS_RATES,
};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::run_cells;
use nfsperf_sunrpc::Transport;

/// Worker threads for the regenerated sweeps; CSVs are byte-identical
/// at any value.
const JOBS: usize = 2;

#[test]
fn megafleet_quick_matches_golden() {
    let sweep = megafleet_sweep(
        &[1_000, 10_000],
        &[ServerKind::Filer, ServerKind::Knfsd],
        true,
        JOBS,
    );
    assert_eq!(
        sweep.to_csv(),
        include_str!("golden/megafleet-quick.csv"),
        "megafleet-quick.csv: simulated output moved"
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

#[test]
fn fleet_quick_matches_golden() {
    let sweep = fleet_sweep(
        &[1, 2, 4],
        &[ServerKind::Filer, ServerKind::Knfsd],
        &[Transport::Udp, Transport::Tcp],
        1 << 20,
        JOBS,
    );
    assert_eq!(
        sweep.to_csv(),
        include_str!("golden/fleet-quick.csv"),
        "fleet-quick.csv: simulated output moved"
    );
}

#[test]
fn qos_quick_matches_golden() {
    let scheds = [
        SchedPolicy::Fifo,
        SchedPolicy::drr(),
        SchedPolicy::classed_drr(),
    ];
    let sweep = qos_sweep(&[ServerKind::Filer], &scheds, 4, 1 << 20, JOBS);
    assert_eq!(
        sweep.to_csv(),
        include_str!("golden/qos-quick.csv"),
        "qos-quick.csv: simulated output moved"
    );
}

#[test]
fn cawl_quick_matches_golden() {
    let sweep = cawl_sweep(&CAWL_QUICK_RAM_SIZES, &CAWL_QUICK_SERVERS, JOBS);
    assert_eq!(
        sweep.to_csv(),
        include_str!("golden/cawl-quick.csv"),
        "cawl-quick.csv: simulated output moved"
    );
}

#[test]
fn transport_quick_matches_golden() {
    let sweep = transport_sweep(2 << 20, LOSS_RATES, JOBS);
    assert_eq!(
        sweep.render(),
        include_str!("golden/transport-quick.txt"),
        "transport table: simulated output moved"
    );
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
