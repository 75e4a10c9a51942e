//! Parallel-runner acceptance: the scoped-thread sweep executor must be
//! invisible in the output. Every sweep CSV is byte-identical whether
//! the cells run serially or fanned across workers, because cells are
//! isolated `Sim` worlds and results are collected in work-list order.

use nfsperf_experiments::{
    run, to_csv, FleetGrid, FleetSweep, QosGrid, QosSweep, ServerKind, Sweep,
};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::proptest::{check, CaseOutcome};
use nfsperf_sim::{prop_assert_eq, run_cells, Cell, Sim, SimDuration};

#[test]
fn fleet_quick_csv_identical_at_jobs_1_and_4() {
    let grid = FleetGrid {
        servers: vec![ServerKind::Filer],
        ..FleetSweep::quick()
    };
    let csv = |jobs| to_csv::<FleetSweep>(&run::<FleetSweep>(&grid, jobs));
    let serial = csv(1);
    assert!(serial.lines().count() > 1, "sweep produced rows");
    assert_eq!(serial, csv(4), "fleet CSV must not depend on --jobs");
}

#[test]
fn qos_quick_csv_identical_at_jobs_1_and_4() {
    let grid = QosGrid {
        scheds: vec![SchedPolicy::Fifo, SchedPolicy::classed_drr()],
        ..QosSweep::quick()
    };
    let csv = |jobs| to_csv::<QosSweep>(&run::<QosSweep>(&grid, jobs));
    let serial = csv(1);
    assert!(serial.lines().count() > 1, "sweep produced rows");
    assert_eq!(serial, csv(4), "qos CSV must not depend on --jobs");
}

/// One synthetic sweep cell: an isolated `Sim` world whose result is a
/// pure function of its parameters (a few sleeps plus arithmetic).
fn sim_cell(seed: u64, steps: u64) -> u64 {
    let sim = Sim::new();
    let s = sim.clone();
    sim.run_until(async move {
        let mut acc = seed;
        for i in 0..steps % 8 + 1 {
            s.sleep(SimDuration::from_nanos(seed % 1000 + i + 1)).await;
            acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        }
        acc ^ s.now().as_nanos()
    })
}

/// Property: for randomized work-lists (random lengths, random per-cell
/// parameters) and randomized worker counts, the parallel runner returns
/// exactly the serial result vector — order and values.
#[test]
fn randomized_worklists_match_serial_at_any_jobs() {
    check(
        "randomized_worklists_match_serial_at_any_jobs",
        |g| {
            let cells = g.vec(0, 24, |g| (g.any_u64(), g.u64_in(0, 64)));
            let jobs = g.usize_in(2, 9);
            (cells, jobs)
        },
        |(cells, jobs)| {
            let make = || -> Vec<Cell<u64>> {
                cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(seed, steps))| {
                        Cell::new(format!("prop-{i}"), move || sim_cell(seed, steps))
                    })
                    .collect()
            };
            let serial = run_cells(1, make());
            let parallel = run_cells(*jobs, make());
            prop_assert_eq!(&serial, &parallel);
            CaseOutcome::Pass
        },
    );
}
