//! Experiment runners reproducing the paper's evaluation.
//!
//! [`figures`] has one runner per exhibit (Figures 1–7, Table 1, the
//! §3.5 slow-server comparison); [`ablations`] sweeps the design
//! parameters; [`transport`] compares UDP and TCP mounts under packet
//! loss; [`fleet`] scales client count against one shared server;
//! [`megafleet`] pushes that to 10k–1M flyweight clients through a
//! multi-stage fabric; [`scenario`] assembles worlds; [`render`] writes
//! CSVs and ASCII charts. Every parameter sweep implements [`Sweep`] and
//! runs through [`run`] (see [`sweep`]).

pub mod ablations;
pub mod arrivals;
pub mod cawl;
pub mod concurrency;
pub mod figures;
pub mod fleet;
pub mod megafleet;
pub mod netqos;
pub mod qos;
pub mod render;
pub mod scenario;
pub mod sweep;
pub mod transport;

pub use ablations::{
    commit_threshold_sweep, cpu_ablation, mtu_ablation, nvram_sweep, slot_table_sweep,
    soft_limit_sweep, workload_comparison, wsize_sweep, CpuAblation, MtuAblation,
    WorkloadComparison,
};
pub use cawl::{run_cawl, CawlCell, CawlGrid, CawlSweep, CAWL_FILE_HALVES};
pub use concurrency::{concurrent_writers, future_work_comparison, ConcurrencyResult, Topology};
pub use fleet::{jain_index, run_fleet, FleetCell, FleetConfig, FleetGrid, FleetRun, FleetSweep};
pub use megafleet::{
    bytes_for_count, run_megafleet, MegaCell, MegaConfig, MegaGrid, MegaRun, MegaSweep,
    MEGAFLEET_FAITHFUL,
};
pub use figures::{
    figure1, figure2, figure3, figure4, figure5, figure6, figure7, paper_file_sizes,
    quick_file_sizes, slow_server_comparison, table1, throughput_sweep, HistogramPair,
    LatencyTrace, SlowServerComparison, Table1,
};
pub use arrivals::{OpenLoop, TrafficMix};
pub use netqos::{
    run_netqos, NetQosCell, NetQosConfig, NetQosGrid, NetQosRun, NetQosSweep, NetSched,
};
pub use qos::{run_qos, QosCell, QosConfig, QosGrid, QosRun, QosSweep};
pub use render::{ascii_table, write_rows_csv, Figure, Series};
pub use scenario::{
    run_bonnie, run_custom, run_local, run_local_with_ram, write_throughput_mbps, RunOutput,
    Scenario, ServerKind,
};
pub use sweep::{run, to_csv, write_csv, Sweep};
pub use transport::{TransportGrid, TransportRow, TransportSweep};
