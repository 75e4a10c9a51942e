//! Host-time benchmark of the nfsperf simulator.
//!
//! Three workloads (`paper_client`, `fleet_tcp`, `megafleet_1m`) each run
//! as one simulated world on one thread in a process of their own. An
//! untraced run reports end-to-end host cost: wall seconds of the timed
//! call, peak resident memory and set-up time. A traced run reports
//! per-layer numbers: exact simulated counts from a mirror world and
//! host ns/op from probes of each layer's public functions. Simulated
//! outputs are deterministic and serve as the correctness oracle; they
//! are never scored. See `README.md` for the layer → metric → workload map.

pub mod bench;
pub mod mirror;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod trace;
pub mod workload;
