//! The three workloads: their configs (built from the seed), the timed
//! call into the simulator, and the simulated outputs each call returns.
//!
//! Every workload is closed loop — each writer issues its next `write()`
//! only after the previous one returned — and runs as one simulated world
//! on one thread.

use nfsperf_client::ClientTuning;
use nfsperf_experiments::fleet::{run_fleet, FleetConfig, FleetRun};
use nfsperf_experiments::megafleet::{bytes_for_count, run_megafleet, MegaConfig, MegaRun};
use nfsperf_experiments::scenario::{run_bonnie, RunOutput, Scenario, ServerKind};
use nfsperf_server::SchedPolicy;
use nfsperf_sunrpc::Transport;

/// The simulator's own default seed; the recorded oracle values hold at it.
pub const DEFAULT_SEED: u64 = 0x1f5;

/// A seed no change was tuned on, kept for checking claims.
pub const HELD_OUT_SEED: u64 = 0xc1a1;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One faithful full-patch client, filer, UDP, 1000 MiB of 8 KiB writes.
    PaperClient,
    /// 32 faithful clients over TCP into a DRR-scheduled knfsd.
    FleetTcp,
    /// 1,000,000 flyweights plus 4 faithful clients through the fabric.
    Megafleet1m,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperClient,
        Workload::FleetTcp,
        Workload::Megafleet1m,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClient => "paper_client",
            Workload::FleetTcp => "fleet_tcp",
            Workload::Megafleet1m => "megafleet_1m",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of a workload: the measured size, or a reduced one for warm-up
/// and the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// A reduced size exercising the same code paths.
    Smoke,
}

/// The generated inputs of one workload: the only thing the simulator
/// receives.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `run_bonnie(&scenario, file_size)`.
    Paper {
        scenario: Box<Scenario>,
        file_size: u64,
    },
    /// `run_fleet(&config)`.
    Fleet(FleetConfig),
    /// `run_megafleet(&config)`.
    Mega(MegaConfig),
}

impl Inputs {
    /// Builds the workload's configuration from `seed`.
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let full = scale == Scale::Full;
        match workload {
            Workload::PaperClient => Inputs::Paper {
                scenario: Box::new(Scenario {
                    seed,
                    ..Scenario::new(ClientTuning::full_patch(), ServerKind::Filer)
                }),
                file_size: if full { 1000 << 20 } else { 32 << 20 },
            },
            Workload::FleetTcp => {
                let (clients, bytes) = if full { (32, 8 << 20) } else { (8, 1 << 20) };
                Inputs::Fleet(FleetConfig {
                    seed,
                    sched: SchedPolicy::drr(),
                    ..FleetConfig::new(ServerKind::Knfsd, Transport::Tcp, clients, bytes)
                })
            }
            Workload::Megafleet1m => {
                let flyweights = if full { 1_000_000 } else { 20_000 };
                Inputs::Mega(MegaConfig {
                    seed,
                    ..MegaConfig::new(
                        ServerKind::Filer,
                        flyweights,
                        bytes_for_count(1_000_000, false),
                    )
                })
            }
        }
    }

    /// Runs the workload's timed call into the simulator.
    pub fn call(&self) -> Output {
        match self {
            Inputs::Paper {
                scenario,
                file_size,
            } => Output::Paper(Box::new(run_bonnie(scenario, *file_size))),
            Inputs::Fleet(config) => Output::Fleet(run_fleet(config)),
            Inputs::Mega(config) => Output::Mega(Box::new(run_megafleet(config))),
        }
    }

    /// Bytes the application writes in total, over every faithful client.
    pub fn faithful_bytes(&self) -> u64 {
        match self {
            Inputs::Paper { file_size, .. } => *file_size,
            Inputs::Fleet(c) => c.clients as u64 * c.bytes_per_client,
            Inputs::Mega(c) => c.faithful as u64 * c.bytes_per_client,
        }
    }

    /// Faithful (full write path) clients in the world.
    pub fn faithful_clients(&self) -> usize {
        match self {
            Inputs::Paper { .. } => 1,
            Inputs::Fleet(c) => c.clients,
            Inputs::Mega(c) => c.faithful,
        }
    }

    /// Every client in the world, flyweights included.
    pub fn all_clients(&self) -> usize {
        match self {
            Inputs::Mega(c) => c.faithful + c.flyweights as usize,
            _ => self.faithful_clients(),
        }
    }

    /// The seed the configuration was built from.
    pub fn seed(&self) -> u64 {
        match self {
            Inputs::Paper { scenario, .. } => scenario.seed,
            Inputs::Fleet(c) => c.seed,
            Inputs::Mega(c) => c.seed,
        }
    }
}

/// What one workload call returned.
pub enum Output {
    /// From `run_bonnie`.
    Paper(Box<RunOutput>),
    /// From `run_fleet`.
    Fleet(FleetRun),
    /// From `run_megafleet`.
    Mega(Box<MegaRun>),
}

/// The simulated outputs of one call, in a fixed order. Deterministic for
/// a given config, so two calls must agree bit for bit.
pub type Figures = Vec<(&'static str, f64)>;

impl Output {
    /// The simulated figures this call produced.
    pub fn figures(&self) -> Figures {
        match self {
            Output::Paper(o) => vec![
                ("write_mbps", o.report.write_mbps()),
                ("close_mbps", o.report.close_mbps()),
                ("write_rpcs", o.mount_stats.write_rpcs as f64),
                ("commit_rpcs", o.mount_stats.commit_rpcs as f64),
                ("server_writes", o.server_stats.writes as f64),
                ("server_write_bytes", o.server_stats.write_bytes as f64),
                ("server_commits", o.server_stats.commits as f64),
            ],
            Output::Fleet(r) => fleet_figures(r),
            Output::Mega(r) => mega_figures(r),
        }
    }

    /// Checks the conservation laws that hold at every seed.
    pub fn conservation(&self, inputs: &Inputs) -> Result<(), String> {
        let want = inputs.faithful_bytes();
        let (written, per_client): (u64, Vec<f64>) = match self {
            Output::Paper(o) => {
                if o.xprt_stats.replies != o.xprt_stats.calls {
                    return Err(format!(
                        "xprt replies {} != calls {}",
                        o.xprt_stats.replies, o.xprt_stats.calls
                    ));
                }
                if o.mount_stats.write_failures != 0 {
                    return Err(format!("{} failed WRITEs", o.mount_stats.write_failures));
                }
                (
                    o.server_stats.write_bytes,
                    vec![o.report.write_mbps(), o.report.close_mbps()],
                )
            }
            Output::Fleet(r) => (r.server_stats.write_bytes, r.per_client_mbps.clone()),
            Output::Mega(r) => {
                let mut all = r.faithful_mbps.clone();
                all.extend_from_slice(&r.fly_mbps);
                (r.server_stats.write_bytes, all)
            }
        };
        if written < want {
            return Err(format!("server stored {written} B of the {want} B written"));
        }
        if let Some(i) = per_client.iter().position(|&m| m.is_nan() || m <= 0.0) {
            return Err(format!("client {i} finished at {} MB/s", per_client[i]));
        }
        Ok(())
    }
}

/// Figures of a fleet run (shared with the mirror world).
pub fn fleet_figures(r: &FleetRun) -> Figures {
    let mut f = vec![
        ("aggregate_mbps", r.aggregate_mbps),
        ("jain", r.jain),
        ("server_writes", r.server_stats.writes as f64),
        ("server_write_bytes", r.server_stats.write_bytes as f64),
        ("server_commits", r.server_stats.commits as f64),
    ];
    f.extend(r.per_client_mbps.iter().map(|&m| ("client_mbps", m)));
    f
}

/// Figures of a megafleet run (shared with the mirror world).
pub fn mega_figures(r: &MegaRun) -> Figures {
    let fly_sum: f64 = r.fly_mbps.iter().sum();
    let mut f = vec![
        ("aggregate_mbps", r.aggregate_mbps),
        ("bytes_per_client", r.bytes_per_client as f64),
        ("fly_rpc_p99_ms", r.fly_rpc_p99_ms),
        ("faithful_svc_p99_ms", r.faithful_svc_p99_ms),
        ("fly_mbps_sum", fly_sum),
        ("server_writes", r.server_stats.writes as f64),
        ("server_write_bytes", r.server_stats.write_bytes as f64),
        ("server_commits", r.server_stats.commits as f64),
    ];
    f.extend(r.faithful_mbps.iter().map(|&m| ("faithful_mbps", m)));
    f
}
