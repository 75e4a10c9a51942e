//! Mirror worlds: the three workload calls rebuilt from the simulator's
//! public API, keeping hold of every kernel, mount and NIC so the counts
//! the official calls do not return (retired events, BKL acquisitions,
//! transport calls, fragments, segments) can be read afterwards.
//!
//! A mirror is only trusted when its simulated figures equal the official
//! call's bit for bit; the harness checks that on every run, so a mirror
//! that drifts from the call it copies counts as a failed cell.

use std::rc::Rc;

use nfsperf_client::{MountConfig, NfsMount};
use nfsperf_experiments::fleet::{jain_index, FleetConfig, FleetRun};
use nfsperf_experiments::megafleet::{MegaConfig, MegaRun};
use nfsperf_experiments::scenario::Scenario;
use nfsperf_fleet::{calibrate, CalibrationConfig, FlyTier, FlyTierConfig};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, SimFile};
use nfsperf_net::{Fabric, FabricConfig, LinkDir, Nic, NicSpec, Path, Switch};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{mbps, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::workload::{fleet_figures, mega_figures, Figures, Inputs};

/// Exact simulated counts of one mirror world, summed over its faithful
/// clients (`peak_dirty_pages` is the largest single client's).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Events the world's simulator retired.
    pub events: u64,
    /// BKL acquisitions.
    pub bkl_acquisitions: u64,
    /// Simulated time spent waiting for the BKL.
    pub bkl_wait: SimDuration,
    /// Largest dirty-page count any one client reached.
    pub peak_dirty_pages: usize,
    /// Times a writer hit its dirty-memory limit.
    pub throttle_events: u64,
    /// WRITE RPCs issued.
    pub write_rpcs: u64,
    /// COMMIT RPCs issued.
    pub commit_rpcs: u64,
    /// WRITE RPCs that failed.
    pub write_failures: u64,
    /// RPC calls issued.
    pub calls: u64,
    /// RPC replies matched to a call.
    pub replies: u64,
    /// RPC retransmissions.
    pub retransmits: u64,
    /// TCP segments sent by the clients (0 over UDP).
    pub segments_sent: u64,
    /// IP fragments the client NICs sent.
    pub fragments_sent: u64,
    /// `write()` calls the applications made.
    pub app_writes: u64,
}

impl Counts {
    /// Adds one faithful client's kernel, mount and NIC counters.
    fn add_client(&mut self, kernel: &Kernel, mount: &NfsMount, nic: &Nic) {
        let lock = kernel.bkl.stats();
        self.bkl_acquisitions += lock.acquisitions;
        self.bkl_wait += lock.total_wait;
        self.peak_dirty_pages = self.peak_dirty_pages.max(kernel.mem.peak_dirty_pages());
        self.throttle_events += kernel.mem.throttle_events();
        let m = mount.stats();
        self.write_rpcs += m.write_rpcs;
        self.commit_rpcs += m.commit_rpcs;
        self.write_failures += m.write_failures;
        let x = mount.xprt().stats();
        self.calls += x.calls;
        self.replies += x.replies;
        self.retransmits += x.retransmits;
        if let Some(tcp) = mount.xprt().tcp() {
            self.segments_sent += tcp.tcp_stats().segments_sent;
        }
        self.fragments_sent += nic.fragments_sent();
    }

    /// The transport conservation laws: every call answered, no WRITE
    /// failed.
    pub fn conservation(&self) -> Result<(), String> {
        if self.replies != self.calls {
            return Err(format!(
                "xprt replies {} != calls {}",
                self.replies, self.calls
            ));
        }
        if self.write_failures != 0 {
            return Err(format!("{} failed WRITEs", self.write_failures));
        }
        Ok(())
    }
}

/// Result of one mirror world.
pub struct Mirror {
    /// Simulated figures, comparable with the official call's.
    pub figures: Figures,
    /// Exact counts.
    pub counts: Counts,
    /// Flyweight resident bytes per client (0 without a flyweight tier).
    pub fly_bytes_per_client: usize,
}

/// Runs the mirror world of `inputs`.
pub fn run(inputs: &Inputs) -> Mirror {
    match inputs {
        Inputs::Paper {
            scenario,
            file_size,
        } => paper(scenario, *file_size),
        Inputs::Fleet(config) => fleet(config),
        Inputs::Mega(config) => mega(config),
    }
}

/// The same kernel seed spread `run_fleet` and `run_megafleet` give
/// machine `i`.
fn machine_kernel(sim: &Sim, seed: u64, i: usize) -> Kernel {
    Kernel::new(
        sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 256 << 20,
            seed: seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            costs: CostTable::default(),
            mem: nfsperf_kernel::MemTuning::default(),
        },
    )
}

/// Writes `bytes` sequentially in 8 KiB calls and closes, as the fleet
/// workers do; returns the finish time since `t0`.
async fn write_and_close(
    mount: Rc<NfsMount>,
    sim: Sim,
    name: String,
    bytes: u64,
    t0: nfsperf_sim::SimTime,
) -> SimDuration {
    let file = mount.create(&name).await.expect("create");
    let mut off = 0;
    while off < bytes {
        let n = 8192.min(bytes - off);
        file.write(off, n).await.expect("write");
        off += n;
    }
    file.close().await.expect("close");
    sim.now().since(t0)
}

fn paper(scenario: &Scenario, file_size: u64) -> Mirror {
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ncpus: scenario.ncpus,
            ram_bytes: scenario.ram_bytes,
            seed: scenario.seed,
            costs: scenario.costs.clone(),
            mem: scenario.mem,
        },
    );
    let (cnic, crx) = Nic::with_loss(
        &sim,
        "client",
        scenario.client_nic,
        scenario.loss,
        scenario.seed,
    );
    let (snic, srx) = Nic::new(&sim, "server", scenario.server_nic);
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
    let spawn_server = match scenario.mount.transport {
        Transport::Udp => NfsServer::spawn,
        Transport::Tcp => NfsServer::spawn_tcp,
    };
    let server = spawn_server(
        &sim,
        srx,
        to_server.reversed(),
        scenario.server_config.clone(),
    );
    let mount = NfsMount::mount(&kernel, to_server, crx, scenario.mount.clone());
    let config = nfsperf_bonnie::BonnieConfig {
        record_latencies: scenario.record_latencies,
        ..nfsperf_bonnie::BonnieConfig::new(file_size)
    };
    let app_writes = file_size.div_ceil(config.chunk);
    let m2 = Rc::clone(&mount);
    let s2 = sim.clone();
    let report = sim.run_until(async move {
        let file = m2.create("bonnie.scratch").await.expect("create");
        nfsperf_bonnie::run(&s2, &file, &config).await
    });
    let mut counts = Counts {
        events: sim.events(),
        app_writes,
        ..Counts::default()
    };
    counts.add_client(&kernel, &mount, &cnic);
    let mount_stats = mount.stats();
    let server_stats = server.stats();
    Mirror {
        figures: vec![
            ("write_mbps", report.write_mbps()),
            ("close_mbps", report.close_mbps()),
            ("write_rpcs", mount_stats.write_rpcs as f64),
            ("commit_rpcs", mount_stats.commit_rpcs as f64),
            ("server_writes", server_stats.writes as f64),
            ("server_write_bytes", server_stats.write_bytes as f64),
            ("server_commits", server_stats.commits as f64),
        ],
        counts,
        fly_bytes_per_client: 0,
    }
}

fn fleet(config: &FleetConfig) -> Mirror {
    let sim = Sim::new();
    let switch = Switch::new(&sim, config.server.nic_spec(), Path::default_latency());
    let server = NfsServer::new(
        &sim,
        ServerConfig {
            sched: config.sched,
            ..config.server.server_config()
        },
    );
    let mut machines = Vec::new();
    for i in 0..config.clients {
        let kernel = machine_kernel(&sim, config.seed, i);
        let (cnic, crx) = Nic::new(&sim, "client", config.client_nic);
        let (to_server, port_rx) = switch.attach(&cnic, config.client_nic);
        match config.transport {
            Transport::Udp => server.attach_udp(port_rx, to_server.reversed()),
            Transport::Tcp => server.attach_tcp(port_rx, to_server.reversed()),
        };
        let mount = NfsMount::mount(
            &kernel,
            to_server,
            crx,
            MountConfig {
                tuning: config.tuning,
                transport: config.transport,
                ..MountConfig::default()
            },
        );
        machines.push((kernel, mount, cnic));
    }
    let bytes = config.bytes_per_client;
    let mounts: Vec<_> = machines.iter().map(|(_, m, _)| Rc::clone(m)).collect();
    let s2 = sim.clone();
    let (elapsed, per_elapsed) = sim.run_until(async move {
        let t0 = s2.now();
        let workers: Vec<_> = mounts
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                s2.spawn(write_and_close(
                    m,
                    s2.clone(),
                    format!("fleet{i}.scratch"),
                    bytes,
                    t0,
                ))
            })
            .collect();
        let mut per = Vec::with_capacity(workers.len());
        for w in workers {
            per.push(w.await);
        }
        (s2.now().since(t0), per)
    });
    let per_client_mbps: Vec<f64> = per_elapsed.iter().map(|e| mbps(bytes, *e)).collect();
    let run = FleetRun {
        clients: config.clients,
        jain: jain_index(&per_client_mbps),
        per_client_mbps,
        aggregate_mbps: mbps(bytes * config.clients as u64, elapsed),
        elapsed,
        server_stats: server.stats(),
        per_client_server: server.per_client_stats(),
        uplink_mbps: switch.uplink().throughput_mbps(LinkDir::ToServer),
    };
    let mut counts = Counts {
        events: sim.events(),
        app_writes: config.clients as u64 * bytes.div_ceil(8192),
        ..Counts::default()
    };
    for (kernel, mount, nic) in &machines {
        counts.add_client(kernel, mount, nic);
    }
    Mirror {
        figures: fleet_figures(&run),
        counts,
        fly_bytes_per_client: 0,
    }
}

fn mega(config: &MegaConfig) -> Mirror {
    let server_config = config.server.server_config();
    let server_nic: NicSpec = config.server.nic_spec();
    let calibration = calibrate(&CalibrationConfig {
        client_nic: config.client_nic,
        seed: config.seed,
        ..CalibrationConfig::new(server_config.clone(), server_nic)
    });
    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    let server = NfsServer::new(&sim, server_config);
    let mut machines = Vec::new();
    for i in 0..config.faithful {
        let kernel = machine_kernel(&sim, config.seed, i);
        let (cnic, crx) = Nic::new(&sim, "client", config.client_nic);
        let (_id, to_server, port_rx) = fabric.attach(&cnic, config.client_nic);
        server.attach_udp(port_rx, to_server.reversed());
        let mount = NfsMount::mount(
            &kernel,
            to_server,
            crx,
            MountConfig {
                tuning: nfsperf_client::ClientTuning::full_patch(),
                transport: Transport::Udp,
                ..MountConfig::default()
            },
        );
        machines.push((kernel, mount, cnic));
    }
    let writes_per_fly = (config.bytes_per_client / calibration.model.write_payload).max(1) as u32;
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        calibration.model.clone(),
        FlyTierConfig {
            client_nic: config.client_nic,
            seed: config.seed ^ 0x666c_7977_6569_6768,
            engine: config.engine,
            ..FlyTierConfig::new(config.flyweights, writes_per_fly, config.client_nic)
        },
    );
    let bytes = config.bytes_per_client;
    let mounts: Vec<_> = machines.iter().map(|(_, m, _)| Rc::clone(m)).collect();
    let s2 = sim.clone();
    let t2 = Rc::clone(&tier);
    let (elapsed, per_faithful) = sim.run_until(async move {
        let t0 = s2.now();
        let workers: Vec<_> = mounts
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                s2.spawn(write_and_close(
                    m,
                    s2.clone(),
                    format!("mega{i}.scratch"),
                    bytes,
                    t0,
                ))
            })
            .collect();
        let mut per = Vec::with_capacity(workers.len());
        for w in workers {
            per.push(w.await);
        }
        t2.wait_done().await;
        (s2.now().since(t0), per)
    });
    let faithful_server = server.per_client_stats();
    let run = MegaRun {
        flyweights: config.flyweights,
        faithful: config.faithful,
        aggregate_mbps: mbps(server.stats().write_bytes, elapsed),
        faithful_mbps: per_faithful.iter().map(|e| mbps(bytes, *e)).collect(),
        fly_mbps: tier.per_client_mbps(),
        fly_rpc_p99_ms: tier.rpc_latency().p99.as_nanos() as f64 / 1e6,
        faithful_svc_p99_ms: faithful_server
            .iter()
            .map(|c| c.service.p99.as_nanos() as f64 / 1e6)
            .fold(0.0, f64::max),
        events: sim.events(),
        bytes_per_client: tier.bytes_per_client(),
        elapsed,
        server_stats: server.stats(),
        slim_stats: server.slim_stats(),
        faithful_server,
    };
    let mut counts = Counts {
        events: run.events,
        app_writes: config.faithful as u64 * bytes.div_ceil(8192),
        ..Counts::default()
    };
    for (kernel, mount, nic) in &machines {
        counts.add_client(kernel, mount, nic);
    }
    Mirror {
        figures: mega_figures(&run),
        counts,
        fly_bytes_per_client: run.bytes_per_client,
    }
}
