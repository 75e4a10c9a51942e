//! Ablations beyond the paper's exhibits: parameter sweeps over the
//! design choices DESIGN.md calls out.

use nfsperf_client::ClientTuning;
use nfsperf_server::BackendConfig;

use crate::render::{Figure, Series};
use crate::scenario::{run_bonnie, write_throughput_mbps, Scenario, ServerKind};

/// Sweeps `MAX_REQUEST_SOFT`: how the stock flush limit trades spike
/// magnitude against spike frequency. Returns `(limit, write MB/s,
/// spikes)` per point.
pub fn soft_limit_sweep(limits: &[usize]) -> Vec<(usize, f64, usize)> {
    let size = 10 << 20;
    limits
        .iter()
        .map(|&limit| {
            let mut scenario = Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer);
            scenario.mount.soft_limit = limit;
            scenario.mount.hard_limit = limit.max(256) * 2;
            let out = run_bonnie(&scenario, size);
            let spikes = out.report.spikes(nfsperf_sim::SimDuration::from_millis(1));
            (limit, out.report.write_mbps(), spikes)
        })
        .collect()
}

/// Sweeps the RPC slot-table size with the patched client against the
/// filer: more slots feed the server harder but expose more reply work.
pub fn slot_table_sweep(slots: &[usize]) -> Figure {
    let size = 10 << 20;
    let mut flush_points = Vec::new();
    let mut write_points = Vec::new();
    for &n in slots {
        let mut scenario = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
        scenario.mount.slots = n;
        scenario.record_latencies = false;
        let out = run_bonnie(&scenario, size);
        write_points.push((n as f64, out.report.write_mbps()));
        flush_points.push((n as f64, out.report.flush_mbps()));
    }
    Figure {
        series: vec![
            Series::new("write throughput", write_points),
            Series::new("through flush", flush_points),
        ],
        x_label: "RPC slot table size".into(),
        y_label: "throughput (MB/s)".into(),
    }
}

/// Jumbo-frame ablation (the paper's future work): write throughput and
/// fragment counts at MTU 1500 vs 9000.
pub struct MtuAblation {
    /// Write throughput at MTU 1500, MB/s.
    pub standard_mbps: f64,
    /// Write throughput at MTU 9000, MB/s.
    pub jumbo_mbps: f64,
    /// Fragments per WRITE RPC at MTU 1500.
    pub standard_frags_per_rpc: f64,
    /// Fragments per WRITE RPC at MTU 9000.
    pub jumbo_frags_per_rpc: f64,
}

/// Runs the MTU ablation (flush-bound 20 MB run against the filer).
pub fn mtu_ablation() -> MtuAblation {
    let size = 20 << 20;
    let mut standard = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
    standard.record_latencies = false;
    let mut jumbo = standard.clone().with_jumbo_frames();
    jumbo.record_latencies = false;
    let s = run_bonnie(&standard, size);
    let j = run_bonnie(&jumbo, size);
    MtuAblation {
        standard_mbps: s.report.write_mbps(),
        jumbo_mbps: j.report.write_mbps(),
        standard_frags_per_rpc: s.fragments_sent as f64 / s.xprt_stats.calls.max(1) as f64,
        jumbo_frags_per_rpc: j.fragments_sent as f64 / j.xprt_stats.calls.max(1) as f64,
    }
}

/// Sweeps the filer's NVRAM size: how far past client RAM the high
/// throughput plateau of Figure 7 extends. File size fixed at 300 MB
/// (just past the client's 256 MB).
pub fn nvram_sweep(capacities: &[u64]) -> Vec<(u64, f64)> {
    let size = 300 << 20;
    capacities
        .iter()
        .map(|&cap| {
            let mut scenario = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
            scenario.record_latencies = false;
            if let BackendConfig::Filer {
                ref mut nvram_capacity,
                ..
            } = scenario.server_config.backend
            {
                *nvram_capacity = cap;
            }
            (cap, write_throughput_mbps(&scenario, size))
        })
        .collect()
}

/// One versus two client CPUs under the lock-holding RPC layer: SMP is
/// where the BKL contention bites (paper §3.5).
pub struct CpuAblation {
    /// Memory write throughput on one CPU, MB/s.
    pub one_cpu_mbps: f64,
    /// On two CPUs.
    pub two_cpu_mbps: f64,
    /// Writer lock wait per call on one CPU, ns.
    pub one_cpu_wait_ns: u64,
    /// On two CPUs.
    pub two_cpu_wait_ns: u64,
}

/// Runs the CPU-count ablation (5 MB against the filer, BKL held).
pub fn cpu_ablation() -> CpuAblation {
    let size = 5 << 20;
    let run = |ncpus: usize| {
        let mut scenario = Scenario::new(ClientTuning::hash_table(), ServerKind::Filer);
        scenario.ncpus = ncpus;
        scenario.record_latencies = false;
        let out = run_bonnie(&scenario, size);
        let calls = (size / 8192).max(1);
        (
            out.report.write_mbps(),
            out.lock_stats.total_wait.as_nanos() / calls,
        )
    };
    let (one_mbps, one_wait) = run(1);
    let (two_mbps, two_wait) = run(2);
    CpuAblation {
        one_cpu_mbps: one_mbps,
        two_cpu_mbps: two_mbps,
        one_cpu_wait_ns: one_wait,
        two_cpu_wait_ns: two_wait,
    }
}

/// Sweeps the COMMIT threshold against the Linux server: too eager and
/// the disk seeks constantly; too lazy and memory stays pinned.
pub fn commit_threshold_sweep(thresholds: &[u64]) -> Vec<(u64, f64)> {
    let size = 20 << 20;
    thresholds
        .iter()
        .map(|&t| {
            let mut scenario = Scenario::new(ClientTuning::full_patch(), ServerKind::Knfsd);
            scenario.mount.commit_threshold = t;
            scenario.record_latencies = false;
            let out = run_bonnie(&scenario, size);
            (t, out.report.flush_mbps())
        })
        .collect()
}

/// Sweeps the mount's `wsize`: larger transfers amortise the per-RPC
/// `sock_sendmsg` cost (fewer, bigger datagrams) at the price of more
/// fragments per datagram.
pub fn wsize_sweep(wsizes: &[u32]) -> Vec<(u32, f64, f64)> {
    let size = 20 << 20;
    wsizes
        .iter()
        .map(|&w| {
            let mut scenario = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
            scenario.mount.wsize = w;
            scenario.record_latencies = false;
            let out = run_bonnie(&scenario, size);
            (w, out.report.write_mbps(), out.report.flush_mbps())
        })
        .collect()
}

/// Compares the sequential and random-offset workloads across the two
/// request indexes: random writes rewrite pages, exercising the merge
/// path, and the sorted list hurts in both patterns.
pub struct WorkloadComparison {
    /// Mean write() latency, sequential workload, sorted list.
    pub seq_list_us: f64,
    /// Sequential, hash table.
    pub seq_hash_us: f64,
    /// Random offsets, sorted list.
    pub rand_list_us: f64,
    /// Random offsets, hash table.
    pub rand_hash_us: f64,
}

/// Runs the workload-pattern comparison (16 MB of writes over a 32 MB
/// region for the random case).
pub fn workload_comparison() -> WorkloadComparison {
    use nfsperf_bonnie::RandomConfig;

    let seq = |tuning: ClientTuning| {
        let mut s = Scenario::new(tuning, ServerKind::Filer);
        s.record_latencies = true;
        let out = run_bonnie(&s, 16 << 20);
        out.report.mean_latency().as_micros_f64()
    };
    let rand = |tuning: ClientTuning| {
        let scenario = Scenario::new(tuning, ServerKind::Filer);
        let out = crate::scenario::run_custom(&scenario, move |sim, file| async move {
            let config = RandomConfig::new(32 << 20, 16 << 20);
            nfsperf_bonnie::run_random(&sim, &file, &config).await
        });
        out.mean_latency().as_micros_f64()
    };
    WorkloadComparison {
        seq_list_us: seq(ClientTuning::no_flush()),
        seq_hash_us: seq(ClientTuning::hash_table()),
        rand_list_us: rand(ClientTuning::no_flush()),
        rand_hash_us: rand(ClientTuning::hash_table()),
    }
}
