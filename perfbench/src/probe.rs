//! Per-layer probes: each times one layer's public functions in host
//! nanoseconds per operation, driven at the shape the workload measured
//! (its client count, index size, sample count, transfer size).
//!
//! A probe repeats its loop [`REPS`] times and reports the median, so a
//! single descheduling does not move it.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use nfsperf_client::{IndexKind, NfsPageReq, RequestIndex};
use nfsperf_fleet::{calibrate, CalibrationConfig};
use nfsperf_net::{PortPolicy, PortTicket};
use nfsperf_nfs3::{FileHandle, StableHow, Write3Args};
use nfsperf_server::sched::{OpClass, ReqMeta, ServiceEngine};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::{yield_now, LatencyDigest, Sim, SimDuration, SimLock, SimRng, SimTime};
use nfsperf_sunrpc::{AuthUnix, RecordReader};
use nfsperf_tcp::segment::Segment;

use crate::mirror::Mirror;
use crate::workload::{Inputs, Scale};

/// Timed repetitions of every probe loop; the median is reported.
const REPS: usize = 5;

/// The workload parameters each probe is driven at.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Faithful clients: concurrent sleeping tasks and server flows.
    pub faithful: usize,
    /// Every client, flyweights included: pending direct events and
    /// port-queue depth.
    pub all_clients: usize,
    /// CPUs per client machine, the BKL's contenders.
    pub cpus: usize,
    /// Samples in the workload's largest latency series.
    pub digest_samples: usize,
    /// Peak request-index size of one client, in pages.
    pub index_pages: usize,
    /// The client's request-index implementation.
    pub index_kind: IndexKind,
    /// WRITE payload bytes per RPC.
    pub wsize: u32,
    /// The server's scheduling policy.
    pub server_sched: SchedPolicy,
    /// The server's concurrent service slots.
    pub server_slots: usize,
    /// The calibration probe the workload's server would take.
    pub calibration: CalibrationConfig,
    /// Loop sizes: the full probe or a quick one for the smoke tests.
    pub scale: Scale,
}

impl Shape {
    /// The shape `inputs` ran at, with sizes the mirror world measured.
    pub fn of(inputs: &Inputs, mirror: &Mirror, scale: Scale) -> Shape {
        let (server, tuning, wsize, cpus, client_nic) = match inputs {
            Inputs::Paper { scenario, .. } => (
                scenario.server,
                scenario.mount.tuning,
                scenario.mount.wsize,
                scenario.ncpus,
                scenario.client_nic,
            ),
            Inputs::Fleet(c) => (c.server, c.tuning, 8192, 2, c.client_nic),
            Inputs::Mega(c) => (
                c.server,
                nfsperf_client::ClientTuning::full_patch(),
                8192,
                2,
                c.client_nic,
            ),
        };
        let mut server_config = server.server_config();
        if let Inputs::Fleet(c) = inputs {
            server_config.sched = c.sched;
        }
        let per_client_writes =
            (mirror.counts.app_writes / inputs.faithful_clients() as u64) as usize;
        let flyweights = inputs.all_clients() - inputs.faithful_clients();
        Shape {
            faithful: inputs.faithful_clients(),
            all_clients: inputs.all_clients(),
            cpus,
            digest_samples: per_client_writes.max(flyweights),
            index_pages: mirror.counts.peak_dirty_pages.max(1),
            index_kind: tuning.index,
            wsize,
            server_sched: server_config.sched,
            server_slots: server_config.concurrency,
            calibration: CalibrationConfig {
                client_nic,
                seed: inputs.seed(),
                ..CalibrationConfig::new(server_config, server.nic_spec())
            },
            scale,
        }
    }

    /// Scales a full-size loop count down for smoke runs.
    fn ops(&self, full: u64) -> u64 {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => (full / 100).max(10),
        }
    }
}

/// Median host nanoseconds per operation of `body`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: u64, mut body: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::report::median(&mut samples)
}

/// `Sim::sleep` schedule and fire, `faithful` tasks sleeping at once.
pub fn sim_sleep(shape: &Shape) -> f64 {
    let tasks = shape.faithful as u64;
    let per_task = shape.ops(400_000) / tasks + 1;
    ns_per_op(tasks * per_task, || {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let handles: Vec<_> = (0..tasks)
                .map(|t| {
                    let s2 = s.clone();
                    s.spawn(async move {
                        for _ in 0..per_task {
                            s2.sleep(SimDuration::from_nanos(100 + t)).await;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
        sim.events()
    })
}

/// `Sim::schedule_direct` plus dispatch with one event pending per client
/// (about a million on `megafleet_1m`): each fire re-arms itself until
/// the budget is spent.
pub fn sim_direct_event(shape: &Shape) -> f64 {
    let pending = match shape.scale {
        Scale::Full => shape.all_clients,
        Scale::Smoke => shape.all_clients.min(1_000),
    } as u64;
    let refires = shape.ops(1_000_000);
    ns_per_op(pending + refires, || {
        let sim = Sim::new();
        let budget = Rc::new(Cell::new(refires));
        let rng = SimRng::new(pending);
        let spread = pending * 1_000;
        let (s2, b2) = (sim.clone(), Rc::clone(&budget));
        let id = Rc::new(Cell::new(None));
        let id2 = Rc::clone(&id);
        let handler = sim.register_event_handler(Rc::new(move |data: u64| {
            if b2.get() > 0 {
                b2.set(b2.get() - 1);
                let next = s2.now()
                    + SimDuration::from_nanos(1 + (data.wrapping_mul(0x9e37_79b9) % spread));
                s2.schedule_direct(next, id2.get().expect("handler id"), data + 1);
            }
        }));
        id.set(Some(handler));
        for i in 0..pending {
            let at = SimTime::ZERO + SimDuration::from_nanos(1 + rng.uniform_u64(0, spread));
            sim.schedule_direct(at, handler, i);
        }
        let s3 = sim.clone();
        sim.run_until(async move { s3.sleep(SimDuration::from_secs_f64(1e6)).await });
        sim.clear_event_handler(handler);
        sim.events()
    })
}

/// `Sim::spawn` of a task that completes on its first poll, then join.
pub fn sim_spawn(shape: &Shape) -> f64 {
    let n = shape.ops(200_000);
    ns_per_op(n, || {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let mut total = 0u64;
            for i in 0..n {
                total += s.spawn(async move { i }).await;
            }
            total
        })
    })
}

/// `SimLock` acquire and release (the BKL), one contender per CPU.
pub fn sim_lock(shape: &Shape) -> f64 {
    let tasks = shape.cpus.max(1) as u64;
    let per_task = shape.ops(400_000) / tasks + 1;
    ns_per_op(tasks * per_task, || {
        let sim = Sim::new();
        let lock = Rc::new(SimLock::new(&sim));
        let s = sim.clone();
        let l2 = Rc::clone(&lock);
        sim.run_until(async move {
            let handles: Vec<_> = (0..tasks)
                .map(|_| {
                    let l3 = Rc::clone(&l2);
                    s.spawn(async move {
                        for _ in 0..per_task {
                            let guard = l3.lock("probe").await;
                            yield_now().await;
                            drop(guard);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
        lock.stats().acquisitions
    })
}

/// One `LatencyDigest::of` call over the workload's largest series.
pub fn sim_digest(shape: &Shape) -> f64 {
    let n = match shape.scale {
        Scale::Full => shape.digest_samples,
        Scale::Smoke => shape.digest_samples.min(10_000),
    };
    let rng = SimRng::new(n as u64);
    let samples: Vec<SimDuration> = (0..n)
        .map(|_| SimDuration::from_nanos(rng.uniform_u64(10_000, 50_000_000)))
        .collect();
    let calls = (2_000_000 / n.max(1)).clamp(1, 200) as u64;
    ns_per_op(calls, || {
        (0..calls)
            .map(|_| LatencyDigest::of(black_box(&samples)).p99.as_nanos())
            .sum()
    })
}

/// `RequestIndex` remove (oldest page) + find + insert (next page) at the
/// client's peak index size: a sequential writer's steady churn.
pub fn core_index_churn(shape: &Shape) -> f64 {
    let size = shape.index_pages as u64;
    let n = shape.ops(100_000);
    let mut index = RequestIndex::new(shape.index_kind);
    for page in 0..size {
        index.insert(NfsPageReq::new(page, 0, 4096, SimTime::ZERO));
    }
    let mut next = size;
    ns_per_op(n, || {
        let mut walked = 0;
        for _ in 0..n {
            index.remove(next - size);
            walked += index.find(black_box(next)).scanned;
            walked += index.insert(NfsPageReq::new(next, 0, 4096, SimTime::ZERO));
            next += 1;
        }
        walked as u64
    })
}

fn write3_args(shape: &Shape) -> Write3Args {
    Write3Args::new(
        FileHandle::for_fileid(7),
        0,
        shape.wsize,
        StableHow::Unstable,
    )
}

/// Encoding one WRITE3 call message (RPC header + NFS args + payload).
pub fn sunrpc_encode_write3(shape: &Shape) -> f64 {
    let cred = AuthUnix::root_on("perfbench");
    let args = write3_args(shape);
    let n = shape.ops(200_000);
    ns_per_op(n, || {
        (0..n)
            .map(|xid| {
                nfsperf_sunrpc::encode_call(black_box(xid as u32), 100_003, 3, 7, &cred, &args)
                    .len() as u64
            })
            .sum()
    })
}

/// Decoding one WRITE3 call message back into its header and args.
pub fn sunrpc_decode_write3(shape: &Shape) -> f64 {
    let cred = AuthUnix::root_on("perfbench");
    let msg = nfsperf_sunrpc::encode_call(1, 100_003, 3, 7, &cred, &write3_args(shape));
    let n = shape.ops(200_000);
    ns_per_op(n, || {
        (0..n)
            .map(|_| {
                let (hdr, mut dec) =
                    nfsperf_sunrpc::decode_call(black_box(&msg)).expect("call header");
                let w =
                    <Write3Args as nfsperf_xdr::XdrDecode>::decode(&mut dec).expect("write args");
                u64::from(hdr.xid) + u64::from(w.count)
            })
            .sum()
    })
}

/// TCP record marking of one WRITE3 call: `encode_record` then
/// `RecordReader` reassembly.
pub fn sunrpc_record(shape: &Shape) -> f64 {
    let cred = AuthUnix::root_on("perfbench");
    let msg = nfsperf_sunrpc::encode_call(1, 100_003, 3, 7, &cred, &write3_args(shape));
    let n = shape.ops(200_000);
    ns_per_op(n, || {
        let mut reader = RecordReader::new();
        (0..n)
            .map(|_| {
                reader.push(&nfsperf_sunrpc::encode_record(black_box(&msg)));
                reader.next_record().expect("whole record").len() as u64
            })
            .sum()
    })
}

/// `Segment::encode` plus `Segment::decode` of one full-MSS data segment.
pub fn tcp_segment_codec(shape: &Shape) -> f64 {
    let seg = Segment {
        conn_id: 1,
        seq: 1,
        ack: 1,
        flags: 0x10,
        payload: vec![0xa5; 1448],
    };
    let n = shape.ops(400_000);
    ns_per_op(n, || {
        (0..n)
            .map(|_| {
                let bytes = black_box(black_box(&seg).encode());
                black_box(Segment::decode(&bytes).expect("segment"))
                    .payload
                    .len() as u64
            })
            .sum()
    })
}

/// A fabric lane's `PortSched` enqueue + `pick_next`, with one ticket per
/// client already queued.
pub fn net_port_fifo(shape: &Shape) -> f64 {
    let depth = match shape.scale {
        Scale::Full => shape.all_clients,
        Scale::Smoke => shape.all_clients.min(1_000),
    } as u32;
    let sched = PortPolicy::Fifo.build();
    for flow in 0..depth {
        sched.enqueue(PortTicket::new(flow, 1_514));
    }
    let n = shape.ops(1_000_000);
    let mut flow = 0u32;
    ns_per_op(n, || {
        let mut picked = 0u64;
        for _ in 0..n {
            sched.enqueue(PortTicket::new(flow, 1_514));
            flow = (flow + 1) % depth.max(1);
            picked += u64::from(sched.pick_next().expect("queued ticket").flow());
        }
        picked
    })
}

/// One WRITE-sized datagram through the payload pool: `pool_copy` then
/// `pool_put`.
pub fn net_payload_pool(shape: &Shape) -> f64 {
    let payload = vec![0x5a; shape.wsize as usize + 128];
    let n = shape.ops(1_000_000);
    ns_per_op(n, || {
        (0..n)
            .map(|_| {
                let buf = nfsperf_net::frame::pool_copy(black_box(&payload));
                let len = buf.len() as u64;
                nfsperf_net::frame::pool_put(buf);
                len
            })
            .sum()
    })
}

/// `ServiceEngine::admit` → serve → release under the server's policy,
/// one requesting task per faithful client, slots as configured.
pub fn server_sched(shape: &Shape) -> f64 {
    let flows = shape.faithful as u64;
    let per_flow = shape.ops(200_000) / flows + 1;
    let (policy, slots) = (shape.server_sched, shape.server_slots);
    ns_per_op(flows * per_flow, || {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, slots, policy);
        engine.set_sample_cap(0);
        let s = sim.clone();
        sim.run_until(async move {
            let handles: Vec<_> = (0..flows)
                .map(|client| {
                    let (s2, e2) = (s.clone(), Rc::clone(&engine));
                    s.spawn(async move {
                        for _ in 0..per_flow {
                            let meta = ReqMeta {
                                client: client as usize,
                                class: OpClass::Write,
                                bytes: 8192,
                                arrival: s2.now(),
                            };
                            let slot = e2.admit(meta).await;
                            s2.sleep(SimDuration::from_nanos(1_000)).await;
                            drop(slot);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
            engine.served_bytes()
        })
    })
}

/// Host seconds of one public `calibrate` call for the workload's server.
pub fn fleet_calibrate(shape: &Shape) -> f64 {
    let reps = match shape.scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(calibrate(&shape.calibration).model.window);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::report::median(&mut samples)
}
