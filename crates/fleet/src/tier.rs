//! The flyweight tier: up to a million behavioral clients in a slab.
//!
//! Per client the tier keeps one [`FlyClient`] record (~64 bytes: an RNG
//! cursor, an emission clock, three virtual NIC clocks, two timestamps,
//! two counters) — no pages, no flushd, no per-request locks, no NIC or
//! mount objects. Each in-flight RPC is one [`FlyRpc`] slab record
//! advanced by timed events straight off the executor's wheel (no
//! future, no task): wait for the calibrated emission time, traverse the
//! real aggregation and core uplinks (queueing behind every other
//! client, faithful ones included), drain through the per-client
//! server-port clock, run the server's flyweight service path (real
//! slots, NVRAM, checkpoints, dirty cache), then unwind the reply the
//! same way. Completion refills the client's outstanding-RPC window,
//! which emits the next requests — so the record slab tracks in-flight
//! RPCs, not client count.
//!
//! A million-client launch burst holds a million records at once, so a
//! record keeps only what cannot be derived (80 bytes): its client, op,
//! stage, emission time, free-list link and one [`Hop`] — the lane
//! admission *or* the server op, whichever the stage says is live.
//! Datagram sizes follow from `(op, stage)`, and the record's waker is
//! built on demand from its index ([`Sim::direct_waker`]).
//!
//! Per-client serialization that a real NIC would impose (receive drain
//! at the server port, transmit of the reply, receive at the client) is
//! modelled with virtual clocks: `free = max(now, free) + drain_time`,
//! exactly the arithmetic a dedicated `Nic` object's semaphore-plus-
//! sleep performs, without the object.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use nfsperf_net::{wire_bytes, Fabric, LaneAdmit, LinkDir, NicSpec};
use nfsperf_server::{FlyStep, FlyweightOp, NfsServer};
use nfsperf_sim::{mbps, EventHandlerId, Gate, LatencyDigest, Sim, SimDuration, SimTime};

use crate::model::{splitmix64, BehaviorModel, FlyOp};

/// UDP payload bytes of a WRITE reply (status + WCC + verifier framing).
const WRITE_REPLY_BYTES: usize = 160;
/// UDP payload bytes of a COMMIT reply.
const COMMIT_REPLY_BYTES: usize = 128;

/// One flyweight client's entire state. Kept `repr(C)` and packed into
/// a slab; the memory-accounting test holds its size (and the tier's
/// shared overhead amortized per client) under 256 bytes.
#[repr(C)]
#[derive(Clone)]
struct FlyClient {
    /// SplitMix64 cursor for gap sampling and start jitter.
    rng: u64,
    /// Next unconstrained emission time, ns.
    planned: u64,
    /// Server-port receive-drain virtual clock, ns.
    port_rx_free: u64,
    /// Server-port reply-transmit virtual clock, ns.
    port_tx_free: u64,
    /// Client-NIC receive-drain virtual clock, ns.
    cli_rx_free: u64,
    /// When the first RPC left, ns (throughput denominator).
    first_emit: u64,
    /// When the last reply finished draining, ns.
    finish: u64,
    /// RPCs emitted so far.
    emitted: u32,
    /// RPCs completed so far.
    completed: u32,
}

/// Which machinery advances each of the tier's RPCs. Only one engine
/// remains; the type (and the `engine` fields that carry it) stays so
/// that callers written against the former two-engine API, such as the
/// host-time benchmark's mirror world, keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierEngine {
    /// One slab record per RPC advanced by timed events straight off the
    /// executor's wheel — no future, no task, no per-RPC allocation.
    Events,
}

/// Parameters of one flyweight tier.
#[derive(Debug, Clone)]
pub struct FlyTierConfig {
    /// Number of flyweight clients.
    pub clients: u32,
    /// WRITEs each client emits (COMMITs are added per the model's
    /// ratio, plus the close-time flush).
    pub writes_per_client: u32,
    /// Each client's NIC spec (frames requests, drains replies).
    pub client_nic: NicSpec,
    /// The per-client server-port spec (normally the server NIC's rate).
    pub port_nic: NicSpec,
    /// Tier RNG seed; each client derives its own cursor.
    pub seed: u64,
    /// First emissions are jittered uniformly over this span — a million
    /// clients do not mount in the same nanosecond.
    pub start_spread: SimDuration,
    /// Record every `latency_stride`-th WRITE's client-observed RPC
    /// latency into the shared digest pool (1 = record all; raise it so
    /// a million clients share one bounded pool).
    pub latency_stride: u32,
    /// Upper bound on the model's outstanding-RPC window (`u32::MAX` to
    /// take the calibrated window as-is).
    pub window_cap: u32,
    /// Which machinery advances each RPC; always
    /// [`TierEngine::Events`] (see there for why the field remains).
    pub engine: TierEngine,
}

impl FlyTierConfig {
    /// A tier of `clients` fast-Ethernet flyweights against a server
    /// port of `port_nic`, with stride and spread scaled to the tier
    /// size.
    pub fn new(clients: u32, writes_per_client: u32, port_nic: NicSpec) -> FlyTierConfig {
        FlyTierConfig {
            clients,
            writes_per_client,
            client_nic: NicSpec::fast_ethernet(),
            port_nic,
            seed: 0x1f5,
            // 2 µs of spread per client: 1k clients arrive inside 2 ms,
            // 1M inside 2 s — staggered, but fast enough to saturate.
            start_spread: SimDuration((clients as u64).max(1) * 2_000),
            latency_stride: (clients / 1024).max(1),
            window_cap: u32::MAX,
            engine: TierEngine::Events,
        }
    }
}

/// Everything measured from a finished tier.
#[derive(Debug, Clone)]
pub struct FlyTierRun {
    /// Each client's achieved throughput, MB/s, in client order.
    pub per_client_mbps: Vec<f64>,
    /// Client-observed WRITE RPC latency digest (strided shared pool).
    pub rpc_latency: LatencyDigest,
    /// Time from the first emission to the last completion.
    pub elapsed: SimDuration,
    /// Estimated resident bytes per client (slab + amortized shares).
    pub bytes_per_client: usize,
}

/// Resume point of one event-driven RPC: each variant names what the
/// record does when its next event dispatches.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RpcStage {
    /// Waiting for the emission instant (`sleep_until(at)`).
    Start,
    /// Emission time reached: size the datagram, start admission.
    Launch,
    /// Queued for the aggregation uplink (request direction).
    AggAdmit,
    /// Aggregation wire time slept; release and move to the core.
    AggXfer,
    /// Queued for the core uplink (request direction).
    CoreAdmit,
    /// Core wire time slept; release and propagate.
    CoreXfer,
    /// Fabric latency slept; drain into the server port.
    PortDrain,
    /// Port drain slept; yield once before the server queue.
    HandOff,
    /// Driving the server's flyweight op to completion.
    Service,
    /// Reply transmit clock slept; start the core reply admission.
    CoreRStart,
    /// Queued for the core uplink (reply direction).
    CoreRAdmit,
    /// Core reply wire time slept.
    CoreRXfer,
    /// Queued for the aggregation uplink (reply direction).
    AggRAdmit,
    /// Aggregation reply wire time slept.
    AggRXfer,
    /// Fabric latency slept; drain into the client NIC.
    CliDrain,
    /// Client drain slept; retire the RPC.
    Complete,
}

impl RpcStage {
    /// Whether the record carries the reply (the server has answered).
    fn is_reply(self) -> bool {
        self as u8 > RpcStage::Service as u8
    }
}

/// The hop an RPC is traversing. A record is never queued at a fabric
/// lane and in the server at once, so one variant holds whichever is
/// live: [`Hop::Server`] from [`RpcStage::Service`] entry until the
/// reply starts its core admission, [`Hop::Lane`] otherwise. The tag
/// costs no bytes (it sits in a niche of the server op).
enum Hop {
    /// Admission scratch for the fabric lane being traversed.
    Lane(LaneAdmit),
    /// The server-side op.
    Server(FlyweightOp),
}

impl Hop {
    fn lane(&mut self) -> &mut LaneAdmit {
        match self {
            Hop::Lane(lane) => lane,
            Hop::Server(_) => unreachable!("a lane stage holds a lane admission"),
        }
    }
}

/// Payload and wire bytes of one datagram kind.
#[derive(Clone, Copy)]
struct Datagram {
    payload: usize,
    wire: usize,
}

/// One in-flight event-driven RPC. Records live in a free-listed slab
/// sized by peak concurrent RPCs. Transient, so not part of the tier's
/// resident per-client accounting ([`FlyTier::bytes_per_client`]).
///
/// Everything derivable is left out: the datagram sizes follow from
/// `(op, stage)` ([`FlyTier::datagram`]), and the waker that parks the
/// record is built on demand from its index ([`Sim::direct_waker`]).
struct FlyRpc {
    /// When the request left the client (latency numerator start).
    emitted_at: SimTime,
    /// Owning client's tier index.
    idx: u32,
    /// Free-list link (`u32::MAX` = end).
    next_free: u32,
    op: FlyOp,
    stage: RpcStage,
    hop: Hop,
}

impl FlyRpc {
    fn vacant() -> FlyRpc {
        FlyRpc {
            emitted_at: SimTime::ZERO,
            idx: 0,
            next_free: u32::MAX,
            op: FlyOp::Write,
            stage: RpcStage::Start,
            hop: Hop::Lane(LaneAdmit::start(SimTime::ZERO)),
        }
    }
}

/// The RPC slab plus its free-list head.
struct RpcSlab {
    slots: Vec<FlyRpc>,
    free_head: u32,
}

/// A running flyweight tier. Create with [`FlyTier::launch`], then
/// `await` [`FlyTier::wait_done`] inside the simulation. The returned
/// handle is what keeps the tier alive: its event handler holds only a
/// weak reference, so a tier dropped mid-run stops dispatching.
pub struct FlyTier {
    sim: Sim,
    server: Rc<NfsServer>,
    fabric: Rc<Fabric>,
    config: FlyTierConfig,
    model: BehaviorModel,
    /// Datagram sizes by [`FlyTier::datagram`]'s index: request WRITE,
    /// request COMMIT, reply WRITE, reply COMMIT.
    datagrams: [Datagram; 4],
    window: u32,
    total_ops: u32,
    fabric_base: u32,
    server_base: usize,
    slab: RefCell<Vec<FlyClient>>,
    rpcs: RefCell<RpcSlab>,
    handler: EventHandlerId,
    latencies: RefCell<Vec<SimDuration>>,
    lat_counter: Cell<u64>,
    clients_done: Cell<u32>,
    finished: Gate,
}

impl FlyTier {
    /// Registers `config.clients` flyweights with the fabric and the
    /// server (faithful clients must be attached first) and emits each
    /// client's first request at its jittered start time.
    pub fn launch(
        sim: &Sim,
        server: &Rc<NfsServer>,
        fabric: &Rc<Fabric>,
        model: BehaviorModel,
        config: FlyTierConfig,
    ) -> Rc<FlyTier> {
        assert!(config.clients > 0, "a tier needs at least one client");
        let fabric_base = fabric.alloc_ids(config.clients);
        let server_base = server.register_slim_clients(config.clients as usize);
        let spread = config.start_spread.0.max(1);
        let mut slab = Vec::with_capacity(config.clients as usize);
        for i in 0..config.clients {
            let mut seed = config
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let jitter = splitmix64(&mut seed) % spread;
            slab.push(FlyClient {
                rng: seed,
                planned: jitter,
                port_rx_free: 0,
                port_tx_free: 0,
                cli_rx_free: 0,
                first_emit: 0,
                finish: 0,
                emitted: 0,
                completed: 0,
            });
        }
        let window = model.window.min(config.window_cap).max(1);
        let total_ops = model.total_ops(config.writes_per_client);
        assert!(total_ops > 0, "clients must emit at least one RPC");
        let finished = Gate::new();
        finished.close();
        let datagram = |payload, nic: NicSpec| Datagram {
            payload,
            wire: wire_bytes(payload, nic.mtu),
        };
        let datagrams = [
            datagram(model.write_wire_bytes, config.client_nic),
            datagram(model.commit_wire_bytes, config.client_nic),
            datagram(WRITE_REPLY_BYTES, config.port_nic),
            datagram(COMMIT_REPLY_BYTES, config.port_nic),
        ];
        let tier = Rc::new_cyclic(|tier: &Weak<FlyTier>| FlyTier {
            sim: sim.clone(),
            server: Rc::clone(server),
            fabric: Rc::clone(fabric),
            config,
            model,
            datagrams,
            window,
            total_ops,
            fabric_base,
            server_base,
            slab: RefCell::new(slab),
            rpcs: RefCell::new(RpcSlab {
                slots: Vec::new(),
                free_head: u32::MAX,
            }),
            handler: {
                // A weak back-reference: the handler table never keeps
                // the tier alive.
                let tier = Weak::clone(tier);
                sim.register_event_handler(Rc::new(move |data| {
                    if let Some(t) = tier.upgrade() {
                        t.step(data as u32);
                    }
                }))
            },
            latencies: RefCell::new(Vec::new()),
            lat_counter: Cell::new(0),
            clients_done: Cell::new(0),
            finished,
        });
        for i in 0..tier.config.clients {
            tier.try_emit(i);
        }
        tier
    }

    /// Resolves once every client has completed all of its RPCs.
    pub async fn wait_done(&self) {
        self.finished.pass().await;
    }

    /// Emits requests for client `idx` while its window has room: each
    /// emission claims the next planned departure time (never earlier
    /// than now) and advances the plan by a sampled gap. A COMMIT is a
    /// barrier — it waits for the client's in-flight WRITEs to drain,
    /// as the close-time flush does.
    fn try_emit(self: &Rc<Self>, idx: u32) {
        loop {
            let (op, at) = {
                let mut slab = self.slab.borrow_mut();
                let c = &mut slab[idx as usize];
                if c.emitted >= self.total_ops {
                    return;
                }
                let inflight = c.emitted - c.completed;
                if inflight >= self.window {
                    return;
                }
                let op = self.model.op_at(c.emitted, self.config.writes_per_client);
                if op == FlyOp::Commit && inflight > 0 {
                    return;
                }
                let at = c.planned.max(self.sim.now().as_nanos());
                c.planned = at + self.model.sample_gap(&mut c.rng).0;
                if c.emitted == 0 {
                    c.first_emit = at;
                }
                c.emitted += 1;
                (op, at)
            };
            let r = self.alloc_rpc(idx, op, SimTime(at));
            self.sim.post_event(self.handler, u64::from(r));
        }
    }

    /// Claims (or grows) an RPC record for one emission.
    fn alloc_rpc(&self, idx: u32, op: FlyOp, at: SimTime) -> u32 {
        let mut rpcs = self.rpcs.borrow_mut();
        let r = match rpcs.free_head {
            u32::MAX => {
                let r = u32::try_from(rpcs.slots.len()).expect("RPC records exceed 32 bits");
                rpcs.slots.push(FlyRpc::vacant());
                r
            }
            head => {
                rpcs.free_head = rpcs.slots[head as usize].next_free;
                head
            }
        };
        let rpc = &mut rpcs.slots[r as usize];
        rpc.emitted_at = at;
        rpc.idx = idx;
        rpc.next_free = u32::MAX;
        rpc.op = op;
        rpc.stage = RpcStage::Start;
        r
    }

    /// The datagram `rpc` is carrying: its request until the server
    /// answers, then the reply.
    fn datagram(&self, rpc: &FlyRpc) -> Datagram {
        self.datagrams[rpc.op as usize + 2 * usize::from(rpc.stage.is_reply())]
    }

    /// Schedules RPC `data`'s next dispatch at `deadline` and returns
    /// `true`; returns `false` when the deadline is not in the future,
    /// in which case the caller continues inline without touching the
    /// wheel.
    fn sleep_then(&self, deadline: SimTime, data: u64) -> bool {
        if deadline > self.sim.now() {
            // Stage hops are never cancelled, so the timer can carry the
            // dispatch itself — no slab slot, no ready-queue round trip.
            self.sim.schedule_direct(deadline, self.handler, data);
            true
        } else {
            false
        }
    }

    /// Advances one event-driven RPC until it parks in a wait queue,
    /// schedules its next dispatch, or retires.
    fn step(self: &Rc<Self>, r: u32) {
        let h = self.handler;
        let data = u64::from(r);
        let mut rpcs = self.rpcs.borrow_mut();
        let rpc = &mut rpcs.slots[r as usize];
        // Every park hands out a direct waker for this record, built on
        // demand from its index: no slab arm, no generation — safe
        // because each park is woken at most once and the record cannot
        // advance past the parked stage until that wake dispatches.
        let mut wf = || self.sim.direct_waker(h, r);
        let flow = self.fabric_base + rpc.idx;
        loop {
            match rpc.stage {
                RpcStage::Start => {
                    rpc.stage = RpcStage::Launch;
                    if rpc.emitted_at > self.sim.now() {
                        self.sim.schedule_direct(rpc.emitted_at, h, data);
                        return;
                    }
                }
                RpcStage::Launch => {
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::AggAdmit;
                }
                RpcStage::AggAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let wire = self.datagram(rpc).wire;
                    if !agg.poll_admit(rpc.hop.lane(), LinkDir::ToServer, flow, wire, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::AggXfer;
                    let done = self.sim.now() + agg.spec().transfer_time(wire);
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::AggXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToServer, self.datagram(rpc).payload);
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::CoreAdmit;
                }
                RpcStage::CoreAdmit => {
                    let core = self.fabric.core();
                    let wire = self.datagram(rpc).wire;
                    if !core.poll_admit(rpc.hop.lane(), LinkDir::ToServer, flow, wire, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::CoreXfer;
                    let done = self.sim.now() + core.spec().transfer_time(wire);
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::CoreXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToServer, self.datagram(rpc).payload);
                    rpc.stage = RpcStage::PortDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, data) {
                        return;
                    }
                }
                RpcStage::PortDrain => {
                    let wire = self.datagram(rpc).wire;
                    let drained =
                        self.advance_clock(rpc.idx, ClockId::PortRx, self.config.port_nic, wire);
                    rpc.stage = RpcStage::HandOff;
                    if self.sleep_then(drained, data) {
                        return;
                    }
                }
                RpcStage::HandOff => {
                    // Enter the server queue from a fresh dispatch, behind
                    // everything already woken at this instant. That
                    // order decides who the server serves first, so it
                    // is part of the model, pinned by the goldens.
                    rpc.stage = RpcStage::Service;
                    self.sim.post_event(h, data);
                    return;
                }
                RpcStage::Service => {
                    if let Hop::Lane(_) = rpc.hop {
                        let client = self.server_base + rpc.idx as usize;
                        rpc.hop = Hop::Server(match rpc.op {
                            FlyOp::Write => self
                                .server
                                .begin_flyweight_write(client, self.model.write_payload),
                            FlyOp::Commit => self.server.begin_flyweight_commit(client),
                        });
                    }
                    let Hop::Server(srv) = &mut rpc.hop else {
                        unreachable!("the service stage holds a server op")
                    };
                    loop {
                        match self.server.poll_flyweight(srv, &mut wf) {
                            FlyStep::Parked => return,
                            FlyStep::Sleep(d) => {
                                if d > SimDuration::ZERO {
                                    self.sim.schedule_direct(self.sim.now() + d, h, data);
                                    return;
                                }
                            }
                            FlyStep::Done => break,
                        }
                    }
                    rpc.stage = RpcStage::CoreRStart;
                    let wire = self.datagram(rpc).wire;
                    let sent =
                        self.advance_clock(rpc.idx, ClockId::PortTx, self.config.port_nic, wire);
                    if self.sleep_then(sent, data) {
                        return;
                    }
                }
                RpcStage::CoreRStart => {
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::CoreRAdmit;
                }
                RpcStage::CoreRAdmit => {
                    let core = self.fabric.core();
                    let wire = self.datagram(rpc).wire;
                    if !core.poll_admit(rpc.hop.lane(), LinkDir::ToClients, flow, wire, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::CoreRXfer;
                    let done = self.sim.now() + core.spec().transfer_time(wire);
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::CoreRXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToClients, self.datagram(rpc).payload);
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::AggRAdmit;
                }
                RpcStage::AggRAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let wire = self.datagram(rpc).wire;
                    if !agg.poll_admit(rpc.hop.lane(), LinkDir::ToClients, flow, wire, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::AggRXfer;
                    let done = self.sim.now() + agg.spec().transfer_time(wire);
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::AggRXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToClients, self.datagram(rpc).payload);
                    rpc.stage = RpcStage::CliDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, data) {
                        return;
                    }
                }
                RpcStage::CliDrain => {
                    let wire = self.datagram(rpc).wire;
                    let drained =
                        self.advance_clock(rpc.idx, ClockId::CliRx, self.config.client_nic, wire);
                    rpc.stage = RpcStage::Complete;
                    if self.sleep_then(drained, data) {
                        return;
                    }
                }
                RpcStage::Complete => break,
            }
        }
        // Free the record before completing: `try_emit` inside
        // `complete` may immediately reuse it for this client's next
        // emission, and `complete` must see the slab borrow released.
        let (idx, emitted_at, op) = (rpc.idx, rpc.emitted_at, rpc.op);
        rpcs.slots[r as usize].next_free = rpcs.free_head;
        rpcs.free_head = r;
        drop(rpcs);
        self.complete(idx, emitted_at, op);
    }

    /// Advances one of a client's virtual NIC clocks by `spec`'s
    /// transfer time for `wire` bytes and returns the new free instant —
    /// `max(now, free) + drain`, the arithmetic of a serializing NIC.
    fn advance_clock(&self, idx: u32, clock: ClockId, spec: NicSpec, wire: usize) -> SimTime {
        let mut slab = self.slab.borrow_mut();
        let c = &mut slab[idx as usize];
        let cell = match clock {
            ClockId::PortRx => &mut c.port_rx_free,
            ClockId::PortTx => &mut c.port_tx_free,
            ClockId::CliRx => &mut c.cli_rx_free,
        };
        let free = (*cell).max(self.sim.now().as_nanos()) + spec.transfer_time(wire).0;
        *cell = free;
        SimTime(free)
    }

    fn complete(self: &Rc<Self>, idx: u32, emitted_at: SimTime, op: FlyOp) {
        let now = self.sim.now();
        let finished_client = {
            let mut slab = self.slab.borrow_mut();
            let c = &mut slab[idx as usize];
            c.completed += 1;
            c.finish = now.as_nanos();
            c.completed == self.total_ops
        };
        if op == FlyOp::Write {
            let n = self.lat_counter.get();
            self.lat_counter.set(n + 1);
            if n.is_multiple_of(u64::from(self.config.latency_stride)) {
                self.latencies.borrow_mut().push(now.since(emitted_at));
            }
        }
        if finished_client {
            self.clients_done.set(self.clients_done.get() + 1);
            if self.clients_done.get() == self.config.clients {
                self.finished.open();
                // No RPC can arm another event now: retire the handler.
                self.sim.clear_event_handler(self.handler);
            }
        } else {
            self.try_emit(idx);
        }
    }

    /// Each client's achieved throughput (payload bytes over its own
    /// first-emission-to-last-reply span), MB/s.
    pub fn per_client_mbps(&self) -> Vec<f64> {
        let bytes = u64::from(self.config.writes_per_client) * self.model.write_payload;
        self.slab
            .borrow()
            .iter()
            .map(|c| mbps(bytes, SimTime(c.finish).since(SimTime(c.first_emit))))
            .collect()
    }

    /// Time from the tier's first emission to its last completion.
    pub fn elapsed(&self) -> SimDuration {
        let slab = self.slab.borrow();
        let first = slab.iter().map(|c| c.first_emit).min().unwrap_or(0);
        let last = slab.iter().map(|c| c.finish).max().unwrap_or(0);
        SimDuration(last.saturating_sub(first))
    }

    /// Digest of the strided client-observed WRITE RPC latencies.
    /// Sorts the shared pool in place (`of_mut`) instead of snapshotting
    /// it: percentiles are order-independent, and the megafleet render
    /// path calls this per cell — no reason to clone a pool that can be
    /// megabytes at a million clients.
    pub fn rpc_latency(&self) -> LatencyDigest {
        LatencyDigest::of_mut(&mut self.latencies.borrow_mut())
    }

    /// Estimated resident bytes per client: the slab record plus this
    /// client's amortized share of the shared latency pool, the model,
    /// and the fabric's per-stage state. The whole point of the tier —
    /// asserted ≤ 256 in tests and reported in the megafleet CSV.
    pub fn bytes_per_client(&self) -> usize {
        let n = self.config.clients as usize;
        let shared = self.latencies.borrow().capacity() * std::mem::size_of::<SimDuration>()
            + std::mem::size_of::<BehaviorModel>()
            + self.fabric.resident_bytes();
        std::mem::size_of::<FlyClient>() + shared.div_ceil(n)
    }

    /// The tier's measurements, bundled.
    pub fn run_summary(&self) -> FlyTierRun {
        FlyTierRun {
            per_client_mbps: self.per_client_mbps(),
            rpc_latency: self.rpc_latency(),
            elapsed: self.elapsed(),
            bytes_per_client: self.bytes_per_client(),
        }
    }
}

#[derive(Clone, Copy)]
enum ClockId {
    PortRx,
    PortTx,
    CliRx,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GAP_QUANTILES;
    use nfsperf_net::FabricConfig;
    use nfsperf_server::{BackendConfig, ServerConfig, ServerStats, SlimTierStats};

    fn toy_model() -> BehaviorModel {
        BehaviorModel {
            gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 50_000)),
            write_wire_bytes: 8328,
            commit_wire_bytes: 136,
            write_payload: 8192,
            writes_per_commit: 16,
            window: 4,
        }
    }

    fn run_tier_with_sim(clients: u32, writes: u32) -> (Rc<FlyTier>, Rc<NfsServer>, Sim) {
        let sim = Sim::new();
        let server_nic = NicSpec::gigabit();
        let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
        let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
        let tier = FlyTier::launch(
            &sim,
            &server,
            &fabric,
            toy_model(),
            FlyTierConfig::new(clients, writes, server_nic),
        );
        let t2 = Rc::clone(&tier);
        sim.run_until(async move { t2.wait_done().await });
        (tier, server, sim)
    }

    fn run_tier(clients: u32, writes: u32) -> (Rc<FlyTier>, Rc<NfsServer>) {
        let (tier, server, _) = run_tier_with_sim(clients, writes);
        (tier, server)
    }

    /// FNV-1a over each value's `f64` bit pattern, in order: pins a whole
    /// per-client throughput vector in one word.
    fn fingerprint(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn tier_completes_and_accounts_every_write() {
        let (tier, server) = run_tier(64, 8);
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 64);
        assert_eq!(slim.writes, 64 * 8);
        assert_eq!(slim.write_bytes, 64 * 8 * 8192);
        assert_eq!(slim.commits, 64, "8 writes under wpc=16: one close COMMIT each");
        let per = tier.per_client_mbps();
        assert_eq!(per.len(), 64);
        assert!(per.iter().all(|m| *m > 0.0));
        assert!(tier.rpc_latency().p99 > SimDuration::ZERO);
        // No faithful clients attached: the server kept zero per-client
        // stats entries for the whole tier.
        assert!(server.per_client_stats().is_empty());
    }

    /// Exact simulated output of the toy tier at three sizes, recorded
    /// when the tier still carried a second, task-based engine that it
    /// had to match bit for bit. The engine may be reworked freely on
    /// the host, but per-client throughput (fingerprinted bit for bit),
    /// elapsed time, the latency digest, the final clock and the server
    /// counters must not move.
    #[test]
    fn tier_output_is_pinned() {
        struct Pin {
            clients: u32,
            writes: u32,
            mbps_fingerprint: u64,
            elapsed_ns: u64,
            /// RPC latency p50, p99, p99.9, ns.
            latency_ns: [u64; 3],
            now_ns: u64,
        }
        let pins = [
            Pin {
                clients: 1,
                writes: 3,
                mbps_fingerprint: 323229278687299612,
                elapsed_ns: 1958987,
                latency_ns: [404303, 404303, 404303],
                now_ns: 1959277,
            },
            Pin {
                clients: 32,
                writes: 4,
                mbps_fingerprint: 3338732403927593091,
                elapsed_ns: 24101024,
                latency_ns: [10746990, 20582630, 20595960],
                now_ns: 24109747,
            },
            Pin {
                clients: 128,
                writes: 8,
                mbps_fingerprint: 17911139459452182681,
                elapsed_ns: 186115488,
                latency_ns: [88443534, 90385408, 90385408],
                now_ns: 186115489,
            },
        ];
        for pin in pins {
            let (tier, server, sim) = run_tier_with_sim(pin.clients, pin.writes);
            let d = tier.rpc_latency();
            assert_eq!(
                (
                    fingerprint(&tier.per_client_mbps()),
                    tier.elapsed().0,
                    [d.p50.0, d.p99.0, d.p999.0],
                    sim.now().as_nanos(),
                ),
                (pin.mbps_fingerprint, pin.elapsed_ns, pin.latency_ns, pin.now_ns),
                "{} clients x {} writes: simulated output moved",
                pin.clients,
                pin.writes
            );
            let (clients, writes) = (u64::from(pin.clients), u64::from(pin.writes));
            let ops = clients * (writes + 1);
            assert_eq!(
                server.slim_stats(),
                SlimTierStats {
                    clients,
                    ops,
                    writes: clients * writes,
                    write_bytes: clients * writes * 8192,
                    commits: clients,
                }
            );
            assert_eq!(
                server.stats(),
                ServerStats {
                    ops,
                    writes: clients * writes,
                    write_bytes: clients * writes * 8192,
                    commits: clients,
                    checkpoints: 0,
                    inline_flushes: 0,
                }
            );
        }
    }

    #[test]
    fn tier_is_deterministic() {
        let (a, sa) = run_tier(32, 4);
        let (b, sb) = run_tier(32, 4);
        assert_eq!(a.per_client_mbps(), b.per_client_mbps());
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.rpc_latency(), b.rpc_latency());
        assert_eq!(sa.slim_stats(), sb.slim_stats());
    }

    #[test]
    fn flyweight_state_stays_under_256_bytes_per_client() {
        assert!(
            std::mem::size_of::<FlyClient>() <= 72,
            "FlyClient grew to {} bytes",
            std::mem::size_of::<FlyClient>()
        );
        // Not resident per client, but one per in-flight RPC: at a
        // million clients the launch burst holds a million of them. By-value
        // queue entries shrank the lane admission (24 → 16 B) and the
        // server op (56 → 48 B), so the record went 80 → 72 B.
        assert!(
            std::mem::size_of::<FlyRpc>() <= 72,
            "FlyRpc grew to {} bytes",
            std::mem::size_of::<FlyRpc>()
        );
        let (tier, _server) = run_tier(10_000, 2);
        let per = tier.bytes_per_client();
        assert!(
            per <= 256,
            "flyweight tier costs {per} resident bytes per client"
        );
    }

    /// The flyweight tier's direct stage traversal must work unchanged
    /// when the fabric's ports run DRR instead of FIFO: every write is
    /// still accounted, per-flow state is retired after the run, and the
    /// per-client memory bound still holds with scheduler state included.
    #[test]
    fn tier_completes_through_a_drr_fabric() {
        let run = |policy: nfsperf_net::PortPolicy| {
            let sim = Sim::new();
            let server_nic = NicSpec::gigabit();
            let config = FabricConfig {
                port_sched: policy,
                ..FabricConfig::new(server_nic)
            };
            let fabric = Rc::new(Fabric::new(&sim, config));
            let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
            let tier = FlyTier::launch(
                &sim,
                &server,
                &fabric,
                toy_model(),
                FlyTierConfig::new(512, 4, server_nic),
            );
            let t2 = Rc::clone(&tier);
            sim.run_until(async move { t2.wait_done().await });
            (tier, server, fabric)
        };
        let (tier, server, fabric) = run(nfsperf_net::PortPolicy::drr());
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 512);
        assert_eq!(slim.writes, 512 * 4);
        assert_eq!(slim.write_bytes, 512 * 4 * 8192);
        assert!(tier.per_client_mbps().iter().all(|m| *m > 0.0));
        // Quiescent DRR retires per-flow state: entries are gone, so only
        // empty map/ring capacities linger — O(peak live flows), well
        // under the flyweight budget, never O(queued datagrams).
        let (_, _, fifo_fabric) = run(nfsperf_net::PortPolicy::Fifo);
        let slack = fabric.resident_bytes() - fifo_fabric.resident_bytes();
        assert!(
            slack < 512 * 256,
            "retired DRR fabric still holds {slack} bytes of scheduler state"
        );
        // Determinism holds under DRR too.
        let (tier2, server2, _) = run(nfsperf_net::PortPolicy::drr());
        assert_eq!(tier.per_client_mbps(), tier2.per_client_mbps());
        assert_eq!(server.slim_stats(), server2.slim_stats());
    }

    /// Where parked records were seen queued, by hop kind: agg lane,
    /// core lane, then the server's checkpoint gate, service queue,
    /// NVRAM and disk arm.
    type Census = [u64; 6];

    /// Checks that every record holds state for its current hop only —
    /// a lane wait cell only while queued at a lane, a server op only in
    /// service (or just done), nothing at all while on the free list —
    /// and adds every record holding a queue entry to `seen`. Returns
    /// how many records are on the free list.
    fn audit_records(tier: &FlyTier, seen: &mut Census) -> usize {
        use nfsperf_server::WaitPoint;
        let rpcs = tier.rpcs.borrow();
        let mut free = vec![false; rpcs.slots.len()];
        let mut link = rpcs.free_head;
        while link != u32::MAX {
            assert!(!free[link as usize], "free list cycles");
            free[link as usize] = true;
            link = rpcs.slots[link as usize].next_free;
        }
        for (r, rpc) in rpcs.slots.iter().enumerate() {
            let admitting = matches!(
                rpc.stage,
                RpcStage::AggAdmit
                    | RpcStage::CoreAdmit
                    | RpcStage::CoreRAdmit
                    | RpcStage::AggRAdmit
            );
            let kind = match &rpc.hop {
                Hop::Lane(lane) if !lane.is_queued() => continue,
                Hop::Lane(_) => {
                    assert!(admitting && !free[r], "record {r} kept a lane wait cell");
                    match rpc.stage {
                        RpcStage::AggAdmit | RpcStage::AggRAdmit => 0,
                        _ => 1,
                    }
                }
                Hop::Server(op) => {
                    let done = rpc.stage == RpcStage::CoreRStart && op.is_done();
                    assert!(
                        (rpc.stage == RpcStage::Service || done) && !free[r],
                        "record {r} kept its server op past the server"
                    );
                    match op.queued_at() {
                        None => continue,
                        Some(WaitPoint::Checkpoint) => 2,
                        Some(WaitPoint::Service) => 3,
                        Some(WaitPoint::Nvram) => 4,
                        Some(WaitPoint::DiskArm) => 5,
                    }
                }
            };
            seen[kind] += 1;
        }
        free.iter().filter(|&&f| f).count()
    }

    /// Runs a tier of `clients` all launched at once against `config`,
    /// auditing the records every 20 µs and once more at the end, when
    /// every record must be back on the free list, the server must have
    /// nothing in service or queued, every wait cell must be freed, and
    /// every fabric lane must be idle and empty.
    fn run_and_audit(config: ServerConfig, clients: u32, seen: &mut Census) -> ServerStats {
        let sim = Sim::new();
        let server_nic = NicSpec::gigabit();
        let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
        let server = NfsServer::new(&sim, config);
        let model = BehaviorModel {
            writes_per_commit: 3,
            ..toy_model()
        };
        let tier_config = FlyTierConfig {
            start_spread: SimDuration::ZERO,
            ..FlyTierConfig::new(clients, 6, server_nic)
        };
        let tier = FlyTier::launch(&sim, &server, &fabric, model, tier_config);
        let (t2, s2) = (Rc::clone(&tier), sim.clone());
        let mut during = [0; 6];
        during = sim.run_until(async move {
            while t2.clients_done.get() < t2.config.clients {
                audit_records(&t2, &mut during);
                s2.sleep(SimDuration::from_micros(20)).await;
            }
            during
        });
        for (total, n) in seen.iter_mut().zip(during) {
            *total += n;
        }

        let mut after = [0; 6];
        let free = audit_records(&tier, &mut after);
        assert_eq!(
            free,
            tier.rpcs.borrow().slots.len(),
            "a record never went back on the free list"
        );
        assert_eq!(after, [0; 6], "a finished tier still holds queue entries");
        let engine = server.service_engine();
        assert_eq!((engine.in_flight(), engine.queued()), (0, 0));
        assert_eq!(sim.live_wait_cells(), 0, "a queued admission kept its wait cell");
        let aggs = (0..fabric.agg_count()).map(|i| {
            let first = (i * fabric.config().fanout) as u32;
            fabric.agg_of(first)
        });
        for link in aggs.chain([fabric.core()]) {
            for dir in [LinkDir::ToServer, LinkDir::ToClients] {
                assert_eq!((link.queued(dir), link.is_busy(dir)), (0, false));
            }
        }
        let stats = server.stats();
        sim.teardown();
        stats
    }

    /// Records are recycled through every kind of hop — both fabric
    /// lanes and each server wait point — and a finished tier holds no
    /// state from any of them. The filer is shrunk so its NVRAM fills
    /// and checkpoints land mid-run; the knfsd's dirty cache is shrunk
    /// so WRITEs flush inline and COMMITs queue for the disk arm.
    #[test]
    fn recycled_records_leave_no_state_behind() {
        let mut seen = [0; 6];
        let mut filer = ServerConfig::netapp_f85();
        if let BackendConfig::Filer {
            ref mut nvram_capacity,
            ref mut checkpoint_interval,
            ref mut checkpoint_duration,
            ref mut checkpoint_offset,
        } = filer.backend
        {
            *nvram_capacity = 64 * 1024;
            *checkpoint_interval = SimDuration::from_millis(2);
            *checkpoint_duration = SimDuration::from_millis(1);
            *checkpoint_offset = SimDuration::from_micros(300);
        }
        let filer_stats = run_and_audit(filer, 96, &mut seen);
        assert!(filer_stats.checkpoints > 0);

        let mut knfsd = ServerConfig::linux_knfsd();
        if let BackendConfig::CacheDisk {
            ref mut dirty_cap, ..
        } = knfsd.backend
        {
            *dirty_cap = 64 * 1024;
        }
        let knfsd_stats = run_and_audit(knfsd, 96, &mut seen);
        assert!(knfsd_stats.inline_flushes > 0);
        assert!(knfsd_stats.commits > 96, "COMMITs every third WRITE, plus close");

        let kinds = ["agg lane", "core lane", "checkpoint", "service", "NVRAM", "disk arm"];
        for (kind, n) in kinds.iter().zip(seen) {
            assert!(n > 0, "no record was seen queued at the {kind}: {seen:?}");
        }
    }

    #[test]
    fn emission_gaps_stay_inside_the_calibrated_range_pre_contention() {
        // One client, unconstrained window: planned emissions must march
        // by sampled gaps inside the quantile range.
        let m = toy_model();
        let mut state = 7u64;
        let mut last = 0u64;
        for _ in 0..100 {
            let g = m.sample_gap(&mut state).0;
            assert!(g >= m.gap_quantiles[0].0 && g <= m.gap_quantiles[GAP_QUANTILES - 1].0);
            last += g;
        }
        assert!(last > 0);
    }
}
