//! Pluggable server request scheduling.
//!
//! The paper's counter-intuitive result — a *faster* server slows client
//! writes down — is a statement about service order, not bandwidth: what
//! the server answers first shapes how the client's dirty pages drain.
//! This module makes that order a policy. Every RPC handler passes through
//! a [`ServiceEngine`] that owns the server's service slots (the nfsd
//! thread pool / filer service engine) and asks a [`Scheduler`] which
//! queued request runs next:
//!
//! - [`Fifo`] — arrival order, bit-compatible with the semaphore the
//!   server used before this subsystem existed (asserted by the
//!   determinism tests). This stays the default: the paper's servers
//!   serve FIFO, and the reproduced figures must not move.
//! - [`Drr`] — deficit round robin across clients with byte-weighted
//!   quanta (Shreedhar & Varghese): each rotation a client's deficit
//!   grows by one quantum, and it may dispatch requests until the head
//!   request's byte cost exceeds the deficit. An 8 KB-write client and a
//!   32 KB-write client get equal *bytes*, not equal *requests*.
//! - [`ClassedDrr`] — DRR plus two priority classes per client (WRITE
//!   and metadata above COMMIT, whose disk flushes are the expensive
//!   tail) and a per-client in-flight quota, so one client with a deep
//!   RPC slot table cannot occupy every nfsd at once.
//! - [`Drr::weighted`] — DRR whose per-rotation top-up is scaled by a
//!   per-client [`WeightTable`] (the same table type the network
//!   fabric's `PortWrr` lanes use), so an SLA can hand one client a
//!   multiple of another's service share.
//!
//! The engine replicates the exact admission semantics of
//! [`nfsperf_sim::Semaphore`] so that `Fifo` is not merely equivalent but
//! *bit-identical*: a fast-path arrival may barge past a just-woken
//! waiter (which then re-queues at the back), and each slot release wakes
//! at most the head of the queue.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;
use std::task::Waker;

use nfsperf_sim::{poll_machine, Counter, Sim, SimDuration, SimTime, WaitCell};

pub use nfsperf_net::WeightTable;
pub use nfsperf_sim::LatencyDigest;

/// Byte cost floor: a zero-byte op (COMMIT, GETATTR) still occupies a
/// service slot, so DRR charges it as if it carried a small payload.
/// Without a floor, a client could pump unlimited metadata ops through a
/// single quantum.
pub const COST_FLOOR: u64 = 512;

/// Request class for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// WRITE — carries payload bytes.
    Write,
    /// COMMIT — cheap to accept, expensive tail (disk flush on knfsd).
    Commit,
    /// Everything else (CREATE, LOOKUP, GETATTR, SETATTR, READ, NULL).
    Meta,
}

/// Scheduling metadata for one request.
#[derive(Debug, Clone, Copy)]
pub struct ReqMeta {
    /// Client id (attach order), as used by per-client accounting.
    pub client: usize,
    /// Request class.
    pub class: OpClass,
    /// Payload bytes the request carries (0 for metadata ops).
    pub bytes: u64,
    /// When the request reached the service queue.
    pub arrival: SimTime,
}

/// One queued admission, held by value in the scheduler's queues: the
/// request's scheduling metadata in 32-bit fields plus the handle of the
/// [`WaitCell`] its requester parks on. The engine claims the cell when
/// the request queues, wakes it when the scheduler picks the entry, and
/// the requester frees it once admitted.
#[derive(Debug, Clone, Copy)]
pub struct ReqEntry {
    arrival: SimTime,
    client: u32,
    bytes: u32,
    cell: WaitCell,
    class: OpClass,
}

impl ReqEntry {
    /// Builds the entry for `meta`, parked on `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the client id or the payload does not fit 32 bits.
    pub fn new(meta: ReqMeta, cell: WaitCell) -> ReqEntry {
        ReqEntry {
            arrival: meta.arrival,
            client: u32::try_from(meta.client).expect("client id exceeds 32 bits"),
            bytes: u32::try_from(meta.bytes).expect("request payload exceeds 32 bits"),
            cell,
            class: meta.class,
        }
    }

    /// The request's scheduling metadata.
    pub fn meta(&self) -> ReqMeta {
        ReqMeta {
            client: self.client as usize,
            class: self.class,
            bytes: u64::from(self.bytes),
            arrival: self.arrival,
        }
    }

    /// The wait cell the requester is parked on.
    pub fn cell(&self) -> WaitCell {
        self.cell
    }
}

/// A request-ordering policy.
///
/// The [`ServiceEngine`] owns the slots; the scheduler owns the order.
/// `enqueue` admits an entry to the queue, `pick_next` removes and
/// returns the next entry to run (recording any grant state such as an
/// in-flight quota), and `on_complete` retires a request when its slot is
/// released. `try_grant`/`ungrant` bracket the engine's fast path and
/// slot-steal recovery; policies without admission state keep the
/// defaults.
pub trait Scheduler {
    /// Policy name for reports (`fifo`, `drr`, `classed-drr`).
    fn label(&self) -> &'static str;

    /// Admits an entry to the queue.
    fn enqueue(&self, entry: ReqEntry);

    /// Removes and returns the next entry to dispatch, or `None` if the
    /// queue is empty or every queued client is at its in-flight quota.
    /// Granting (quota accounting) happens here.
    fn pick_next(&self) -> Option<ReqEntry>;

    /// Fast path: may `meta` start service immediately, bypassing the
    /// (empty) queue? On `true` the grant is recorded.
    fn try_grant(&self, _meta: &ReqMeta) -> bool {
        true
    }

    /// Reverts a grant whose slot was stolen before service started; the
    /// entry re-enters the queue via `enqueue`.
    fn ungrant(&self, _meta: &ReqMeta) {}

    /// Retires a granted request when its service slot is released.
    fn on_complete(&self, _meta: &ReqMeta) {}

    /// Number of queued entries.
    fn queued(&self) -> usize;
}

/// Arrival-order scheduling — the pre-subsystem semaphore behavior.
#[derive(Default)]
pub struct Fifo {
    queue: RefCell<VecDeque<ReqEntry>>,
}

impl Scheduler for Fifo {
    fn label(&self) -> &'static str {
        "fifo"
    }

    fn enqueue(&self, entry: ReqEntry) {
        self.queue.borrow_mut().push_back(entry);
    }

    fn pick_next(&self) -> Option<ReqEntry> {
        self.queue.borrow_mut().pop_front()
    }

    fn queued(&self) -> usize {
        self.queue.borrow().len()
    }
}

/// Per-client scheduling state for the DRR core.
struct DrrClient {
    /// One FIFO per class, drained in class order (index 0 first).
    queues: Vec<VecDeque<ReqEntry>>,
    /// Byte credit accumulated while waiting in the active ring.
    deficit: u64,
    /// Requests granted (picked or fast-pathed) and not yet completed.
    granted: usize,
    /// Whether the client is in the active ring.
    in_ring: bool,
}

impl DrrClient {
    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }
}

struct DrrInner {
    clients: Vec<DrrClient>,
    /// Round-robin ring of client ids with queued work.
    ring: VecDeque<usize>,
    queued: usize,
}

impl DrrInner {
    fn ensure(&mut self, client: usize, classes: usize) {
        while self.clients.len() <= client {
            self.clients.push(DrrClient {
                queues: vec![VecDeque::new(); classes],
                deficit: 0,
                granted: 0,
                in_ring: false,
            });
        }
    }
}

/// Deficit round robin core shared by [`Drr`] (one class, unlimited
/// quota) and [`ClassedDrr`] (two classes, finite quota).
struct DrrCore {
    label: &'static str,
    quantum: u64,
    quota: usize,
    classes: usize,
    /// When set, client `c`'s per-rotation top-up is `quantum ×
    /// weights.get(c)` — the SLA-table weighting; `None` is plain DRR.
    weights: Option<WeightTable>,
    inner: RefCell<DrrInner>,
}

impl DrrCore {
    fn new(label: &'static str, quantum: u64, quota: usize, classes: usize) -> DrrCore {
        assert!(quantum > 0, "DRR quantum must be positive");
        assert!(quota > 0, "a zero in-flight quota would deadlock");
        DrrCore {
            label,
            quantum,
            quota,
            classes,
            weights: None,
            inner: RefCell::new(DrrInner {
                clients: Vec::new(),
                ring: VecDeque::new(),
                queued: 0,
            }),
        }
    }

    fn topup(&self, client: usize) -> u64 {
        match &self.weights {
            Some(w) => self.quantum * w.get(client as u32),
            None => self.quantum,
        }
    }

    fn class_of(&self, class: OpClass) -> usize {
        if self.classes == 1 {
            0
        } else {
            match class {
                // COMMIT rides below WRITE/metadata: its knfsd service
                // time is a whole dirty-pool flush, so letting a COMMIT
                // backlog monopolize slots starves everyone's writes.
                OpClass::Commit => 1,
                OpClass::Write | OpClass::Meta => 0,
            }
        }
    }

    fn cost(bytes: u64) -> u64 {
        bytes.max(COST_FLOOR)
    }
}

impl Scheduler for DrrCore {
    fn label(&self) -> &'static str {
        self.label
    }

    fn enqueue(&self, entry: ReqEntry) {
        let client = entry.client as usize;
        let class = self.class_of(entry.class);
        let mut inner = self.inner.borrow_mut();
        inner.ensure(client, self.classes);
        inner.clients[client].queues[class].push_back(entry);
        inner.queued += 1;
        if !inner.clients[client].in_ring {
            inner.clients[client].in_ring = true;
            inner.ring.push_back(client);
        }
    }

    fn pick_next(&self) -> Option<ReqEntry> {
        let mut inner = self.inner.borrow_mut();
        // Visits since the last top-up or ring change; once it spans the
        // whole ring, every queued client is quota-blocked.
        let mut blocked = 0usize;
        loop {
            let &client = inner.ring.front()?;
            if !inner.clients[client].has_work() {
                // Queue drained while the client kept its ring slot
                // (possible after an ungrant/re-enqueue shuffle): retire
                // it from the ring and forget its credit, as DRR does for
                // any idling flow.
                inner.ring.pop_front();
                inner.clients[client].in_ring = false;
                inner.clients[client].deficit = 0;
                blocked = 0;
                continue;
            }
            if inner.clients[client].granted >= self.quota {
                blocked += 1;
                if blocked >= inner.ring.len() {
                    return None;
                }
                inner.ring.rotate_left(1);
                continue;
            }
            let class = inner.clients[client]
                .queues
                .iter()
                .position(|q| !q.is_empty())
                .expect("has_work checked above");
            let cost = DrrCore::cost(u64::from(inner.clients[client].queues[class][0].bytes));
            if inner.clients[client].deficit < cost {
                inner.clients[client].deficit += self.topup(client);
                inner.ring.rotate_left(1);
                blocked = 0;
                continue;
            }
            let cl = &mut inner.clients[client];
            cl.deficit -= cost;
            cl.granted += 1;
            let entry = cl.queues[class].pop_front().expect("non-empty class queue");
            inner.queued -= 1;
            if !inner.clients[client].has_work() {
                inner.ring.pop_front();
                inner.clients[client].in_ring = false;
                inner.clients[client].deficit = 0;
            }
            return Some(entry);
        }
    }

    fn try_grant(&self, meta: &ReqMeta) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.ensure(meta.client, self.classes);
        if inner.clients[meta.client].granted < self.quota {
            inner.clients[meta.client].granted += 1;
            true
        } else {
            false
        }
    }

    fn ungrant(&self, meta: &ReqMeta) {
        let mut inner = self.inner.borrow_mut();
        let cl = &mut inner.clients[meta.client];
        cl.granted -= 1;
        // Refund the byte cost pick_next charged; the entry is about to
        // re-enter the queue and would otherwise pay twice.
        cl.deficit += DrrCore::cost(meta.bytes);
    }

    fn on_complete(&self, meta: &ReqMeta) {
        let mut inner = self.inner.borrow_mut();
        inner.clients[meta.client].granted -= 1;
    }

    fn queued(&self) -> usize {
        self.inner.borrow().queued
    }
}

/// Deficit round robin across clients, byte-weighted quanta, no classes,
/// no in-flight quota.
pub struct Drr(DrrCore);

impl Drr {
    /// Creates a DRR scheduler with the given per-rotation byte quantum.
    pub fn new(quantum: u64) -> Drr {
        Drr(DrrCore::new("drr", quantum, usize::MAX, 1))
    }

    /// Creates a weighted DRR scheduler: client `c`'s per-rotation
    /// top-up is `quantum × weights.get(c)`.
    pub fn weighted(quantum: u64, weights: WeightTable) -> Drr {
        let mut core = DrrCore::new("wdrr", quantum, usize::MAX, 1);
        core.weights = Some(weights);
        Drr(core)
    }
}

impl Scheduler for Drr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, entry: ReqEntry) {
        self.0.enqueue(entry);
    }
    fn pick_next(&self) -> Option<ReqEntry> {
        self.0.pick_next()
    }
    fn try_grant(&self, meta: &ReqMeta) -> bool {
        self.0.try_grant(meta)
    }
    fn ungrant(&self, meta: &ReqMeta) {
        self.0.ungrant(meta)
    }
    fn on_complete(&self, meta: &ReqMeta) {
        self.0.on_complete(meta)
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
}

/// DRR with WRITE-above-COMMIT priority classes and a per-client
/// in-flight quota.
pub struct ClassedDrr(DrrCore);

impl ClassedDrr {
    /// Creates a classed DRR scheduler: `quantum` bytes of credit per
    /// rotation, at most `quota` requests per client in service at once.
    pub fn new(quantum: u64, quota: usize) -> ClassedDrr {
        ClassedDrr(DrrCore::new("classed-drr", quantum, quota, 2))
    }
}

impl Scheduler for ClassedDrr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, entry: ReqEntry) {
        self.0.enqueue(entry);
    }
    fn pick_next(&self) -> Option<ReqEntry> {
        self.0.pick_next()
    }
    fn try_grant(&self, meta: &ReqMeta) -> bool {
        self.0.try_grant(meta)
    }
    fn ungrant(&self, meta: &ReqMeta) {
        self.0.ungrant(meta)
    }
    fn on_complete(&self, meta: &ReqMeta) {
        self.0.on_complete(meta)
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
}

/// Scheduling policy selection, carried by `ServerConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Arrival order (the default; matches the paper's servers).
    #[default]
    Fifo,
    /// Deficit round robin across clients.
    Drr {
        /// Byte credit added per ring rotation.
        quantum: u64,
    },
    /// DRR with COMMIT-vs-WRITE classes and a per-client in-flight quota.
    ClassedDrr {
        /// Byte credit added per ring rotation.
        quantum: u64,
        /// Max requests per client in service at once.
        quota: usize,
    },
}

impl SchedPolicy {
    /// Default DRR quantum: one client's largest WRITE (32 KB) per
    /// rotation.
    pub const DEFAULT_QUANTUM: u64 = 32 * 1024;
    /// Default per-client in-flight quota for [`SchedPolicy::ClassedDrr`].
    pub const DEFAULT_QUOTA: usize = 2;

    /// DRR with the default quantum.
    pub fn drr() -> SchedPolicy {
        SchedPolicy::Drr {
            quantum: SchedPolicy::DEFAULT_QUANTUM,
        }
    }

    /// Classed DRR with the default quantum and quota.
    pub fn classed_drr() -> SchedPolicy {
        SchedPolicy::ClassedDrr {
            quantum: SchedPolicy::DEFAULT_QUANTUM,
            quota: SchedPolicy::DEFAULT_QUOTA,
        }
    }

    /// Policy name for reports and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Drr { .. } => "drr",
            SchedPolicy::ClassedDrr { .. } => "classed-drr",
        }
    }

    /// Parses a CLI policy name (`fifo`, `drr`, `classed-drr`), with the
    /// default parameters for the parameterized policies.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "drr" => Some(SchedPolicy::drr()),
            "classed-drr" | "classed_drr" => Some(SchedPolicy::classed_drr()),
            _ => None,
        }
    }

    /// Builds the scheduler, upgrading a DRR policy to weighted DRR when
    /// a client weight table is supplied (FIFO ignores weights — there is
    /// no share to scale).
    fn build_weighted(&self, weights: Option<&WeightTable>) -> Box<dyn Scheduler> {
        match (*self, weights) {
            (SchedPolicy::Drr { quantum }, Some(w)) => Box::new(Drr::weighted(quantum, w.clone())),
            (SchedPolicy::Fifo, _) => Box::new(Fifo::default()),
            (SchedPolicy::Drr { quantum }, None) => Box::new(Drr::new(quantum)),
            (SchedPolicy::ClassedDrr { quantum, quota }, _) => {
                Box::new(ClassedDrr::new(quantum, quota))
            }
        }
    }
}

/// The server's service-slot pool plus its scheduling policy.
///
/// Admission follows the exact shape of [`nfsperf_sim::Semaphore`] so
/// that [`SchedPolicy::Fifo`] reproduces the pre-subsystem event order
/// bit for bit:
///
/// - fast path: a free slot with an empty queue is taken immediately
///   (this can barge past a woken-but-not-yet-running waiter, exactly as
///   the semaphore allowed);
/// - a released slot wakes at most one queued entry (the scheduler's
///   pick), and a woken requester that finds its slot stolen re-queues
///   at the back;
/// - `pending_wakes` tracks picks whose requesters have not yet run, so
///   a release never wakes two entries for one slot.
///
/// Each queued request is a by-value [`ReqEntry`] whose requester parks
/// on a [`WaitCell`] of the world's shared slab.
pub struct ServiceEngine {
    sim: Sim,
    policy: SchedPolicy,
    sched: Box<dyn Scheduler>,
    slots: usize,
    free: Cell<usize>,
    pending_wakes: Cell<usize>,
    /// Most entries ever queued at once.
    queued_high_water: Cell<usize>,
    enqueued_bytes: Counter,
    served_bytes: Counter,
    queue_delay: RefCell<Vec<Vec<SimDuration>>>,
    service_lat: RefCell<Vec<Vec<SimDuration>>>,
    /// Latency samples are kept only for clients with an id below this
    /// cap. Unlimited by default (every client gets full digests, the
    /// pre-flyweight behavior); a megafleet caps it at the faithful-tier
    /// size so a million flyweight ids cannot materialize a million
    /// sample vectors.
    sample_cap: Cell<usize>,
}

impl ServiceEngine {
    /// Creates an engine with `slots` concurrent service slots.
    pub fn new(sim: &Sim, slots: usize, policy: SchedPolicy) -> Rc<ServiceEngine> {
        ServiceEngine::with_weights(sim, slots, policy, None)
    }

    /// Like [`ServiceEngine::new`], upgrading a DRR policy to weighted
    /// DRR when a per-client SLA weight table is supplied.
    pub fn with_weights(
        sim: &Sim,
        slots: usize,
        policy: SchedPolicy,
        weights: Option<&WeightTable>,
    ) -> Rc<ServiceEngine> {
        assert!(slots > 0, "a server needs at least one service slot");
        Rc::new(ServiceEngine {
            sim: sim.clone(),
            policy,
            sched: policy.build_weighted(weights),
            slots,
            free: Cell::new(slots),
            pending_wakes: Cell::new(0),
            queued_high_water: Cell::new(0),
            enqueued_bytes: Counter::new(),
            served_bytes: Counter::new(),
            queue_delay: RefCell::new(Vec::new()),
            service_lat: RefCell::new(Vec::new()),
            sample_cap: Cell::new(usize::MAX),
        })
    }

    /// Caps per-client latency sampling to clients `0..cap`: clients at
    /// or above the cap (the flyweight tier) are served and scheduled
    /// normally but leave no per-client sample vectors behind.
    pub fn set_sample_cap(&self, cap: usize) {
        self.sample_cap.set(cap);
    }

    /// The configured policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// The policy's report label.
    pub fn label(&self) -> &'static str {
        self.sched.label()
    }

    /// Total service slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Requests currently in service.
    pub fn in_flight(&self) -> usize {
        self.slots - self.free.get()
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.sched.queued()
    }

    /// The most requests ever waiting for a slot at once.
    pub fn queued_high_water(&self) -> usize {
        self.queued_high_water.get()
    }

    /// Payload bytes of every request admitted so far.
    pub fn enqueued_bytes(&self) -> u64 {
        self.enqueued_bytes.get()
    }

    /// Payload bytes of every request whose service completed.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes.get()
    }

    /// Queue-delay and service-latency digests for one client (zeroes if
    /// the client never queued).
    pub fn digests(&self, client: usize) -> (LatencyDigest, LatencyDigest) {
        let q = self.queue_delay.borrow();
        let s = self.service_lat.borrow();
        (
            q.get(client).map_or(LatencyDigest::default(), |v| LatencyDigest::of(v)),
            s.get(client).map_or(LatencyDigest::default(), |v| LatencyDigest::of(v)),
        )
    }

    /// Raw service-latency samples (arrival to completion) for one client.
    pub fn service_samples(&self, client: usize) -> Vec<SimDuration> {
        self.service_lat
            .borrow()
            .get(client)
            .cloned()
            .unwrap_or_default()
    }

    /// Acquires a service slot for `meta`, waiting in scheduler order:
    /// [`ServiceEngine::poll_admit`] driven by the calling task.
    /// Dropping the returned [`SvcSlot`] releases the slot and dispatches
    /// the scheduler's next pick.
    pub fn admit(self: &Rc<Self>, meta: ReqMeta) -> impl Future<Output = SvcSlot> + '_ {
        let mut st = SvcAdmit::default();
        poll_machine(move |wf| {
            self.poll_admit(meta, &mut st, wf).then(|| SvcSlot {
                engine: Rc::clone(self),
                meta,
            })
        })
    }

    /// The engine's one admission machine; [`ServiceEngine::admit`] is
    /// this machine driven by a task, wrapping the slot in a [`SvcSlot`].
    /// Returns `true` once admitted — the caller then holds a slot and
    /// gives it back with [`ServiceEngine::release`], passing the same
    /// `meta` — or `false` after parking a waker from `waker_factory`
    /// (call again when it fires). Tasks and taskless callers share the
    /// one scheduler queue, so mixed traffic is served in a single order.
    pub fn poll_admit(
        &self,
        meta: ReqMeta,
        st: &mut SvcAdmit,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> bool {
        if !st.started {
            st.started = true;
            self.enqueued_bytes.add(meta.bytes);
            // Fast path: free slot, empty queue, and the policy admits the
            // client directly (always true for FIFO — the semaphore's fast
            // path, barging included).
            if self.free.get() > 0 && self.sched.queued() == 0 && self.sched.try_grant(&meta) {
                self.take_slot(&meta);
                return true;
            }
            st.cell = self.sim.wait_cell();
            self.enqueue(ReqEntry::new(meta, st.cell));
            // A new arrival can be eligible even while slots idle (e.g.
            // every other client is quota-blocked); under FIFO this never
            // fires — a slot only idles when the queue is empty.
            self.kick();
        }
        loop {
            if !self.sim.poll_wait_cell(st.cell, waker_factory) {
                return false;
            }
            self.pending_wakes.set(self.pending_wakes.get() - 1);
            if self.free.get() > 0 {
                self.sim.free_wait_cell(st.cell);
                st.cell = WaitCell::NONE;
                self.take_slot(&meta);
                return true;
            }
            // A fast-path arrival stole the slot between our wake and our
            // poll: give the grant back and re-queue at the back, as a
            // semaphore waiter re-queues.
            self.sched.ungrant(&meta);
            self.enqueue(ReqEntry::new(meta, st.cell));
            self.kick();
        }
    }

    fn enqueue(&self, entry: ReqEntry) {
        self.sched.enqueue(entry);
        let queued = self.sched.queued();
        if queued > self.queued_high_water.get() {
            self.queued_high_water.set(queued);
        }
    }

    fn take_slot(&self, meta: &ReqMeta) {
        self.free.set(self.free.get() - 1);
        if meta.client < self.sample_cap.get() {
            let delay = self.sim.now().since(meta.arrival);
            record_sample(&self.queue_delay, meta.client, delay);
        }
    }

    /// Wakes scheduler picks while slots are free and not already spoken
    /// for by an earlier wake.
    fn kick(&self) {
        while self.free.get() > self.pending_wakes.get() {
            match self.sched.pick_next() {
                Some(entry) => {
                    self.pending_wakes.set(self.pending_wakes.get() + 1);
                    self.sim.wake_wait_cell(entry.cell());
                }
                None => break,
            }
        }
    }

    /// Gives back a slot taken by [`ServiceEngine::poll_admit`] for
    /// `meta` (the same metadata it was admitted with) and dispatches the
    /// scheduler's next pick. A [`SvcSlot`] calls this on drop.
    pub fn release(&self, meta: &ReqMeta) {
        self.served_bytes.add(meta.bytes);
        if meta.client < self.sample_cap.get() {
            let sojourn = self.sim.now().since(meta.arrival);
            record_sample(&self.service_lat, meta.client, sojourn);
        }
        self.sched.on_complete(meta);
        self.free.set(self.free.get() + 1);
        self.kick();
    }
}

fn record_sample(store: &RefCell<Vec<Vec<SimDuration>>>, client: usize, sample: SimDuration) {
    let mut store = store.borrow_mut();
    while store.len() <= client {
        store.push(Vec::new());
    }
    store[client].push(sample);
}

/// In-flight state for [`ServiceEngine::poll_admit`]; `Default` is the
/// not-yet-started state. Must be driven to admission once started — a
/// queued entry holds scheduler state and a wait cell, just as a parked
/// task does.
pub struct SvcAdmit {
    started: bool,
    /// The wait cell of the queued entry; [`WaitCell::NONE`] while not
    /// queued.
    cell: WaitCell,
}

impl Default for SvcAdmit {
    fn default() -> SvcAdmit {
        SvcAdmit {
            started: false,
            cell: WaitCell::NONE,
        }
    }
}

impl SvcAdmit {
    /// Whether the machine holds a queued entry: it is parked, or woken
    /// and not yet polled.
    pub fn is_waiting(&self) -> bool {
        self.cell != WaitCell::NONE
    }
}

/// RAII service slot from [`ServiceEngine::admit`]; releases (and
/// dispatches the next pick) on drop.
#[must_use = "dropping the slot immediately would serve the request in zero slots"]
pub struct SvcSlot {
    engine: Rc<ServiceEngine>,
    meta: ReqMeta,
}

impl Drop for SvcSlot {
    fn drop(&mut self) {
        self.engine.release(&self.meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::proptest::{check, CaseOutcome};
    use nfsperf_sim::{prop_assert, prop_assert_eq, Semaphore};

    fn meta(client: usize, class: OpClass, bytes: u64) -> ReqMeta {
        ReqMeta {
            client,
            class,
            bytes,
            arrival: SimTime::default(),
        }
    }

    /// A queued entry that parks on no cell (ordering tests only).
    fn entry(client: usize, class: OpClass, bytes: u64) -> ReqEntry {
        ReqEntry::new(meta(client, class, bytes), WaitCell::NONE)
    }

    /// Drains a scheduler by repeated pick, completing each pick
    /// immediately; returns the client ids in service order.
    fn drain(sched: &dyn Scheduler) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(t) = sched.pick_next() {
            order.push(t.meta().client);
            sched.on_complete(&t.meta());
        }
        order
    }

    /// The flyweight sample cap: clients at or above the cap are served
    /// normally but leave no latency vectors behind, so a million
    /// flyweight ids cost the engine nothing.
    #[test]
    fn sample_cap_skips_flyweight_latency_vectors() {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, 1, SchedPolicy::Fifo);
        engine.set_sample_cap(1);
        let e = Rc::clone(&engine);
        sim.run_until(async move {
            drop(e.admit(meta(0, OpClass::Write, 8192)).await);
            drop(e.admit(meta(999_983, OpClass::Write, 8192)).await);
        });
        assert_eq!(engine.service_samples(0).len(), 1);
        assert!(
            engine.service_samples(999_983).is_empty(),
            "capped client must not materialize a sample vector"
        );
        assert_eq!(
            engine.digests(999_983),
            (LatencyDigest::default(), LatencyDigest::default())
        );
        // The vectors never grew past the faithful tier.
        assert!(engine.service_lat.borrow().len() <= 1);
        assert!(engine.queue_delay.borrow().len() <= 1);
    }

    /// At a million clients about a million admissions wait in one
    /// queue: entries are plain values of at most 24 bytes.
    #[test]
    fn server_queue_entry_is_compact() {
        assert!(
            std::mem::size_of::<ReqEntry>() <= 24,
            "server queue entry grew to {} bytes",
            std::mem::size_of::<ReqEntry>()
        );
        assert!(std::mem::size_of::<SvcAdmit>() <= 8);
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let sched = Fifo::default();
        for (client, bytes) in [(2usize, 8192u64), (0, 512), (1, 32768), (0, 8192)] {
            sched.enqueue(entry(client, OpClass::Write, bytes));
        }
        assert_eq!(drain(&sched), vec![2, 0, 1, 0]);
        assert_eq!(sched.queued(), 0);
    }

    /// DRR quantum accounting: with an 8 KB quantum, a client sending
    /// 32 KB writes is served once for every four services of a client
    /// sending 8 KB writes — equal bytes, not equal requests.
    #[test]
    fn drr_quantum_accounting_is_byte_weighted() {
        let sched = Drr::new(8192);
        for _ in 0..8 {
            sched.enqueue(entry(0, OpClass::Write, 8192));
        }
        for _ in 0..2 {
            sched.enqueue(entry(1, OpClass::Write, 32768));
        }
        assert_eq!(drain(&sched), vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
    }

    /// Weighted DRR: an SLA table entry of 4 gives client 1 four quanta
    /// per rotation, so it drains four requests to client 0's one.
    #[test]
    fn weighted_drr_scales_the_topup_by_the_sla_table() {
        let sched = Drr::weighted(8192, WeightTable::new(vec![1, 4]));
        assert_eq!(sched.label(), "wdrr");
        for _ in 0..4 {
            sched.enqueue(entry(0, OpClass::Write, 8192));
        }
        for _ in 0..8 {
            sched.enqueue(entry(1, OpClass::Write, 8192));
        }
        assert_eq!(
            drain(&sched),
            vec![0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0],
            "client 1 earns 4x service per rotation"
        );
        // Clients beyond the table default to weight 1: plain DRR.
        let uniform = Drr::weighted(8192, WeightTable::uniform());
        for client in [5usize, 9] {
            for _ in 0..2 {
                uniform.enqueue(entry(client, OpClass::Write, 8192));
            }
        }
        assert_eq!(drain(&uniform), vec![5, 9, 5, 9]);
    }

    /// The DRR fairness bound: between two backlogged clients, served
    /// bytes never diverge by more than a quantum plus one max-size op.
    #[test]
    fn drr_prefix_byte_balance() {
        let sched = Drr::new(8192);
        for _ in 0..16 {
            sched.enqueue(entry(0, OpClass::Write, 8192));
        }
        for _ in 0..4 {
            sched.enqueue(entry(1, OpClass::Write, 32768));
        }
        let mut served = [0i64, 0i64];
        let mut picks = 0usize;
        while let Some(t) = sched.pick_next() {
            let m = t.meta();
            served[m.client] += m.bytes as i64;
            sched.on_complete(&m);
            picks += 1;
            // Only meaningful while both clients stay backlogged.
            if picks <= 16 {
                assert!(
                    (served[0] - served[1]).abs() <= 8192 + 32768,
                    "byte divergence {} after {picks} picks",
                    served[0] - served[1]
                );
            }
        }
        assert_eq!(served[0], 16 * 8192);
        assert_eq!(served[1], 4 * 32768);
    }

    #[test]
    fn classed_drr_enforces_in_flight_quota() {
        let sched = ClassedDrr::new(32768, 2);
        for _ in 0..5 {
            sched.enqueue(entry(0, OpClass::Write, 8192));
        }
        sched.enqueue(entry(1, OpClass::Write, 8192));

        let first = sched.pick_next().expect("slot 1");
        assert_eq!(first.meta().client, 0);
        let second = sched.pick_next().expect("slot 2");
        assert_eq!(second.meta().client, 0);
        // Client 0 is at quota: the next pick must skip to client 1.
        let third = sched.pick_next().expect("client 1 eligible");
        assert_eq!(third.meta().client, 1);
        // Everyone queued is now at quota or empty: no pick.
        assert!(sched.pick_next().is_none());
        assert_eq!(sched.queued(), 3);
        // Completing one of client 0's requests unblocks it.
        sched.on_complete(&first.meta());
        assert_eq!(sched.pick_next().expect("unblocked").meta().client, 0);
    }

    #[test]
    fn classed_drr_serves_writes_before_commit_backlog() {
        let sched = ClassedDrr::new(32768, 8);
        // A COMMIT backlog arrives first...
        for _ in 0..3 {
            sched.enqueue(entry(0, OpClass::Commit, 0));
        }
        // ...then a WRITE from the same client.
        sched.enqueue(entry(0, OpClass::Write, 8192));
        let first = sched.pick_next().expect("pick");
        assert_eq!(first.meta().class, OpClass::Write);
        // The backlog still drains afterwards.
        assert_eq!(
            (0..3)
                .map(|_| sched.pick_next().expect("commit").meta().class)
                .filter(|c| *c == OpClass::Commit)
                .count(),
            3
        );
    }

    #[test]
    fn fast_path_grant_counts_against_quota() {
        let sched = ClassedDrr::new(32768, 1);
        let m = meta(0, OpClass::Write, 8192);
        assert!(sched.try_grant(&m));
        assert!(!sched.try_grant(&m), "quota 1 must reject a second grant");
        sched.ungrant(&m);
        assert!(sched.try_grant(&m), "ungrant must return the quota");
        sched.on_complete(&m);
        assert!(sched.try_grant(&m));
    }

    /// One simulated client-service world: `ops` are (start_delay_us,
    /// service_us) pairs, all against a pool of `slots`. Returns each
    /// op's completion time in spawn order.
    fn run_ops_engine(slots: usize, policy: SchedPolicy, ops: &[(u64, u64)]) -> Vec<u64> {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, slots, policy);
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, &(delay, service)) in ops.iter().enumerate() {
            let sim2 = sim.clone();
            let engine = Rc::clone(&engine);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                let m = ReqMeta {
                    client: i % 3,
                    class: OpClass::Write,
                    bytes: 8192,
                    arrival: sim2.now(),
                };
                let slot = engine.admit(m).await;
                sim2.sleep(SimDuration::from_micros(service)).await;
                drop(slot);
                done.borrow_mut().push((i, sim2.now().0));
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        let mut by_spawn = vec![0u64; ops.len()];
        for &(i, t) in done.borrow().iter() {
            by_spawn[i] = t;
        }
        by_spawn
    }

    /// The same world against the plain semaphore the server used before
    /// this subsystem.
    fn run_ops_semaphore(slots: usize, ops: &[(u64, u64)]) -> Vec<u64> {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(slots));
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, &(delay, service)) in ops.iter().enumerate() {
            let sim2 = sim.clone();
            let sem = Rc::clone(&sem);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                let permit = sem.acquire().await;
                sim2.sleep(SimDuration::from_micros(service)).await;
                drop(permit);
                done.borrow_mut().push((i, sim2.now().0));
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        let mut by_spawn = vec![0u64; ops.len()];
        for &(i, t) in done.borrow().iter() {
            by_spawn[i] = t;
        }
        by_spawn
    }

    /// FIFO bit-compatibility: the engine must complete every op at the
    /// identical simulated nanosecond the raw semaphore did, including
    /// under simultaneous arrivals and slot barging.
    #[test]
    fn fifo_engine_is_bit_compatible_with_semaphore() {
        let patterns: &[&[(u64, u64)]] = &[
            &[(0, 100), (0, 100), (0, 100), (0, 100)],
            &[(0, 500), (10, 20), (10, 20), (400, 300), (401, 1)],
            &[(5, 50), (5, 50), (5, 50), (55, 10), (55, 10), (56, 200)],
            &[(0, 1), (1, 1), (2, 1), (3, 1000), (3, 1), (1000, 5)],
        ];
        for (slots, pattern) in [(1usize, 0usize), (2, 1), (3, 2), (2, 3)] {
            let ops = patterns[pattern];
            assert_eq!(
                run_ops_engine(slots, SchedPolicy::Fifo, ops),
                run_ops_semaphore(slots, ops),
                "slots={slots} pattern={pattern}"
            );
        }
    }

    /// One op of a mixed-waiter world: (arrival µs, service µs, rounds,
    /// whether it is a taskless waiter driven off a direct waker). An op
    /// re-requests a slot the moment it releases one, `rounds` times in
    /// all — the release-then-arrive pattern that lets a fast-path
    /// arrival barge past the waiter the release just woke.
    type MixedOp = (u64, u64, u8, bool);

    /// The two slot pools a mixed world can run against: the engine
    /// under FIFO, or the raw semaphore it must replay.
    #[derive(Clone)]
    enum Pool {
        Engine(Rc<ServiceEngine>),
        Sem(Rc<Semaphore>),
    }

    impl Pool {
        /// A slot request from op `i`, arriving now.
        fn meta(sim: &Sim, i: usize) -> ReqMeta {
            ReqMeta {
                client: i % 3,
                class: OpClass::Write,
                bytes: 8192,
                arrival: sim.now(),
            }
        }
    }

    /// Per-op state of a taskless waiter: its admission machines (one
    /// per pool kind), request, rounds done and whether it holds a slot.
    #[derive(Default)]
    struct Taskless {
        svc: SvcAdmit,
        sem: nfsperf_sim::SemAcquire,
        meta: Option<ReqMeta>,
        rounds: u8,
        serving: bool,
    }

    /// Runs `ops` against a pool of `slots`: task ops `admit`/`acquire`
    /// in a spawned task, taskless ops drive the pool's poll machine from
    /// an event handler that parks direct wakers. Returns each op's
    /// completion nanosecond, in op order.
    fn run_mixed(slots: usize, engine: bool, ops: &[MixedOp]) -> Vec<u64> {
        let sim = Sim::new();
        let pool = if engine {
            Pool::Engine(ServiceEngine::new(&sim, slots, SchedPolicy::Fifo))
        } else {
            Pool::Sem(Rc::new(Semaphore::new(slots)))
        };
        let done = Rc::new(RefCell::new(vec![0u64; ops.len()]));
        let states: Rc<RefCell<Vec<Taskless>>> =
            Rc::new(RefCell::new((0..ops.len()).map(|_| Taskless::default()).collect()));
        let id: Rc<Cell<Option<nfsperf_sim::EventHandlerId>>> = Rc::new(Cell::new(None));
        let handler = {
            let (sim, pool, done, states, id) = (
                sim.clone(),
                pool.clone(),
                Rc::clone(&done),
                Rc::clone(&states),
                Rc::clone(&id),
            );
            let ops = ops.to_vec();
            sim.clone().register_event_handler(Rc::new(move |data: u64| {
                let i = data as usize;
                let (_, service, rounds, _) = ops[i];
                let h = id.get().expect("handler id");
                let mut states = states.borrow_mut();
                let st = &mut states[i];
                if st.serving {
                    // Service over: release, then re-request at once.
                    st.serving = false;
                    st.rounds += 1;
                    let meta = st.meta.take().expect("a served request");
                    match &pool {
                        Pool::Engine(e) => e.release(&meta),
                        Pool::Sem(s) => s.release_one(),
                    }
                    if st.rounds == rounds {
                        done.borrow_mut()[i] = sim.now().0;
                        return;
                    }
                }
                let meta = *st.meta.get_or_insert_with(|| Pool::meta(&sim, i));
                let mut wf = || sim.direct_waker(h, i as u32);
                let admitted = match &pool {
                    Pool::Engine(e) => e.poll_admit(meta, &mut st.svc, &mut wf),
                    Pool::Sem(s) => s.poll_acquire(&mut st.sem, &mut wf),
                };
                if admitted {
                    (st.svc, st.sem) = Default::default();
                    st.serving = true;
                    let at = sim.now() + SimDuration::from_micros(service);
                    sim.schedule_direct(at, h, data);
                }
            }))
        };
        id.set(Some(handler));
        let mut handles = Vec::new();
        for (i, &(delay, service, rounds, taskless)) in ops.iter().enumerate() {
            if taskless {
                if delay == 0 {
                    sim.post_event(handler, i as u64);
                } else {
                    sim.schedule_direct(SimTime(delay * 1_000), handler, i as u64);
                }
                continue;
            }
            let (sim2, pool, done) = (sim.clone(), pool.clone(), Rc::clone(&done));
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                for _ in 0..rounds {
                    match &pool {
                        Pool::Engine(e) => {
                            let slot = e.admit(Pool::meta(&sim2, i)).await;
                            sim2.sleep(SimDuration::from_micros(service)).await;
                            drop(slot);
                        }
                        Pool::Sem(s) => {
                            let permit = s.acquire().await;
                            sim2.sleep(SimDuration::from_micros(service)).await;
                            drop(permit);
                        }
                    }
                }
                done.borrow_mut()[i] = sim2.now().0;
            }));
        }
        let s = sim.clone();
        let states2 = Rc::clone(&states);
        let ops2 = ops.to_vec();
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
            // Let the taskless ops drain too.
            let unfinished = |st: &Taskless, op: &MixedOp| op.3 && st.rounds < op.2;
            while (states2.borrow().iter().zip(&ops2)).any(|(st, op)| unfinished(st, op)) {
                s.sleep(SimDuration::from_micros(1)).await;
            }
        });
        if let Pool::Engine(e) = &pool {
            assert_eq!(e.queued(), 0);
            assert_eq!(sim.live_wait_cells(), 0, "every wait cell freed");
        }
        sim.teardown();
        let out = done.borrow().clone();
        out
    }

    /// Property: on random mixes of task and taskless waiters — bursts of
    /// simultaneous arrivals, releases followed at once by a new request
    /// that barges past the waiter the release woke (which re-queues at
    /// the back), and direct-waker parks beside task parks — the FIFO
    /// engine finishes every op at the nanosecond the raw semaphore does.
    #[test]
    fn prop_fifo_engine_replays_semaphore_with_mixed_waiters() {
        check(
            "prop_fifo_engine_replays_semaphore_with_mixed_waiters",
            |g| {
                let slots = g.usize_in(1, 3);
                // Coarse 10 µs grids make arrivals collide with each
                // other and with releases.
                let ops = g.vec(1, 16, |g| {
                    (
                        g.u64_in(0, 8) * 10,
                        g.u64_in(1, 4) * 10,
                        g.u8_in(1, 3),
                        g.any_bool(),
                    )
                });
                (slots, ops)
            },
            |(slots, ops)| {
                // Shrinking may reach zero slots, service or rounds; none
                // of them is a world.
                let slots = (*slots).max(1);
                let ops: Vec<MixedOp> =
                    ops.iter().map(|&(d, s, r, t)| (d, s.max(1), r.max(1), t)).collect();
                prop_assert_eq!(
                    run_mixed(slots, true, &ops),
                    run_mixed(slots, false, &ops)
                );
                CaseOutcome::Pass
            },
        );
    }

    #[test]
    fn engine_records_queue_delay_and_service_latency() {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, 1, SchedPolicy::Fifo);
        let e1 = Rc::clone(&engine);
        let e2 = Rc::clone(&engine);
        let s1 = sim.clone();
        let s2 = sim.clone();
        let a = sim.spawn(async move {
            let m = ReqMeta {
                client: 0,
                class: OpClass::Write,
                bytes: 100,
                arrival: s1.now(),
            };
            let slot = e1.admit(m).await;
            s1.sleep(SimDuration::from_micros(100)).await;
            drop(slot);
        });
        let b = sim.spawn(async move {
            let m = ReqMeta {
                client: 1,
                class: OpClass::Commit,
                bytes: 0,
                arrival: s2.now(),
            };
            let slot = e2.admit(m).await;
            s2.sleep(SimDuration::from_micros(50)).await;
            drop(slot);
        });
        sim.run_until(async move {
            a.await;
            b.await;
        });
        let (q0, s0) = engine.digests(0);
        let (q1, s1d) = engine.digests(1);
        assert_eq!(q0.p50, SimDuration::ZERO, "client 0 never queued");
        assert_eq!(s0.p50, SimDuration::from_micros(100));
        assert_eq!(q1.p50, SimDuration::from_micros(100), "client 1 waited out client 0");
        assert_eq!(s1d.p50, SimDuration::from_micros(150));
        assert_eq!(engine.enqueued_bytes(), 100);
        assert_eq!(engine.served_bytes(), 100);
        // Unknown clients report zeroes.
        assert_eq!(engine.digests(7), Default::default());
    }

    /// Shared harness for the two properties below: run a random arrival
    /// pattern through an engine, tracking per-client in-flight peaks.
    /// Ops are (client, arrival_us, service_us, bytes).
    fn run_property_world(
        policy: SchedPolicy,
        slots: usize,
        ops: &[(usize, u64, u64, u64)],
    ) -> (Vec<usize>, u64, u64) {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, slots, policy);
        let in_flight: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![0; 8]));
        let peaks: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![0; 8]));
        let mut handles = Vec::new();
        for &(client, arrival, service, bytes) in ops {
            let sim2 = sim.clone();
            let engine = Rc::clone(&engine);
            let in_flight = Rc::clone(&in_flight);
            let peaks = Rc::clone(&peaks);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(arrival)).await;
                let m = ReqMeta {
                    client,
                    class: if bytes % 2 == 1 {
                        OpClass::Commit
                    } else {
                        OpClass::Write
                    },
                    bytes,
                    arrival: sim2.now(),
                };
                let slot = engine.admit(m).await;
                {
                    let mut inf = in_flight.borrow_mut();
                    inf[client] += 1;
                    let mut pk = peaks.borrow_mut();
                    pk[client] = pk[client].max(inf[client]);
                }
                sim2.sleep(SimDuration::from_micros(service)).await;
                in_flight.borrow_mut()[client] -= 1;
                drop(slot);
            }));
        }
        let enq;
        let served;
        {
            let engine = Rc::clone(&engine);
            sim.run_until(async move {
                for h in handles {
                    h.await;
                }
            });
            enq = engine.enqueued_bytes();
            served = engine.served_bytes();
        }
        let peaks = peaks.borrow().clone();
        (peaks, enq, served)
    }

    fn gen_ops(g: &mut nfsperf_sim::proptest::Gen) -> Vec<(usize, u64, u64, u64)> {
        g.vec(1, 24, |g| {
            (
                g.usize_in(0, 3),
                g.u64_in(0, 200),
                g.u64_in(1, 80),
                g.u64_in(0, 40_000),
            )
        })
    }

    /// Property: for any arrival pattern, ClassedDrr never lets a client
    /// exceed its in-flight quota.
    #[test]
    fn prop_quota_never_exceeded() {
        check("prop_quota_never_exceeded", gen_ops, |ops| {
            let quota = 2;
            let (peaks, _, _) = run_property_world(
                SchedPolicy::ClassedDrr {
                    quantum: 16 * 1024,
                    quota,
                },
                4,
                ops,
            );
            for (client, &peak) in peaks.iter().enumerate() {
                prop_assert!(
                    peak <= quota,
                    "client {client} reached {peak} in flight (quota {quota})"
                );
            }
            CaseOutcome::Pass
        });
    }

    /// Property: total served bytes equals total enqueued bytes once the
    /// queue drains (conservation) — for every policy.
    #[test]
    fn prop_byte_conservation() {
        check("prop_byte_conservation", gen_ops, |ops| {
            for policy in [
                SchedPolicy::Fifo,
                SchedPolicy::drr(),
                SchedPolicy::classed_drr(),
            ] {
                let (_, enqueued, served) = run_property_world(policy, 3, ops);
                prop_assert_eq!(enqueued, served);
                let want: u64 = ops.iter().map(|&(_, _, _, b)| b).sum();
                prop_assert_eq!(enqueued, want);
            }
            CaseOutcome::Pass
        });
    }

    /// Quota-blocked picks must not deadlock idle slots: completions
    /// re-kick the scheduler.
    #[test]
    fn quota_block_resolves_on_completion() {
        let ops: Vec<(usize, u64, u64, u64)> =
            (0..10u64).map(|i| (0usize, 0u64, 50u64, 8192 * (i % 2))).collect();
        let (peaks, enq, served) = run_property_world(
            SchedPolicy::ClassedDrr {
                quantum: 16 * 1024,
                quota: 1,
            },
            4,
            &ops,
        );
        assert_eq!(enq, served, "all ops must eventually be served");
        assert!(peaks[0] <= 1);
    }
}
