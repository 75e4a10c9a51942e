//! Pluggable per-port scheduling for shared-link lanes.
//!
//! PR 4 made the *server's* service order a policy behind the
//! `Scheduler` trait; this module does the same for the *wire*. Every
//! contended lane of a [`crate::SharedLink`] — the flat fleet switch
//! uplink and both tiers of the multi-stage fabric — asks a
//! [`PortSched`] which queued datagram serializes next:
//!
//! - [`PortFifo`] — arrival order, bit-compatible with the bare
//!   `Semaphore` the lane used before this subsystem existed (asserted
//!   by a replay property test and by byte-identical sweep CSVs under
//!   the default policy).
//! - [`PortDrr`] — Shreedhar–Varghese deficit round robin keyed by the
//!   datagram's *source flow id*, with byte-weighted quanta and the same
//!   cost floor as `server::sched`: a flow sending jumbo datagrams and a
//!   flow sending small ones get equal wire *bytes*, not equal frames.
//! - [`PortWrr`] — weighted DRR driven by a per-flow [`WeightTable`]:
//!   each rotation tops a flow's deficit up by `quantum × weight`, so an
//!   SLA can hand one client 4× the wire share of another.
//!
//! The schedulers only order the queue; the lane itself (in
//! [`crate::switch`]) owns the single transmission slot and replicates
//! the exact admission semantics of [`nfsperf_sim::Semaphore`] — fast
//! path barging, head-only wakes, re-queue on slot steal — so that
//! `PortFifo` is not merely equivalent to the old lane but
//! *bit-identical*.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use nfsperf_sim::WaitCell;

/// Byte cost floor, mirroring `server::sched::COST_FLOOR`: a tiny
/// datagram (a COMMIT call, a reply fragment) still occupies the lane
/// for a serialization slot, so DRR charges it as if it carried a small
/// frame. Without a floor a flow could pump unlimited runt frames
/// through a single quantum.
pub const PORT_COST_FLOOR: u64 = 512;

/// Per-flow wire weights for [`PortWrr`] (and the server's weighted
/// DRR): flow `f` earns `quantum × weight(f)` of deficit per ring
/// rotation. Flows beyond the table (and zero entries) default to
/// weight 1, so a table only needs to name the flows it privileges.
///
/// Backed by an `Arc` so one table can be threaded from an experiment's
/// config through `FabricConfig`/`ServerConfig` into every lane without
/// copies, and cloned across the deterministic runner's worker threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightTable(std::sync::Arc<Vec<u32>>);

impl WeightTable {
    /// A table assigning `weights[f]` to flow `f`.
    pub fn new(weights: Vec<u32>) -> WeightTable {
        WeightTable(std::sync::Arc::new(weights))
    }

    /// The all-ones table (every flow weight 1 — plain DRR).
    pub fn uniform() -> WeightTable {
        WeightTable::default()
    }

    /// Flow `f`'s weight (1 for flows beyond the table or zero entries —
    /// a zero weight would starve the flow forever and deadlock its
    /// senders).
    pub fn get(&self, flow: u32) -> u64 {
        match self.0.get(flow as usize) {
            Some(&w) if w > 0 => u64::from(w),
            _ => 1,
        }
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One queued lane admission, held by value in the lane scheduler's
/// queues: the datagram's source flow and wire-byte cost plus the
/// handle of the [`WaitCell`] its transmitter parks on (the same shape
/// as `server::sched`'s `ReqEntry`). The lane claims the cell when the
/// datagram queues, wakes it when the scheduler picks the entry, and the
/// transmitter frees it once admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortTicket {
    flow: u32,
    cost: u32,
    cell: WaitCell,
}

impl PortTicket {
    /// An entry for one datagram of `cost` wire bytes from `flow` that
    /// parks on no cell — for probes and tests that only exercise the
    /// order; lanes build theirs with [`PortTicket::on_cell`].
    pub fn new(flow: u32, cost: u64) -> PortTicket {
        PortTicket::on_cell(flow, cost, WaitCell::NONE)
    }

    /// An entry whose transmitter parks on `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cost` does not fit 32 bits.
    pub fn on_cell(flow: u32, cost: u64, cell: WaitCell) -> PortTicket {
        PortTicket {
            flow,
            cost: u32::try_from(cost).expect("datagram wire bytes exceed 32 bits"),
            cell,
        }
    }

    /// The datagram's source flow id.
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// The datagram's wire-byte cost (pre-floor).
    pub fn cost(&self) -> u64 {
        u64::from(self.cost)
    }

    /// The wait cell the transmitter is parked on.
    pub fn cell(&self) -> WaitCell {
        self.cell
    }
}

/// A wire-ordering policy for one lane.
///
/// The lane owns the single serialization slot; the scheduler owns the
/// order. `enqueue` admits an entry, `pick_next` removes and returns the
/// next to serialize (charging any deficit), and `ungrant` refunds a
/// pick whose lane slot was stolen by a fast-path arrival before the
/// woken transmitter ran (the entry re-enters via `enqueue`).
pub trait PortSched {
    /// Policy name for reports (`port-fifo`, `port-drr`, `port-wrr`).
    fn label(&self) -> &'static str;

    /// Admits an entry to the queue.
    fn enqueue(&self, ticket: PortTicket);

    /// Removes and returns the next entry to serialize, or `None` if
    /// nothing is queued.
    fn pick_next(&self) -> Option<PortTicket>;

    /// Refunds a pick whose slot was stolen; the same `(flow, cost)`
    /// will re-enqueue immediately after.
    fn ungrant(&self, _flow: u32, _cost: u64) {}

    /// Number of queued entries.
    fn queued(&self) -> usize;

    /// Live bytes of policy state *beyond* the lane's fixed arbiter
    /// model (deficit tables, rings, per-flow queues). Zero for the
    /// FIFO, whose single queue is covered by the arbiter allowance —
    /// this is what the flyweight memory ledger charges per lane.
    fn resident_bytes(&self) -> usize;
}

/// Arrival-order wire scheduling — the pre-subsystem semaphore lane.
#[derive(Default)]
pub struct PortFifo {
    queue: RefCell<VecDeque<PortTicket>>,
}

impl PortSched for PortFifo {
    fn label(&self) -> &'static str {
        "port-fifo"
    }

    fn enqueue(&self, ticket: PortTicket) {
        self.queue.borrow_mut().push_back(ticket);
    }

    fn pick_next(&self) -> Option<PortTicket> {
        self.queue.borrow_mut().pop_front()
    }

    fn queued(&self) -> usize {
        self.queue.borrow().len()
    }

    fn resident_bytes(&self) -> usize {
        // The semaphore-era lane model already budgets a small waiter
        // queue; FIFO keeps exactly that footprint.
        0
    }
}

/// Per-flow DRR state: the flow's entry queue and accumulated byte
/// credit. Entries exist only while a flow is backlogged (or holds an
/// `ungrant` refund awaiting its re-enqueue), so a million idle flows
/// cost the lane nothing.
struct DrrFlow {
    queue: VecDeque<PortTicket>,
    deficit: u64,
    in_ring: bool,
}

impl DrrFlow {
    fn new() -> DrrFlow {
        DrrFlow {
            queue: VecDeque::new(),
            deficit: 0,
            in_ring: false,
        }
    }
}

/// Deterministic hasher: flows hash with fixed SipHash keys so nothing
/// about the table depends on process-level randomness (lookups never
/// iterate, but determinism here costs nothing).
type FlowMap = HashMap<u32, DrrFlow, BuildHasherDefault<DefaultHasher>>;

struct PortDrrInner {
    flows: FlowMap,
    /// Round-robin ring of flow ids with queued work.
    ring: VecDeque<u32>,
    queued: usize,
}

/// DRR core shared by [`PortDrr`] (uniform weights) and [`PortWrr`]
/// (table-driven weights) — the same quantum/cost-floor arithmetic as
/// `server::sched::DrrCore`, keyed by flow id instead of client id and
/// with a sparse flow table instead of a dense client vector (flow ids
/// reach into the millions on a fabric; only backlogged flows
/// materialize state).
struct PortDrrCore {
    label: &'static str,
    quantum: u64,
    weights: WeightTable,
    inner: RefCell<PortDrrInner>,
}

impl PortDrrCore {
    fn new(label: &'static str, quantum: u64, weights: WeightTable) -> PortDrrCore {
        assert!(quantum > 0, "port DRR quantum must be positive");
        PortDrrCore {
            label,
            quantum,
            weights,
            inner: RefCell::new(PortDrrInner {
                flows: FlowMap::default(),
                ring: VecDeque::new(),
                queued: 0,
            }),
        }
    }

    fn cost(wire: u64) -> u64 {
        wire.max(PORT_COST_FLOOR)
    }
}

impl PortSched for PortDrrCore {
    fn label(&self) -> &'static str {
        self.label
    }

    fn enqueue(&self, ticket: PortTicket) {
        let flow = ticket.flow();
        let mut inner = self.inner.borrow_mut();
        let st = inner.flows.entry(flow).or_insert_with(DrrFlow::new);
        st.queue.push_back(ticket);
        let join = !st.in_ring;
        st.in_ring = true;
        inner.queued += 1;
        if join {
            inner.ring.push_back(flow);
        }
    }

    fn pick_next(&self) -> Option<PortTicket> {
        let mut inner = self.inner.borrow_mut();
        loop {
            let &flow = inner.ring.front()?;
            let head_cost = match inner.flows.get(&flow) {
                Some(st) if !st.queue.is_empty() => PortDrrCore::cost(st.queue[0].cost()),
                // Drained while keeping its ring slot (possible after an
                // ungrant/re-enqueue shuffle): retire the flow and forget
                // its credit, as DRR does for any idling flow.
                _ => {
                    inner.ring.pop_front();
                    inner.flows.remove(&flow);
                    continue;
                }
            };
            let st = inner.flows.get_mut(&flow).expect("checked above");
            if st.deficit < head_cost {
                st.deficit += self.quantum * self.weights.get(flow);
                inner.ring.rotate_left(1);
                continue;
            }
            st.deficit -= head_cost;
            let ticket = st.queue.pop_front().expect("non-empty flow queue");
            let empty = st.queue.is_empty();
            inner.queued -= 1;
            if empty {
                inner.ring.pop_front();
                inner.flows.remove(&flow);
            }
            return Some(ticket);
        }
    }

    fn ungrant(&self, flow: u32, cost: u64) {
        // Refund the byte cost pick_next charged; the entry is about to
        // re-enqueue and would otherwise pay twice. The entry may have
        // been retired when its queue drained — recreate it; the
        // re-enqueue puts the flow back in the ring.
        let mut inner = self.inner.borrow_mut();
        inner
            .flows
            .entry(flow)
            .or_insert_with(DrrFlow::new)
            .deficit += PortDrrCore::cost(cost);
    }

    fn queued(&self) -> usize {
        self.inner.borrow().queued
    }

    fn resident_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        let per_entry = std::mem::size_of::<(u32, DrrFlow)>();
        let queues: usize = inner
            .flows
            .values()
            .map(|st| st.queue.capacity() * std::mem::size_of::<PortTicket>())
            .sum();
        inner.flows.capacity() * per_entry
            + inner.ring.capacity() * std::mem::size_of::<u32>()
            + queues
    }
}

/// Deficit round robin across source flows, byte-weighted quanta.
pub struct PortDrr(PortDrrCore);

impl PortDrr {
    /// Creates a port DRR scheduler with the given per-rotation byte
    /// quantum.
    pub fn new(quantum: u64) -> PortDrr {
        PortDrr(PortDrrCore::new("port-drr", quantum, WeightTable::uniform()))
    }
}

impl PortSched for PortDrr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, ticket: PortTicket) {
        self.0.enqueue(ticket);
    }
    fn pick_next(&self) -> Option<PortTicket> {
        self.0.pick_next()
    }
    fn ungrant(&self, flow: u32, cost: u64) {
        self.0.ungrant(flow, cost);
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
    fn resident_bytes(&self) -> usize {
        self.0.resident_bytes()
    }
}

/// Weighted DRR: flow `f` earns `quantum × weight(f)` per rotation.
pub struct PortWrr(PortDrrCore);

impl PortWrr {
    /// Creates a weighted port scheduler from a per-flow weight table.
    pub fn new(quantum: u64, weights: WeightTable) -> PortWrr {
        PortWrr(PortDrrCore::new("port-wrr", quantum, weights))
    }
}

impl PortSched for PortWrr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, ticket: PortTicket) {
        self.0.enqueue(ticket);
    }
    fn pick_next(&self) -> Option<PortTicket> {
        self.0.pick_next()
    }
    fn ungrant(&self, flow: u32, cost: u64) {
        self.0.ungrant(flow, cost);
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
    fn resident_bytes(&self) -> usize {
        self.0.resident_bytes()
    }
}

/// Port scheduling policy selection, carried by switch and fabric
/// configs (and the `--port-sched` CLI flag).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PortPolicy {
    /// Arrival order (the default; the paper's Summit7i serves frames
    /// FIFO, and the reproduced figures must not move).
    #[default]
    Fifo,
    /// Deficit round robin across source flows.
    Drr {
        /// Wire-byte credit added per ring rotation.
        quantum: u64,
    },
    /// Weighted DRR from a per-flow weight table.
    Wrr {
        /// Base wire-byte credit added per ring rotation (scaled by each
        /// flow's weight).
        quantum: u64,
        /// Per-flow weights.
        weights: WeightTable,
    },
}

impl PortPolicy {
    /// Default per-rotation quantum: one largest WRITE datagram's wire
    /// bytes, mirroring the server scheduler's default.
    pub const DEFAULT_QUANTUM: u64 = 32 * 1024;

    /// DRR with the default quantum.
    pub fn drr() -> PortPolicy {
        PortPolicy::Drr {
            quantum: PortPolicy::DEFAULT_QUANTUM,
        }
    }

    /// WRR with the default quantum and the given table.
    pub fn wrr(weights: WeightTable) -> PortPolicy {
        PortPolicy::Wrr {
            quantum: PortPolicy::DEFAULT_QUANTUM,
            weights,
        }
    }

    /// Policy name for reports and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            PortPolicy::Fifo => "port-fifo",
            PortPolicy::Drr { .. } => "port-drr",
            PortPolicy::Wrr { .. } => "port-wrr",
        }
    }

    /// Parses a CLI policy name (`port-fifo`, `port-drr`, `port-wrr`;
    /// the bare `fifo`/`drr`/`wrr` spellings also work), with default
    /// parameters — a parsed WRR starts from the uniform table and takes
    /// real weights from the experiment config.
    pub fn parse(s: &str) -> Option<PortPolicy> {
        match s {
            "port-fifo" | "fifo" => Some(PortPolicy::Fifo),
            "port-drr" | "drr" => Some(PortPolicy::drr()),
            "port-wrr" | "wrr" => Some(PortPolicy::wrr(WeightTable::uniform())),
            _ => None,
        }
    }

    /// Builds one lane's scheduler.
    pub fn build(&self) -> Box<dyn PortSched> {
        match self {
            PortPolicy::Fifo => Box::new(PortFifo::default()),
            PortPolicy::Drr { quantum } => Box::new(PortDrr::new(*quantum)),
            PortPolicy::Wrr { quantum, weights } => {
                Box::new(PortWrr::new(*quantum, weights.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sched: &dyn PortSched) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(t) = sched.pick_next() {
            order.push(t.flow());
        }
        order
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let sched = PortFifo::default();
        for (flow, cost) in [(2u32, 8500u64), (0, 600), (1, 33000), (0, 8500)] {
            sched.enqueue(PortTicket::new(flow, cost));
        }
        assert_eq!(drain(&sched), vec![2, 0, 1, 0]);
        assert_eq!(sched.queued(), 0);
        assert_eq!(sched.resident_bytes(), 0);
    }

    /// The port-DRR hand trace, mirroring
    /// `server::sched`'s `drr_quantum_accounting_is_byte_weighted`: with
    /// an 8192-byte quantum, a flow sending 8192-byte frames is served
    /// four times per service of a flow sending 32768-byte frames —
    /// equal wire bytes, not equal frames.
    #[test]
    fn drr_quantum_accounting_is_byte_weighted() {
        let sched = PortDrr::new(8192);
        for _ in 0..8 {
            sched.enqueue(PortTicket::new(0, 8192));
        }
        for _ in 0..2 {
            sched.enqueue(PortTicket::new(1, 32768));
        }
        assert_eq!(drain(&sched), vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
    }

    /// Hand trace of the deficit ledger itself: flow 1 (32 KB frames)
    /// needs four 8 KB top-ups before its first service, during which
    /// flow 0 (8 KB frames) is served once per rotation.
    #[test]
    fn drr_deficit_hand_trace() {
        let sched = PortDrr::new(8192);
        sched.enqueue(PortTicket::new(1, 32768));
        sched.enqueue(PortTicket::new(1, 32768));
        sched.enqueue(PortTicket::new(0, 8192));
        // Ring order: [1, 0]. Rotations: 1 tops up (8k..32k, four
        // rotations), 0 serves each time its turn comes.
        let order = drain(&sched);
        assert_eq!(order, vec![0, 1, 1]);
    }

    #[test]
    fn drr_cost_floor_charges_runt_frames() {
        // 64 runt frames at the 512-byte floor cost one 32 KB quantum:
        // flow 0 cannot squeeze more than 64 runts into one rotation.
        let sched = PortDrr::new(32 * 1024);
        for _ in 0..65 {
            sched.enqueue(PortTicket::new(0, 1));
        }
        sched.enqueue(PortTicket::new(1, 512));
        let order = drain(&sched);
        let first_flow1 = order.iter().position(|f| *f == 1).unwrap();
        assert_eq!(first_flow1, 64, "floor must cap runts per quantum");
    }

    #[test]
    fn wrr_weights_scale_the_quantum() {
        // Flow 1 has weight 4: per rotation it earns 4 quanta and sends
        // four frames to flow 0's one.
        let sched = PortWrr::new(8192, WeightTable::new(vec![1, 4]));
        for _ in 0..4 {
            sched.enqueue(PortTicket::new(0, 8192));
        }
        for _ in 0..8 {
            sched.enqueue(PortTicket::new(1, 8192));
        }
        assert_eq!(drain(&sched), vec![0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn ungrant_refunds_the_charged_cost() {
        let sched = PortDrr::new(8192);
        sched.enqueue(PortTicket::new(0, 8192));
        let t = sched.pick_next().expect("pick");
        assert_eq!(sched.queued(), 0);
        // Slot stolen: refund, re-enqueue, and the next pick serves the
        // same frame without a second top-up (deficit came back).
        sched.ungrant(t.flow(), t.cost());
        sched.enqueue(t);
        let again = sched.pick_next().expect("re-pick");
        assert_eq!(t, again);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn retired_flows_free_their_state() {
        let sched = PortDrr::new(8192);
        for flow in 0..64u32 {
            sched.enqueue(PortTicket::new(flow, 1000));
        }
        assert!(sched.resident_bytes() > 0);
        while sched.pick_next().is_some() {}
        let inner = sched.0.inner.borrow();
        assert!(inner.flows.is_empty(), "idle flows must not hold state");
        assert!(inner.ring.is_empty());
    }

    /// A fabric lane can hold a queued entry per client: entries are
    /// plain values, 12 bytes each.
    #[test]
    fn lane_queue_entry_is_compact() {
        assert!(
            std::mem::size_of::<PortTicket>() <= 12,
            "lane queue entry grew to {} bytes",
            std::mem::size_of::<PortTicket>()
        );
    }

    #[test]
    fn weight_table_defaults_to_one() {
        let t = WeightTable::new(vec![3, 0]);
        assert_eq!(t.get(0), 3);
        assert_eq!(t.get(1), 1, "zero weight clamps to 1 (no starvation)");
        assert_eq!(t.get(99), 1, "beyond the table defaults to 1");
        assert!(WeightTable::uniform().is_empty());
        assert_eq!(WeightTable::new(vec![2]).len(), 1);
    }

    #[test]
    fn policy_parse_label_build_roundtrip() {
        for (s, label) in [
            ("port-fifo", "port-fifo"),
            ("fifo", "port-fifo"),
            ("port-drr", "port-drr"),
            ("drr", "port-drr"),
            ("port-wrr", "port-wrr"),
            ("wrr", "port-wrr"),
        ] {
            let p = PortPolicy::parse(s).expect("parse");
            assert_eq!(p.label(), label);
            assert_eq!(p.build().label(), label);
        }
        assert!(PortPolicy::parse("edf").is_none());
        assert_eq!(PortPolicy::default(), PortPolicy::Fifo);
    }
}
