//! Memory regression gate: peak heap per flyweight client with every
//! client in flight at once.
//!
//! At a million clients the tier's cost is whatever the engine keeps per
//! in-flight RPC, on top of the resident `FlyClient` record: the RPC
//! record, its direct waker, the event-slab slot its first dispatch
//! used, and the timers and queue entries of the hops it is parked on.
//! This harness wraps the system allocator with a live-byte counter
//! that tracks its high-water mark, launches a tier whose clients all
//! emit at the same instant (so every client holds an RPC in flight at
//! the launch burst), runs it to completion, and holds the peak, net of
//! the heap in use before the world was built, under a per-client
//! budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use nfsperf_fleet::{BehaviorModel, FlyTier, FlyTierConfig};
use nfsperf_net::{Fabric, FabricConfig, NicSpec};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment; count the new
        // one before the old one goes, as the high-water mark must.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// Clients in the gated tier: large enough that per-client costs swamp
/// the world's fixed overhead, small enough for a debug-build test run.
const CLIENTS: u32 = 50_000;

/// Peak heap bytes allowed per client, with every client's RPC in
/// flight. Covers the 64-byte client record, the RPC record (with the
/// slab's growth slack), the engine's per-RPC bookkeeping and the
/// model's own queue state: 521 B when set. An engine that also keeps a
/// reserved task slot with its waker, and a boxed waker per event-slab
/// slot and per RPC record, measures 658 B here and fails.
const BUDGET_PER_CLIENT: usize = 560;

#[test]
fn peak_heap_per_in_flight_client_stays_within_budget() {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let sim = Sim::new();
    let server_nic = NicSpec::gigabit();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
    let model = BehaviorModel {
        gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 50_000)),
        write_wire_bytes: 8328,
        commit_wire_bytes: 136,
        write_payload: 8192,
        writes_per_commit: 16,
        window: 4,
    };
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        model,
        FlyTierConfig {
            // Every client emits at t = 0 with one RPC in flight: the
            // launch burst holds one record per client.
            start_spread: SimDuration::ZERO,
            window_cap: 1,
            ..FlyTierConfig::new(CLIENTS, 1, server_nic)
        },
    );
    let t2 = Rc::clone(&tier);
    sim.run_until(async move { t2.wait_done().await });
    assert_eq!(
        server.slim_stats().writes,
        u64::from(CLIENTS),
        "every client completed its write"
    );

    let per_client = (PEAK.load(Ordering::Relaxed) - base) / CLIENTS as usize;
    println!("peak heap per in-flight client: {per_client} B");
    assert!(
        per_client <= BUDGET_PER_CLIENT,
        "peak heap per in-flight client is {per_client} B, over the \
         {BUDGET_PER_CLIENT} B budget"
    );
    drop(tier);
    sim.teardown();
}
