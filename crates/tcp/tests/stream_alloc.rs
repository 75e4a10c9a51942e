//! Counting-allocator gate on the heap traffic of a TCP byte stream.
//!
//! A payload byte should be copied into the send ring once, from the ring
//! into a pooled datagram once, and out of the datagram into the
//! receiver's buffer once — with no per-segment `Vec` of its own along the
//! way. This harness wraps the system allocator with a byte counter, warms
//! one connection up with two bulk transfers (growing the send ring, the
//! datagram pool and the executor's slabs to their steady sizes), then
//! measures a third transfer of the same size and bounds the heap bytes
//! it allocates per payload byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use nfsperf_net::{pool_put, Nic, NicSpec, Path};
use nfsperf_sim::{Sim, SimDuration};
use nfsperf_tcp::{TcpConfig, TcpConn, TcpEndpoint};

/// Counts the bytes of every heap acquisition (alloc, and realloc's new
/// size; dealloc is free of charge).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Bytes per measured transfer.
const TRANSFER: usize = 4 << 20;

/// Heap bytes allocated per payload byte the measured transfer may cost:
/// the 1.068 measured on x86-64 Linux plus 8%. What is left is not the
/// stream's: one boxed transmit task per datagram in `nfsperf-net`
/// (~0.75), its per-datagram departure trace, and executor bookkeeping.
/// The stream this replaced (`to_vec` per segment, `encode` per datagram,
/// `decode` per arrival, a fresh `Vec` per ACK and per `recv_some`)
/// measured 5.101.
const BUDGET: f64 = 1.15;

/// Stream byte `i`.
fn pattern(i: usize) -> u8 {
    (i * 31 % 251) as u8
}

/// Reads `TRANSFER` bytes from `conn`, checking each against the pattern
/// and dropping it — the receiver keeps no copy of its own.
async fn drain(conn: Rc<TcpConn>) {
    let mut at = 0;
    while at < TRANSFER {
        let bytes = conn.recv_some().await.expect("stream ended early");
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(b, pattern(at + i), "stream corrupted at byte {}", at + i);
        }
        at += bytes.len();
        pool_put(bytes);
    }
    assert_eq!(at, TRANSFER, "stream overran the transfer");
}

#[test]
fn bulk_stream_allocates_within_budget_per_payload_byte() {
    let sim = Sim::new();
    let (client_nic, client_rx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (server_nic, server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let c2s = Path::new(client_nic, server_nic, Path::default_latency());
    let s2c = c2s.reversed();
    let client = TcpEndpoint::new(&sim, c2s, client_rx, TcpConfig::for_mtu(1500));
    let server = TcpEndpoint::new(&sim, s2c, server_rx, TcpConfig::for_mtu(1500));
    let data: Vec<u8> = (0..TRANSFER).map(pattern).collect();

    let s = sim.clone();
    let per_byte = sim.run_until(async move {
        let conn = client.connect().await.unwrap();
        let peer = server.accept().await.unwrap();
        // Two warm-up transfers grow every buffer to its steady size: the
        // first ramps up through slow start, the second starts at the full
        // window like the measured one.
        let mut before = 0;
        for _ in 0..3 {
            // Let the last ACKs land so each send starts on an empty ring.
            s.sleep(SimDuration::from_millis(1)).await;
            before = allocated();
            let rx = s.spawn(drain(Rc::clone(&peer)));
            conn.send(&data).unwrap();
            rx.await;
        }
        (allocated() - before) as f64 / TRANSFER as f64
    });
    println!("stream heap bytes per payload byte: {per_byte:.3} (budget {BUDGET})");
    assert!(
        per_byte <= BUDGET,
        "a 4 MiB transfer allocated {per_byte:.3} heap bytes per payload byte (budget {BUDGET})"
    );
}
