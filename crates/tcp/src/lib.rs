//! # nfsperf-tcp — a deterministic TCP connection model
//!
//! A byte-stream transport layered on `nfsperf-net`'s datagram NICs, built
//! for the UDP-vs-TCP transport experiments: every mechanism that shapes
//! NFS-over-TCP write throughput is modeled (three-way-handshake setup
//! cost, ACK-clocked in-order delivery, slow start + AIMD congestion
//! window, RTO with Jacobson/Karels estimation and Karn's rule, fast
//! retransmit on triple duplicate ACK, reconnection after failure), while
//! everything irrelevant to the reproduction is not (no receive-window flow
//! control, no delayed ACKs, no TIME-WAIT, 64-bit never-wrapping sequence
//! numbers).
//!
//! Segments travel as ordinary `nfsperf-net` datagrams, so they share the
//! UDP stack's serialization, latency, IP-fragmentation and seeded-loss
//! models — a lost datagram costs TCP one segment, where it costs the UDP
//! RPC transport the entire RPC. That asymmetry is the point of the
//! `experiments::transport` loss sweep.
//!
//! Everything is single-threaded and deterministic: same seeds, same wire
//! schedule, bit-for-bit.

mod conn;
mod endpoint;
mod ring;
pub mod segment;

pub use conn::{TcpConfig, TcpConn, TcpError};
pub use endpoint::{TcpEndpoint, TcpStats};

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use nfsperf_net::{Nic, NicSpec, Path};
    use nfsperf_sim::proptest::{check, CaseOutcome};
    use nfsperf_sim::{prop_assert, prop_assert_eq, select2, Either, Sim, SimDuration, SimTime};

    use crate::segment::{Segment, FLAG_ACK, HEADER_LEN};
    use crate::{TcpConfig, TcpConn, TcpEndpoint, TcpError, TcpStats};

    /// Builds a client/server endpoint pair. Loss applies to datagrams the
    /// client NIC transmits (requests and the client's ACKs).
    fn world(loss: f64) -> (Sim, Rc<TcpEndpoint>, Rc<TcpEndpoint>) {
        let (sim, client, server, _) = world_with(loss, 0.0, 42);
        (sim, client, server)
    }

    /// Like [`world`], with loss `server_loss` on the server's NIC too
    /// (seeded `seed + 1`), and returning the client-to-server path, whose
    /// `reversed()` reaches the client: tests inject datagrams of their
    /// own along either.
    fn world_with(
        client_loss: f64,
        server_loss: f64,
        seed: u64,
    ) -> (Sim, Rc<TcpEndpoint>, Rc<TcpEndpoint>, Path) {
        let sim = Sim::new();
        let (client_nic, client_rx) =
            Nic::with_loss(&sim, "client", NicSpec::gigabit(), client_loss, seed);
        let (server_nic, server_rx) =
            Nic::with_loss(&sim, "server", NicSpec::gigabit(), server_loss, seed + 1);
        let c2s = Path::new(client_nic, server_nic, Path::default_latency());
        let s2c = c2s.reversed();
        let client = TcpEndpoint::new(&sim, c2s.clone(), client_rx, TcpConfig::for_mtu(1500));
        let server = TcpEndpoint::new(&sim, s2c, server_rx, TcpConfig::for_mtu(1500));
        (sim, client, server, c2s)
    }

    async fn recv_exactly(conn: &Rc<TcpConn>, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while out.len() < n {
            out.extend(conn.recv_some().await.expect("stream ended early"));
        }
        out
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn handshake_and_echo() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let req = recv_exactly(&conn, 5).await;
                conn.send(&req).unwrap();
                req
            }
        });
        let (elapsed, echoed) = sim.run_until({
            let sim = sim.clone();
            async move {
                let t0 = sim.now();
                let conn = client.connect().await.unwrap();
                let setup = sim.now() - t0;
                conn.send(b"hello").unwrap();
                let reply = recv_exactly(&conn, 5).await;
                assert_eq!(reply, b"hello");
                (setup, server_task.await)
            }
        });
        assert_eq!(echoed, b"hello");
        // Handshake costs at least one round trip but well under a
        // millisecond on an idle gigabit link with 30 us propagation.
        assert!(elapsed >= SimDuration::from_micros(60), "setup {elapsed:?}");
        assert!(elapsed < SimDuration::from_millis(1), "setup {elapsed:?}");
    }

    /// Runs a one-way bulk transfer and returns (elapsed, stats).
    fn bulk(loss: f64, size: usize) -> (SimDuration, TcpStats) {
        let (sim, client, server) = world(loss);
        let data = payload(size);
        let expect = data.clone();
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await
            }
        });
        let received = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(&data).unwrap();
                server_task.await
            }
        });
        assert_eq!(received, expect, "stream corrupted");
        (sim.now() - nfsperf_sim::SimTime::ZERO, client.stats())
    }

    #[test]
    fn lossless_bulk_transfer_never_retransmits() {
        let (elapsed, stats) = bulk(0.0, 512 * 1024);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.rto_timeouts, 0);
        // 512 KB at ~1 Gb/s is ~4 ms; slow start and ACK clocking may
        // stretch it, but it must stay in the same order of magnitude.
        assert!(elapsed < SimDuration::from_millis(60), "took {elapsed:?}");
    }

    #[test]
    fn heavy_loss_recovers_every_byte() {
        let (_elapsed, stats) = bulk(0.2, 100 * 1024);
        assert!(stats.retransmits > 0, "expected retransmissions: {stats:?}");
        assert!(
            stats.rto_timeouts > 0 || stats.fast_retransmits > 0,
            "loss recovered without any recovery mechanism firing: {stats:?}"
        );
    }

    #[test]
    fn moderate_loss_uses_fast_retransmit() {
        let (_elapsed, stats) = bulk(0.02, 512 * 1024);
        assert!(
            stats.fast_retransmits > 0,
            "expected triple-dup-ACK recovery: {stats:?}"
        );
    }

    #[test]
    fn slow_start_opens_the_window() {
        let (sim, client, server) = world(0.0);
        let size = 256 * 1024;
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await.len()
            }
        });
        let (initial_cwnd, final_cwnd) = sim.run_until(async move {
            let conn = client.connect().await.unwrap();
            let initial = conn.cwnd();
            conn.send(&payload(size)).unwrap();
            server_task.await;
            (initial, conn.cwnd())
        });
        assert!(final_cwnd > initial_cwnd, "{initial_cwnd} -> {final_cwnd}");
        assert!(final_cwnd <= 64 * 1024, "cwnd exceeded cap: {final_cwnd}");
    }

    #[test]
    fn connect_gives_up_when_peer_is_gone() {
        let sim = Sim::new();
        let (client_nic, client_rx) = Nic::new(&sim, "client", NicSpec::gigabit());
        // The server NIC exists but nothing reads or answers it.
        let (server_nic, _server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let path = Path::new(client_nic, server_nic, Path::default_latency());
        let client = TcpEndpoint::new(&sim, path, client_rx, TcpConfig::for_mtu(1500));
        let err = sim.run_until(async move { client.connect().await.err().unwrap() });
        assert_eq!(err, TcpError::ConnectTimedOut);
        // 5 retries with doubling backoff from 1 s: 1+2+4+8+16+32 = 63 s.
        assert_eq!(sim.now() - nfsperf_sim::SimTime::ZERO, SimDuration::from_secs(63));
    }

    #[test]
    fn abort_resets_the_peer() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let first = recv_exactly(&conn, 4).await;
                let err = loop {
                    match conn.recv_some().await {
                        Ok(_) => continue,
                        Err(e) => break e,
                    }
                };
                (first, err)
            }
        });
        let (first, err) = sim.run_until({
            let sim = sim.clone();
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(b"data").unwrap();
                // Give the bytes time to arrive, then kill the connection.
                sim.sleep(SimDuration::from_millis(5)).await;
                conn.abort();
                assert!(!conn.is_open());
                server_task.await
            }
        });
        assert_eq!(first, b"data");
        assert_eq!(err, TcpError::Reset);
    }

    #[test]
    fn close_delivers_end_of_stream() {
        let (sim, client, server) = world(0.0);
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                let data = recv_exactly(&conn, 4).await;
                let end = conn.recv_some().await.unwrap_err();
                (data, end)
            }
        });
        let (data, end) = sim.run_until({
            let sim = sim.clone();
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(b"done").unwrap();
                sim.sleep(SimDuration::from_millis(5)).await;
                conn.close();
                server_task.await
            }
        });
        assert_eq!(data, b"done");
        assert_eq!(end, TcpError::Closed);
    }

    #[test]
    fn lossy_transfer_is_deterministic() {
        let a = bulk(0.05, 200 * 1024);
        let b = bulk(0.05, 200 * 1024);
        assert_eq!(a.0, b.0, "elapsed time diverged");
        assert_eq!(a.1, b.1, "transport stats diverged");
    }

    /// Runs a 256 KiB upload while `forged` arrives at the client as if
    /// from the server 150 us in — after the handshake, while most of the
    /// stream is still queued behind the initial window. Returns the
    /// client's counters and its connection's buffers at the end.
    fn upload_with_forgery(forged: Option<Segment>) -> (TcpStats, crate::conn::Backlog) {
        let (sim, client, server, c2s) = world_with(0.0, 0.0, 42);
        let size = 256 * 1024;
        let data = payload(size);
        let expect = data.clone();
        let server_task = sim.spawn({
            let server = Rc::clone(&server);
            async move {
                let conn = server.accept().await.unwrap();
                recv_exactly(&conn, size).await
            }
        });
        if let Some(seg) = forged {
            let to_client = c2s.reversed();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(150)).await;
                to_client.send(seg.encode());
            });
        }
        let (received, backlog) = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                let conn = client.connect().await.unwrap();
                conn.send(&data).unwrap();
                (server_task.await, conn.backlog())
            }
        });
        assert_eq!(received, expect, "stream corrupted");
        (client.stats(), backlog)
    }

    #[test]
    fn ack_of_unsent_data_is_reacked_and_dropped() {
        let (clean, _) = upload_with_forgery(None);
        // Beyond `snd_nxt` but inside the queued stream, and beyond its
        // end: RFC 793 §3.9 answers either with an ACK and drops it.
        for ack in [200 * 1024, 1 << 40] {
            let forged = Segment {
                conn_id: 1,
                seq: 1,
                ack,
                flags: FLAG_ACK,
                payload: b"not delivered".to_vec(),
            };
            let (stats, backlog) = upload_with_forgery(Some(forged));
            assert_eq!(
                stats.segments_sent,
                clean.segments_sent + 1,
                "one re-ACK: {stats:?}"
            );
            assert_eq!(
                backlog.rx_buffered, 0,
                "the forged segment's payload was delivered"
            );
            assert_eq!(stats.data_segments_sent, clean.data_segments_sent);
            assert_eq!(stats.retransmits, 0, "{stats:?}");
        }
    }

    /// Stream byte `i` of a case with pattern seed `seed`.
    fn pattern_byte(seed: u64, i: u64) -> u8 {
        (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
    }

    /// One byte-stream case: application sends as (bytes, pause in us
    /// before the next send), loss per mille on both NICs, pattern seed.
    type StreamCase = (Vec<(u32, u32)>, u32, u64);

    struct StreamRun {
        sent: Vec<u8>,
        /// `None` if the stream stalled.
        received: Option<Vec<u8>>,
        sender: crate::conn::Backlog,
        receiver: Option<crate::conn::Backlog>,
        saw_wrap: bool,
        saw_gap: bool,
    }

    /// Uploads a case's sends and waits until every byte is delivered and
    /// acknowledged, or until a simulated minute says the stream stalled.
    /// A sampler task notes, every 20 us of the first two simulated
    /// seconds, whether the sender's ring straddled its wrap point and
    /// whether the receiver held an out-of-order segment.
    fn run_stream(case: &StreamCase) -> StreamRun {
        let (sends, loss_permille, seed) = case;
        let loss = f64::from(*loss_permille) / 1000.0;
        let (sim, client, server, _) = world_with(loss, loss, *seed);
        let total: usize = sends.iter().map(|&(n, _)| n as usize).sum();
        let sent: Vec<u8> = (0..total as u64).map(|i| pattern_byte(*seed, i)).collect();
        let accepted: Rc<RefCell<Option<Rc<TcpConn>>>> = Rc::default();
        let server_task = sim.spawn({
            let (server, accepted) = (Rc::clone(&server), Rc::clone(&accepted));
            async move {
                let conn = server.accept().await.unwrap();
                *accepted.borrow_mut() = Some(Rc::clone(&conn));
                recv_exactly(&conn, total).await
            }
        });
        let seen = Rc::new(Cell::new((false, false)));
        let (received, sender) = sim.run_until({
            let (s, sent, seen) = (sim.clone(), sent.clone(), Rc::clone(&seen));
            let (sends, accepted) = (sends.clone(), Rc::clone(&accepted));
            async move {
                let conn = client.connect().await.unwrap();
                s.spawn({
                    let (s, conn) = (s.clone(), Rc::clone(&conn));
                    async move {
                        while s.now() - SimTime::ZERO < SimDuration::from_secs(2) {
                            let (wrap, gap) = seen.get();
                            let peer_gap = accepted
                                .borrow()
                                .as_ref()
                                .is_some_and(|peer| peer.backlog().out_of_order > 0);
                            seen.set((wrap || conn.backlog().ring_wrapped, gap || peer_gap));
                            s.sleep(SimDuration::from_micros(20)).await;
                        }
                    }
                });
                let mut off = 0;
                for (n, pause) in sends {
                    conn.send(&sent[off..off + n as usize]).unwrap();
                    off += n as usize;
                    s.sleep(SimDuration::from_micros(u64::from(pause))).await;
                }
                let received = match select2(server_task, s.sleep(SimDuration::from_secs(60))).await
                {
                    Either::Left(received) => Some(received),
                    Either::Right(()) => None,
                };
                // The last ACKs may still be in flight (or lost, awaiting
                // the retransmission timer).
                for _ in 0..6_000 {
                    if conn.backlog().unacked == 0 {
                        break;
                    }
                    s.sleep(SimDuration::from_millis(10)).await;
                }
                (received, conn.backlog())
            }
        });
        let receiver = accepted.borrow().as_ref().map(|peer| peer.backlog());
        let (saw_wrap, saw_gap) = seen.get();
        StreamRun {
            sent,
            received,
            sender,
            receiver,
            saw_wrap,
            saw_gap,
        }
    }

    /// Checks one byte-stream case: exact delivery, then nothing left in
    /// the send ring or the out-of-order map.
    fn stream_holds(case: &StreamCase) -> CaseOutcome {
        let run = run_stream(case);
        prop_assert!(
            run.received.as_deref() == Some(&run.sent[..]),
            "the stream stalled or delivered other bytes than were sent"
        );
        prop_assert_eq!(run.sender.unacked, 0);
        prop_assert_eq!(run.sender.ring_len, 0);
        prop_assert_eq!(run.receiver.map(|r| r.out_of_order), Some(0));
        CaseOutcome::Pass
    }

    #[test]
    fn prop_byte_stream_arrives_exactly_and_drains() {
        check(
            "prop_byte_stream_arrives_exactly_and_drains",
            |g| {
                (
                    g.vec(1, 6, |g| (g.u32_in(1, 64 * 1024), g.u32_in(0, 2_000))),
                    g.u32_in(0, 50),
                    g.any_u64(),
                )
            },
            stream_holds,
        );
    }

    /// The property's input space reaches both rare paths: a fixed case
    /// whose ring wraps (sends paced so ACKs free the head between them)
    /// and whose 5% loss leaves gaps at the receiver.
    #[test]
    fn byte_stream_cases_reach_ring_wrap_and_gap_paths() {
        let case: StreamCase = (
            vec![
                (40_000, 1_000),
                (60_000, 1_000),
                (50_000, 1_000),
                (64 * 1024, 0),
            ],
            50,
            7,
        );
        assert_eq!(stream_holds(&case), CaseOutcome::Pass);
        let run = run_stream(&case);
        assert!(run.saw_wrap, "send ring never wrapped");
        assert!(run.saw_gap, "receiver never held an out-of-order segment");
    }

    /// Garbage datagrams — random bytes, truncated headers, and headers
    /// aimed at the live connection with random flags, sequence and ACK
    /// numbers — land on both endpoints during a transfer. The demux and
    /// the connection must drop or absorb every one without panicking;
    /// whether the transfer survives is not the point.
    #[test]
    fn prop_demux_survives_garbage() {
        check(
            "prop_demux_survives_garbage",
            |g| {
                g.vec(1, 24, |g| {
                    (
                        g.u64_in(0, 3_000),
                        g.any_bool(),
                        g.any_bool(),
                        g.bytes(0, 2 * HEADER_LEN),
                    )
                })
            },
            |script: &Vec<(u64, bool, bool, Vec<u8>)>| {
                let (sim, client, server, c2s) = world_with(0.0, 0.0, 42);
                let s2c = c2s.reversed();
                sim.spawn({
                    let server = Rc::clone(&server);
                    async move {
                        let conn = server.accept().await.unwrap();
                        while conn.recv_some().await.is_ok() {}
                    }
                });
                sim.spawn({
                    let client = Rc::clone(&client);
                    async move {
                        if let Ok(conn) = client.connect().await {
                            let _ = conn.send(&payload(64 * 1024));
                        }
                    }
                });
                for (at_us, to_client, aimed, bytes) in script.clone() {
                    let mut wire = bytes;
                    if aimed && wire.len() >= HEADER_LEN {
                        // Conn id 1, sequence and ACK numbers below 64 Ki:
                        // inside the live stream's range.
                        wire[..4].copy_from_slice(&1u32.to_be_bytes());
                        wire[4..10].fill(0);
                        wire[12..18].fill(0);
                    }
                    let path = if to_client { s2c.clone() } else { c2s.clone() };
                    let s = sim.clone();
                    sim.spawn(async move {
                        s.sleep(SimDuration::from_micros(at_us)).await;
                        path.send(wire);
                    });
                }
                let s = sim.clone();
                sim.run_until(async move { s.sleep(SimDuration::from_millis(50)).await });
                CaseOutcome::Pass
            },
        );
    }
}
