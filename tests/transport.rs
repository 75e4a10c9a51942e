//! Transport ablation acceptance: UDP vs TCP mounts under packet loss.
//!
//! On the paper's clean gigabit link the transport choice is a wash —
//! both mounts pay the same CPU costs and the same BKL walks, so they
//! land within a rounding error of each other. Under loss they diverge
//! sharply: UDP stalls a whole RPC per lost fragment until the 700 ms
//! retransmit timer fires, while TCP recovers lost segments in about an
//! RTT via duplicate ACKs.

use nfsperf_client::ClientTuning;
use nfsperf_experiments::{run, run_bonnie, Scenario, ServerKind, TransportGrid, TransportSweep};
use nfsperf_sunrpc::Transport;

const FILE_SIZE: u64 = 4 << 20;

fn scenario(transport: Transport, loss: f64) -> Scenario {
    let mut s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer)
        .with_transport(transport)
        .with_loss(loss);
    s.record_latencies = false;
    s
}

#[test]
fn transports_tie_on_a_clean_link() {
    let udp = run_bonnie(&scenario(Transport::Udp, 0.0), FILE_SIZE);
    let tcp = run_bonnie(&scenario(Transport::Tcp, 0.0), FILE_SIZE);
    let u = udp.report.flush_mbps();
    let t = tcp.report.flush_mbps();
    assert!(
        (u - t).abs() / u <= 0.15,
        "clean-link transports should be within 15%: udp {u:.1} MB/s, tcp {t:.1} MB/s"
    );
    assert_eq!(udp.xprt_stats.retransmits, 0);
    assert_eq!(tcp.xprt_stats.retransmits, 0);
    assert_eq!(tcp.tcp_stats.unwrap().retransmits, 0);
}

#[test]
fn tcp_beats_udp_at_one_percent_loss() {
    let udp = run_bonnie(&scenario(Transport::Udp, 0.01), FILE_SIZE);
    let tcp = run_bonnie(&scenario(Transport::Tcp, 0.01), FILE_SIZE);
    let u = udp.report.flush_mbps();
    let t = tcp.report.flush_mbps();
    assert!(
        t > u,
        "TCP should beat UDP at 1% loss: udp {u:.1} MB/s, tcp {t:.1} MB/s"
    );
    // And the recovery mechanisms are what they should be: UDP burned
    // RPC-timer retransmissions, TCP recovered below the RPC layer.
    assert!(udp.xprt_stats.retransmits > 0, "udp never hit its timer");
    assert_eq!(tcp.xprt_stats.retransmits, 0, "tcp replayed a connection");
    assert!(tcp.tcp_stats.unwrap().retransmits > 0);
}

#[test]
fn tcp_beats_udp_at_five_percent_loss() {
    let udp = run_bonnie(&scenario(Transport::Udp, 0.05), FILE_SIZE);
    let tcp = run_bonnie(&scenario(Transport::Tcp, 0.05), FILE_SIZE);
    let u = udp.report.flush_mbps();
    let t = tcp.report.flush_mbps();
    assert!(
        t > u,
        "TCP should beat UDP at 5% loss: udp {u:.1} MB/s, tcp {t:.1} MB/s"
    );
}

/// The committed-seed determinism half of the transport work: the whole
/// lossy TCP sweep — drops, retransmissions, throughput — is a pure
/// function of the scenario, bit-identical across runs.
#[test]
fn tcp_loss_sweep_is_bit_identical_across_runs() {
    // Serial vs parallel: rows must not depend on --jobs either.
    let grid = TransportGrid {
        file_size: 1 << 20,
        loss_rates: vec![0.01, 0.05],
    };
    let a = run::<TransportSweep>(&grid, 1);
    let b = run::<TransportSweep>(&grid, 4);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.label, rb.label);
        assert_eq!(ra.loss.to_bits(), rb.loss.to_bits());
        assert_eq!(
            ra.write_mbps.to_bits(),
            rb.write_mbps.to_bits(),
            "{} at {}: write throughput differs",
            ra.label,
            ra.loss
        );
        assert_eq!(
            ra.flush_mbps.to_bits(),
            rb.flush_mbps.to_bits(),
            "{} at {}: flush throughput differs",
            ra.label,
            ra.loss
        );
        assert_eq!(ra.rpc_retransmits, rb.rpc_retransmits);
        assert_eq!(ra.drops, rb.drops);
        assert_eq!(ra.tcp_retransmits, rb.tcp_retransmits);
        assert_eq!(ra.tcp_fast_retransmits, rb.tcp_fast_retransmits);
    }
}
