//! UDP-versus-TCP transport ablation under packet loss.
//!
//! The paper's testbed ran NFS over UDP on a clean gigabit link, where
//! RPC-layer retransmission is nearly free. This sweep asks what that
//! choice costs when the link is *not* clean: each lost datagram over UDP
//! stalls a whole RPC until the 700 ms retransmit timer fires (and a
//! jumbo-frame write loses 9 KB per drop), while TCP recovers at segment
//! granularity with fast retransmit and a sub-second adaptive RTO.
//!
//! Three mounts — UDP, UDP with jumbo frames, TCP — run the same
//! write-then-flush workload at loss rates from 0 to 5%. At zero loss the
//! transports should be within a rounding error of each other (same CPU
//! costs, same BKL structure); as loss rises UDP's throughput collapses
//! and TCP's degrades gracefully.

use nfsperf_client::ClientTuning;
use nfsperf_sim::runner;
use nfsperf_sunrpc::Transport;

use crate::render::ascii_table;
use crate::scenario::{run_bonnie, RunOutput, Scenario, ServerKind};
use crate::sweep::{law, nonempty, Sweep};

/// One (mount flavour, loss rate) cell of the sweep.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// Mount flavour: "udp", "udp+jumbo" or "tcp".
    pub label: &'static str,
    /// Client-side datagram loss probability.
    pub loss: f64,
    /// Sequential write throughput (dirtying pages, mostly async).
    pub write_mbps: f64,
    /// Flush throughput — the loss-sensitive number: every lost request
    /// or reply stalls completion.
    pub flush_mbps: f64,
    /// RPC-layer retransmissions (UDP timer fires; TCP connection replays).
    pub rpc_retransmits: u64,
    /// Datagrams dropped by the client NIC.
    pub drops: u64,
    /// TCP segment-level retransmissions (0 for UDP mounts).
    pub tcp_retransmits: u64,
    /// TCP fast retransmits out of those (triple duplicate ACK).
    pub tcp_fast_retransmits: u64,
}

/// The three mount flavours compared.
fn flavours() -> Vec<(&'static str, Scenario)> {
    let base = |transport| {
        let mut s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer)
            .with_transport(transport);
        s.record_latencies = false;
        s
    };
    vec![
        ("udp", base(Transport::Udp)),
        ("udp+jumbo", base(Transport::Udp).with_jumbo_frames()),
        ("tcp", base(Transport::Tcp)),
    ]
}

fn row(label: &'static str, loss: f64, out: &RunOutput) -> TransportRow {
    TransportRow {
        label,
        loss,
        write_mbps: out.report.write_mbps(),
        flush_mbps: out.report.flush_mbps(),
        rpc_retransmits: out.xprt_stats.retransmits,
        drops: out.client_drops,
        tcp_retransmits: out.tcp_stats.map_or(0, |t| t.retransmits),
        tcp_fast_retransmits: out.tcp_stats.map_or(0, |t| t.fast_retransmits),
    }
}

/// The transport × loss matrix.
pub struct TransportSweep;

/// Inputs of one [`TransportSweep`] run.
#[derive(Debug, Clone)]
pub struct TransportGrid {
    /// Bytes written (then flushed) per cell.
    pub file_size: u64,
    /// Client-side datagram loss probabilities.
    pub loss_rates: Vec<f64>,
}

impl Sweep for TransportSweep {
    const NAME: &'static str = "transport";
    type Config = TransportGrid;
    type Run = TransportRow;
    type Row = TransportRow;

    fn quick() -> TransportGrid {
        TransportGrid {
            file_size: 2 << 20,
            ..Self::full()
        }
    }

    /// Clean link, one in a thousand, one in a hundred, one in twenty.
    fn full() -> TransportGrid {
        TransportGrid {
            file_size: 8 << 20,
            loss_rates: vec![0.0, 0.001, 0.01, 0.05],
        }
    }

    fn title(grid: &TransportGrid) -> String {
        format!(
            "transport x loss sweep: {} MB sequential write, full patch, filer server",
            grid.file_size >> 20
        )
    }

    /// One cell per `(flavour, loss)` pair, flavour-major like the
    /// rendered table.
    fn cells(grid: &TransportGrid) -> Vec<runner::Cell<TransportRow>> {
        let file_size = grid.file_size;
        let mut cells = Vec::new();
        for (label, scenario) in flavours() {
            for &loss in &grid.loss_rates {
                let scenario = scenario.clone();
                cells.push(runner::Cell::new(
                    format!("{}/{label}/loss{loss}", Self::NAME),
                    move || {
                        let out = run_bonnie(&scenario.with_loss(loss), file_size);
                        row(label, loss, &out)
                    },
                ));
            }
        }
        cells
    }

    fn assemble(_: &TransportGrid, runs: Vec<TransportRow>) -> Vec<TransportRow> {
        runs
    }

    fn header() -> &'static str {
        "transport,loss,write_mbps,flush_mbps,drops,rpc_retransmits,tcp_retransmits,tcp_fast_retransmits"
    }

    fn csv_row(_: &[TransportRow], r: &TransportRow) -> String {
        format!(
            "{},{},{:.3},{:.3},{},{},{},{}",
            r.label,
            r.loss,
            r.write_mbps,
            r.flush_mbps,
            r.drops,
            r.rpc_retransmits,
            r.tcp_retransmits,
            r.tcp_fast_retransmits,
        )
    }

    /// The matrix as an ASCII table.
    fn render(rows: &[TransportRow]) -> String {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.2}%", r.loss * 100.0),
                    format!("{:.1}", r.write_mbps),
                    format!("{:.1}", r.flush_mbps),
                    r.drops.to_string(),
                    r.rpc_retransmits.to_string(),
                    r.tcp_retransmits.to_string(),
                    r.tcp_fast_retransmits.to_string(),
                ]
            })
            .collect();
        ascii_table(
            &[
                "transport",
                "loss",
                "write MB/s",
                "flush MB/s",
                "drops",
                "rpc rexmit",
                "tcp rexmit",
                "fast rexmit",
            ],
            &table,
        )
    }

    /// Every cell moves data, and a clean link never drops or
    /// retransmits.
    fn check_quick(rows: &[TransportRow]) -> Result<(), String> {
        nonempty(rows)?;
        for r in rows {
            law(r.flush_mbps > 0.0, "zero flush throughput", r)?;
            law(
                r.loss > 0.0 || r.drops + r.rpc_retransmits + r.tcp_retransmits == 0,
                "clean link dropped or retransmitted",
                r,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;

    fn grid(loss_rates: &[f64]) -> TransportGrid {
        TransportGrid {
            file_size: 1 << 20,
            loss_rates: loss_rates.to_vec(),
        }
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let rows = run::<TransportSweep>(&grid(&[0.0, 0.01]), 1);
        assert_eq!(rows.len(), 6);
        for label in ["udp", "udp+jumbo", "tcp"] {
            for loss in [0.0, 0.01] {
                let r = rows
                    .iter()
                    .find(|r| r.label == label && r.loss == loss)
                    .expect("cell present");
                assert!(r.write_mbps > 0.0, "{label} at {loss} wrote nothing");
            }
        }
    }

    #[test]
    fn clean_link_never_drops_or_retransmits() {
        let rows = run::<TransportSweep>(&grid(&[0.0]), 1);
        for r in &rows {
            assert_eq!(r.drops, 0, "{}: drops on clean link", r.label);
            assert_eq!(r.rpc_retransmits, 0, "{}: rpc rexmit", r.label);
            assert_eq!(r.tcp_retransmits, 0, "{}: tcp rexmit", r.label);
        }
        assert_eq!(TransportSweep::check_quick(&rows), Ok(()));
    }

    #[test]
    fn render_mentions_every_flavour() {
        let table = TransportSweep::render(&run::<TransportSweep>(&grid(&[0.0]), 1));
        assert!(table.contains("udp+jumbo"));
        assert!(table.contains("tcp"));
        assert!(table.contains("flush MB/s"));
    }
}
