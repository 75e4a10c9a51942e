//! Wire format of the simulated TCP segment.
//!
//! Each segment travels as one `nfsperf-net` datagram payload, so it is
//! subject to the same serialization, propagation, loss and IP-fragmentation
//! model as a UDP datagram of the same size. The header is a fixed 24 bytes,
//! big-endian, chosen so that with the 20-byte IP and 8-byte UDP framing the
//! link layer adds, an MSS of `mtu - 52` keeps every full segment inside a
//! single IP fragment (1448 bytes at MTU 1500, 8948 at MTU 9000).

/// Synchronize: connection setup. Consumes sequence number 0.
pub const FLAG_SYN: u8 = 0x01;
/// The `ack` field is valid.
pub const FLAG_ACK: u8 = 0x02;
/// Sender is done sending (best-effort half close).
pub const FLAG_FIN: u8 = 0x04;
/// Abortive close; the receiver drops all connection state.
pub const FLAG_RST: u8 = 0x08;

/// Bytes of simulated TCP header per segment.
pub const HEADER_LEN: usize = 24;

/// One simulated TCP segment.
///
/// Sequence numbers are 64-bit and never wrap: the SYN occupies sequence 0
/// in each direction and application data starts at sequence 1. `ack` is the
/// next sequence number the sender of the segment expects to receive
/// (cumulative acknowledgment), valid when [`FLAG_ACK`] is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Connection this segment belongs to; chosen by the active opener.
    pub conn_id: u32,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment: next expected sequence number.
    pub ack: u64,
    /// Bitwise OR of the `FLAG_*` constants.
    pub flags: u8,
    /// Application bytes carried, at most one MSS.
    pub payload: Vec<u8>,
}

/// The fixed header fields of a segment, without its payload.
///
/// The data path writes and parses headers in place through this type —
/// a sender appends the header and then its payload straight into one
/// datagram buffer, a receiver parses the header and borrows the payload
/// from the datagram — so a payload byte is copied once per hop.
/// [`Segment::encode`]/[`Segment::decode`] are built on the same pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Connection this segment belongs to; chosen by the active opener.
    pub conn_id: u32,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment: next expected sequence number.
    pub ack: u64,
    /// Bitwise OR of the `FLAG_*` constants.
    pub flags: u8,
}

impl Header {
    /// Appends the [`HEADER_LEN`]-byte wire header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.conn_id.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.extend_from_slice(&[self.flags, 0, 0, 0]);
    }

    /// Parses the header at the front of a datagram payload and returns it
    /// with the segment's payload, borrowed from `bytes`.
    ///
    /// Returns `None` for payloads shorter than the fixed header (which a
    /// conforming peer never produces).
    pub fn parse(bytes: &[u8]) -> Option<(Header, &[u8])> {
        let (head, payload) = bytes.split_first_chunk::<HEADER_LEN>()?;
        let field = "a fixed-width field of the fixed-size header";
        let header = Header {
            conn_id: u32::from_be_bytes(head[0..4].try_into().expect(field)),
            seq: u64::from_be_bytes(head[4..12].try_into().expect(field)),
            ack: u64::from_be_bytes(head[12..20].try_into().expect(field)),
            flags: head[20],
        };
        Some((header, payload))
    }
}

impl Segment {
    /// The segment's header fields.
    pub fn header(&self) -> Header {
        Header {
            conn_id: self.conn_id,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
        }
    }

    /// Serializes the segment into one datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.header().write(&mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a datagram payload back into a segment.
    ///
    /// Returns `None` for payloads shorter than the fixed header (which a
    /// conforming peer never produces).
    pub fn decode(bytes: &[u8]) -> Option<Segment> {
        let (h, payload) = Header::parse(bytes)?;
        Some(Segment {
            conn_id: h.conn_id,
            seq: h.seq,
            ack: h.ack,
            flags: h.flags,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let seg = Segment {
            conn_id: 7,
            seq: 0x1_0000_0001,
            ack: 42,
            flags: FLAG_ACK | FLAG_FIN,
            payload: vec![1, 2, 3, 4, 5],
        };
        let wire = seg.encode();
        assert_eq!(wire.len(), HEADER_LEN + 5);
        assert_eq!(Segment::decode(&wire).unwrap(), seg);
    }

    #[test]
    fn short_payload_rejected() {
        assert!(Segment::decode(&[0u8; HEADER_LEN - 1]).is_none());
    }

    #[test]
    fn header_parse_borrows_the_payload() {
        let seg = Segment {
            conn_id: 3,
            seq: 9,
            ack: 11,
            flags: FLAG_ACK,
            payload: vec![7; 10],
        };
        let wire = seg.encode();
        let (h, payload) = Header::parse(&wire).unwrap();
        assert_eq!(h, seg.header());
        assert_eq!(payload, &wire[HEADER_LEN..]);
        let mut rewritten = Vec::new();
        h.write(&mut rewritten);
        assert_eq!(rewritten, wire[..HEADER_LEN]);
    }

    /// Random and truncated byte strings: both parsers refuse anything
    /// shorter than a header and otherwise agree with each other and
    /// re-encode to the input, reserved bytes aside. Neither panics.
    #[test]
    fn prop_random_bytes_never_panic_the_codec() {
        use nfsperf_sim::proptest::{check, CaseOutcome};
        use nfsperf_sim::{prop_assert, prop_assert_eq};
        check(
            "prop_random_bytes_never_panic_the_codec",
            |g| g.bytes(0, 3 * HEADER_LEN),
            |bytes: &Vec<u8>| {
                let parsed = Header::parse(bytes);
                let decoded = Segment::decode(bytes);
                prop_assert_eq!(parsed.is_some(), bytes.len() >= HEADER_LEN);
                prop_assert_eq!(decoded.is_some(), bytes.len() >= HEADER_LEN);
                if let (Some((h, payload)), Some(seg)) = (parsed, decoded) {
                    prop_assert_eq!(h, seg.header());
                    prop_assert!(payload == &seg.payload[..]);
                    let mut expect = bytes.clone();
                    expect[21..HEADER_LEN].fill(0);
                    prop_assert!(seg.encode() == expect, "re-encoding differs");
                }
                CaseOutcome::Pass
            },
        );
    }
}
