//! RFC 1831 §10 record marking: framing RPC messages on a byte stream.
//!
//! TCP gives the RPC layer a byte stream with no message boundaries, so
//! each RPC message travels as a *record*: a sequence of fragments, each
//! preceded by a 4-byte big-endian header whose low 31 bits are the
//! fragment length and whose top bit marks the record's last fragment.
//!
//! The writer side normally emits one maximal fragment per message
//! ([`encode_record`]); [`encode_record_frags`] exists to exercise
//! multi-fragment records, which a conforming reader must accept at any
//! fragment boundaries. The reader ([`RecordReader`]) is incremental: feed
//! it stream bytes as they arrive, pull out complete records as they
//! become available.

/// Top bit of the fragment header: this fragment completes the record.
pub const LAST_FRAGMENT: u32 = 0x8000_0000;

/// Largest fragment body expressible in the 31-bit length field.
pub const MAX_FRAGMENT: usize = 0x7fff_ffff;

/// Frames one RPC message as a single-fragment record.
pub fn encode_record(msg: &[u8]) -> Vec<u8> {
    encode_record_frags(msg, MAX_FRAGMENT)
}

/// Frames one RPC message as a record of fragments of at most `max_frag`
/// bytes each. An empty message still produces one (empty) last fragment.
pub fn encode_record_frags(msg: &[u8], max_frag: usize) -> Vec<u8> {
    assert!(
        (1..=MAX_FRAGMENT).contains(&max_frag),
        "fragment size {max_frag} out of range"
    );
    let mut out = Vec::with_capacity(msg.len() + 8);
    let mut off = 0;
    loop {
        let len = (msg.len() - off).min(max_frag);
        let last = off + len == msg.len();
        let header = len as u32 | if last { LAST_FRAGMENT } else { 0 };
        out.extend_from_slice(&header.to_be_bytes());
        out.extend_from_slice(&msg[off..off + len]);
        off += len;
        if last {
            return out;
        }
    }
}

/// Incremental record parser for one direction of a stream connection.
///
/// Bytes go in via [`push`](RecordReader::push) in whatever chunks the
/// transport delivers; complete records come out of
/// [`next_record`](RecordReader::next_record). Partial headers, partial
/// fragments and records split across many pushes are all handled.
///
/// Consumed stream bytes are skipped with a cursor rather than drained
/// per record, so a push holding many records costs one copy in, not one
/// memmove of the tail per record. The dead prefix is dropped on the
/// next push, when the reader is empty (free) or the prefix is the
/// larger part of the buffer (so each byte moves at most once more).
#[derive(Debug, Default)]
pub struct RecordReader {
    stream: Vec<u8>,
    /// Bytes of `stream` already consumed.
    head: usize,
    assembled: Vec<u8>,
}

impl RecordReader {
    /// Creates an empty reader.
    pub fn new() -> RecordReader {
        RecordReader::default()
    }

    /// Appends bytes received from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.head == self.stream.len() {
            self.stream.clear();
            self.head = 0;
        } else if self.head > self.stream.len() - self.head {
            self.stream.drain(..self.head);
            self.head = 0;
        }
        self.stream.extend_from_slice(bytes);
    }

    /// Extracts the next complete record, if the stream holds one.
    pub fn next_record(&mut self) -> Option<Vec<u8>> {
        loop {
            let rest = &self.stream[self.head..];
            if rest.len() < 4 {
                return None;
            }
            let header = u32::from_be_bytes(rest[0..4].try_into().unwrap());
            let len = (header & !LAST_FRAGMENT) as usize;
            let last = header & LAST_FRAGMENT != 0;
            if rest.len() < 4 + len {
                return None;
            }
            self.assembled.extend_from_slice(&rest[4..4 + len]);
            self.head += 4 + len;
            if last {
                return Some(std::mem::take(&mut self.assembled));
            }
        }
    }

    /// Bytes buffered but not yet returned as a record.
    pub fn buffered(&self) -> usize {
        self.stream.len() - self.head + self.assembled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fragment_round_trip() {
        let msg = b"call body".to_vec();
        let wire = encode_record(&msg);
        assert_eq!(wire.len(), msg.len() + 4);
        assert_eq!(wire[0] & 0x80, 0x80, "last-fragment bit set");
        let mut rd = RecordReader::new();
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), msg);
        assert_eq!(rd.next_record(), None);
        assert_eq!(rd.buffered(), 0);
    }

    #[test]
    fn empty_record_round_trips() {
        let wire = encode_record(&[]);
        assert_eq!(wire, 0x8000_0000u32.to_be_bytes());
        let mut rd = RecordReader::new();
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_fragment_and_byte_at_a_time_delivery() {
        let msg: Vec<u8> = (0..100u8).collect();
        let wire = encode_record_frags(&msg, 7);
        // 100 bytes in 7-byte fragments: 15 headers.
        assert_eq!(wire.len(), msg.len() + 15 * 4);
        let mut rd = RecordReader::new();
        let mut out = Vec::new();
        for b in &wire {
            rd.push(std::slice::from_ref(b));
            if let Some(r) = rd.next_record() {
                out.push(r);
            }
        }
        assert_eq!(out, vec![msg]);
    }

    #[test]
    fn back_to_back_records_stay_separate() {
        let a = vec![1u8; 10];
        let b = vec![2u8; 20];
        let mut rd = RecordReader::new();
        let mut wire = encode_record_frags(&a, 4);
        wire.extend(encode_record(&b));
        rd.push(&wire);
        assert_eq!(rd.next_record().unwrap(), a);
        assert_eq!(rd.next_record().unwrap(), b);
        assert_eq!(rd.next_record(), None);
    }

    /// Random stream bytes, pushed in random chunks, never panic the
    /// reader; a record cut short anywhere yields nothing and stays
    /// buffered.
    #[test]
    fn prop_garbage_and_truncated_streams_never_panic() {
        use nfsperf_sim::proptest::{check, CaseOutcome};
        use nfsperf_sim::{prop_assert, prop_assert_eq};
        check(
            "prop_garbage_and_truncated_streams_never_panic",
            |g| {
                (
                    g.bytes(0, 256),
                    g.vec(1, 8, |g| g.usize_in(1, 64)),
                    g.usize_in(0, 300),
                )
            },
            |(garbage, chunks, cut): &(Vec<u8>, Vec<usize>, usize)| {
                let mut rd = RecordReader::new();
                let mut rest = &garbage[..];
                for &n in chunks.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(n.min(rest.len()));
                    rd.push(head);
                    while rd.next_record().is_some() {}
                    rest = tail;
                }
                prop_assert!(rd.buffered() <= garbage.len());

                let wire = encode_record_frags(&garbage[..], 16);
                let cut = cut % wire.len();
                let mut rd = RecordReader::new();
                rd.push(&wire[..cut]);
                prop_assert_eq!(rd.next_record(), None);
                prop_assert!(rd.buffered() <= cut);
                rd.push(&wire[cut..]);
                prop_assert!(rd.next_record().as_deref() == Some(&garbage[..]));
                CaseOutcome::Pass
            },
        );
    }
}
