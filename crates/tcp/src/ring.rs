//! The send stream's byte ring.

/// The unacknowledged send stream `[snd_una, snd_end)` of one connection.
///
/// A power-of-two ring: [`push`](SendRing::push) appends at the tail, a
/// cumulative ACK [`release`](SendRing::release)s from the head without
/// moving a byte, and a segment reads its payload range as at most two
/// slices. Capacity doubles when an append outgrows it and is kept for
/// the connection's life, like the `Vec` whose front every ACK used to
/// memmove away.
#[derive(Debug, Default)]
pub(crate) struct SendRing {
    /// Storage; its length is zero or a power of two.
    buf: Vec<u8>,
    /// Index of the oldest unacknowledged byte.
    head: usize,
    /// Bytes held.
    len: usize,
}

impl SendRing {
    /// Bytes held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The held bytes straddle the end of the storage.
    #[cfg(test)]
    pub(crate) fn wrapped(&self) -> bool {
        self.head + self.len > self.buf.len()
    }

    /// Appends `bytes` at the tail.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        let len = self.len + bytes.len();
        if len > self.buf.len() {
            self.grow(len);
        }
        let tail = self.wrap(self.head + self.len);
        let (first, rest) = bytes.split_at(bytes.len().min(self.buf.len() - tail));
        self.buf[tail..tail + first.len()].copy_from_slice(first);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.len = len;
    }

    /// Drops the `n` oldest bytes (the ones a cumulative ACK covered).
    pub(crate) fn release(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "release of {n} bytes from a ring of {}",
            self.len
        );
        self.head = self.wrap(self.head + n);
        self.len -= n;
    }

    /// The bytes at offsets `[off, off + len)` from the head, as the part
    /// before the ring's wrap point and the part after it.
    pub(crate) fn range(&self, off: usize, len: usize) -> (&[u8], &[u8]) {
        assert!(
            off + len <= self.len,
            "range {off}+{len} past a ring of {}",
            self.len
        );
        let start = self.wrap(self.head + off);
        let first = len.min(self.buf.len() - start);
        (&self.buf[start..start + first], &self.buf[..len - first])
    }

    fn wrap(&self, i: usize) -> usize {
        // An empty ring has head = len = 0, so only index 0 is wrapped.
        i & self.buf.len().wrapping_sub(1)
    }

    fn grow(&mut self, need: usize) {
        let mut buf = vec![0; need.next_power_of_two()];
        let (a, b) = self.range(0, self.len);
        buf[..a.len()].copy_from_slice(a);
        buf[a.len()..self.len].copy_from_slice(b);
        self.buf = buf;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::SendRing;

    fn gather(ring: &SendRing, off: usize, len: usize) -> Vec<u8> {
        let (a, b) = ring.range(off, len);
        [a, b].concat()
    }

    #[test]
    fn wraps_and_grows_without_losing_order() {
        let mut ring = SendRing::default();
        ring.push(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(ring.buf.len(), 8);
        ring.release(5);
        // Wraps: the tail runs off the end of the 8-byte buffer.
        ring.push(&[7, 8, 9, 10, 11]);
        assert_eq!(ring.buf.len(), 8, "fits without growing");
        let (a, b) = ring.range(0, 6);
        assert!(
            !a.is_empty() && !b.is_empty(),
            "range straddles the wrap point"
        );
        assert_eq!(gather(&ring, 0, 6), [6, 7, 8, 9, 10, 11]);
        // Growing a wrapped ring unrolls it in order.
        ring.push(&[12, 13, 14, 15]);
        assert_eq!(ring.buf.len(), 16);
        assert_eq!(gather(&ring, 2, 8), [8, 9, 10, 11, 12, 13, 14, 15]);
        ring.release(10);
        assert_eq!(ring.len(), 0);
        assert_eq!(gather(&ring, 0, 0), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "release of 3 bytes")]
    fn over_release_panics() {
        let mut ring = SendRing::default();
        ring.push(&[1, 2]);
        ring.release(3);
    }
}
