//! Bounded flight-recorder ring buffer with drop accounting.

use crate::event::Record;

/// A bounded ring buffer of [`Record`]s that overwrites its oldest entry
/// when full (flight-recorder semantics).
///
/// Every overwrite increments a `dropped` counter; `pushed` counts every
/// record ever offered. Both are surfaced through
/// [`Recorder::stats`](crate::Recorder::stats) so silent event loss can
/// never masquerade as a clean trace.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buf: Vec<Record>,
    capacity: usize,
    /// Index of the oldest record.
    head: usize,
    len: usize,
    pushed: u64,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a ring with room for `capacity` records (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            pushed: 0,
            dropped: 0,
        }
    }

    /// Pushes a record, evicting the oldest one when the ring is full.
    pub fn push(&mut self, record: Record) {
        self.pushed += 1;
        if self.len < self.capacity {
            self.buf.push(record);
            self.len += 1;
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no records are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of records the ring can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of records ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Number of records evicted by overwrites.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held records from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        let (tail, head) = self.buf.split_at(self.head.min(self.buf.len()));
        head.iter().chain(tail.iter())
    }

    /// Copies the held records out, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Record> {
        self.iter().copied().collect()
    }

    /// Resets the ring to its freshly-created state — empty, with
    /// `pushed`/`dropped` zeroed — keeping the buffer allocation. Unlike
    /// [`RingBuffer::drain`], which preserves the accounting, this is the
    /// episode-reset path: the next episode's counters must start from
    /// zero exactly as a new ring's would.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        self.pushed = 0;
        self.dropped = 0;
    }

    /// Removes and returns all held records, oldest first. Counters are
    /// preserved.
    pub fn drain(&mut self) -> Vec<Record> {
        let out = self.to_vec();
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Label};
    use silvasec_sim::SimTime;

    fn rec(seq: u64) -> Record {
        Record {
            at: SimTime::from_millis(seq),
            seq,
            event: Event::Custom {
                key: Label::new("t"),
                value: seq as i64,
            },
        }
    }

    #[test]
    fn push_and_order() {
        let mut r = RingBuffer::new(4);
        for i in 0..3 {
            r.push(rec(i));
        }
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.pushed(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let mut r = RingBuffer::new(3);
        for i in 0..10 {
            r.push(rec(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 7, "every overwrite must be accounted for");
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "oldest records are the ones evicted");
    }

    #[test]
    fn drain_keeps_counters() {
        let mut r = RingBuffer::new(2);
        for i in 0..5 {
            r.push(rec(i));
        }
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.dropped(), 3);
        r.push(rec(100));
        assert_eq!(r.iter().next().unwrap().seq, 100);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingBuffer::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(rec(1));
        r.push(rec(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
