//! The bounded flight recorder: a ring buffer of stamped events.

use crate::event::TraceEvent;

/// One recorded event, stamped with the fabric slot and virtual time it
/// happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Fabric slot of the event.
    pub slot: u64,
    /// Virtual time of the event, nanoseconds.
    pub at_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s — the black box that is cheap
/// enough to leave on for a whole soak. When full, the *oldest* record is
/// overwritten in place (flight-recorder semantics: the end of the timeline
/// is what you want after a failure), and [`FlightRecorder::dropped`] counts
/// what fell off the back.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Fixed slots: grows to `capacity`, then `head` walks it overwriting.
    ring: Vec<TraceRecord>,
    /// The oldest record's slot once the ring is full (0 before that).
    head: usize,
    capacity: usize,
    seen: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            capacity,
            seen: 0,
            dropped: 0,
        }
    }

    /// Appends a record, overwriting the oldest if the buffer is full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
        self.seen += 1;
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the ring holds no record.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including evicted and cleared ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted off the back of the ring. Records removed by
    /// [`FlightRecorder::clear`] were read out, not lost, and do not count.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer)
    }

    /// The retained records as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }

    /// Empties the ring (the seen/dropped totals keep counting).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(slot: u64) -> TraceRecord {
        TraceRecord {
            slot,
            at_ns: slot * 680,
            event: TraceEvent::MonitorVerdict {
                link: slot as u32,
                up: false,
            },
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for s in 0..5 {
            r.push(rec(s));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.dropped(), 2);
        let slots: Vec<u64> = r.iter().map(|x| x.slot).collect();
        assert_eq!(slots, vec![2, 3, 4]);
    }

    #[test]
    fn totals_hold_across_fill_wrap_and_clear() {
        let mut r = FlightRecorder::new(4);
        // Fill: nothing evicted yet.
        for s in 0..4 {
            r.push(rec(s));
        }
        assert_eq!((r.seen(), r.dropped(), r.len()), (4, 0, 4));
        // Wrap one and a half times: every overwrite is one eviction.
        for s in 4..10 {
            r.push(rec(s));
        }
        assert_eq!((r.seen(), r.dropped(), r.len()), (10, 6, 4));
        let slots: Vec<u64> = r.iter().map(|x| x.slot).collect();
        assert_eq!(slots, vec![6, 7, 8, 9], "oldest first across the seam");
        // Clearing reads the ring out; it evicts nothing.
        r.clear();
        assert!(r.is_empty());
        assert_eq!((r.seen(), r.dropped(), r.len()), (10, 6, 0));
        // A cleared ring fills from empty again before it overwrites.
        for s in 10..13 {
            r.push(rec(s));
        }
        assert_eq!((r.seen(), r.dropped(), r.len()), (13, 6, 3));
        let slots: Vec<u64> = r.to_vec().iter().map(|x| x.slot).collect();
        assert_eq!(slots, vec![10, 11, 12]);
        r.push(rec(13));
        r.push(rec(14));
        assert_eq!((r.seen(), r.dropped(), r.len()), (15, 7, 4));
        assert_eq!(r.iter().next().map(|x| x.slot), Some(11));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = FlightRecorder::new(0);
        r.push(rec(1));
        r.push(rec(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_vec()[0].slot, 2);
    }
}
