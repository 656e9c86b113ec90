//! A host controller's transmit state: per-circuit outboxes, the ready set
//! over them, and the round-robin injection rotor.
//!
//! The controller sends one cell per slot, taken round-robin from the
//! circuits that may send now. Which circuits those are is decided by one
//! predicate in the fabric (`Fabric::entry_ready`: circuit open, credit or
//! token gate open, outbox non-empty); this module keeps the *answer* as a
//! bitset so that picking the next sender costs a few word scans however
//! many circuits share the host, and a credit-starved host touches no
//! circuit state at all.

use an2_cells::{CellQueue, Packet, VcId};

#[derive(Debug, Default)]
pub(crate) struct HostState {
    /// Cells waiting to be injected, per circuit: `(raw vc, queue)` sorted
    /// by id, the iteration order of the `BTreeMap` it replaced. Entries
    /// persist when drained (the injection rotor counts them) and are
    /// removed only at circuit close.
    pub(crate) outbox: Vec<(u32, CellQueue)>,
    /// The ready set: bit `e` is set iff outbox entry `e` passes the
    /// fabric's readiness predicate. One word per 64 entries, exactly
    /// `outbox.len().div_ceil(64)` of them, bits at or past `outbox.len()`
    /// clear. The fabric refreshes a bit wherever an input of the predicate
    /// changes; nothing here decides readiness.
    ready: Vec<u64>,
    pub(crate) received: Vec<(VcId, Packet)>,
    /// Round-robin cursor over circuits for the one-cell-per-slot link.
    pub(crate) rotor: usize,
}

impl HostState {
    /// Index of the outbox entry for `raw`, or where to insert one.
    pub(crate) fn outbox_entry(&self, raw: u32) -> Result<usize, usize> {
        self.outbox.binary_search_by_key(&raw, |e| e.0)
    }

    /// Whether entry `e` is marked ready.
    #[cfg(test)]
    pub(crate) fn is_ready(&self, e: usize) -> bool {
        self.ready[e / 64] >> (e % 64) & 1 != 0
    }

    /// Marks entry `e` ready or not.
    pub(crate) fn set_ready(&mut self, e: usize, on: bool) {
        debug_assert!(e < self.outbox.len());
        let bit = 1u64 << (e % 64);
        if on {
            self.ready[e / 64] |= bit;
        } else {
            self.ready[e / 64] &= !bit;
        }
    }

    /// Sizes the ready set to the outbox after entries were inserted or
    /// removed: new words start clear, and bits past the last entry are
    /// cleared. The caller re-derives the bits of every entry that moved.
    pub(crate) fn fit_ready_to_outbox(&mut self) {
        let n = self.outbox.len();
        self.ready.resize(n.div_ceil(64), 0);
        if !n.is_multiple_of(64) {
            *self.ready.last_mut().expect("n > 0") &= (1u64 << (n % 64)) - 1;
        }
    }

    /// The first ready entry at or after `start`, wrapping around — the
    /// entry a walk `start, start + 1, …, start - 1` would find first.
    /// `start` must be a valid entry index.
    pub(crate) fn next_ready(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start / 64, start % 64);
        let at = |w: usize, bits: u64| w * 64 + bits.trailing_zeros() as usize;
        let from_start = !0u64 << b0;
        let first = self.ready[w0] & from_start;
        if first != 0 {
            return Some(at(w0, first));
        }
        let later = (w0 + 1..self.ready.len()).chain(0..w0);
        for w in later {
            if self.ready[w] != 0 {
                return Some(at(w, self.ready[w]));
            }
        }
        let wrapped = self.ready[w0] & !from_start;
        (wrapped != 0).then(|| at(w0, wrapped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_with(n: usize, ready: &[usize]) -> HostState {
        let mut h = HostState {
            outbox: (0..n as u32).map(|raw| (raw, CellQueue::new())).collect(),
            ..HostState::default()
        };
        h.fit_ready_to_outbox();
        for &e in ready {
            h.set_ready(e, true);
        }
        h
    }

    #[test]
    fn next_ready_is_the_cyclic_walk() {
        // Three words' worth of entries, bits in each word and at the edges.
        let n = 150;
        let sets: [&[usize]; 6] = [
            &[],
            &[0],
            &[149],
            &[63, 64],
            &[5, 70, 128, 149],
            &[0, 1, 2, 63, 64, 65, 127, 128, 129, 149],
        ];
        for set in sets {
            let h = host_with(n, set);
            for start in 0..n {
                let walk = (0..n).map(|k| (start + k) % n).find(|e| set.contains(e));
                assert_eq!(h.next_ready(start), walk, "set {set:?} start {start}");
            }
        }
    }

    #[test]
    fn fitting_clears_bits_past_the_last_entry() {
        let mut h = host_with(130, &[64, 128, 129]);
        assert_eq!(h.ready.len(), 3);
        h.outbox.truncate(129);
        h.fit_ready_to_outbox();
        assert!(h.is_ready(128));
        assert_eq!(h.next_ready(65), Some(128));
        h.outbox.truncate(128);
        h.fit_ready_to_outbox();
        assert_eq!(h.ready.len(), 2);
        assert_eq!(h.next_ready(65), Some(64));
        h.outbox.truncate(10);
        h.fit_ready_to_outbox();
        assert_eq!(h.next_ready(0), None);
    }
}
