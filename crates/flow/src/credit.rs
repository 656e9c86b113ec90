//! The two ends of a flow-controlled link, per virtual circuit.

use crate::resync::{self, Reply};
use std::fmt;

/// Error raised when a cell arrives at a downstream line card with no buffer
/// available. Under correct credit accounting this is unreachable — the
/// whole point of the protocol — so the switch treats it as a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// Buffers allocated to the circuit.
    pub capacity: u32,
}

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell arrived with all {} buffers occupied",
            self.capacity
        )
    }
}

impl std::error::Error for Overflow {}

/// Upstream state for one virtual circuit on one link: the credit balance
/// ("the number of buffers known to be empty") and the absolute sent
/// counter used by resynchronization.
///
/// ```
/// use an2_flow::CreditSender;
/// let mut s = CreditSender::new(2);
/// assert!(s.try_send());
/// assert!(s.try_send());
/// assert!(!s.try_send()); // out of credits
/// s.on_credit();
/// assert!(s.try_send());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditSender {
    capacity: u32,
    balance: u32,
    sent: u64,
    epoch: u32,
}

impl CreditSender {
    /// A sender whose circuit owns `capacity` downstream buffers; the
    /// balance starts at full capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a circuit with no buffer can never send).
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "a circuit needs at least one buffer");
        CreditSender {
            capacity,
            balance: capacity,
            sent: 0,
            epoch: 0,
        }
    }

    /// Current credit balance.
    pub fn balance(&self) -> u32 {
        self.balance
    }

    /// Buffers allocated to this circuit downstream.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Total cells ever sent (the resync counter).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Consumes one credit to transmit a cell. Returns `false` (and sends
    /// nothing) when the balance is zero.
    pub fn try_send(&mut self) -> bool {
        if self.balance == 0 {
            return false;
        }
        self.balance -= 1;
        self.sent += 1;
        true
    }

    /// Applies an arriving credit carrying the current epoch. Credits from
    /// older epochs were accounted for by a resynchronization and must be
    /// ignored; see [`crate::resync`].
    ///
    /// Returns `false` if the credit was stale and ignored.
    ///
    /// # Panics
    ///
    /// Panics if a fresh credit would push the balance above capacity —
    /// that means the peer invented a buffer, a protocol bug.
    pub fn on_credit_with_epoch(&mut self, epoch: u32) -> bool {
        if epoch != self.epoch {
            return false;
        }
        assert!(
            self.balance < self.capacity,
            "credit would exceed capacity {}",
            self.capacity
        );
        self.balance += 1;
        true
    }

    /// Applies an arriving credit in the common (epoch-0, no resync yet)
    /// case.
    pub fn on_credit(&mut self) {
        let e = self.epoch;
        self.on_credit_with_epoch(e);
    }

    pub(crate) fn begin_resync(&mut self) -> (u32, u64) {
        self.epoch += 1;
        (self.epoch, self.sent)
    }

    pub(crate) fn finish_resync(&mut self, reply: Reply) {
        if reply.epoch != self.epoch {
            return; // reply to an older marker; a newer resync supersedes it
        }
        debug_assert!(
            reply.forwarded <= self.sent,
            "forwarded counter ran ahead of sent"
        );
        self.balance = resync::recovered_balance(self.capacity, self.sent, reply);
    }
}

/// Downstream state for one virtual circuit: the buffer pool and the
/// resync epoch stamped on the credits it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditReceiver {
    capacity: u32,
    occupied: u32,
    epoch: u32,
}

impl CreditReceiver {
    /// A receiver with `capacity` buffers for the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "a circuit needs at least one buffer");
        CreditReceiver {
            capacity,
            occupied: 0,
            epoch: 0,
        }
    }

    /// Buffers currently holding cells.
    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    /// Buffers allocated to the circuit.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Accepts an arriving cell into a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when every buffer is occupied — impossible under
    /// correct credit accounting, reported so tests can prove losslessness.
    pub fn on_cell(&mut self) -> Result<(), Overflow> {
        if self.occupied >= self.capacity {
            return Err(Overflow {
                capacity: self.capacity,
            });
        }
        self.occupied += 1;
        Ok(())
    }

    /// Forwards one buffered cell through the crossbar, freeing its buffer.
    /// Returns the epoch to stamp on the credit sent upstream, or `None` if
    /// nothing was buffered.
    pub fn forward(&mut self) -> Option<u32> {
        if self.occupied == 0 {
            return None;
        }
        self.occupied -= 1;
        Some(self.epoch)
    }

    /// Stamps `epoch`, a resync marker's, on the credits returned from
    /// now on.
    pub(crate) fn stamp_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Discards `n` buffered cells without forwarding them — a line-card
    /// crash losing its buffers. The dropped cells stay outstanding until
    /// a resync reconciles them against the sender's `sent` counter.
    pub fn drop_buffered(&mut self, n: u32) {
        self.occupied = self.occupied.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_consumes_credits() {
        let mut s = CreditSender::new(3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.balance(), 3);
        for _ in 0..3 {
            assert!(s.try_send());
        }
        assert!(!s.try_send());
        assert_eq!(s.sent(), 3);
        s.on_credit();
        assert_eq!(s.balance(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn credit_above_capacity_panics() {
        let mut s = CreditSender::new(1);
        s.on_credit();
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_capacity_sender_rejected() {
        CreditSender::new(0);
    }

    #[test]
    fn stale_epoch_credit_ignored() {
        let mut s = CreditSender::new(2);
        s.try_send();
        let (epoch, _) = s.begin_resync();
        assert_eq!(epoch, 1);
        assert!(!s.on_credit_with_epoch(0), "stale credit must be dropped");
        assert!(s.on_credit_with_epoch(1));
    }

    #[test]
    fn receiver_buffers_and_forwards() {
        let mut r = CreditReceiver::new(2);
        r.on_cell().unwrap();
        r.on_cell().unwrap();
        assert_eq!(r.occupied(), 2);
        assert_eq!(r.on_cell(), Err(Overflow { capacity: 2 }));
        assert_eq!(r.forward(), Some(0));
        assert_eq!(r.occupied(), 1);
        assert_eq!(r.capacity(), 2);
        r.forward();
        assert_eq!(r.forward(), None);
    }

    #[test]
    fn overflow_error_display() {
        let e = Overflow { capacity: 8 };
        assert!(e.to_string().contains("8 buffers"));
    }

    #[test]
    fn end_to_end_conservation() {
        // The balance equals capacity - (sent - credits received).
        let mut s = CreditSender::new(4);
        let mut r = CreditReceiver::new(4);
        for _ in 0..3 {
            assert!(s.try_send());
            r.on_cell().unwrap();
        }
        assert_eq!(s.balance(), 1);
        // Forward two; credits return.
        for _ in 0..2 {
            let e = r.forward().unwrap();
            assert!(s.on_credit_with_epoch(e));
        }
        assert_eq!(s.balance(), 3);
        assert_eq!(s.sent(), 3);
        assert_eq!(r.occupied(), 1); // one still buffered
    }
}
