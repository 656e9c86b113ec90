//! Credit resynchronization (§5).
//!
//! "With credits, a lost message can only cause reduced performance.
//! Performance can be regained by having the upstream switch periodically
//! trigger a re-synchronization of credits. Devising the re-synchronization
//! protocol is in itself an interesting problem in distributed computing,
//! but we will not cover it here."
//!
//! The protocol implemented here (documented in DESIGN.md §4):
//!
//! 1. Both ends keep monotone absolute counters, which are never lost
//!    because they are local: `sent` upstream, and downstream the cells
//!    it holds in its buffers.
//! 2. The upstream end sends a **marker** `(epoch, sent)` in-band, behind
//!    the cells it has sent; each marker increments the epoch.
//! 3. The downstream end records the epoch (stamping it on all subsequent
//!    credits) and replies `(epoch, marker.sent − occupied)`: every cell
//!    sent before the marker that is not in a buffer now has been
//!    forwarded or destroyed on the way, and both free their buffer.
//! 4. On the reply, the upstream end sets
//!    `balance = capacity − (sent − reply.forwarded)`: exactly the buffers
//!    not occupied by cells that are in flight or still queued downstream.
//! 5. Credits stamped with an older epoch are ignored — they are already
//!    accounted for inside the reply, so double-counting is impossible.
//!
//! The protocol is idempotent and tolerates arbitrary loss of cells,
//! markers, replies and credits: any later resync supersedes an incomplete
//! one. It can only *under*-estimate the balance transiently (cells sent
//! after the marker count as outstanding), never over-estimate, so buffer
//! overflow remains impossible.

use crate::credit::{CreditReceiver, CreditSender};

/// A resynchronization marker, sent upstream → downstream in-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// The new credit epoch.
    pub epoch: u32,
    /// The sender's absolute sent counter at marker time, which
    /// [`handle_marker`] reconciles against the cells buffered downstream.
    pub sent: u64,
}

/// The downstream reply to a [`Marker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Echoes the marker's epoch.
    pub epoch: u32,
    /// The receiver's absolute forwarded counter.
    pub forwarded: u64,
}

/// Starts a resynchronization at the upstream end: bumps the epoch (so
/// stale credits will be ignored) and produces the marker to transmit.
pub fn begin(sender: &mut CreditSender) -> Marker {
    let (epoch, sent) = sender.begin_resync();
    Marker { epoch, sent }
}

/// Handles a marker at the downstream end, producing the reply: stamps
/// the marker's epoch on every credit `receiver` returns from now on and
/// answers [`lossy_reply`] for the cells it holds.
///
/// **Safety requirement:** the marker must travel the same FIFO channel as
/// the data cells, so that when it arrives every cell sent before it has
/// either arrived (occupied or forwarded) or been lost. Then
/// `reply.forwarded ≤ marker.sent ≤ sender.sent`, the balance computed by
/// [`finish`] never exceeds `capacity − in-flight`, and over-estimation
/// remains impossible. On a link that loses nothing the reply is the
/// number of cells the receiver has forwarded.
pub fn handle_marker(receiver: &mut CreditReceiver, marker: Marker) -> Reply {
    receiver.stamp_epoch(marker.epoch);
    lossy_reply(marker, receiver.occupied())
}

/// The reply [`handle_marker`] sends when `occupied` of the hop's buffers
/// hold cells at marker time: `marker.sent − occupied`, for any downstream
/// end that counts its buffered cells (a switch reads them off its
/// queues).
pub fn lossy_reply(marker: Marker, occupied: u32) -> Reply {
    Reply {
        epoch: marker.epoch,
        forwarded: marker.sent.saturating_sub(occupied as u64),
    }
}

/// The balance a sender that has sent `sent` cells in all recovers from
/// `reply`: `capacity − (sent − reply.forwarded)`, every buffer not
/// accounted for by a cell still outstanding.
pub fn recovered_balance(capacity: u32, sent: u64, reply: Reply) -> u32 {
    let outstanding = sent.saturating_sub(reply.forwarded);
    capacity.saturating_sub(outstanding.min(capacity as u64) as u32)
}

/// Completes the resynchronization at the upstream end. Replies to stale
/// markers (superseded by a newer resync) are ignored.
pub fn finish(sender: &mut CreditSender, reply: Reply) {
    sender.finish_resync(reply);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a sender/receiver pair with `lost` credits missing: cells were
    /// sent and forwarded, but the credits never made it back.
    fn lossy_pair(capacity: u32, forwarded: u64, lost: u64) -> (CreditSender, CreditReceiver) {
        let mut s = CreditSender::new(capacity);
        let mut r = CreditReceiver::new(capacity);
        for k in 0..forwarded {
            assert!(s.try_send());
            r.on_cell().unwrap();
            let epoch = r.forward().unwrap();
            if k >= lost {
                assert!(s.on_credit_with_epoch(epoch));
            }
        }
        (s, r)
    }

    #[test]
    fn resync_restores_lost_credits() {
        let (mut s, mut r) = lossy_pair(8, 6, 3);
        assert_eq!(s.balance(), 5, "3 credits lost");
        let marker = begin(&mut s);
        let reply = handle_marker(&mut r, marker);
        finish(&mut s, reply);
        // Nothing outstanding: all 6 cells forwarded, so full capacity back.
        assert_eq!(s.balance(), 8);
    }

    #[test]
    fn resync_counts_outstanding_cells() {
        let mut s = CreditSender::new(4);
        let mut r = CreditReceiver::new(4);
        // Two cells sent; one delivered+forwarded (credit lost), one in
        // flight ahead of the marker.
        assert!(s.try_send());
        assert!(s.try_send());
        r.on_cell().unwrap();
        let _lost_credit = r.forward().unwrap();
        let marker = begin(&mut s);
        // The marker rides behind the second cell, which lands first.
        r.on_cell().unwrap();
        let reply = handle_marker(&mut r, marker);
        finish(&mut s, reply);
        // sent=2, one buffered → one outstanding → balance 3.
        assert_eq!(s.balance(), 3);
        // The buffered cell is forwarded; its credit carries the new epoch
        // and is accepted.
        let e = r.forward().unwrap();
        assert!(s.on_credit_with_epoch(e));
        assert_eq!(s.balance(), 4);
    }

    #[test]
    fn stale_credit_after_resync_not_double_counted() {
        let mut s = CreditSender::new(2);
        let mut r = CreditReceiver::new(2);
        assert!(s.try_send());
        r.on_cell().unwrap();
        let old_epoch = r.forward().unwrap(); // credit delayed in flight
                                              // Resync completes while that credit is still in flight.
        let marker = begin(&mut s);
        let reply = handle_marker(&mut r, marker);
        finish(&mut s, reply);
        assert_eq!(s.balance(), 2, "forwarded cell already counted");
        // The delayed credit finally arrives: must be ignored, else the
        // balance would exceed capacity (and on_credit_with_epoch asserts).
        assert!(!s.on_credit_with_epoch(old_epoch));
        assert_eq!(s.balance(), 2);
    }

    #[test]
    fn lost_marker_is_harmless() {
        let (mut s, mut r) = lossy_pair(4, 2, 2);
        assert_eq!(s.balance(), 2);
        let _lost = begin(&mut s); // marker never arrives
                                   // A later resync still works.
        let marker2 = begin(&mut s);
        let reply2 = handle_marker(&mut r, marker2);
        finish(&mut s, reply2);
        assert_eq!(s.balance(), 4);
    }

    #[test]
    fn lost_reply_is_harmless() {
        let (mut s, mut r) = lossy_pair(4, 2, 2);
        let marker = begin(&mut s);
        let _lost_reply = handle_marker(&mut r, marker);
        // Retry.
        let marker2 = begin(&mut s);
        let reply2 = handle_marker(&mut r, marker2);
        finish(&mut s, reply2);
        assert_eq!(s.balance(), 4);
    }

    #[test]
    fn reply_to_superseded_marker_ignored() {
        let (mut s, mut r) = lossy_pair(4, 2, 2);
        let marker1 = begin(&mut s);
        let reply1 = handle_marker(&mut r, marker1);
        let marker2 = begin(&mut s);
        // Old reply arrives after the newer marker was issued: ignored.
        finish(&mut s, reply1);
        assert_eq!(s.balance(), 2, "stale reply must not change the balance");
        let reply2 = handle_marker(&mut r, marker2);
        finish(&mut s, reply2);
        assert_eq!(s.balance(), 4);
    }

    #[test]
    fn marker_recovers_cells_destroyed_on_the_link() {
        let mut s = CreditSender::new(4);
        let mut r = CreditReceiver::new(4);
        // Three cells sent; one destroyed on the wire, one buffered, one
        // forwarded with its credit also lost.
        for _ in 0..3 {
            assert!(s.try_send());
        }
        r.on_cell().unwrap(); // survives, stays buffered
        r.on_cell().unwrap();
        let _lost_credit = r.forward().unwrap();
        assert_eq!(s.balance(), 1);
        let marker = begin(&mut s);
        // The receiver's own forwarded count (1) would leave the destroyed
        // cell outstanding forever (balance 2 of 4). The reply is instead
        // sent − occupied = 3 − 1 = 2: the destroyed cell's credit comes
        // back, only the buffered cell stays outstanding.
        let reply = handle_marker(&mut r, marker);
        assert_eq!(reply.forwarded, 2);
        finish(&mut s, reply);
        assert_eq!(s.balance(), 3);
        // The buffered cell drains normally under the new epoch.
        let e = r.forward().unwrap();
        assert!(s.on_credit_with_epoch(e));
        assert_eq!(s.balance(), 4);
    }

    #[test]
    fn marker_recovers_crash_dropped_buffers() {
        let mut s = CreditSender::new(4);
        let mut r = CreditReceiver::new(4);
        for _ in 0..3 {
            assert!(s.try_send());
            r.on_cell().unwrap();
        }
        // Line card crashes: all three buffered cells vanish.
        r.drop_buffered(3);
        assert_eq!(r.occupied(), 0);
        assert_eq!(s.balance(), 1);
        let marker = begin(&mut s);
        let reply = handle_marker(&mut r, marker);
        finish(&mut s, reply);
        assert_eq!(
            s.balance(),
            4,
            "crash-dropped cells give their credits back"
        );
    }

    #[test]
    fn marker_never_over_estimates() {
        // Cells sent after the marker are still counted as outstanding.
        let mut s = CreditSender::new(8);
        let mut r = CreditReceiver::new(8);
        for _ in 0..2 {
            assert!(s.try_send());
            r.on_cell().unwrap();
        }
        let marker = begin(&mut s);
        // Two more cells leave after the marker (still in flight).
        assert!(s.try_send());
        assert!(s.try_send());
        let reply = handle_marker(&mut r, marker);
        finish(&mut s, reply);
        // sent=4, reply.forwarded = 2−2 = 0 → all four outstanding.
        assert_eq!(s.balance(), 4);
        assert!(s.balance() + r.occupied() <= s.capacity());
    }

    #[test]
    fn resync_is_idempotent() {
        let (mut s, mut r) = lossy_pair(8, 4, 1);
        for _ in 0..3 {
            let m = begin(&mut s);
            let rep = handle_marker(&mut r, m);
            finish(&mut s, rep);
            assert_eq!(s.balance(), 8);
        }
    }
}
