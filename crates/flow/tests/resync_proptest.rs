//! Adversarial-schedule property tests for credit resynchronization (§5).
//!
//! An adversary drives one flow-controlled hop — a FIFO wire downstream
//! (cells and markers), a FIFO wire upstream (credits and replies) — and
//! may lose any item, crash the receiver's buffers, and start resyncs at
//! arbitrary points. Two properties must survive every schedule:
//!
//! 1. **Never over-estimate:** the sender's balance never exceeds
//!    `capacity − occupied − in-flight`, so the receiver can never
//!    overflow ("with credits, a lost message can only cause reduced
//!    performance").
//! 2. **Eventually recover:** once losses stop and one resync completes
//!    cleanly, the balance returns to `capacity − in-flight`, which at
//!    quiescence is full capacity.
//!
//! The adversary's schedules form a grid walked smallest first — capacity,
//! then schedule length, then seed — and a schedule that breaks either
//! property is reported cut down to a 1-minimal one by [`assert_sequence`].

use an2_flow::resync::{self, Marker, Reply};
use an2_flow::{CreditReceiver, CreditSender};
use an2_sim::{assert_sequence, SimRng};
use std::collections::VecDeque;

/// In-flight item on the downstream wire (sender → receiver). FIFO order
/// between cells and markers is what makes the marker rule sound.
#[derive(Debug, Clone, Copy)]
enum Down {
    Cell,
    Marker(Marker),
}

/// In-flight item on the upstream wire (receiver → sender).
#[derive(Debug, Clone, Copy)]
enum Up {
    Credit(u32),
    Reply(Reply),
}

struct Hop {
    s: CreditSender,
    r: CreditReceiver,
    down: VecDeque<Down>,
    up: VecDeque<Up>,
}

impl Hop {
    fn new(capacity: u32) -> Self {
        Hop {
            s: CreditSender::new(capacity),
            r: CreditReceiver::new(capacity),
            down: VecDeque::new(),
            up: VecDeque::new(),
        }
    }

    /// Cells on the downstream wire (these will arrive; lost ones are
    /// removed from the queue immediately).
    fn cells_in_flight(&self) -> u64 {
        self.down.iter().filter(|i| matches!(i, Down::Cell)).count() as u64
    }

    /// The safety bound: credits the sender holds can never exceed the
    /// buffers not already spoken for by buffered or in-flight cells.
    fn check_no_over_estimate(&self) -> Result<(), String> {
        let spoken_for = self.r.occupied() as u64 + self.cells_in_flight();
        if self.s.balance() as u64 + spoken_for <= self.s.capacity() as u64 {
            return Ok(());
        }
        Err(format!(
            "over-estimate: balance {} + occupied {} + in-flight {} > capacity {}",
            self.s.balance(),
            self.r.occupied(),
            self.cells_in_flight(),
            self.s.capacity()
        ))
    }

    /// Applies one adversary action (the opcode space wraps around).
    fn step(&mut self, op: u8) {
        match op % 8 {
            // Sender transmits if it has credit.
            0 => {
                if self.s.try_send() {
                    self.down.push_back(Down::Cell);
                }
            }
            // Deliver the oldest downstream item.
            1 => match self.down.pop_front() {
                Some(Down::Cell) => {
                    self.r
                        .on_cell()
                        .expect("receiver overflow: the credit protocol over-estimated under loss");
                }
                Some(Down::Marker(m)) => {
                    let reply = resync::handle_marker(&mut self.r, m);
                    self.up.push_back(Up::Reply(reply));
                }
                None => {}
            },
            // Lose the oldest downstream item (cell or marker).
            2 => {
                self.down.pop_front();
            }
            // Receiver forwards a buffered cell; its credit heads upstream.
            3 => {
                if let Some(epoch) = self.r.forward() {
                    self.up.push_back(Up::Credit(epoch));
                }
            }
            // Deliver the oldest upstream item.
            4 => match self.up.pop_front() {
                Some(Up::Credit(epoch)) => {
                    // A fresh over-capacity credit would panic inside
                    // on_credit_with_epoch — exactly the over-estimate this
                    // test exists to rule out.
                    self.s.on_credit_with_epoch(epoch);
                }
                Some(Up::Reply(reply)) => {
                    resync::finish(&mut self.s, reply);
                }
                None => {}
            },
            // Lose the oldest upstream item (credit or reply).
            5 => {
                self.up.pop_front();
            }
            // Start a resync; the marker rides the downstream FIFO.
            6 => {
                let m = resync::begin(&mut self.s);
                self.down.push_back(Down::Marker(m));
            }
            // Crash the receiver's line card: buffered cells vanish.
            _ => {
                let n = self.r.occupied();
                self.r.drop_buffered(n);
            }
        }
    }

    /// Fault-free drain: deliver and forward everything in flight, then one
    /// clean resync round trip.
    fn recover(&mut self) {
        while let Some(item) = self.down.pop_front() {
            match item {
                Down::Cell => self.r.on_cell().expect("overflow during drain"),
                Down::Marker(m) => {
                    let reply = resync::handle_marker(&mut self.r, m);
                    self.up.push_back(Up::Reply(reply));
                }
            }
        }
        while let Some(epoch) = self.r.forward() {
            self.up.push_back(Up::Credit(epoch));
        }
        while let Some(item) = self.up.pop_front() {
            match item {
                Up::Credit(epoch) => {
                    self.s.on_credit_with_epoch(epoch);
                }
                Up::Reply(reply) => resync::finish(&mut self.s, reply),
            }
        }
        // One clean marker/reply round trip reconciles everything lost.
        let m = resync::begin(&mut self.s);
        let reply = resync::handle_marker(&mut self.r, m);
        resync::finish(&mut self.s, reply);
    }
}

/// One schedule: every step keeps the sender's balance honest, and the
/// fault-free drain that follows brings back the full capacity.
fn schedule_holds(capacity: u32, ops: &[u8]) -> Result<(), String> {
    let mut hop = Hop::new(capacity);
    for &op in ops {
        hop.step(op);
        hop.check_no_over_estimate()?;
    }
    hop.recover();
    match (hop.r.occupied(), hop.s.balance()) {
        (0, b) if b == capacity => Ok(()),
        (occupied, b) => Err(format!(
            "after a clean resync at quiescence: occupied {occupied}, balance {b} of {capacity}"
        )),
    }
}

#[test]
fn balance_never_over_estimates_and_recovers() {
    for capacity in [1u32, 2, 3, 5, 11] {
        for len in [1usize, 2, 4, 8, 16, 32, 100, 399] {
            for seed in 0..2u64 {
                let mut rng = SimRng::new(seed);
                let ops: Vec<u8> = (0..len).map(|_| rng.gen_range(8) as u8).collect();
                assert_sequence(
                    format!("capacity={capacity} len={len} seed={seed}"),
                    &ops,
                    |ops| schedule_holds(capacity, ops),
                );
            }
        }
    }
}
