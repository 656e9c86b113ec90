//! The host controllers: per-circuit outboxes, the ready set over them, the
//! round-robin injection rotor, and the receiving side's delivery.
//!
//! A controller sends one cell per slot, taken round-robin from the
//! circuits that may send now. Which circuits those are is decided by one
//! predicate ([`Fabric::entry_ready`]: circuit open, credit or token gate
//! open, outbox non-empty); [`HostState`] keeps the *answer* as a bitset so
//! that picking the next sender costs a few word scans however many
//! circuits share the host, and a credit-starved host touches no circuit
//! state at all.

use super::circuits::Circuit;
use super::Fabric;
use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, CellKind, CellQueue, Packet, VcId};
use an2_topology::{HostId, Node};
use an2_trace::TraceEvent;

#[derive(Debug, Default)]
pub(super) struct HostState {
    /// Cells waiting to be injected, per circuit: `(raw vc, queue)` sorted
    /// by id, the iteration order of the `BTreeMap` it replaced. Entries
    /// persist when drained (the injection rotor counts them) and are
    /// removed only at circuit close.
    pub(super) outbox: Vec<(u32, CellQueue)>,
    /// The ready set: bit `e` is set iff outbox entry `e` passes the
    /// fabric's readiness predicate. One word per 64 entries, exactly
    /// `outbox.len().div_ceil(64)` of them, bits at or past `outbox.len()`
    /// clear. The fabric refreshes a bit wherever an input of the predicate
    /// changes; nothing in `HostState` decides readiness.
    ready: Vec<u64>,
    pub(super) received: Vec<(VcId, Packet)>,
    /// Round-robin cursor over circuits for the one-cell-per-slot link.
    pub(super) rotor: usize,
}

impl HostState {
    /// Index of the outbox entry for `raw`, or where to insert one.
    pub(super) fn outbox_entry(&self, raw: u32) -> Result<usize, usize> {
        self.outbox.binary_search_by_key(&raw, |e| e.0)
    }

    /// Whether entry `e` is marked ready.
    #[cfg(test)]
    pub(super) fn is_ready(&self, e: usize) -> bool {
        self.ready[e / 64] >> (e % 64) & 1 != 0
    }

    /// Marks entry `e` ready or not.
    pub(super) fn set_ready(&mut self, e: usize, on: bool) {
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
    pub(super) fn fit_ready_to_outbox(&mut self) {
        let n = self.outbox.len();
        self.ready.resize(n.div_ceil(64), 0);
        if !n.is_multiple_of(64) {
            *self.ready.last_mut().expect("n > 0") &= (1u64 << (n % 64)) - 1;
        }
    }

    /// The first ready entry at or after `start`, wrapping around — the
    /// entry a walk `start, start + 1, …, start - 1` would find first.
    /// `start` must be a valid entry index.
    pub(super) fn next_ready(&self, start: usize) -> Option<usize> {
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

impl HostState {
    /// The rotor's movement over `n` slots in which nothing was ready: one
    /// fruitless look per slot.
    #[inline]
    pub(super) fn idle_slots(&mut self, n: u64) {
        let len = self.outbox.len();
        if len > 0 {
            // One slot is the per-slot path: spare it the second division.
            let step = if n == 1 { 1 } else { (n % len as u64) as usize };
            self.rotor = (self.rotor % len + step) % len;
        }
    }
}

impl Fabric {
    /// Queues cells at the source controller for injection.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn send_cells(&mut self, vc: VcId, cells: impl IntoIterator<Item = Cell>) {
        let src = self.circuits.get(vc).expect("unknown circuit").src;
        self.push_outbox(src, vc, cells);
    }

    /// Cells still waiting at the source controller.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn outbox_len(&self, vc: VcId) -> usize {
        self.try_outbox_len(vc).expect("unknown circuit")
    }

    /// Cells still waiting at the source controller, or `None` for a
    /// circuit that was never opened or is already closed.
    pub(crate) fn try_outbox_len(&self, vc: VcId) -> Option<usize> {
        let src = self.circuits.get(vc)?.src;
        let h = &self.hosts[src.0 as usize];
        Some(
            h.outbox_entry(vc.raw())
                .map(|e| h.outbox[e].1.len())
                .unwrap_or(0),
        )
    }

    /// Takes all packets delivered to a host since the last call.
    pub fn take_received(&mut self, host: HostId) -> Vec<(VcId, Packet)> {
        std::mem::take(&mut self.hosts[host.0 as usize].received)
    }

    /// Appends cells to a host's per-circuit outbox queue: one entry
    /// look-up and one ready-bit refresh however many cells.
    pub(super) fn push_outbox(
        &mut self,
        host: HostId,
        vc: VcId,
        cells: impl IntoIterator<Item = Cell>,
    ) {
        let h = host.0 as usize;
        let e = match self.hosts[h].outbox_entry(vc.raw()) {
            Ok(e) => e,
            Err(pos) => {
                self.hosts[h]
                    .outbox
                    .insert(pos, (vc.raw(), CellQueue::new()));
                self.rederive_ready_from(h, pos);
                pos
            }
        };
        for cell in cells {
            self.pool
                .push_back(&mut self.hosts[h].outbox[e].1, cell, 0, 0);
        }
        self.refresh_ready(h, e);
    }

    /// Removes `vc`'s outbox entry at `host` with whatever it still holds
    /// (circuit close).
    pub(super) fn drop_outbox(&mut self, host: HostId, vc: VcId) {
        let h = host.0 as usize;
        if let Ok(e) = self.hosts[h].outbox_entry(vc.raw()) {
            let (_, mut q) = self.hosts[h].outbox.remove(e);
            self.pool.clear(&mut q);
            self.rederive_ready_from(h, e);
        }
    }

    /// The readiness predicate, the only place that decides whether a host
    /// may inject from outbox entry `e` now: the circuit is open, its
    /// credit/token gate is open, and a cell is queued. Everything else
    /// reads the answer off the host's ready set, which is kept equal to
    /// this by [`Fabric::refresh_ready`] at every site that changes one of
    /// the three inputs (and checked against it on every injection in debug
    /// builds).
    pub(super) fn entry_ready(&self, h: usize, e: usize) -> bool {
        let (raw, queue) = &self.hosts[h].outbox[e];
        !queue.is_empty()
            && self
                .circuits
                .get(VcId::new(*raw))
                .is_some_and(Circuit::gate_open)
    }

    /// Re-derives the ready bit of entry `e` at host `h`.
    fn refresh_ready(&mut self, h: usize, e: usize) {
        let on = self.entry_ready(h, e);
        self.hosts[h].set_ready(e, on);
    }

    /// Re-derives the ready bit of `vc`'s outbox entry at its source host,
    /// if the circuit is open and has one.
    pub(super) fn refresh_ready_of(&mut self, vc: VcId) {
        let Some(c) = self.circuits.get(vc) else {
            return;
        };
        let h = c.src.0 as usize;
        if let Ok(e) = self.hosts[h].outbox_entry(vc.raw()) {
            self.refresh_ready(h, e);
        }
    }

    /// Re-derives the ready bits of host `h` from entry `from` up, after an
    /// insertion or removal at `from` shifted those entries' positions
    /// (entries below `from` kept theirs).
    fn rederive_ready_from(&mut self, h: usize, from: usize) {
        self.hosts[h].fit_ready_to_outbox();
        for e in from..self.hosts[h].outbox.len() {
            self.refresh_ready(h, e);
        }
    }

    /// Every host controller sends at most one cell (the link rate), taken
    /// round-robin from its ready circuits for fairness on the shared host
    /// link: the first ready outbox entry at or after the rotor, which then
    /// moves one past the pick — or one past where it stood when nothing is
    /// ready, the step an idle slot's fruitless look costs.
    pub(super) fn inject_from_hosts(&mut self) {
        if self.pool.live() == 0 {
            // Every outbox queue is empty (the pool holds exactly the
            // buffered host cells), so no entry is ready: make each host's
            // nothing-ready rotor step without reading its ready set
            // (cells in flight or queued in switches keep such slots from
            // being jumped, so they are stepped and their cost shows).
            for h in &mut self.hosts {
                h.idle_slots(1);
            }
            return;
        }
        for h in 0..self.hosts.len() {
            let host = &self.hosts[h];
            let n = host.outbox.len();
            if n == 0 {
                continue;
            }
            let start = host.rotor % n;
            let pick = host.next_ready(start);
            debug_assert_eq!(
                pick,
                (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&e| self.entry_ready(h, e)),
                "host {h}: ready set disagrees with a walk of the readiness predicate"
            );
            self.hosts[h].rotor = (pick.unwrap_or(start) + 1) % n;
            if let Some(e) = pick {
                self.inject_entry(h, e);
            }
        }
    }

    /// Sends the head cell of host `h`'s ready outbox entry `e` onto the
    /// circuit's source link and spends the credit or token that let it go.
    fn inject_entry(&mut self, h: usize, e: usize) {
        const OPEN: &str = "a ready entry's circuit is open";
        let vc = VcId::new(self.hosts[h].outbox[e].0);
        let ci = self.circuits.idx_of(vc).expect(OPEN);
        let circuit = self.circuits.at(ci).expect(OPEN);
        let (first, link) = (circuit.switches[0], circuit.src_link);
        let (cell, _, _) = self
            .pool
            .pop_front(&mut self.hosts[h].outbox[e].1)
            .expect("a ready entry's queue is non-empty");
        let is_signal = cell.header.kind == CellKind::Signal;
        // The sampling counter is the tracer's own, independent of the
        // simulation RNG, so tracing never perturbs the run.
        let mut trace = 0;
        if let Some(t) = self.trace.as_mut().filter(|_| !is_signal) {
            trace = t.lane.sample_cell();
            t.lane.emit(TraceEvent::CellInject {
                vc: vc.raw(),
                host: h as u16,
                trace_id: trace,
            });
            t.lane.add(t.cells_injected[h], 1);
        }
        let wire = self.attachment(link, Node::Switch(first));
        let (arrives, corrupted) = self.launch(wire, cell, self.slot, trace);
        let slot_now = self.slot;
        let c = self.circuits.at_mut(ci).expect(OPEN);
        match c.class {
            TrafficClass::BestEffort => {
                let hc = c.host_credits.as_mut().expect("gated best-effort");
                *hc -= 1;
                if let Some(t) = &mut self.trace {
                    t.lane.emit(TraceEvent::CreditConsume {
                        vc: vc.raw(),
                        balance: *hc,
                    });
                }
            }
            TrafficClass::Guaranteed { .. } => {
                *c.gt_tokens.as_mut().expect("token bucket exists") -= 1;
            }
        }
        if !is_signal {
            c.stats.sent_cells += 1;
            if corrupted {
                c.stats.corrupted_cells += 1;
            }
            if arrives {
                c.inject_slots.push_back(slot_now);
            } else {
                c.stats.lost_cells += 1;
            }
        }
        c.last_activity = slot_now;
        // The host's gate is hop 0's sender.
        self.ledger_cell_sent(ci, 0);
        // The pop may have emptied the queue, the spend closed the gate.
        self.refresh_ready(h, e);
    }

    /// A data cell reaches its destination controller: per-circuit
    /// accounting and reassembly, on one circuit look-up. A cell whose
    /// circuit is gone (closed while the cell was beyond the teardown's
    /// reach) has nobody to be reassembled for and is discarded.
    pub(super) fn deliver_to_host(&mut self, host: HostId, cell: Cell, trace: u32) {
        let vc = cell.vc();
        let slot_now = self.slot;
        let Some(c) = self.circuits.get_mut(vc) else {
            return;
        };
        c.stats.delivered_cells += 1;
        c.last_activity = slot_now;
        let latency = c.inject_slots.pop_front().map(|injected| {
            let l = slot_now - injected;
            c.stats.latency_slots.record(l);
            l
        });
        let packet = match c.partial.push(&cell) {
            Ok(Some(packet)) => {
                c.stats.packets_delivered += 1;
                Some(packet)
            }
            Ok(None) => None,
            Err(_) => {
                c.stats.packets_corrupted += 1;
                None
            }
        };
        if let Some(l) = latency {
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::CellDeliver {
                    vc: vc.raw(),
                    host: host.0,
                    latency_slots: l,
                    trace_id: trace,
                });
                t.lane.add(t.cells_delivered[host.0 as usize], 1);
                t.lane.record(t.cell_latency, l);
            }
        }
        if let Some(packet) = packet {
            self.hosts[host.0 as usize].received.push((vc, packet));
        }
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
