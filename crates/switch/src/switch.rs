//! The slot-synchronous switch model, on dense slab storage.
//!
//! Per-circuit state is interned into a slab: a [`VcIndex`] maps the 24-bit
//! VC id to a slot number, and everything about a circuit — route, credit
//! balance, per-input queues, pending buffer — lives in one `VcSlot`. Cells
//! are `Copy` and queued in a shared [`CellPool`] (free-list arena), so the
//! per-slot hot path relinks `u32` indices instead of walking B-trees and
//! touching the allocator.
//!
//! What PIM reads — which (input, output) pairs have a cell waiting — is
//! kept between steps in a request index per traffic class
//! ([`crate::index`]): per pair, the circuits queued there, oldest head
//! first and ties to the lowest raw VC id; per input, a mask of the pairs
//! that are non-empty. A step reads one head per requesting pair and a
//! matched pair dequeues that head. The order is the pre-slab
//! implementation's: it took the oldest head, iterating `BTreeMap<VcId, _>`
//! in ascending id order, so departures, credit consumption and PIM's RNG
//! stream are byte-identical to it (pinned by the `an2` crate's
//! `reference_equiv` and `wide_fabric_equiv` suites).

use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, CellPool, CellQueue, VcId, VcIndex};
use an2_schedule::FrameSchedule;
use an2_sim::SimRng;
use an2_trace::{Entity, MetricId, MetricOp, TraceEvent, TraceLane, TraceRecord, Tracer};
use an2_xbar::{CrossbarScheduler, Pim};
use std::fmt;

use crate::index::{Head, PairIndex};
use crate::scratch::StepScratch;

/// Configuration of one switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Line cards / crossbar ports (AN2: up to 16). Every per-port table of
    /// the switch is this wide, and a switch behaves identically at any
    /// width that covers the ports its traffic uses — which is why a fabric
    /// ignores this field and builds each switch as wide as its cabling.
    pub ports: usize,
    /// Slots per guaranteed-traffic frame (AN2: 1024).
    pub frame_slots: u32,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 16,
            frame_slots: 1024,
        }
    }
}

/// PIM iterations per slot (AN2 hardware: 3).
pub const PIM_ITERATIONS: usize = 3;

/// Cut-through pipeline depth in slots: a cell arriving in slot `t` may
/// first cross the crossbar in slot `t + PIPELINE_SLOTS`. Three ~681 ns
/// slots ≈ the paper's 2 µs (§1).
pub const PIPELINE_SLOTS: u64 = 3;

/// Errors from switch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// The port number exceeds the switch's port count.
    BadPort(usize),
    /// The circuit already has a routing-table entry.
    RouteExists(VcId),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::BadPort(p) => write!(f, "port {p} out of range"),
            SwitchError::RouteExists(vc) => write!(f, "{vc} already routed"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// A cell leaving the switch this slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// Output port the cell leaves on.
    pub output: usize,
    /// The cell itself.
    pub cell: Cell,
    /// The slot in which the cell entered this switch (for latency
    /// accounting).
    pub enqueued_slot: u64,
    /// Path-trace id the cell carried through the switch (`0` = not
    /// sampled). Rides the queue's `aux` tag; see [`Switch::enqueue_traced`].
    pub trace: u32,
}

#[derive(Debug, Clone, Copy)]
struct Route {
    output: usize,
    class: TrafficClass,
}

/// Everything the switch knows about one circuit. A circuit's per-input
/// queues live in the switch-wide `queues` array (`si * ports + input`);
/// the class of the route says whether they hold best-effort or guaranteed
/// cells — a circuit has exactly one class at a time.
#[derive(Debug)]
struct VcSlot {
    vc: VcId,
    route: Option<Route>,
    /// Credit balance gating best-effort transmission (§5); `None` =
    /// ungated (e.g. the final hop to a host).
    credits: Option<u32>,
    /// Cells that arrived before the routing entry existed: "they will be
    /// buffered until the routing table entry is filled in" (§2). The
    /// queue's `aux` tag records the arrival input port.
    pending_q: CellQueue,
}

/// One AN2 switch. See the [crate documentation](crate) for the model.
pub struct Switch {
    cfg: SwitchConfig,
    /// VC id → slab slot, sized by the circuits this switch has seen: a
    /// leaf of a large fabric carries a few hundred circuits whose ids run
    /// into the tens of thousands, and a table indexed by raw id would cost
    /// it a cache miss per enqueue.
    lookup: VcIndex,
    vcs: Vec<VcSlot>,
    /// All per-circuit per-input queues, flattened at `si * ports + input`
    /// (one indexed load on the hot path instead of a chase through a
    /// per-circuit vector).
    queues: Vec<CellQueue>,
    /// The best-effort circuits requesting each crossbar pair (PIM's
    /// input), oldest head first.
    best_effort: PairIndex,
    /// The guaranteed circuits queued at each pair, for phase 1's reserved
    /// pairings.
    guaranteed: PairIndex,
    pool: CellPool,
    schedule: FrameSchedule,
    pim: Pim,
    slot: u64,
    /// Per output port: the slot *until* which the port is claimed by
    /// control-cell transmission (exclusive). Data phases skip a claimed
    /// output, giving reconfiguration protocol cells §2's priority over both
    /// guaranteed reservations and best-effort matching. All zeros — the
    /// state when [`Switch::reserve_output`] is never called — is inert.
    ctrl_reserved: Vec<u64>,
    /// The earliest future slot at which stepping this switch could change
    /// anything: the next head-of-queue eligibility (enqueue stamp +
    /// pipeline depth, control-reservation expiry) among ineligible queued
    /// cells, the next slot itself whenever any cell moved or could have
    /// moved, or `u64::MAX` when nothing internally scheduled remains.
    /// External events (enqueues, credits, route/schedule changes) clamp it
    /// back down; the fabric skips `step` entirely while `slot` is below it.
    watermark: u64,
    /// The scratch [`Switch::step`] and [`Switch::step_into`] run over,
    /// boxed on a standalone switch's first step. `None` for life on a
    /// switch whose stepper brings its own to [`Switch::step_with`] (every
    /// fabric switch: the lane owns one for all of them).
    own_scratch: Option<Box<StepScratch>>,
    /// Flight-recorder lane, Option-gated like the fabric's fault layer.
    trace: Option<Box<SwitchTrace>>,
}

/// A traced switch's lane, the series it writes (resolved once at attach)
/// and the fabric-wide id its events are attributed to.
struct SwitchTrace {
    lane: TraceLane,
    switch_id: u16,
    cells_enqueued: MetricId,
    queue_depth: MetricId,
    grants: MetricId,
}

impl SwitchTrace {
    /// One departure: the dequeue, the occupancy after it and — on a gated
    /// circuit — the credit it spent.
    fn dequeued(&mut self, d: &Departure, slot: u64, live: usize, balance: Option<u32>) {
        self.lane.emit(TraceEvent::CellDequeue {
            switch: self.switch_id,
            output: d.output as u16,
            vc: d.cell.vc().raw(),
            queued_slots: slot - d.enqueued_slot,
        });
        self.lane.set(self.queue_depth, live as i64);
        if let Some(balance) = balance {
            self.lane.emit(TraceEvent::CreditConsume {
                vc: d.cell.vc().raw(),
                balance,
            });
        }
    }
}

impl fmt::Debug for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Switch")
            .field("ports", &self.cfg.ports)
            .field("slot", &self.slot)
            .field(
                "routes",
                &self.vcs.iter().filter(|s| s.route.is_some()).count(),
            )
            .finish()
    }
}

impl Switch {
    /// Creates an idle switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        let ports = cfg.ports;
        let frame = cfg.frame_slots;
        let pim = Pim::new(PIM_ITERATIONS);
        Switch {
            cfg,
            lookup: VcIndex::new(),
            vcs: Vec::new(),
            queues: Vec::new(),
            best_effort: PairIndex::new(ports),
            guaranteed: PairIndex::new(ports),
            pool: CellPool::new(),
            schedule: FrameSchedule::new(ports, frame),
            pim,
            slot: 0,
            ctrl_reserved: vec![0; ports],
            watermark: 0,
            own_scratch: None,
            trace: None,
        }
    }

    /// Attaches a flight recorder; enqueues, crossbar grants, dequeues and
    /// credit spends are recorded attributed to `switch_id`, stamped with
    /// the switch's own slot clock. Tracing observes decisions already made
    /// — it cannot change the matching, the credit accounting, or the RNG
    /// stream.
    ///
    /// The switch buffers what it records in a [`TraceLane`] of its own and
    /// never takes the tracer's lock on the data path: nothing shows up in
    /// `tracer` until [`Switch::flush_trace`] (a standalone switch's user
    /// calls it before reading) or [`Switch::drain_trace`] (a fabric
    /// collects its switches' output and flushes it in switch-id order).
    pub fn attach_tracer(&mut self, tracer: Tracer, switch_id: u16) {
        let lane = TraceLane::new(tracer);
        let entity = Entity::Switch(switch_id);
        self.trace = Some(Box::new(SwitchTrace {
            cells_enqueued: lane.resolve("switch.cells_enqueued", entity),
            queue_depth: lane.resolve("switch.queue_depth", entity),
            grants: lane.resolve("xbar.grants", entity),
            lane,
            switch_id,
        }));
    }

    /// Applies everything this switch has recorded since the last flush to
    /// the attached tracer, under one lock (a no-op when untraced or when
    /// nothing is buffered).
    pub fn flush_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.lane.flush();
        }
    }

    /// Moves everything this switch has recorded since the last flush onto
    /// the ends of `records` and `ops`, unapplied, for the caller to put
    /// through `Tracer::sink` in an order of its choosing. Returns whether
    /// there was anything to move.
    pub fn drain_trace(&mut self, records: &mut Vec<TraceRecord>, ops: &mut Vec<MetricOp>) -> bool {
        match &mut self.trace {
            Some(t) if !t.lane.is_empty() => {
                t.lane.drain_into(records, ops);
                true
            }
            _ => false,
        }
    }

    /// The slab slot for `vc`, interning it on first sight.
    fn ensure_slot(&mut self, vc: VcId) -> usize {
        let si = self.lookup.intern(vc) as usize;
        if si == self.vcs.len() {
            self.vcs.push(VcSlot {
                vc,
                route: None,
                credits: None,
                pending_q: CellQueue::new(),
            });
            self.queues
                .extend((0..self.cfg.ports).map(|_| CellQueue::new()));
        }
        si
    }

    /// The slab slot for `vc`, if it has ever been seen.
    fn slot_of(&self, vc: VcId) -> Option<usize> {
        self.lookup.get(vc).map(|si| si as usize)
    }

    /// The request index of a traffic class.
    fn index_mut(&mut self, class: TrafficClass) -> &mut PairIndex {
        match class {
            TrafficClass::BestEffort => &mut self.best_effort,
            TrafficClass::Guaranteed { .. } => &mut self.guaranteed,
        }
    }

    /// Appends a cell to routed circuit `si`'s queue at `input`, indexing
    /// the circuit under its route's pair if the queue was empty. Returns
    /// the queue's depth after the push.
    fn push_routed(&mut self, si: usize, input: usize, cell: Cell, stamp: u64, aux: u32) -> u32 {
        let route = self.vcs[si]
            .route
            .expect("only a routed circuit queues cells");
        let q = &mut self.queues[si * self.cfg.ports + input];
        let was_empty = q.is_empty();
        self.pool.push_back(q, cell, stamp, aux);
        let depth = q.len() as u32;
        if was_empty {
            let head = Head {
                stamp,
                vc: self.vcs[si].vc.raw(),
                si: si as u32,
            };
            self.index_mut(route.class)
                .insert(input, route.output, head);
        }
        depth
    }

    /// Pops the head cell of indexed circuit `head.si`'s queue at `input`,
    /// with the stamp of the cell behind it (`None`: the queue emptied) —
    /// what the circuit's entry is re-keyed to.
    fn pop_queue(&mut self, head: Head, input: usize) -> ((Cell, u64, u32), Option<u64>) {
        let q = &mut self.queues[head.si as usize * self.cfg.ports + input];
        let popped = self
            .pool
            .pop_front(q)
            .expect("indexed queues are non-empty");
        (popped, (!q.is_empty()).then(|| q.front_stamp()))
    }

    /// The first best-effort circuit in pair (input, output)'s list whose
    /// credit gate is open, with its position: the oldest head a matched
    /// pair may send. A starved circuit keeps its place and is passed over.
    #[inline]
    fn open_head(&self, input: usize, output: usize) -> Option<(usize, Head)> {
        let list = self.best_effort.list(input, output);
        let pos = list
            .iter()
            .position(|h| self.vcs[h.si as usize].credits != Some(0))?;
        Some((pos, list[pos]))
    }

    /// Debug builds: asserts that both request indices hold exactly the
    /// non-empty queues of routed circuits, each under its route's pair and
    /// its head's stamp, in order, with every input's mask in step with its
    /// lists. A no-op in release builds.
    fn check_index(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        self.best_effort.check();
        self.guaranteed.check();
        let n = self.cfg.ports;
        let mut queued = 0;
        for (si, (s, queues)) in self.vcs.iter().zip(self.queues.chunks(n)).enumerate() {
            for (input, q) in queues.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                queued += 1;
                let route = s.route.expect("only a routed circuit queues cells");
                let index = match route.class {
                    TrafficClass::BestEffort => &self.best_effort,
                    TrafficClass::Guaranteed { .. } => &self.guaranteed,
                };
                let head = Head {
                    stamp: q.front_stamp(),
                    vc: s.vc.raw(),
                    si: si as u32,
                };
                assert!(
                    index.contains(input, route.output, head),
                    "{} queued at input {input} is not indexed under its head",
                    s.vc
                );
            }
        }
        // Distinct queues have distinct entries, so equal counts leave no
        // entry without its queue.
        assert_eq!(
            self.best_effort.len() + self.guaranteed.len(),
            queued,
            "indexed entries against non-empty queues"
        );
    }

    /// Gates a best-effort circuit's outbound transmissions behind a credit
    /// balance (§5). The fabric sets this to the downstream buffer count at
    /// circuit setup.
    pub fn set_credits(&mut self, vc: VcId, credits: u32) {
        let si = self.ensure_slot(vc);
        self.vcs[si].credits = Some(credits);
        self.wake_at(self.slot);
    }

    /// Removes the credit gate for a circuit (used on teardown).
    pub fn clear_credits(&mut self, vc: VcId) {
        if let Some(si) = self.slot_of(vc) {
            self.vcs[si].credits = None;
            self.wake_at(self.slot);
        }
    }

    /// One credit returned from downstream: a buffer was freed there.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is ungated — a stray credit indicates a fabric
    /// accounting bug.
    pub fn add_credit(&mut self, vc: VcId) {
        let si = self.slot_of(vc);
        let c = si
            .and_then(|si| self.vcs[si].credits.as_mut())
            .expect("credit for an ungated circuit");
        *c += 1;
        self.wake_at(self.slot);
    }

    /// The circuit's current credit balance (`None` = ungated).
    pub fn credit_balance(&self, vc: VcId) -> Option<u32> {
        self.slot_of(vc).and_then(|si| self.vcs[si].credits)
    }

    /// As [`Switch::add_credit`] but silently ignoring ungated circuits;
    /// returns whether a credit was added. One slab lookup instead of the
    /// `credit_balance` + `add_credit` pair on the fabric's hot path.
    pub fn try_add_credit(&mut self, vc: VcId) -> bool {
        if let Some(c) = self
            .slot_of(vc)
            .and_then(|si| self.vcs[si].credits.as_mut())
        {
            *c += 1;
            self.wake_at(self.slot);
            true
        } else {
            false
        }
    }

    /// Ports on this switch.
    pub fn ports(&self) -> usize {
        self.cfg.ports
    }

    /// The current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The earliest future slot at which stepping this switch could change
    /// anything (see the `watermark` field); `u64::MAX` when no internally
    /// scheduled work remains. Recomputed by every [`Switch::step_with`] and
    /// clamped down by every externally visible mutation (enqueues, credits,
    /// routes, schedule access), so a caller that skips `step` while
    /// `slot < next_event_slot()` observes byte-identical behaviour: a
    /// below-watermark step matches no ports, draws no randomness and emits
    /// nothing.
    pub fn next_event_slot(&self) -> u64 {
        self.watermark
    }

    /// Clamps the watermark down to `slot` — called by every mutation that
    /// could make an earlier step productive.
    #[inline]
    fn wake_at(&mut self, slot: u64) {
        if slot < self.watermark {
            self.watermark = slot;
        }
    }

    /// Advances the slot counter to `target` without stepping, for callers
    /// that have proven the intervening slots unproductive via
    /// [`Switch::next_event_slot`]. Legal with cells buffered, as long as
    /// none becomes eligible before `target`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `target` does not move backwards or past the watermark
    /// (a backlogged switch must step at its watermark slot).
    pub fn advance_to(&mut self, target: u64) {
        debug_assert!(target >= self.slot, "advance_to moved backwards");
        debug_assert!(
            self.watermark >= target || self.total_backlog() == 0,
            "advance_to past the next-event watermark of a backlogged switch"
        );
        self.slot = target;
    }

    /// Claims `output` for control-cell transmission through slot
    /// `until_slot` (exclusive): data traffic is not matched to the port
    /// while the claim is live, giving reconfiguration protocol bursts §2's
    /// priority over both guaranteed reservations and best-effort matching.
    /// Claims only extend (max of current and requested horizon), so
    /// back-to-back protocol messages compose. Never calling this is
    /// behaviour-identical to the pre-control-plane switch.
    pub fn reserve_output(&mut self, output: usize, until_slot: u64) {
        if let Some(r) = self.ctrl_reserved.get_mut(output) {
            *r = (*r).max(until_slot);
        }
    }

    /// The slot until which `output` is claimed by control cells
    /// (exclusive); `0` means never claimed.
    pub fn ctrl_reserved_until(&self, output: usize) -> u64 {
        self.ctrl_reserved.get(output).copied().unwrap_or(0)
    }

    /// The guaranteed-traffic frame schedule (for reservation surgery).
    /// Handing out the mutable borrow conservatively wakes the switch: a new
    /// reservation can make the very next slot productive.
    pub fn schedule_mut(&mut self) -> &mut FrameSchedule {
        self.wake_at(self.slot);
        &mut self.schedule
    }

    /// Read access to the frame schedule.
    pub fn schedule(&self) -> &FrameSchedule {
        &self.schedule
    }

    /// Installs a routing-table entry: cells of `vc` leave on `output`.
    /// Cells that arrived before the entry existed are released from the
    /// pending buffer.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range port or a duplicate entry.
    pub fn install_route(
        &mut self,
        vc: VcId,
        output: usize,
        class: TrafficClass,
    ) -> Result<(), SwitchError> {
        if output >= self.cfg.ports {
            return Err(SwitchError::BadPort(output));
        }
        let si = self.ensure_slot(vc);
        if self.vcs[si].route.is_some() {
            return Err(SwitchError::RouteExists(vc));
        }
        self.vcs[si].route = Some(Route { output, class });
        // Release held cells in arrival order, preserving their stamps.
        let mut held = std::mem::take(&mut self.vcs[si].pending_q);
        while let Some((cell, stamp, input)) = self.pool.pop_front(&mut held) {
            self.push_routed(si, input as usize, cell, stamp, 0);
        }
        // Released cells keep their arrival stamps, so the earliest any of
        // them (or a future enqueue) can move is now.
        self.wake_at(self.slot);
        self.check_index();
        Ok(())
    }

    /// Removes a routing entry (circuit teardown or page-out, §2), dropping
    /// any queued cells of the circuit. Returns how many cells were
    /// discarded.
    pub fn remove_route(&mut self, vc: VcId) -> usize {
        let Some(si) = self.slot_of(vc) else {
            return 0;
        };
        let mut dropped = 0;
        if let Some(route) = self.vcs[si].route.take() {
            let raw = self.vcs[si].vc.raw();
            for input in 0..self.cfg.ports {
                let q = &mut self.queues[si * self.cfg.ports + input];
                if q.is_empty() {
                    continue;
                }
                let head = Head {
                    stamp: q.front_stamp(),
                    vc: raw,
                    si: si as u32,
                };
                dropped += self.pool.clear(q);
                self.index_mut(route.class)
                    .remove(input, route.output, head);
            }
        }
        dropped += self.pool.clear(&mut self.vcs[si].pending_q);
        self.check_index();
        dropped
    }

    /// The output port a circuit is routed to, if any.
    pub fn route_of(&self, vc: VcId) -> Option<usize> {
        self.slot_of(vc)
            .and_then(|si| self.vcs[si].route)
            .map(|r| r.output)
    }

    /// Accepts a cell on an input port. Routed cells join their circuit's
    /// queue; unrouted cells wait in the pending buffer.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range input port.
    pub fn enqueue(&mut self, input: usize, cell: Cell) -> Result<(), SwitchError> {
        self.enqueue_traced(input, cell, 0)
    }

    /// As [`Switch::enqueue`] but tagging the cell with a path-trace id that
    /// rides the queue's `aux` word and comes back on the [`Departure`].
    /// Unrouted cells park in the pending buffer, whose `aux` records the
    /// arrival port instead — a sampled cell that beats its routing entry
    /// loses its id there (the [`TraceEvent::CellEnqueue`] record still
    /// captures the arrival).
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range input port.
    pub fn enqueue_traced(
        &mut self,
        input: usize,
        cell: Cell,
        trace: u32,
    ) -> Result<(), SwitchError> {
        if input >= self.cfg.ports {
            return Err(SwitchError::BadPort(input));
        }
        let si = self.ensure_slot(cell.vc());
        let slot = self.slot;
        let depth = if self.vcs[si].route.is_some() {
            // The cell becomes head-of-queue eligible one pipeline depth
            // from its arrival stamp at the earliest; unrouted cells wake
            // the switch through `install_route` instead.
            self.wake_at(slot + PIPELINE_SLOTS);
            self.push_routed(si, input, cell, slot, trace)
        } else {
            let q = &mut self.vcs[si].pending_q;
            self.pool.push_back(q, cell, slot, input as u32);
            q.len() as u32
        };
        if let Some(t) = &mut self.trace {
            t.lane.set_slot(slot);
            t.lane.emit(TraceEvent::CellEnqueue {
                switch: t.switch_id,
                input: input as u16,
                vc: cell.vc().raw(),
                depth,
            });
            t.lane.add(t.cells_enqueued, 1);
            t.lane.set(t.queue_depth, self.pool.live() as i64);
        }
        Ok(())
    }

    /// Cells of `vc` buffered anywhere in the switch: every input queue
    /// plus the unrouted pending buffer: the occupancy of the credit-gated
    /// hop that ends here, which a fabric's credit resync and conservation
    /// check read.
    pub fn buffered_cells(&self, vc: VcId) -> usize {
        let Some(si) = self.slot_of(vc) else {
            return 0;
        };
        let mut n = self.vcs[si].pending_q.len();
        for input in 0..self.cfg.ports {
            n += self.queues[si * self.cfg.ports + input].len();
        }
        n
    }

    /// Drops every buffered cell — a line-card crash losing its cell
    /// memory. Routing tables, schedules and credit gates survive (a warm
    /// restart); only the buffered cells are gone. Returns how many cells
    /// each circuit lost, in slab order, so the fabric can charge the loss
    /// to the right circuits.
    pub fn drop_queued_cells(&mut self) -> Vec<(VcId, usize)> {
        let mut out = Vec::new();
        for si in 0..self.vcs.len() {
            let mut n = self.pool.clear(&mut self.vcs[si].pending_q);
            for input in 0..self.cfg.ports {
                n += self
                    .pool
                    .clear(&mut self.queues[si * self.cfg.ports + input]);
            }
            if n > 0 {
                out.push((self.vcs[si].vc, n));
            }
        }
        self.best_effort.clear();
        self.guaranteed.clear();
        self.check_index();
        out
    }

    /// Cells queued for a circuit at an input port (any pool).
    pub fn backlog(&self, input: usize, vc: VcId) -> usize {
        self.slot_of(vc)
            .map_or(0, |si| self.queues[si * self.cfg.ports + input].len())
    }

    /// Total cells buffered anywhere in the switch (including pending).
    pub fn total_backlog(&self) -> usize {
        // Every queue in the switch draws from the one pool, so its live
        // count *is* the total backlog.
        self.pool.live()
    }

    /// Advances one cell slot: serves the frame schedule first, donates idle
    /// reserved slots, runs PIM for best-effort traffic over the remaining
    /// ports, and returns every departing cell.
    pub fn step(&mut self, rng: &mut SimRng) -> Vec<Departure> {
        let mut departures = Vec::new();
        self.step_into(rng, &mut departures);
        departures
    }

    /// As [`Switch::step`], but appending into a caller-owned buffer —
    /// without clearing it, so a caller can batch several steps' departures
    /// into one reused allocation.
    pub fn step_into(&mut self, rng: &mut SimRng, departures: &mut Vec<Departure>) {
        let mut scratch = self.own_scratch.take().unwrap_or_default();
        self.step_with(rng, &mut scratch, departures);
        self.own_scratch = Some(scratch);
    }

    /// The step itself, over working memory the caller owns: appends this
    /// slot's departures to `departures` (not cleared) and leaves nothing
    /// in `scratch` that a later step reads, so one scratch can serve every
    /// switch a thread steps — the fabric's lanes do exactly that, and the
    /// tables stay cache-hot from one switch to the next.
    pub fn step_with(
        &mut self,
        rng: &mut SimRng,
        scratch: &mut StepScratch,
        departures: &mut Vec<Departure>,
    ) {
        let n = self.cfg.ports;
        let frame_slot = (self.slot % self.cfg.frame_slots as u64) as u32;
        scratch.begin(n);
        let StepScratch {
            demand,
            matching,
            crossbar,
            xbar,
        } = scratch;
        if let Some(t) = &mut self.trace {
            t.lane.set_slot(self.slot);
        }

        // Phase 1 — guaranteed traffic takes its reserved pairings (§4).
        // With no guaranteed cell buffered anywhere the phase cannot touch
        // the crossbar (an idle reservation leaves its pair free), so an
        // all-best-effort switch skips the schedule lookups entirely.
        let gt_queued = !self.guaranteed.is_empty();
        if gt_queued {
            for input in 0..n {
                let Some(output) = self.schedule.output_in_slot(frame_slot, input) else {
                    continue;
                };
                if self.ctrl_reserved[output] > self.slot {
                    continue; // port carrying a control burst this slot
                }
                // "Best-effort cells can use an allocated slot if no cell
                // from the scheduled virtual circuit is present" — by not
                // claiming the pair without an eligible head, it stays free
                // for phase 2. The oldest head decides: every later one
                // arrived no earlier.
                let Some(&head) = self.guaranteed.list(input, output).first() else {
                    continue;
                };
                if self.slot < head.stamp + PIPELINE_SLOTS {
                    continue;
                }
                let ((cell, enqueued_slot, trace), next) = self.pop_queue(head, input);
                self.guaranteed.advance(input, output, 0, next);
                crossbar.set(input, output);
                let departure = Departure {
                    output,
                    cell,
                    enqueued_slot,
                    trace,
                };
                if let Some(t) = &mut self.trace {
                    t.dequeued(&departure, self.slot, self.pool.live(), None);
                }
                departures.push(departure);
            }
        }

        // Phase 2 — PIM over everything still free (§3). Demand marks the
        // (input, output) pairs with an eligible cell behind a free output.
        // Stamps are non-decreasing along each queue and a pair's list is
        // ordered by head stamp, so the pair's first head with an open
        // credit gate decides its eligibility — and PIM's grant/accept
        // rounds read only the request *masks*, never the queue depths, so
        // registering one cell per pair yields the same matching and the
        // same RNG stream as registering the full count.
        let mut any_demand = false;
        // The earliest future slot a pair's head becomes eligible (pipeline
        // depth or reservation expiry) — the watermark candidate when
        // nothing moves this slot.
        let mut wake = u64::MAX;
        // Only phase 1 claims ports ahead of this scan: when it did not run
        // every port is free, and the scan leaves the claims alone. With no
        // best-effort cell queued there is nothing to scan.
        let requesting = if self.best_effort.is_empty() { 0 } else { n };
        for input in 0..requesting {
            if gt_queued && !crossbar.input_free(input) {
                continue;
            }
            for output in self.best_effort.requests(input) {
                if gt_queued && !crossbar.output_free(output) {
                    // A claimed output means the crossbar is non-empty (the
                    // watermark lands on the next slot anyway).
                    continue;
                }
                // A pair whose every circuit is starved is woken by the
                // credit's arrival.
                let Some((_, head)) = self.open_head(input, output) else {
                    continue;
                };
                let eligible_at = (head.stamp + PIPELINE_SLOTS).max(self.ctrl_reserved[output]);
                if self.slot >= eligible_at {
                    demand.add(input, output, 1);
                    any_demand = true;
                } else {
                    wake = wake.min(eligible_at);
                }
            }
            // Guaranteed circuits with backlog may also use free slots via
            // the matching (they behave like best-effort for excess cells
            // *of an already-reserved circuit* only through their schedule;
            // the paper gives spare slots to best-effort cells, so
            // guaranteed queues wait for their reservations).
        }
        // PIM on an empty demand matrix grants nothing and consumes no
        // randomness (no output has requesters), so skipping it — and the
        // walk over the stale matching — is observationally identical.
        if any_demand {
            self.pim.schedule_into(demand, rng, xbar, matching);
            if let Some(t) = &mut self.trace {
                for (input, output) in matching.iter() {
                    t.lane.emit(TraceEvent::XbarGrant {
                        switch: t.switch_id,
                        input: input as u16,
                        output: output as u16,
                    });
                }
                t.lane.add(t.grants, matching.len() as u64);
            }
            for (input, output) in matching.iter() {
                // The head that gave the pair its demand: nothing between
                // the scan and here touched this pair's list or credits.
                let (pos, head) = self
                    .open_head(input, output)
                    .expect("PIM matched a pair with demand");
                debug_assert!(self.slot >= head.stamp + PIPELINE_SLOTS);
                if let Some(c) = self.vcs[head.si as usize].credits.as_mut() {
                    *c -= 1;
                }
                let ((cell, enqueued_slot, trace), next) = self.pop_queue(head, input);
                self.best_effort.advance(input, output, pos, next);
                crossbar.set(input, output);
                let departure = Departure {
                    output,
                    cell,
                    enqueued_slot,
                    trace,
                };
                let balance = self
                    .trace
                    .as_ref()
                    .and_then(|_| self.credit_balance(cell.vc()));
                if let Some(t) = &mut self.trace {
                    t.dequeued(&departure, self.slot, self.pool.live(), balance);
                }
                departures.push(departure);
            }
        }

        // Recompute the next-event watermark. Anything that moved or could
        // still move keeps the switch hot for the next slot: a claimed
        // crossbar pair, registered best-effort demand, or a guaranteed
        // backlog (frame reservations recur every frame, so a buffered
        // guaranteed cell is never more than one frame from service — we
        // conservatively stay slot-by-slot). Otherwise the earliest future
        // eligibility seen in the demand scan is the next event; external
        // arrivals clamp the watermark down through `wake_at`. (A step
        // only ever removes guaranteed cells, hence the short-circuit.)
        let gt_busy = gt_queued && !self.guaranteed.is_empty();
        self.slot += 1;
        self.watermark = if !crossbar.is_empty() || any_demand || gt_busy {
            self.slot
        } else {
            wake
        };
        self.check_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_cells::CellKind;
    use an2_cells::PAYLOAD_BYTES;

    fn cfg_small() -> SwitchConfig {
        SwitchConfig {
            ports: 4,
            frame_slots: 8,
        }
    }

    fn cell(vc: u32) -> Cell {
        Cell::new(VcId::new(vc), CellKind::Data, [0; PAYLOAD_BYTES])
    }

    fn run_slots(sw: &mut Switch, rng: &mut SimRng, slots: u64) -> Vec<Departure> {
        let mut out = Vec::new();
        for _ in 0..slots {
            out.extend(sw.step(rng));
        }
        out
    }

    #[test]
    fn cut_through_latency_is_pipeline_depth() {
        // E2: an uncontended cell leaves PIPELINE_SLOTS after arrival —
        // 3 slots ≈ 2 µs at 622 Mb/s.
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 2, TrafficClass::BestEffort)
            .unwrap();
        sw.enqueue(0, cell(1)).unwrap();
        let mut rng = SimRng::new(1);
        let mut deps = Vec::new();
        for s in 0..10u64 {
            for d in sw.step(&mut rng) {
                deps.push((s, d));
            }
        }
        assert_eq!(deps.len(), 1);
        let (departed_slot, d) = &deps[0];
        assert_eq!(*departed_slot, 3, "pipeline is 3 slots");
        assert_eq!(d.output, 2);
        assert_eq!(d.enqueued_slot, 0);
    }

    #[test]
    fn reserved_output_defers_data_until_claim_expires() {
        // A control burst claims output 2 for slots 0..6; the best-effort
        // cell that would have left at slot 3 leaves at 6 instead.
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 2, TrafficClass::BestEffort)
            .unwrap();
        sw.enqueue(0, cell(1)).unwrap();
        sw.reserve_output(2, 6);
        assert_eq!(sw.ctrl_reserved_until(2), 6);
        let mut rng = SimRng::new(1);
        let mut deps = Vec::new();
        for s in 0..10u64 {
            for d in sw.step(&mut rng) {
                deps.push((s, d.output));
            }
        }
        assert_eq!(deps, vec![(6, 2)]);
    }

    #[test]
    fn unrouted_cells_wait_for_route_install() {
        // §2: cells arriving before the setup completes "will be buffered
        // until the routing table entry is filled in."
        let mut sw = Switch::new(cfg_small());
        sw.enqueue(1, cell(9)).unwrap();
        let mut rng = SimRng::new(2);
        assert!(run_slots(&mut sw, &mut rng, 5).is_empty());
        assert_eq!(sw.total_backlog(), 1);
        sw.install_route(VcId::new(9), 3, TrafficClass::BestEffort)
            .unwrap();
        let deps = run_slots(&mut sw, &mut rng, 10);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].output, 3);
    }

    #[test]
    fn route_management_errors() {
        let mut sw = Switch::new(cfg_small());
        assert_eq!(
            sw.install_route(VcId::new(1), 9, TrafficClass::BestEffort),
            Err(SwitchError::BadPort(9))
        );
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        assert_eq!(
            sw.install_route(VcId::new(1), 2, TrafficClass::BestEffort),
            Err(SwitchError::RouteExists(VcId::new(1)))
        );
        assert_eq!(sw.route_of(VcId::new(1)), Some(1));
        assert!(sw.enqueue(7, cell(1)).is_err());
        assert!(SwitchError::BadPort(9).to_string().contains("9"));
    }

    #[test]
    fn remove_route_drops_queued_cells() {
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(5), 0, TrafficClass::BestEffort)
            .unwrap();
        sw.enqueue(1, cell(5)).unwrap();
        sw.enqueue(1, cell(5)).unwrap();
        assert_eq!(sw.remove_route(VcId::new(5)), 2);
        assert_eq!(sw.total_backlog(), 0);
        assert_eq!(sw.route_of(VcId::new(5)), None);
    }

    #[test]
    fn blocked_circuit_does_not_block_others() {
        // Random-access input buffers (§3): vc1 and vc2 share input 0; vc1's
        // output is monopolized by guaranteed traffic, vc2 still flows.
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.install_route(VcId::new(2), 2, TrafficClass::BestEffort)
            .unwrap();
        // A guaranteed circuit from input 3 hogs output 1 every slot.
        sw.install_route(
            VcId::new(7),
            1,
            TrafficClass::Guaranteed { cells_per_frame: 8 },
        )
        .unwrap();
        for s in 0..8 {
            sw.schedule_mut().insert(3, 1).unwrap();
            let _ = s;
        }
        let mut rng = SimRng::new(3);
        // Keep the guaranteed queue full so output 1 is always taken.
        for _ in 0..40 {
            sw.enqueue(3, cell(7)).unwrap();
        }
        sw.enqueue(0, cell(1)).unwrap(); // blocked behind guaranteed hog
        sw.enqueue(0, cell(2)).unwrap(); // must still flow to output 2
        let deps = run_slots(&mut sw, &mut rng, 20);
        assert!(
            deps.iter().any(|d| d.cell.vc() == VcId::new(2)),
            "vc2 was blocked by vc1's contention: head-of-line blocking!"
        );
    }

    #[test]
    fn guaranteed_gets_reserved_slots_under_congestion() {
        // Input 0 carries a guaranteed circuit to output 1 with 4/8 slots
        // reserved; inputs 2 and 3 flood output 1 with best-effort. The
        // guaranteed circuit still gets its 4 cells per frame.
        let mut sw = Switch::new(cfg_small());
        sw.install_route(
            VcId::new(1),
            1,
            TrafficClass::Guaranteed { cells_per_frame: 4 },
        )
        .unwrap();
        for _ in 0..4 {
            sw.schedule_mut().insert(0, 1).unwrap();
        }
        sw.install_route(VcId::new(2), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.install_route(VcId::new(3), 1, TrafficClass::BestEffort)
            .unwrap();
        let mut rng = SimRng::new(4);
        // Saturate all sources for 10 frames.
        let mut gt_delivered = 0;
        for slot in 0..80u64 {
            sw.enqueue(0, cell(1)).unwrap();
            sw.enqueue(2, cell(2)).unwrap();
            sw.enqueue(3, cell(3)).unwrap();
            for d in sw.step(&mut rng) {
                if d.cell.vc() == VcId::new(1) {
                    gt_delivered += 1;
                }
            }
            let _ = slot;
        }
        // 10 frames × 4 reserved = 40, minus pipeline warm-up of the first
        // frame; at least 9 frames' worth must get through.
        assert!(
            gt_delivered >= 36,
            "guaranteed circuit got only {gt_delivered} of ~40 reserved slots"
        );
    }

    #[test]
    fn idle_reserved_slots_are_donated_to_best_effort() {
        // §4: "best-effort cells can use an allocated slot if no cell from
        // the scheduled virtual circuit is present at the switch."
        let mut sw = Switch::new(cfg_small());
        // Guaranteed circuit (input 0 → output 1) reserves every slot but
        // sends nothing.
        sw.install_route(
            VcId::new(1),
            1,
            TrafficClass::Guaranteed { cells_per_frame: 8 },
        )
        .unwrap();
        for _ in 0..8 {
            sw.schedule_mut().insert(0, 1).unwrap();
        }
        // Best-effort from input 2 to output 1.
        sw.install_route(VcId::new(2), 1, TrafficClass::BestEffort)
            .unwrap();
        let mut rng = SimRng::new(5);
        for _ in 0..20 {
            sw.enqueue(2, cell(2)).unwrap();
        }
        let deps = run_slots(&mut sw, &mut rng, 20);
        assert!(
            deps.iter().filter(|d| d.cell.vc() == VcId::new(2)).count() >= 15,
            "idle reserved slots must be usable by best-effort traffic"
        );
    }

    #[test]
    fn full_permutation_throughput() {
        // All four inputs send to distinct outputs: one cell per input per
        // slot must flow once the pipeline fills.
        let mut sw = Switch::new(cfg_small());
        for i in 0..4u32 {
            sw.install_route(
                VcId::new(i + 1),
                ((i + 1) % 4) as usize,
                TrafficClass::BestEffort,
            )
            .unwrap();
        }
        let mut rng = SimRng::new(6);
        let mut delivered = 0;
        for _ in 0..100u64 {
            for i in 0..4 {
                sw.enqueue(i as usize, cell(i + 1)).unwrap();
            }
            delivered += sw.step(&mut rng).len();
        }
        assert!(delivered >= 4 * (100 - 4), "delivered {delivered}");
    }

    #[test]
    fn per_vc_fifo_order_is_preserved() {
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        let mut payload = [0u8; PAYLOAD_BYTES];
        let mut rng = SimRng::new(7);
        for k in 0..10u8 {
            payload[0] = k;
            sw.enqueue(0, Cell::new(VcId::new(1), CellKind::Data, payload))
                .unwrap();
        }
        let deps = run_slots(&mut sw, &mut rng, 20);
        let order: Vec<u8> = deps.iter().map(|d| d.cell.payload[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn backlog_accounting() {
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.enqueue(0, cell(1)).unwrap();
        sw.enqueue(0, cell(1)).unwrap();
        sw.enqueue(2, cell(1)).unwrap();
        assert_eq!(sw.backlog(0, VcId::new(1)), 2);
        assert_eq!(sw.backlog(2, VcId::new(1)), 1);
        assert_eq!(sw.total_backlog(), 3);
    }

    #[test]
    fn credit_gate_throttles_best_effort() {
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.set_credits(VcId::new(1), 2);
        let mut rng = SimRng::new(8);
        for _ in 0..10 {
            sw.enqueue(0, cell(1)).unwrap();
        }
        let deps = run_slots(&mut sw, &mut rng, 20);
        assert_eq!(deps.len(), 2, "only two credits were available");
        assert_eq!(sw.credit_balance(VcId::new(1)), Some(0));
        // Returning credits releases more cells.
        sw.add_credit(VcId::new(1));
        sw.add_credit(VcId::new(1));
        sw.add_credit(VcId::new(1));
        let deps = run_slots(&mut sw, &mut rng, 10);
        assert_eq!(deps.len(), 3);
        // Ungating drains the rest.
        sw.clear_credits(VcId::new(1));
        let deps = run_slots(&mut sw, &mut rng, 10);
        assert_eq!(deps.len(), 5);
    }

    #[test]
    fn blocked_by_credits_does_not_block_other_circuits() {
        // The §5 property motivating per-VC buffers: one stalled circuit
        // must not affect others sharing its input and output.
        let mut sw = Switch::new(cfg_small());
        sw.install_route(VcId::new(1), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.install_route(VcId::new(2), 1, TrafficClass::BestEffort)
            .unwrap();
        sw.set_credits(VcId::new(1), 0); // vc1 stalled: downstream is full
        let mut rng = SimRng::new(9);
        for _ in 0..5 {
            sw.enqueue(0, cell(1)).unwrap();
            sw.enqueue(0, cell(2)).unwrap();
        }
        let deps = run_slots(&mut sw, &mut rng, 15);
        assert_eq!(deps.len(), 5);
        assert!(deps.iter().all(|d| d.cell.vc() == VcId::new(2)));
    }

    #[test]
    #[should_panic(expected = "ungated circuit")]
    fn stray_credit_panics() {
        let mut sw = Switch::new(cfg_small());
        sw.add_credit(VcId::new(3));
    }

    #[test]
    fn debug_format_is_informative() {
        let sw = Switch::new(cfg_small());
        let s = format!("{sw:?}");
        assert!(s.contains("ports") && s.contains("4"));
    }

    #[test]
    fn two_guaranteed_circuits_share_a_reserved_pair_fairly() {
        // Two guaranteed circuits enter on the same input and leave on the
        // same output; the schedule reserves the pair every slot. The
        // oldest-cell rule shares the slots between them.
        let mut sw = Switch::new(cfg_small());
        for vc in [1u32, 2] {
            sw.install_route(
                VcId::new(vc),
                1,
                TrafficClass::Guaranteed { cells_per_frame: 4 },
            )
            .unwrap();
        }
        for _ in 0..8 {
            sw.schedule_mut().insert(0, 1).unwrap();
        }
        let mut rng = SimRng::new(12);
        let mut served = [0u64; 2];
        for _ in 0..80u64 {
            sw.enqueue(0, cell(1)).unwrap();
            sw.enqueue(0, cell(2)).unwrap();
            for d in sw.step(&mut rng) {
                served[(d.cell.vc().raw() - 1) as usize] += 1;
            }
        }
        let total = served[0] + served[1];
        assert!(total >= 70, "reserved slots must be used: {served:?}");
        let diff = served[0].abs_diff(served[1]);
        assert!(
            diff <= 2,
            "unfair split between co-scheduled circuits: {served:?}"
        );
    }

    #[test]
    fn trace_id_rides_the_queue_and_tracing_changes_nothing() {
        use an2_trace::{Entity, TraceConfig, Tracer};
        let build = || {
            let mut sw = Switch::new(cfg_small());
            sw.install_route(VcId::new(1), 2, TrafficClass::BestEffort)
                .unwrap();
            sw.install_route(VcId::new(2), 1, TrafficClass::BestEffort)
                .unwrap();
            sw
        };
        let drive = |sw: &mut Switch, traced: bool| -> Vec<Departure> {
            let mut rng = SimRng::new(31);
            let mut out = Vec::new();
            for k in 0..30u32 {
                if traced {
                    sw.enqueue_traced(0, cell(1), 100 + k).unwrap();
                } else {
                    sw.enqueue(0, cell(1)).unwrap();
                }
                sw.enqueue(3, cell(2)).unwrap();
                out.extend(sw.step(&mut rng));
            }
            out
        };

        let mut plain = build();
        let baseline = drive(&mut plain, false);

        let tracer = Tracer::new(TraceConfig::default());
        let mut sw = build();
        sw.attach_tracer(tracer.clone(), 6);
        let traced = drive(&mut sw, true);
        assert_eq!(tracer.events_seen(), 0, "the lane buffers until flushed");
        sw.flush_trace();

        // Same departures in the same order (ignoring the trace tag).
        assert_eq!(baseline.len(), traced.len());
        for (a, b) in baseline.iter().zip(&traced) {
            assert_eq!(
                (a.output, a.cell, a.enqueued_slot),
                (b.output, b.cell, b.enqueued_slot)
            );
        }
        // Tags survive the switch in FIFO order for the tagged circuit.
        let tags: Vec<u32> = traced
            .iter()
            .filter(|d| d.cell.vc() == VcId::new(1))
            .map(|d| d.trace)
            .collect();
        assert!(!tags.is_empty());
        assert!(tags.iter().enumerate().all(|(i, &t)| t == 100 + i as u32));
        // Untagged circuit departs with trace = 0.
        assert!(traced
            .iter()
            .filter(|d| d.cell.vc() == VcId::new(2))
            .all(|d| d.trace == 0));
        // Events and counters landed.
        assert_eq!(
            tracer.counter("switch.cells_enqueued", Entity::Switch(6)),
            60
        );
        let records = tracer.records();
        assert!(records.iter().any(|r| r.event.kind() == "cell_enqueue"));
        assert!(records.iter().any(|r| r.event.kind() == "cell_dequeue"));
        assert!(records.iter().any(|r| r.event.kind() == "xbar_grant"));
    }

    #[test]
    fn schedule_removal_returns_slots_to_best_effort() {
        let mut sw = Switch::new(cfg_small());
        sw.install_route(
            VcId::new(1),
            1,
            TrafficClass::Guaranteed { cells_per_frame: 8 },
        )
        .unwrap();
        for _ in 0..8 {
            sw.schedule_mut().insert(0, 1).unwrap();
        }
        sw.install_route(VcId::new(2), 1, TrafficClass::BestEffort)
            .unwrap();
        let mut rng = SimRng::new(13);
        // Keep the guaranteed queue saturated: best-effort gets nothing.
        for _ in 0..30 {
            sw.enqueue(0, cell(1)).unwrap();
            sw.enqueue(2, cell(2)).unwrap();
        }
        let deps = run_slots(&mut sw, &mut rng, 10);
        assert!(deps.iter().all(|d| d.cell.vc() == VcId::new(1)));
        // Tear the reservation down: best-effort flows again.
        while sw.schedule_mut().remove(0, 1).is_some() {}
        sw.remove_route(VcId::new(1));
        let deps = run_slots(&mut sw, &mut rng, 40);
        assert!(
            deps.iter().any(|d| d.cell.vc() == VcId::new(2)),
            "best-effort must use the freed slots"
        );
    }
}
