//! The slot-synchronous switch model, on dense slab storage.
//!
//! Per-circuit state is interned into a slab: a [`VcIndex`] maps the 24-bit
//! VC id to a slot number, and everything about a circuit — route, credit
//! balance, per-input queues, pending buffer — lives in one `VcSlot`. Cells
//! are `Copy` and queued in a shared [`CellPool`] (free-list arena), so the
//! per-slot hot path relinks `u32` indices instead of walking B-trees and
//! touching the allocator.
//!
//! Per input port the switch keeps two *active lists* — slab slots with a
//! non-empty best-effort / guaranteed queue at that input, **sorted by raw
//! VC id**. The sort order matters: the pre-slab implementation iterated
//! `BTreeMap<VcId, _>` in ascending id order, and its oldest-cell
//! tie-breaks resolve toward the smallest id. The slab switch walks the
//! active lists in the same order, so departures, credit consumption and
//! PIM's RNG stream are byte-identical to [`crate::reference`] (enforced
//! by the reference-equivalence property tests in the `an2` crate).

use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, CellPool, CellQueue, VcId, VcIndex};
use an2_schedule::FrameSchedule;
use an2_sim::SimRng;
use an2_trace::{Entity, MetricId, MetricOp, TraceEvent, TraceLane, TraceRecord, Tracer};
use an2_xbar::{CrossbarScheduler, Pim};
use std::fmt;

use crate::scratch::{OldestCand, StepScratch};

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
    /// PIM iterations per slot (AN2 hardware: 3).
    pub pim_iterations: usize,
    /// Cut-through pipeline depth in slots: a cell arriving in slot `t` may
    /// first cross the crossbar in slot `t + pipeline_slots`. Three ~681 ns
    /// slots ≈ the paper's 2 µs (§1).
    pub pipeline_slots: u64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 16,
            frame_slots: 1024,
            pim_iterations: 3,
            pipeline_slots: 3,
        }
    }
}

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

/// An active-list entry: the raw VC id in the high half (the sort key) and
/// the slab slot in the low half. Packing the key into the entry keeps the
/// hot binary searches inside the list's own cache lines instead of
/// chasing into the slab per probe.
///
/// The packing cannot collide: raw VC ids are 24-bit ([`VcId::MAX`]), so the
/// shifted key occupies bits 32..56 exactly, and slab indices are `u32`s
/// (one per interned id, so below 2²⁴) — two entries are equal iff both the
/// id and the slot agree.
fn entry(vcs: &[VcSlot], si: u32) -> u64 {
    let raw = vcs[si as usize].vc.raw();
    debug_assert!(raw <= VcId::MAX, "VC id wider than the 24-bit key field");
    ((raw as u64) << 32) | si as u64
}

/// The slab slot of an active-list entry.
fn entry_slot(e: u64) -> u32 {
    e as u32
}

/// Inserts `si` into an active list kept sorted by raw VC id. No-op if
/// already present.
fn activate(list: &mut Vec<u64>, vcs: &[VcSlot], si: u32) {
    let e = entry(vcs, si);
    if let Err(pos) = list.binary_search(&e) {
        list.insert(pos, e);
    }
}

/// Removes `si` from an active list if present.
fn deactivate(list: &mut Vec<u64>, vcs: &[VcSlot], si: u32) {
    let e = entry(vcs, si);
    if let Ok(pos) = list.binary_search(&e) {
        list.remove(pos);
    }
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
    /// Per input: packed entries (see [`entry`]) for slab slots with a
    /// non-empty best-effort queue there, sorted by raw VC id (see module
    /// docs).
    be_active: Vec<Vec<u64>>,
    /// Per input: packed entries for slab slots with a non-empty
    /// guaranteed queue there.
    gt_active: Vec<Vec<u64>>,
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
    /// Whether a step may use the per-step oldest-eligible cache (on by
    /// default; the unbatched baseline turns it off — results are
    /// byte-identical either way).
    batched: bool,
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
        let pim = Pim::new(cfg.pim_iterations);
        Switch {
            cfg,
            lookup: VcIndex::new(),
            vcs: Vec::new(),
            queues: Vec::new(),
            be_active: vec![Vec::new(); ports],
            gt_active: vec![Vec::new(); ports],
            pool: CellPool::new(),
            schedule: FrameSchedule::new(ports, frame),
            pim,
            slot: 0,
            ctrl_reserved: vec![0; ports],
            watermark: 0,
            batched: true,
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

    /// Toggles the per-slot oldest-eligible dequeue cache (on by default).
    /// Purely an engine knob: results are byte-identical either way — the
    /// unbatched baseline exists so `an2`'s `watermark_equiv` suite can
    /// prove it.
    pub fn set_batched(&mut self, on: bool) {
        self.batched = on;
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
            let input = input as usize;
            let q = &mut self.queues[si * self.cfg.ports + input];
            let was_empty = q.is_empty();
            self.pool.push_back(q, cell, stamp, 0);
            if was_empty {
                let list = match class {
                    TrafficClass::BestEffort => &mut self.be_active[input],
                    TrafficClass::Guaranteed { .. } => &mut self.gt_active[input],
                };
                activate(list, &self.vcs, si as u32);
            }
        }
        // Released cells keep their arrival stamps, so the earliest any of
        // them (or a future enqueue) can move is now.
        self.wake_at(self.slot);
        Ok(())
    }

    /// Removes a routing entry (circuit teardown or page-out, §2), dropping
    /// any queued cells of the circuit. Returns how many cells were
    /// discarded.
    pub fn remove_route(&mut self, vc: VcId) -> usize {
        let Some(si) = self.slot_of(vc) else {
            return 0;
        };
        self.vcs[si].route = None;
        let mut dropped = 0;
        for input in 0..self.cfg.ports {
            let n = self
                .pool
                .clear(&mut self.queues[si * self.cfg.ports + input]);
            if n > 0 {
                deactivate(&mut self.be_active[input], &self.vcs, si as u32);
                deactivate(&mut self.gt_active[input], &self.vcs, si as u32);
            }
            dropped += n;
        }
        dropped + self.pool.clear(&mut self.vcs[si].pending_q)
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
        let depth;
        match self.vcs[si].route {
            Some(route) => {
                let q = &mut self.queues[si * self.cfg.ports + input];
                let was_empty = q.is_empty();
                self.pool.push_back(q, cell, slot, trace);
                depth = q.len() as u32;
                if was_empty {
                    let list = match route.class {
                        TrafficClass::BestEffort => &mut self.be_active[input],
                        TrafficClass::Guaranteed { .. } => &mut self.gt_active[input],
                    };
                    activate(list, &self.vcs, si as u32);
                }
            }
            None => {
                let q = &mut self.vcs[si].pending_q;
                self.pool.push_back(q, cell, slot, input as u32);
                depth = q.len() as u32;
            }
        }
        if self.vcs[si].route.is_some() {
            // The cell becomes head-of-queue eligible one pipeline depth
            // from its arrival stamp at the earliest; unrouted cells wake
            // the switch through `install_route` instead.
            self.wake_at(slot + self.cfg.pipeline_slots);
        }
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
    /// plus the unrouted pending buffer. This is the line-card occupancy a
    /// fault layer's shadow credit receiver must mirror.
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
    /// to the right circuits and shadow receivers.
    pub fn drop_queued_cells(&mut self) -> Vec<(VcId, usize)> {
        let mut out = Vec::new();
        for si in 0..self.vcs.len() {
            let mut n = self.pool.clear(&mut self.vcs[si].pending_q);
            for input in 0..self.cfg.ports {
                let dropped = self
                    .pool
                    .clear(&mut self.queues[si * self.cfg.ports + input]);
                if dropped > 0 {
                    deactivate(&mut self.be_active[input], &self.vcs, si as u32);
                    deactivate(&mut self.gt_active[input], &self.vcs, si as u32);
                }
                n += dropped;
            }
            if n > 0 {
                out.push((self.vcs[si].vc, n));
            }
        }
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
        let step = scratch.begin(n);
        let StepScratch {
            demand,
            matching,
            crossbar,
            xbar,
            oldest,
            ..
        } = scratch;
        if let Some(t) = &mut self.trace {
            t.lane.set_slot(self.slot);
        }

        // Phase 1 — guaranteed traffic takes its reserved pairings (§4).
        // With no guaranteed cell buffered anywhere the phase cannot touch
        // the crossbar (an idle reservation leaves its pair free), so an
        // all-best-effort switch skips the schedule lookups entirely.
        let gt_queued = self.gt_active.iter().any(|l| !l.is_empty());
        if gt_queued {
            for input in 0..n {
                if let Some(output) = self.schedule.output_in_slot(frame_slot, input) {
                    if self.ctrl_reserved[output] > self.slot {
                        continue; // port carrying a control burst this slot
                    }
                    if let Some((cell, enqueued_slot, trace)) = take_oldest(
                        &mut self.pool,
                        &mut self.vcs,
                        &mut self.queues,
                        &mut self.gt_active[input],
                        self.slot,
                        self.cfg.pipeline_slots,
                        self.cfg.ports,
                        input,
                        output,
                        false,
                    ) {
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
                    // "Best-effort cells can use an allocated slot if no cell
                    // from the scheduled virtual circuit is present" — by not
                    // claiming the pair here, it stays free for phase 2.
                }
            }
        }

        // Phase 2 — PIM over everything still free (§3). Demand marks the
        // (input, output) pairs with an eligible cell behind a free output.
        // Stamps are non-decreasing along each queue (FIFO of a monotone
        // clock), so eligibility is decided by the front cell alone — and
        // PIM's grant/accept rounds read only the request *masks*, never the
        // queue depths, so registering one cell per pair yields the same
        // matching and the same RNG stream as registering the full count.
        let mut any_demand = false;
        // The earliest future slot an entry examined here becomes eligible
        // (pipeline depth or reservation expiry) — the watermark candidate
        // when nothing moves this slot.
        let mut wake = u64::MAX;
        // Only phase 1 claims ports ahead of this scan: when it did not run
        // every port is free, and the scan — the step's hot loop — leaves
        // the claims alone.
        for input in 0..n {
            if gt_queued && !crossbar.input_free(input) {
                continue;
            }
            for &e in &self.be_active[input] {
                let si = entry_slot(e) as usize;
                let s = &self.vcs[si];
                let Some(route) = s.route else {
                    continue;
                };
                if (gt_queued && !crossbar.output_free(route.output))
                    || s.credits.is_some_and(|c| c == 0)
                {
                    // A claimed output means the crossbar is non-empty (the
                    // watermark lands on the next slot anyway); a starved
                    // circuit is woken by the credit's arrival.
                    continue;
                }
                // Active lists only hold non-empty queues, and the queue
                // handle mirrors its head stamp — no pool access needed.
                let stamp = self.queues[si * n + input].front_stamp();
                let eligible_at =
                    (stamp + self.cfg.pipeline_slots).max(self.ctrl_reserved[route.output]);
                if self.slot >= eligible_at {
                    if self.batched {
                        // Track the oldest eligible candidate per pair with
                        // `take_oldest`'s exact tie-break (strict improvement
                        // over a list sorted by VC id), so a matched pair
                        // dequeues without rescanning the active list.
                        let c = &mut oldest[input * n + route.output];
                        if c.tag != step || stamp < c.stamp {
                            *c = OldestCand {
                                tag: step,
                                stamp,
                                si: si as u32,
                            };
                        }
                    }
                    demand.add(input, route.output, 1);
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
                let (cell, enqueued_slot, trace) = if self.batched {
                    // The demand scan already found the oldest eligible
                    // circuit for this pair (same candidate set, same
                    // tie-break as `take_oldest`): dequeue it directly
                    // instead of rescanning the active list.
                    let c = oldest[input * n + output];
                    debug_assert_eq!(c.tag, step, "stale cache for a matched pair");
                    let si = c.si;
                    if let Some(cr) = self.vcs[si as usize].credits.as_mut() {
                        *cr -= 1;
                    }
                    let q = &mut self.queues[si as usize * n + input];
                    let popped = self.pool.pop_front(q).expect("cached queue is non-empty");
                    if q.is_empty() {
                        deactivate(&mut self.be_active[input], &self.vcs, si);
                    }
                    Some(popped)
                } else {
                    take_oldest(
                        &mut self.pool,
                        &mut self.vcs,
                        &mut self.queues,
                        &mut self.be_active[input],
                        self.slot,
                        self.cfg.pipeline_slots,
                        self.cfg.ports,
                        input,
                        output,
                        true,
                    )
                }
                .expect("PIM matched a pair with demand");
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
        let gt_busy = gt_queued && self.gt_active.iter().any(|l| !l.is_empty());
        self.slot += 1;
        self.watermark = if !crossbar.is_empty() || any_demand || gt_busy {
            self.slot
        } else {
            wake
        };
    }
}

/// Dequeues the oldest eligible cell at `input` routed to `output` from the
/// circuits on `active` (sorted by VC id, so ties on age resolve toward the
/// smallest id — the B-tree iteration order of the reference switch). With
/// `consume_credit`, skips credit-starved circuits and charges the winner.
#[allow(clippy::too_many_arguments)]
fn take_oldest(
    pool: &mut CellPool,
    vcs: &mut [VcSlot],
    queues: &mut [CellQueue],
    active: &mut Vec<u64>,
    slot: u64,
    pipeline_slots: u64,
    ports: usize,
    input: usize,
    output: usize,
    consume_credit: bool,
) -> Option<(Cell, u64, u32)> {
    let mut best: Option<(u32, u64)> = None;
    for &e in active.iter() {
        let si = entry_slot(e);
        let s = &vcs[si as usize];
        let routed_here = s.route.map(|r| r.output) == Some(output);
        if !routed_here || (consume_credit && s.credits.is_some_and(|c| c == 0)) {
            continue;
        }
        // Active lists only hold non-empty queues; the handle's mirrored
        // head stamp avoids a pool-node dereference per candidate.
        let stamp = queues[si as usize * ports + input].front_stamp();
        if slot < stamp + pipeline_slots {
            continue;
        }
        if best.is_none_or(|(_, b)| stamp < b) {
            best = Some((si, stamp));
        }
    }
    let (si, _) = best?;
    if consume_credit {
        if let Some(c) = vcs[si as usize].credits.as_mut() {
            *c -= 1;
        }
    }
    let q = &mut queues[si as usize * ports + input];
    let (cell, stamp, trace) = pool.pop_front(q).expect("chosen queue is non-empty");
    if q.is_empty() {
        deactivate(active, vcs, si);
    }
    Some((cell, stamp, trace))
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
            pim_iterations: 3,
            pipeline_slots: 3,
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
        // E2: an uncontended cell leaves pipeline_slots after arrival —
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
