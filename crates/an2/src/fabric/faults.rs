//! The fault layer (§2 failures + §5 credit resynchronization) as a set of
//! filters on the fabric's one delivery path.
//!
//! A fault-free fabric and a faulted one run the same handlers; the layer
//! only answers questions in front of them — does this cell survive the
//! wire ([`Fabric::wire_cross`]), does the line card it reaches take it
//! ([`Fabric::cell_arrives`]), is this credit still good
//! ([`Fabric::admit_credit`]), does the credit going back survive
//! ([`Fabric::credit_crosses`]) — and every answer is "yes, unchanged" when
//! no layer is attached. What §5's recovery protocol needs and the hardware
//! does not hold lives in the layer's **credit ledger**: per gated hop, the
//! absolute sent counter and the resync epochs of both ends. A hop's
//! balance is its upstream gate ([`hop_gate`]) and its occupancy the cells
//! buffered where it ends ([`hop_buffered`]); the ledger keeps no copy of
//! either, and a completed resync writes the recovered balance straight
//! into the gate.

use super::agenda::Event;
use super::circuits::Circuit;
use super::Fabric;
use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, CellKind, VcId};
use an2_faults::{Fate, FaultInjector, FaultSpec, HEADER_BITS};
use an2_flow::resync;
use an2_switch::Switch;
use an2_topology::{LinkId, Node, SwitchId, Topology};
use an2_trace::{DropReason, Entity, TraceEvent, Tracer};

/// Aggregate fault-layer observations for one run (all zero until faults
/// are attached; queried via [`Fabric::fault_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Cells destroyed on wires: loss draws, flapped links, header hits
    /// caught by the HEC check, and arrivals at crashed line cards.
    pub cells_lost: u64,
    /// Cells hit by bit corruption (header or payload).
    pub cells_corrupted: u64,
    /// Credit messages lost on wires or addressed to crashed switches.
    pub credits_lost: u64,
    /// Resync markers emitted (§5).
    pub markers_sent: u64,
    /// Resync markers destroyed before reaching the downstream end.
    pub markers_lost: u64,
    /// Resync replies destroyed before reaching the upstream end.
    pub replies_lost: u64,
    /// Resyncs whose reply matched the in-flight epoch and was applied.
    pub resyncs_completed: u64,
    /// Cells destroyed inside switch buffers by line-card crashes.
    pub crash_dropped_cells: u64,
    /// Invariant-checker violations: a hop whose gate plus buffered cells
    /// exceed its buffers, a data cell reaching a full buffer, a credit
    /// reaching a full gate. Zero in a correct run.
    pub invariant_violations: u64,
}

/// What one credit-gated hop (hop `k` of a circuit, see
/// [`Circuit::hop_at`]) needs for §5's resync beyond what the hardware
/// holds. Its balance is the upstream gate and its occupancy the cells
/// buffered at `switches[k]`.
#[derive(Debug, Default)]
struct LedgerRow {
    /// Cells the upstream gate has spent a credit on since the row opened:
    /// the count a marker carries.
    sent: u64,
    /// The upstream end's resync epoch: markers carry it, and a credit
    /// stamped with any other is stale.
    epoch: u32,
    /// The epoch the downstream end stamps on the credits it returns: that
    /// of the last marker it answered.
    credit_epoch: u32,
    /// Whether a resync begun on this hop has not completed.
    resync_pending: bool,
}

// One row per gated hop of every best-effort circuit: keep it small.
const _: () = assert!(std::mem::size_of::<LedgerRow>() == 24);

/// The attached fault layer: injector, resync interval, counters, and the
/// credit ledger.
#[derive(Debug)]
pub(super) struct FaultLayer {
    injector: FaultInjector,
    resync_interval: u64,
    counters: FaultCounters,
    /// Per circuit slot, one [`LedgerRow`] per gated hop: best-effort
    /// circuits opened (or open at attach) and not paged out; empty for
    /// everything else.
    ledger: Vec<Vec<LedgerRow>>,
}

impl FaultLayer {
    /// A tracer attached after the fault layer still sees fault draws.
    pub(super) fn attach_tracer(&mut self, tracer: Tracer) {
        self.injector.attach_tracer(tracer);
    }

    pub(super) fn crashed(&self, s: SwitchId) -> bool {
        self.injector.crashed(s)
    }

    /// The layer's share of a jump over `n` slots [`Fabric::fault_quiet_bound`]
    /// allowed: the Gilbert–Elliott chains take their `n` draws.
    pub(super) fn idle_slots(&mut self, n: u64) {
        self.injector.advance_idle(n);
    }

    fn hop_mut(&mut self, ci: usize, hop: usize) -> Option<&mut LedgerRow> {
        self.ledger.get_mut(ci)?.get_mut(hop)
    }

    fn hops(&self, ci: usize) -> &[LedgerRow] {
        self.ledger.get(ci).map_or(&[], Vec::as_slice)
    }

    /// Fresh rows, nothing sent and no resync begun, for every hop of a
    /// best-effort path.
    fn open_hops(&mut self, ci: usize, circuit: &Circuit) {
        if self.ledger.len() <= ci {
            self.ledger.resize_with(ci + 1, Vec::new);
        }
        self.ledger[ci] = (0..circuit.switches.len())
            .map(|_| LedgerRow::default())
            .collect();
    }
}

/// Direction index of a transmission on `link` arriving at `to` (0 when
/// `to` is the link's first endpoint, 1 otherwise).
fn link_dir(topo: &Topology, link: LinkId, to: Node) -> usize {
    let (a, _) = topo.endpoints(link);
    usize::from(a.node != to)
}

/// Hop `hop`'s credit balance: its upstream gate, the source host's for hop
/// 0 and switch `switches[hop - 1]`'s otherwise (`None` when ungated).
fn hop_gate(switches: &[Switch], c: &Circuit, vc: VcId, hop: usize) -> Option<u32> {
    match hop.checked_sub(1) {
        None => c.host_credits,
        Some(up) => switches[c.switches[up].0 as usize].credit_balance(vc),
    }
}

/// Hop `hop`'s occupancy: the cells of `vc` buffered at the switch it ends
/// at.
fn hop_buffered(switches: &[Switch], c: &Circuit, vc: VcId, hop: usize) -> u32 {
    switches[c.switches[hop].0 as usize].buffered_cells(vc) as u32
}

impl Fabric {
    /// Attaches a deterministic fault layer built from `(spec, seed)`.
    /// Replaying the same pair over the same workload is byte-identical.
    ///
    /// Every open best-effort circuit gets a ledger row per hop, its sent
    /// counter at zero. Balances and occupancies are read off the hardware,
    /// so they are right whenever the layer attaches; attach before traffic
    /// flows all the same, because a cell sent before the layer is missing
    /// from the count a resync reconciles against, and a resync while it is
    /// still buffered would over-grant its buffer.
    pub fn attach_faults(&mut self, spec: &FaultSpec, seed: u64) {
        let mut layer = Box::new(FaultLayer {
            injector: FaultInjector::new(
                spec,
                seed,
                self.topo.link_count(),
                self.topo.switch_count(),
            ),
            resync_interval: spec.resync_interval_slots,
            counters: FaultCounters::default(),
            ledger: Vec::new(),
        });
        // A tracer attached before the fault layer still sees fault draws.
        if let Some(t) = &self.trace {
            layer.attach_tracer(t.tracer.clone());
        }
        for (ci, _, c) in self.circuits.iter() {
            if matches!(c.class, TrafficClass::BestEffort) && !c.paged_out {
                layer.open_hops(ci, c);
            }
        }
        self.fault = Some(layer);
    }

    /// The fault layer's counters, if one is attached.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault.as_ref().map(|f| f.counters)
    }

    /// Whether `s`'s line card is currently crashed (false without a fault
    /// layer).
    pub fn switch_crashed(&self, s: SwitchId) -> bool {
        self.fault.as_ref().is_some_and(|f| f.injector.crashed(s))
    }

    /// A circuit entered the table at slot `ci`: a best-effort one gets its
    /// ledger rows.
    pub(super) fn ledger_opened(&mut self, ci: usize, circuit: &Circuit) {
        if let Some(f) = self.fault.as_mut() {
            if matches!(circuit.class, TrafficClass::BestEffort) {
                f.open_hops(ci, circuit);
            }
        }
    }

    /// Slot `ci`'s path was torn down (close, reroute, page-out).
    pub(super) fn ledger_closed(&mut self, ci: usize) {
        if let Some(hops) = self.fault.as_mut().and_then(|f| f.ledger.get_mut(ci)) {
            hops.clear();
        }
    }

    /// Runs one cell transmission through the injector (the identity when
    /// no fault layer is attached): returns `(arrives, corrupted, due)`.
    /// A corrupt payload bit is flipped in place; header hits and corrupted
    /// signal cells count as losses (HEC and the signaling checksum catch
    /// them at the receiving port). Global counters are updated here;
    /// per-circuit stats are the caller's job.
    #[inline]
    pub(super) fn wire_cross(
        &mut self,
        link: LinkId,
        to: Node,
        cell: &mut Cell,
        base_due: u64,
    ) -> (bool, bool, u64) {
        if let Some(t) = &mut self.trace {
            t.lane.add(t.link_cells[link.0 as usize], 1);
        }
        let Some(f) = self.fault.as_mut() else {
            return (true, false, base_due);
        };
        let fate = f
            .injector
            .transmit_cell(link, link_dir(&self.topo, link, to), base_due);
        let corrupted = matches!(fate, Fate::Corrupt { .. });
        let is_signal = cell.header.kind == CellKind::Signal;
        let arrives = fate.arrives() && !(is_signal && corrupted);
        let due = match fate {
            Fate::Deliver { due } | Fate::Corrupt { due, .. } => due,
            Fate::Lose => base_due,
        };
        if corrupted {
            f.counters.cells_corrupted += 1;
        }
        if !arrives {
            f.counters.cells_lost += 1;
        } else if let Fate::Corrupt { bit, .. } = fate {
            let b = (bit - HEADER_BITS) as usize;
            cell.payload[b / 8] ^= 1 << (b % 8);
        }
        (arrives, corrupted, due)
    }

    /// Whether the line card at `switch` takes a cell the agenda delivers
    /// (always, when no fault layer is attached). A crashed card destroys
    /// it on arrival; a live one takes it, and a data cell of a gated hop
    /// whose buffers are all full counts as a violation.
    #[inline]
    pub(super) fn cell_arrives(&mut self, switch: SwitchId, cell: &Cell) -> bool {
        let Some(f) = self.fault.as_mut() else {
            return true;
        };
        let vc = cell.vc();
        let data = cell.header.kind != CellKind::Signal;
        if f.injector.crashed(switch) {
            f.counters.cells_lost += 1;
            if data {
                if let Some(t) = &mut self.trace {
                    t.cells_dropped(vc, DropReason::Crash, 1);
                }
                if let Some(c) = self.circuits.get_mut(vc) {
                    c.stats.lost_cells += 1;
                    c.inject_slots.pop_front();
                }
            }
            return false;
        }
        if data {
            let gated = self
                .circuits
                .locate(vc, switch)
                .is_some_and(|(ci, hop)| hop < f.hops(ci).len());
            if gated
                && self.switches[switch.0 as usize].buffered_cells(vc)
                    >= self.cfg.be_credits as usize
            {
                // More cells arrived than the gate ever granted: the
                // credit protocol over-estimated somewhere.
                f.counters.invariant_violations += 1;
            }
        }
        true
    }

    /// Whether a credit for `vc` that crossed `link` may top up the gate it
    /// reaches — switch `to`'s, or the source host's for `None` (always,
    /// when no fault layer is attached). A crashed switch loses it; of the
    /// rest, a credit stamped with a stale resync epoch is ignored, and one
    /// reaching a full gate is dropped and counted as a violation rather
    /// than overflowing it.
    #[inline]
    pub(super) fn admit_credit(
        &mut self,
        to: Option<SwitchId>,
        vc: VcId,
        link: LinkId,
        epoch: u32,
    ) -> bool {
        let Some(f) = self.fault.as_mut() else {
            return true;
        };
        if to.is_some_and(|s| f.injector.crashed(s)) {
            f.counters.credits_lost += 1;
            return false;
        }
        let hop = self.circuits.idx_of(vc).and_then(|ci| {
            let c = self.circuits.at(ci)?;
            let hop = c.hop_on(link)?;
            let row = f.hops(ci).get(hop)?;
            Some((row.epoch, hop_gate(&self.switches, c, vc, hop)))
        });
        let Some((current, gate)) = hop else {
            return true;
        };
        if gate.is_some_and(|g| g >= self.cfg.be_credits) {
            f.counters.invariant_violations += 1;
            return false;
        }
        epoch == current
    }

    /// The gate feeding hop `hop` of circuit `ci` spent a credit on a cell
    /// (the source host's for hop 0, a switch's inside `step_into`
    /// otherwise): count it before anything can destroy the cell. The final
    /// host-bound hop is ungated and has no row.
    #[inline]
    pub(super) fn ledger_cell_sent(&mut self, ci: usize, hop: usize) {
        if let Some(row) = self.fault.as_mut().and_then(|f| f.hop_mut(ci, hop)) {
            row.sent += 1;
        }
    }

    /// A credit for one buffer freed on hop `hop` of circuit `ci` starts
    /// back over `link`: the epoch to stamp it with, or `None` when the
    /// wire eats it (`Some(0)` when no fault layer is attached).
    #[inline]
    pub(super) fn credit_crosses(&mut self, ci: usize, hop: usize, link: LinkId) -> Option<u32> {
        let Some(f) = self.fault.as_mut() else {
            return Some(0);
        };
        let epoch = f.hops(ci).get(hop).map_or(0, |row| row.credit_epoch);
        // Credits are control traffic: the upstream wire may eat them.
        if !f.injector.transmit_ctrl(link) {
            f.counters.credits_lost += 1;
            return None;
        }
        Some(epoch)
    }

    /// Whether a burst of `cells` control cells survives `link` (always,
    /// when no fault layer is attached).
    pub(super) fn ctrl_burst_crosses(&mut self, link: LinkId, cells: u32) -> bool {
        self.fault
            .as_mut()
            .is_none_or(|f| f.injector.transmit_ctrl_burst(link, cells))
    }

    /// One monitor ping over `link` (§2): true when neither endpoint line
    /// card is crashed and both the request and the ack survive the wire.
    /// Pings probe *physical* health — the topology's working/dead state is
    /// the monitor's output, not its input, so a link voted dead keeps
    /// answering pings once its fault clears and can earn its way back.
    pub fn ping_link(&mut self, link: LinkId) -> bool {
        let (a, b) = self.topo.endpoints(link);
        let ok = self.fault.as_mut().is_none_or(|f| {
            let crashed = |node| matches!(node, Node::Switch(s) if f.injector.crashed(s));
            !crashed(a.node) && !crashed(b.node) && f.injector.ping(link)
        });
        if let Some(t) = &mut self.trace {
            let name = if ok {
                "monitor.ping_ok"
            } else {
                "monitor.ping_failed"
            };
            t.count(name, Entity::Link(link.0), 1);
            self.flush_trace();
        }
        ok
    }

    /// Starts a resync on every hop of `vc` that is missing credits.
    /// Returns false without a fault layer or ledger rows.
    pub fn force_resync(&mut self, vc: VcId) -> bool {
        if self.ledger_of(vc).is_empty() {
            return false;
        }
        let ci = self.circuits.idx_of(vc).expect("in the ledger");
        self.emit_markers_for(ci);
        self.flush_trace();
        true
    }

    /// The ledger rows of `vc` (none without a fault layer, or for a
    /// circuit that is closed or ungated).
    fn ledger_of(&self, vc: VcId) -> &[LedgerRow] {
        match (&self.fault, self.circuits.idx_of(vc)) {
            (Some(f), Some(ci)) => f.hops(ci),
            _ => &[],
        }
    }

    /// Whether any hop of `vc` has a resync in flight.
    pub fn resync_pending(&self, vc: VcId) -> bool {
        self.ledger_of(vc).iter().any(|row| row.resync_pending)
    }

    /// Whether every gated hop of `vc` holds its full credit capacity —
    /// the post-resync quiescent state.
    pub fn credits_fully_restored(&self, vc: VcId) -> bool {
        let hops = self.ledger_of(vc).len();
        let full = Some(self.cfg.be_credits);
        hops > 0
            && self
                .circuits
                .get(vc)
                .is_some_and(|c| (0..hops).all(|hop| hop_gate(&self.switches, c, vc, hop) == full))
    }

    /// A resync marker reached the downstream end of its hop: stamp its
    /// epoch on the credits that end returns from now on, and send the
    /// lossy reply, counted off the switch's buffers, back upstream
    /// (itself subject to loss).
    pub(super) fn deliver_marker(&mut self, vc: VcId, link: LinkId, marker: resync::Marker) {
        let f = self
            .fault
            .as_mut()
            .expect("markers exist only in fault mode");
        let reply = self.circuits.idx_of(vc).and_then(|ci| {
            let c = self.circuits.at(ci)?;
            let p = c.hop_on(link)?;
            let row = f.ledger.get_mut(ci)?.get_mut(p)?;
            if f.injector.crashed(c.switches[p]) {
                return None;
            }
            row.credit_epoch = marker.epoch;
            let occupied = hop_buffered(&self.switches, c, vc, p);
            Some(resync::lossy_reply(marker, occupied))
        });
        let Some(reply) = reply else {
            f.counters.markers_lost += 1;
            return;
        };
        if f.injector.transmit_ctrl(link) {
            let due = self.slot + self.cfg.link_latency_slots;
            self.agenda
                .push(due, Event::ResyncReply { vc, link, reply });
        } else {
            f.counters.replies_lost += 1;
        }
    }

    /// A resync reply reached the upstream end of its hop: write the
    /// recovered balance into the hop's gate.
    pub(super) fn deliver_reply(&mut self, vc: VcId, link: LinkId, reply: resync::Reply) {
        let f = self
            .fault
            .as_mut()
            .expect("replies exist only in fault mode");
        let Some(ci) = self.circuits.idx_of(vc) else {
            return;
        };
        let Some(c) = self.circuits.at_mut(ci) else {
            return;
        };
        let Some(p) = c.hop_on(link) else { return };
        let Some(row) = f.ledger.get_mut(ci).and_then(|hops| hops.get_mut(p)) else {
            return;
        };
        let upstream = p.checked_sub(1).map(|u| c.switches[u]);
        if upstream.is_some_and(|up| f.injector.crashed(up)) {
            f.counters.replies_lost += 1;
            return;
        }
        if reply.epoch != row.epoch {
            // Replies to superseded markers are ignored (§5: any later
            // resync reconciles everything an older one would have).
            return;
        }
        row.resync_pending = false;
        let balance = resync::recovered_balance(self.cfg.be_credits, row.sent, reply);
        f.counters.resyncs_completed += 1;
        if let Some(t) = &mut self.trace {
            t.lane.emit(TraceEvent::ResyncComplete {
                vc: vc.raw(),
                link: link.0,
                epoch: reply.epoch,
            });
            t.count("flow.resyncs_completed", Entity::Link(link.0), 1);
        }
        match upstream {
            Some(up) => self.switches[up.0 as usize].set_credits(vc, balance),
            None => {
                if let Some(credits) = c.host_credits.as_mut() {
                    *credits = balance;
                    self.refresh_ready_of(vc);
                }
            }
        }
    }

    /// Applies this slot's scheduled fault transitions and emits periodic
    /// resync markers, before the slot's deliveries. Nothing to do when no
    /// fault layer is attached.
    pub(super) fn fault_begin_slot(&mut self) {
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let slot = self.slot;
        let transitions = f.injector.begin_slot(slot);
        let interval = f.resync_interval;
        for s in transitions.crashes {
            self.crash_switch(s);
        }
        // Restarts are warm: routes, schedules and credit gates live in
        // the hardware map and survive; only the buffered cells (already
        // dropped at crash time) are gone.
        for l in transitions.flaps_down {
            self.flap_down(l);
        }
        // Nothing to do on flaps_up: the fabric keeps transmitting into
        // the void until the monitor's verdict flips (Network layer), and
        // the injector resumes delivering as soon as the link is up.
        if interval > 0 && slot > 0 && slot.is_multiple_of(interval) {
            for ci in 0..self.circuits.len() {
                self.emit_markers_for(ci);
            }
        }
    }

    /// A line card crashes: every cell buffered in the switch vanishes, and
    /// with it the occupancy of every hop ending there, so the next
    /// lossy-marker resync gives their credits back. Routing tables,
    /// schedules and hardware credit gates survive (they are reloaded from
    /// the hardware map on restart).
    fn crash_switch(&mut self, s: SwitchId) {
        let f = self
            .fault
            .as_mut()
            .expect("crashes exist only in fault mode");
        let mut total = 0u64;
        for (vc, n) in self.switches[s.0 as usize].drop_queued_cells() {
            total += n as u64;
            if let Some(t) = &mut self.trace {
                // Queues are credit-bounded, so per-cell drop events stay
                // small even for a full line card.
                t.cells_dropped(vc, DropReason::Crash, n as u64);
            }
            if let Some(c) = self.circuits.get_mut(vc) {
                c.stats.lost_cells += n as u64;
                for _ in 0..n {
                    c.inject_slots.pop_front();
                }
            }
        }
        f.counters.crash_dropped_cells += total;
        f.counters.cells_lost += total;
    }

    /// A link goes physically down: everything in flight on it is
    /// destroyed, with per-kind accounting. New transmissions keep being
    /// attempted (and lost) until the monitor's verdict removes the link.
    fn flap_down(&mut self, link: LinkId) {
        let counters = &mut self
            .fault
            .as_mut()
            .expect("flaps exist only in fault mode")
            .counters;
        for event in self.agenda.drain_where(|e| e.link() == link) {
            match event {
                Event::CellToSwitch { .. } | Event::CellToHost { .. } => {
                    counters.cells_lost += 1;
                    let Some(vc) = event.data_cell_vc() else {
                        continue;
                    };
                    if let Some(t) = &mut self.trace {
                        t.cells_dropped(vc, DropReason::LinkDown, 1);
                    }
                    if let Some(c) = self.circuits.get_mut(vc) {
                        c.stats.lost_cells += 1;
                        c.inject_slots.pop_front();
                    }
                }
                Event::CreditToSwitch { .. } | Event::CreditToHost { .. } => {
                    counters.credits_lost += 1;
                }
                Event::ResyncMarker { .. } => counters.markers_lost += 1,
                Event::ResyncReply { .. } => counters.replies_lost += 1,
            }
        }
        self.ctrl.purge_on(link);
    }

    /// Starts a resync on every hop of circuit slot `ci` that is missing
    /// credits or already has one pending (§5: "the upstream switch
    /// periodically trigger[s] a re-synchronization of credits").
    fn emit_markers_for(&mut self, ci: usize) {
        let f = self
            .fault
            .as_mut()
            .expect("resync exists only in fault mode");
        let Some(c) = self.circuits.at(ci).filter(|c| !c.paged_out) else {
            return;
        };
        let vc = self.circuits.vc_at(ci);
        let base_due = self.slot + self.cfg.link_latency_slots;
        let full = Some(self.cfg.be_credits);
        let hops = f.ledger.get_mut(ci).map_or(&mut [][..], Vec::as_mut_slice);
        for (p, row) in hops.iter_mut().enumerate() {
            if !row.resync_pending && hop_gate(&self.switches, c, vc, p) == full {
                continue; // nothing to reconcile on this hop
            }
            row.epoch += 1;
            row.resync_pending = true;
            let marker = resync::Marker {
                epoch: row.epoch,
                sent: row.sent,
            };
            let link = c.hop_link(p);
            // The marker rides the data channel (same FIFO clamp), which
            // is what makes the lossy reply safe.
            let dir = link_dir(&self.topo, link, Node::Switch(c.switches[p]));
            f.counters.markers_sent += 1;
            match f.injector.transmit_cell(link, dir, base_due) {
                Fate::Deliver { due } => {
                    self.agenda
                        .push(due, Event::ResyncMarker { vc, link, marker });
                }
                // A corrupted marker fails its CRC at the far end: lost.
                _ => f.counters.markers_lost += 1,
            }
            // The epoch opened whether or not the marker survives (a lost
            // marker is retried at the next resync interval).
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::ResyncBegin {
                    vc: vc.raw(),
                    link: link.0,
                    epoch: marker.epoch,
                });
                t.count("flow.resyncs_begun", Entity::Link(link.0), 1);
            }
        }
    }

    /// How far the fault layer lets a quiet fabric jump from the current
    /// slot: `u64::MAX` with no layer attached, `None` when the layer needs
    /// this very slot stepped. The injector's only per-slot work is its
    /// Gilbert–Elliott chains, which [`FaultLayer::idle_slots`] advances in
    /// bulk; the rest of the layer's per-slot duties are deadlines, and
    /// each bounds the jump so its slot still executes:
    ///
    /// * the next scripted flap or crash not yet applied;
    /// * the next positive multiple of the resync interval, whose slot
    ///   walks every circuit for credits to reconcile;
    /// * any slot at all unless every invariant holds now: violations are
    ///   counted per slot, and a quiet stretch changes no gate or buffer,
    ///   so a clean state stays clean over every skipped slot while a dirty
    ///   one must keep being stepped to keep being counted.
    ///
    /// With batching off a faulted fabric steps every slot: the oracle the
    /// `watermark_equiv` fault legs compare the jump against.
    ///
    /// Ask it after every other quiet test has passed — the clean-state
    /// test walks every circuit.
    pub(super) fn fault_quiet_bound(&self) -> Option<u64> {
        let Some(f) = self.fault.as_deref() else {
            return Some(u64::MAX);
        };
        if !self.batching {
            return None;
        }
        let slot = self.slot;
        let mut bound = f.injector.next_transition(slot).unwrap_or(u64::MAX);
        if f.resync_interval > 0 {
            // Slot 0 is a multiple but not a positive one.
            bound = bound.min(slot.max(1).next_multiple_of(f.resync_interval));
        }
        if bound <= slot || self.invariant_violations(f) != 0 {
            return None;
        }
        Some(bound)
    }

    /// The invariant check, run once per slot after every phase has
    /// settled whenever a fault layer is attached.
    pub(super) fn count_invariant_violations(&mut self) {
        let Some(f) = self.fault.as_deref() else {
            return;
        };
        let violations = self.invariant_violations(f);
        if violations > 0 {
            let f = self.fault.as_mut().expect("checked above");
            f.counters.invariant_violations += violations;
            if let Some(t) = &mut self.trace {
                t.lane
                    .emit(TraceEvent::InvariantViolation { count: violations });
                t.count("faults.invariant_violations", Entity::Global, violations);
            }
        }
    }

    /// The gated hops that break credit conservation on the hardware: the
    /// upstream gate plus the cells buffered downstream exceed the hop's
    /// buffers (§5's core guarantee — loss may shrink the sum, never grow
    /// it).
    fn invariant_violations(&self, f: &FaultLayer) -> u64 {
        let mut violations = 0u64;
        for (ci, vc, c) in self.circuits.iter() {
            if c.paged_out {
                continue;
            }
            for hop in 0..f.hops(ci).len() {
                let gate = hop_gate(&self.switches, c, vc, hop).unwrap_or(0);
                if gate + hop_buffered(&self.switches, c, vc, hop) > self.cfg.be_credits {
                    violations += 1;
                }
            }
        }
        violations
    }
}
