//! The circuit table: every virtual circuit the fabric knows, interned by
//! id, and the operations that change one — open, close, reroute, page out,
//! page in, and §2's signalled set-up.
//!
//! VC ids are interned into a slab: a flat `lookup` table maps the 24-bit
//! id to a slot holding the circuit — path, source credit/token gate,
//! statistics, the packet under reassembly — and whether its set-up is
//! still travelling. Everything else in the fabric addresses a circuit by
//! its slot `ci` (and a place on its path by the hop index `k`, see
//! [`Circuit::hop_at`]) once it has looked it up.

use super::agenda::Event;
use super::{Fabric, VcStats, SIGNAL_PROCESSING_SLOTS};
use an2_cells::signal::{SignalMsg, TrafficClass};
use an2_cells::{Cell, PartialPacket, VcId};
use an2_topology::{HostId, LinkId, LinkState, Node, SwitchId, Topology};
use std::collections::VecDeque;

#[derive(Debug)]
pub(super) struct Circuit {
    pub(super) src: HostId,
    pub(super) dst: HostId,
    pub(super) class: TrafficClass,
    pub(super) switches: Vec<SwitchId>,
    /// Inter-switch links, `links[i]` connecting `switches[i]` to
    /// `switches[i+1]`.
    pub(super) links: Vec<LinkId>,
    pub(super) src_link: LinkId,
    pub(super) dst_link: LinkId,
    /// Injection slot of every undelivered cell, oldest first.
    pub(super) inject_slots: VecDeque<u64>,
    pub(super) stats: VcStats,
    /// Slot of the most recent injection or delivery (idleness clock for
    /// the §2 page-out optimization).
    pub(super) last_activity: u64,
    /// Whether the circuit is paged out: routing entries and buffers
    /// released, state retained so it can be paged back in.
    pub(super) paged_out: bool,
    /// Credits toward the first switch (best-effort only; `None` when
    /// ungated or paged out). Lives here rather than in a per-host map —
    /// a circuit has exactly one source host.
    pub(super) host_credits: Option<u32>,
    /// Per-frame token bucket (guaranteed only): the controller "prevents a
    /// host from sending more than its reserved bandwidth" (§5).
    pub(super) gt_tokens: Option<u32>,
    /// The packet the destination controller is reassembling. Kept with
    /// the circuit, not in a per-host table: a delivered cell has already
    /// looked its circuit up. Holds no capacity between packets (see
    /// [`PartialPacket`]) — a fabric carries tens of thousands of circuits.
    pub(super) partial: PartialPacket,
}

impl Circuit {
    /// A circuit record for a path, holding nothing along it yet.
    fn new(
        src: HostId,
        dst: HostId,
        class: TrafficClass,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) -> Self {
        Circuit {
            src,
            dst,
            class,
            switches,
            links,
            src_link,
            dst_link,
            inject_slots: VecDeque::new(),
            stats: VcStats::default(),
            last_activity: 0,
            paged_out: false,
            host_credits: None,
            gt_tokens: None,
            partial: PartialPacket::new(),
        }
    }

    /// Whether the source controller's gate lets a cell through now: a
    /// credit toward the first switch (best-effort) or a token left in this
    /// frame's bucket (guaranteed). Closed while paged out.
    pub(super) fn gate_open(&self) -> bool {
        match self.class {
            TrafficClass::BestEffort => self.host_credits.unwrap_or(0) > 0,
            TrafficClass::Guaranteed { .. } => self.gt_tokens.unwrap_or(0) > 0,
        }
    }

    /// The hop that ends at switch `s`: hop `k` carries cells into
    /// `switches[k]` over [`Circuit::hop_link`]`(k)` — from the source host
    /// for `k = 0`, from `switches[k - 1]` otherwise — and is the unit of
    /// §5's credit flow control. (The last switch's link to the destination
    /// host is no hop: controllers always accept.)
    #[inline]
    pub(super) fn hop_at(&self, s: SwitchId) -> Option<usize> {
        self.switches.iter().position(|&x| x == s)
    }

    /// The hop whose cells cross `link` (its credits cross it the other
    /// way).
    pub(super) fn hop_on(&self, link: LinkId) -> Option<usize> {
        if link == self.src_link {
            return Some(0);
        }
        self.links.iter().position(|&l| l == link).map(|i| i + 1)
    }

    /// The link hop `k`'s cells cross.
    pub(super) fn hop_link(&self, k: usize) -> LinkId {
        match k.checked_sub(1) {
            None => self.src_link,
            Some(i) => self.links[i],
        }
    }

    /// The link cells leave `switches[k]` on.
    fn out_link(&self, k: usize) -> LinkId {
        self.links.get(k).copied().unwrap_or(self.dst_link)
    }

    /// The `(input, output)` ports a cell of this circuit crosses
    /// `switches[k]` between.
    fn ports_at(&self, k: usize, topo: &Topology) -> (usize, usize) {
        let at = Node::Switch(self.switches[k]);
        let port = |link| topo.near_end(link, at).port.0 as usize;
        (port(self.hop_link(k)), port(self.out_link(k)))
    }

    /// Every link of the path, source attachment first.
    fn path_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        std::iter::once(self.src_link)
            .chain(self.links.iter().copied())
            .chain(std::iter::once(self.dst_link))
    }
}

/// Everything keyed by one VC id. Slots are never freed (ids are interned
/// monotonically); a closed circuit leaves `circuit: None` behind.
#[derive(Debug)]
struct VcEntry {
    vc: VcId,
    circuit: Option<Circuit>,
    /// Set while a signaled setup cell is still travelling: routing
    /// entries are installed hop by hop as the cell passes (§2). The cell
    /// follows the circuit's own path — any change of path tears the old
    /// one down and clears this.
    setup_pending: bool,
}

/// The interned slot-number a VC id maps to; `NO_IDX` = never seen.
const NO_IDX: u32 = u32::MAX;

/// The slab and its interning.
#[derive(Debug, Default)]
pub(super) struct CircuitTable {
    /// Raw VC id → slot in `vcs` (`NO_IDX` when unseen).
    lookup: Vec<u32>,
    vcs: Vec<VcEntry>,
    /// Signalled set-ups whose cell is still travelling. Their line-card
    /// processing edits switch tables from the agenda drain, so while any
    /// is in flight the switches stay with the lead.
    setups_in_flight: usize,
}

impl CircuitTable {
    /// The interned slot for `vc`, creating it on first sight.
    fn ensure(&mut self, vc: VcId) -> usize {
        let raw = vc.raw() as usize;
        if raw >= self.lookup.len() {
            self.lookup.resize(raw + 1, NO_IDX);
        }
        if self.lookup[raw] == NO_IDX {
            self.lookup[raw] = self.vcs.len() as u32;
            self.vcs.push(VcEntry {
                vc,
                circuit: None,
                setup_pending: false,
            });
        }
        self.lookup[raw] as usize
    }

    /// The interned slot for `vc`, if it has ever been seen.
    #[inline]
    pub(super) fn idx_of(&self, vc: VcId) -> Option<usize> {
        self.lookup
            .get(vc.raw() as usize)
            .copied()
            .filter(|&i| i != NO_IDX)
            .map(|i| i as usize)
    }

    /// Slots handed out so far, open or not.
    pub(super) fn len(&self) -> usize {
        self.vcs.len()
    }

    pub(super) fn vc_at(&self, ci: usize) -> VcId {
        self.vcs[ci].vc
    }

    pub(super) fn at(&self, ci: usize) -> Option<&Circuit> {
        self.vcs[ci].circuit.as_ref()
    }

    pub(super) fn at_mut(&mut self, ci: usize) -> Option<&mut Circuit> {
        self.vcs[ci].circuit.as_mut()
    }

    #[inline]
    pub(super) fn get(&self, vc: VcId) -> Option<&Circuit> {
        self.idx_of(vc).and_then(|ci| self.at(ci))
    }

    #[inline]
    pub(super) fn get_mut(&mut self, vc: VcId) -> Option<&mut Circuit> {
        self.idx_of(vc).and_then(|ci| self.at_mut(ci))
    }

    /// `vc`'s slot and the hop that ends at switch `at` — what a cell
    /// leaving `at` looks up once and every later step is addressed by.
    #[inline]
    pub(super) fn locate(&self, vc: VcId, at: SwitchId) -> Option<(usize, usize)> {
        let ci = self.idx_of(vc)?;
        Some((ci, self.at(ci)?.hop_at(at)?))
    }

    /// Every open circuit with its slot and id, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (usize, VcId, &Circuit)> {
        self.vcs
            .iter()
            .enumerate()
            .filter_map(|(ci, e)| e.circuit.as_ref().map(|c| (ci, e.vc, c)))
    }

    pub(super) fn setups_in_flight(&self) -> usize {
        self.setups_in_flight
    }

    /// Forgets a pending set-up: the cell arrived, or the circuit is being
    /// torn down under it.
    pub(super) fn clear_setup(&mut self, vc: VcId) {
        if let Some(ci) = self.idx_of(vc) {
            if std::mem::take(&mut self.vcs[ci].setup_pending) {
                self.setups_in_flight -= 1;
            }
        }
    }

    /// Refills slot `ci`'s token bucket at a frame boundary; whether it has
    /// one.
    pub(super) fn refill_tokens(&mut self, ci: usize) -> bool {
        let Some(c) = self.at_mut(ci) else {
            return false;
        };
        match (c.class, c.gt_tokens.as_mut()) {
            (TrafficClass::Guaranteed { cells_per_frame }, Some(tokens)) => {
                *tokens = cells_per_frame as u32;
                true
            }
            _ => false,
        }
    }
}

impl Fabric {
    /// Per-circuit statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit; [`Fabric::try_stats`] does not.
    pub fn stats(&self, vc: VcId) -> &VcStats {
        self.try_stats(vc).expect("unknown circuit")
    }

    /// Per-circuit statistics, or `None` for a circuit that was never
    /// opened or is already closed.
    pub fn try_stats(&self, vc: VcId) -> Option<&VcStats> {
        self.circuits.get(vc).map(|c| &c.stats)
    }

    /// Whether the circuit exists.
    pub fn has_circuit(&self, vc: VcId) -> bool {
        self.circuits.get(vc).is_some()
    }

    /// The switch path of a circuit.
    pub fn circuit_path(&self, vc: VcId) -> Option<&[SwitchId]> {
        self.circuits.get(vc).map(|c| c.switches.as_slice())
    }

    /// The circuit's full wiring — switch path, inter-switch links, and the
    /// two host attachment links — for delta comparison at route install.
    pub fn circuit_wiring(&self, vc: VcId) -> Option<(Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId)> {
        self.circuits
            .get(vc)
            .map(|c| (c.switches.clone(), c.links.clone(), c.src_link, c.dst_link))
    }

    /// The first non-working link on the circuit's current path, if any.
    pub(crate) fn dead_link_on_path(&self, vc: VcId) -> Option<LinkId> {
        self.circuits
            .get(vc)?
            .path_links()
            .find(|&l| self.topo.link_state(l) != LinkState::Working)
    }

    /// Best-effort circuit count per inter-switch link — the load measure
    /// used by the §2 load-balancing reroute extension.
    pub(crate) fn link_circuit_counts(&self) -> Vec<(LinkId, usize)> {
        let mut counts: Vec<(LinkId, usize)> = self
            .topo
            .links()
            .filter(|&l| {
                let (a, b) = self.topo.endpoints(l);
                matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_)))
                    && self.topo.link_state(l) == LinkState::Working
            })
            .map(|l| (l, 0))
            .collect();
        for (_, _, c) in self.circuits.iter() {
            if c.paged_out || !matches!(c.class, TrafficClass::BestEffort) {
                continue;
            }
            for &l in &c.links {
                if let Some(entry) = counts.iter_mut().find(|(k, _)| *k == l) {
                    entry.1 += 1;
                }
            }
        }
        counts
    }

    /// The circuits whose current path uses a given link (including host
    /// attachment links) — the set needing reroute after a failure.
    pub fn circuits_using(&self, link: LinkId) -> Vec<VcId> {
        let mut out: Vec<VcId> = self
            .circuits
            .iter()
            .filter(|(_, _, c)| c.path_links().any(|l| l == link))
            .map(|(_, vc, _)| vc)
            .collect();
        out.sort_unstable();
        out
    }

    /// Restores statistics onto a circuit (used by the `Network` layer when
    /// re-opening a circuit that survived a failure administratively).
    pub(crate) fn restore_stats(&mut self, vc: VcId, stats: VcStats) {
        if let Some(c) = self.circuits.get_mut(vc) {
            c.stats = stats;
        }
    }

    /// Installs a circuit along an explicit path. `switches` is the switch
    /// path; `links[i]` connects `switches[i]`→`switches[i+1]`; `src_link` /
    /// `dst_link` attach the hosts to the first and last switch.
    ///
    /// For guaranteed circuits, `cells_per_frame` slots are inserted into
    /// every on-path switch's frame schedule; for best-effort circuits,
    /// credit gates are installed on every hop.
    ///
    /// # Panics
    ///
    /// Panics if the path is inconsistent with the topology or the vc is
    /// already open — the `Network` layer validates before calling.
    #[allow(clippy::too_many_arguments)] // a path is irreducibly this wide
    pub fn open_circuit(
        &mut self,
        vc: VcId,
        src: HostId,
        dst: HostId,
        class: TrafficClass,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let circuit = Circuit::new(src, dst, class, switches, links, src_link, dst_link);
        self.install_circuit(vc, circuit, true);
    }

    /// Reserves what `circuit` needs along its path — routing entries when
    /// `routed` (a signalled set-up leaves them to its cell), credit gates
    /// or frame slots by class — and enters it in the table (and, in fault
    /// mode, the credit ledger) with its source gate full.
    fn install_circuit(&mut self, vc: VcId, mut circuit: Circuit, routed: bool) {
        assert!(!self.has_circuit(vc), "{vc} already open");
        let hops = circuit.switches.len();
        assert_eq!(circuit.links.len() + 1, hops, "malformed path");
        for (k, &s) in circuit.switches.iter().enumerate() {
            let (in_port, out_port) = circuit.ports_at(k, &self.topo);
            let switch = &mut self.switches[s.0 as usize];
            if routed {
                // Hop by hop, as the setup cell would (§2).
                switch
                    .install_route(vc, out_port, circuit.class)
                    .expect("route installation on a validated path");
            }
            match circuit.class {
                // Credit gates: each switch toward its successor (and the
                // host toward the first switch, below). The final hop
                // (last switch → host) is ungated: controllers always
                // accept.
                TrafficClass::BestEffort if k + 1 < hops => {
                    switch.set_credits(vc, self.cfg.be_credits);
                }
                TrafficClass::BestEffort => {}
                // Reserve crossbar slots on every switch (§4).
                TrafficClass::Guaranteed { cells_per_frame } => {
                    for _ in 0..cells_per_frame {
                        switch
                            .schedule_mut()
                            .insert(in_port, out_port)
                            .expect("admission control guarantees feasibility");
                    }
                }
            }
        }
        match circuit.class {
            TrafficClass::BestEffort => circuit.host_credits = Some(self.cfg.be_credits),
            TrafficClass::Guaranteed { cells_per_frame } => {
                circuit.gt_tokens = Some(cells_per_frame as u32);
            }
        }
        circuit.last_activity = self.slot;
        let ci = self.circuits.ensure(vc);
        self.ledger_opened(ci, &circuit);
        self.circuits.vcs[ci].circuit = Some(circuit);
        // A reroute or page-in reopens a circuit whose outbox entry (and
        // queued cells) outlived the old path.
        self.refresh_ready_of(vc);
    }

    /// Removes a circuit: routing entries, schedule slots, credits, queued
    /// and in-flight cells. Returns its final statistics.
    pub fn close_circuit(&mut self, vc: VcId) -> Option<VcStats> {
        let mut circuit = self.take_circuit(vc)?;
        // Cells the teardown reaps (buffered in switches or in flight) are
        // drops; the returned stats must balance sent against delivered +
        // dropped + lost.
        circuit.stats.dropped_cells += self.teardown_path(vc, &circuit);
        self.drop_outbox(circuit.src, vc);
        // The packet under reassembly goes with the circuit.
        Some(circuit.stats)
    }

    /// Takes `vc`'s circuit out of the table for a teardown.
    fn take_circuit(&mut self, vc: VcId) -> Option<Circuit> {
        let ci = self.circuits.idx_of(vc)?;
        self.circuits.vcs[ci].circuit.take()
    }

    /// Releases everything `circuit` holds along its path and purges its
    /// traffic from the wires; returns the data cells that destroyed.
    fn teardown_path(&mut self, vc: VcId, circuit: &Circuit) -> u64 {
        // A setup cell still in flight must not resurrect the circuit.
        self.circuits.clear_setup(vc);
        if let Some(ci) = self.circuits.idx_of(vc) {
            self.ledger_closed(ci);
        }
        let mut dropped = 0u64;
        for (k, &s) in circuit.switches.iter().enumerate() {
            let switch = &mut self.switches[s.0 as usize];
            dropped += switch.remove_route(vc) as u64;
            switch.clear_credits(vc);
            if let TrafficClass::Guaranteed { cells_per_frame } = circuit.class {
                let (in_port, out_port) = circuit.ports_at(k, &self.topo);
                for _ in 0..cells_per_frame {
                    if switch.schedule_mut().remove(in_port, out_port).is_none() {
                        break;
                    }
                }
            }
        }
        // In-flight cells, credits and resync traffic of this circuit.
        let purged = self.agenda.drain_where(|e| e.vc() == vc);
        dropped + purged.iter().filter_map(Event::data_cell_vc).count() as u64
    }

    /// Moves a circuit onto a new path (§2's rerouting optimization). All
    /// undelivered in-flight cells are dropped — "cells are dropped only
    /// when the path of their virtual circuit goes through a failed link" —
    /// but cells still queued at the source controller survive. A packet
    /// split by the drop is detected and discarded by the destination's
    /// reassembler (higher layers retransmit).
    pub fn reroute_circuit(
        &mut self,
        vc: VcId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let old = self.take_circuit(vc).expect("rerouting unknown circuit");
        let dropped = self.teardown_path(vc, &old);
        // The source outbox entry survives a reroute untouched; the packet
        // the destination was reassembling does not (the reopened circuit
        // starts with none).
        self.open_circuit(
            vc, old.src, old.dst, old.class, switches, links, src_link, dst_link,
        );
        let c = self.circuits.get_mut(vc).expect("just opened");
        c.stats = old.stats;
        c.stats.dropped_cells += dropped;
        c.inject_slots = old.inject_slots;
        for _ in 0..dropped {
            c.inject_slots.pop_front();
        }
    }

    /// Opens a circuit the way AN2 actually does it (§2): a setup cell is
    /// sent along the chosen path; each line card's software installs the
    /// routing entry as the cell passes; data cells may follow immediately
    /// and are buffered at any switch the setup has not reached yet.
    ///
    /// Credit gates are installed along the whole path up front (the
    /// buffers are reserved by the same software pass; modelling their
    /// staggered installation would only loosen the gate briefly).
    ///
    /// # Panics
    ///
    /// Panics if the vc is already open. Only best-effort circuits use this
    /// path; guaranteed setup goes through bandwidth central first.
    #[allow(clippy::too_many_arguments)] // a path is irreducibly this wide
    pub fn open_circuit_signaled(
        &mut self,
        vc: VcId,
        src: HostId,
        dst: HostId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let class = TrafficClass::BestEffort;
        let circuit = Circuit::new(src, dst, class, switches, links, src_link, dst_link);
        self.install_circuit(vc, circuit, false);
        let ci = self.circuits.idx_of(vc).expect("just installed");
        if !std::mem::replace(&mut self.circuits.vcs[ci].setup_pending, true) {
            self.circuits.setups_in_flight += 1;
        }
        // The setup cell leads the circuit's cell stream from the host.
        let setup = SignalMsg::Setup {
            circuit: vc,
            src_host: src.0 as u32,
            dst_host: dst.0 as u32,
            class,
        };
        self.push_outbox(src, vc, [setup.to_cell(vc)]);
    }

    /// Whether a signaled circuit's setup cell has reached the destination
    /// (instantly true for circuits opened with [`Fabric::open_circuit`]).
    pub fn is_established(&self, vc: VcId) -> bool {
        self.circuits.idx_of(vc).is_some_and(|ci| {
            let e = &self.circuits.vcs[ci];
            e.circuit.is_some() && !e.setup_pending
        })
    }

    /// Line-card software: handles a signaling cell arriving at a switch.
    /// Installs the routing entry and forwards the setup onward after the
    /// processing delay.
    pub(super) fn handle_signal_at_switch(&mut self, at: SwitchId, cell: Cell) {
        let vc = cell.vc();
        let Some(ci) = self.circuits.idx_of(vc) else {
            return;
        };
        let entry = &self.circuits.vcs[ci];
        let (true, Some(circuit)) = (entry.setup_pending, entry.circuit.as_ref()) else {
            return; // stale or unknown signal: the line card drops it
        };
        let Some(k) = circuit.hop_at(at) else {
            return;
        };
        // The link the setup must travel next. If it died while the setup
        // was in flight, the line card drops the setup rather than launching
        // it onto a dead wire (the circuit never establishes; the `Network`
        // repair path reroutes it). Launching anyway was a bug: the cell
        // was pushed after the failure purge and so resurrected downstream
        // state on a link the fabric had already declared dead.
        let fwd_link = circuit.out_link(k);
        if self.topo.link_state(fwd_link) != LinkState::Working {
            return;
        }
        let to = match circuit.switches.get(k + 1) {
            Some(&next) => Node::Switch(next),
            None => Node::Host(circuit.dst),
        };
        let (_, out_port) = circuit.ports_at(k, &self.topo);
        self.switches[at.0 as usize]
            .install_route(vc, out_port, circuit.class)
            .expect("signaled path was validated at open");
        // Forward the setup cell out the chosen port, bypassing the data
        // queues (signaling has its own circuit, §2).
        let depart = self.slot + SIGNAL_PROCESSING_SLOTS;
        self.launch(self.attachment(fwd_link, to), cell, depart, 0);
        // The host consumed one credit to inject the setup cell; the first
        // line card frees that buffer once the cell is processed.
        if k == 0 {
            self.return_credit(ci, 0);
        }
    }

    /// Whether a best-effort circuit is idle enough to page out: nothing
    /// queued at the source, nothing in flight, and no activity for
    /// `idle_slots`.
    pub fn is_idle(&self, vc: VcId, idle_slots: u64) -> bool {
        let Some(c) = self.circuits.get(vc) else {
            return false;
        };
        c.inject_slots.is_empty()
            && self.outbox_len(vc) == 0
            && self.slot.saturating_sub(c.last_activity) >= idle_slots
    }

    /// Whether the circuit is currently paged out.
    pub fn is_paged_out(&self, vc: VcId) -> bool {
        self.circuits.get(vc).is_some_and(|c| c.paged_out)
    }

    /// Pages an idle best-effort circuit out (§2): releases its routing
    /// entries, schedule slots and buffers while keeping the circuit's
    /// identity and statistics. Returns `false` (and does nothing) if the
    /// circuit is unknown, already paged out, or not idle.
    pub fn page_out_circuit(&mut self, vc: VcId) -> bool {
        if !self.is_idle(vc, 0) || self.is_paged_out(vc) {
            return false;
        }
        let mut circuit = self.take_circuit(vc).expect("checked above");
        let dropped = self.teardown_path(vc, &circuit);
        debug_assert_eq!(dropped, 0, "idle circuit had in-flight cells");
        circuit.host_credits = None;
        circuit.gt_tokens = None;
        circuit.paged_out = true;
        circuit.stats.pages_out += 1;
        let ci = self.circuits.idx_of(vc).expect("checked above");
        self.circuits.vcs[ci].circuit = Some(circuit);
        self.refresh_ready_of(vc);
        true
    }

    /// Pages a circuit back in on a (possibly new) path — "if further cells
    /// for the circuit subsequently arrived, it could be paged in by
    /// generating a setup cell to recreate the circuit" (§2).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not paged out.
    pub fn page_in_circuit(
        &mut self,
        vc: VcId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let old = self.take_circuit(vc).expect("paging in unknown circuit");
        assert!(old.paged_out, "{vc} is not paged out");
        self.open_circuit(
            vc, old.src, old.dst, old.class, switches, links, src_link, dst_link,
        );
        let c = self.circuits.get_mut(vc).expect("just opened");
        c.stats = old.stats;
        c.stats.pages_in += 1;
        // Paging loses no cell, so a packet half-received stays half-received.
        c.partial = old.partial;
    }
}
