//! The pre-slab fabric data plane, preserved verbatim as an oracle.
//!
//! This is the map-based implementation the slab rewrite in
//! `crate::fabric` replaced: `HashMap` circuit tables, per-host
//! `BTreeMap<VcId, VecDeque<Cell>>` outboxes and credit tables, a
//! `BTreeMap<u64, Vec<Event>>` agenda, and the pre-slab
//! [`an2_switch::reference::ReferenceSwitch`] per switch. It is kept as the
//! behavioural oracle of the `reference_equiv` and `wide_fabric_equiv`
//! suites — both fabrics must produce byte-identical `VcStats`, latency
//! histograms and delivered packets on any seeded workload.
//!
//! Mirrors the PR 1 pattern of `an2_xbar::reference`. Do not optimise this
//! module; its value is that it stays exactly what shipped before.

use crate::fabric::{FabricConfig, VcStats, SIGNAL_PROCESSING_SLOTS};
use an2_cells::signal::{SignalMsg, TrafficClass};
use an2_cells::{Cell, CellKind, Packet, Reassembler, VcId};
use an2_sim::SimRng;
use an2_switch::reference::ReferenceSwitch;
use an2_topology::{HostId, LinkId, LinkState, Node, SwitchId, Topology};
use std::collections::{BTreeMap, HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
enum Attachment {
    ToSwitch {
        switch: SwitchId,
        input: usize,
        link: LinkId,
    },
    ToHost {
        host: HostId,
        link: LinkId,
    },
}

#[derive(Debug)]
enum Event {
    CellToSwitch {
        switch: SwitchId,
        input: usize,
        cell: Cell,
        link: LinkId,
    },
    CellToHost {
        host: HostId,
        cell: Cell,
        link: LinkId,
    },
    CreditToSwitch {
        switch: SwitchId,
        vc: VcId,
        link: LinkId,
    },
    CreditToHost {
        host: HostId,
        vc: VcId,
        link: LinkId,
    },
}

#[derive(Debug, Default)]
struct HostState {
    /// Cells waiting to be injected, per circuit.
    outbox: BTreeMap<VcId, VecDeque<Cell>>,
    /// Credits toward the first switch, per best-effort circuit.
    credits: BTreeMap<VcId, u32>,
    /// Per-frame token buckets for guaranteed circuits (refilled each
    /// frame): the controller "prevents a host from sending more than its
    /// reserved bandwidth" (§5).
    gt_tokens: BTreeMap<VcId, u32>,
    reassembler: Reassembler,
    received: Vec<(VcId, Packet)>,
    /// Round-robin cursor over circuits for the one-cell-per-slot link.
    rotor: usize,
}

#[derive(Debug)]
struct Circuit {
    src: HostId,
    dst: HostId,
    class: TrafficClass,
    switches: Vec<SwitchId>,
    /// Inter-switch links, `links[i]` connecting `switches[i]` to
    /// `switches[i+1]`.
    links: Vec<LinkId>,
    src_link: LinkId,
    dst_link: LinkId,
    /// Injection slot of every undelivered cell, oldest first.
    inject_slots: VecDeque<u64>,
    stats: VcStats,
    /// Slot of the most recent injection or delivery (idleness clock for
    /// the §2 page-out optimization).
    last_activity: u64,
    /// Whether the circuit is paged out: routing entries and buffers
    /// released, state retained so it can be paged back in.
    paged_out: bool,
}

/// The route a travelling setup cell will install, hop by hop.
#[derive(Debug, Clone)]
struct SetupPlan {
    class: TrafficClass,
    switches: Vec<SwitchId>,
    links: Vec<LinkId>,
    dst_link: LinkId,
}

/// The pre-slab fabric. Behaviourally identical to [`crate::Fabric`].
pub struct Fabric {
    topo: Topology,
    cfg: FabricConfig,
    switches: Vec<ReferenceSwitch>,
    hosts: Vec<HostState>,
    circuits: HashMap<VcId, Circuit>,
    /// Circuits opened via signaling whose setup cell is still travelling:
    /// routing entries are installed hop by hop as the cell passes (§2).
    pending_setups: HashMap<VcId, SetupPlan>,
    port_map: HashMap<(SwitchId, usize), Attachment>,
    agenda: BTreeMap<u64, Vec<Event>>,
    slot: u64,
    /// One stream per switch, forked exactly like the production fabric's
    /// (`SimRng::new(seed).fork_n(n)`), so both engines draw identical
    /// randomness for a given `(seed, switch)` pair.
    switch_rngs: Vec<SimRng>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.switches.len())
            .field("hosts", &self.hosts.len())
            .field("circuits", &self.circuits.len())
            .field("slot", &self.slot)
            .finish()
    }
}

impl Fabric {
    /// Builds the data plane for a topology.
    pub fn new(topo: Topology, cfg: FabricConfig, seed: u64) -> Self {
        let switches = (0..topo.switch_count())
            .map(|_| ReferenceSwitch::new(cfg.switch.clone()))
            .collect();
        let hosts = (0..topo.host_count())
            .map(|_| HostState::default())
            .collect();
        let switch_rngs = SimRng::new(seed).fork_n(topo.switch_count());
        let mut fabric = Fabric {
            topo,
            cfg,
            switches,
            hosts,
            circuits: HashMap::new(),
            pending_setups: HashMap::new(),
            port_map: HashMap::new(),
            agenda: BTreeMap::new(),
            slot: 0,
            switch_rngs,
        };
        fabric.rebuild_port_map();
        fabric
    }

    fn rebuild_port_map(&mut self) {
        self.port_map.clear();
        for link in self.topo.links() {
            if self.topo.link_state(link) != LinkState::Working {
                continue;
            }
            let (ea, eb) = self.topo.endpoints(link);
            for (near, far) in [(ea, eb), (eb, ea)] {
                if let Node::Switch(s) = near.node {
                    let attachment = match far.node {
                        Node::Switch(t) => Attachment::ToSwitch {
                            switch: t,
                            input: far.port.0 as usize,
                            link,
                        },
                        Node::Host(h) => Attachment::ToHost { host: h, link },
                    };
                    self.port_map.insert((s, near.port.0 as usize), attachment);
                }
            }
        }
    }

    /// Current slot.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The physical topology (reflecting injected failures).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to a switch's data plane (for schedule surgery).
    pub fn switch_mut(&mut self, s: SwitchId) -> &mut ReferenceSwitch {
        &mut self.switches[s.0 as usize]
    }

    /// Per-circuit statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn stats(&self, vc: VcId) -> &VcStats {
        &self.circuits[&vc].stats
    }

    /// Whether the circuit exists.
    pub fn has_circuit(&self, vc: VcId) -> bool {
        self.circuits.contains_key(&vc)
    }

    /// The switch path of a circuit.
    pub fn circuit_path(&self, vc: VcId) -> Option<&[SwitchId]> {
        self.circuits.get(&vc).map(|c| c.switches.as_slice())
    }

    fn port_on(&self, link: LinkId, node: Node) -> usize {
        self.topo.near_end(link, node).port.0 as usize
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
        assert!(!self.circuits.contains_key(&vc), "{vc} already open");
        assert_eq!(links.len() + 1, switches.len(), "malformed path");
        // Install routing entries hop by hop, as the setup cell would (§2).
        for (k, &s) in switches.iter().enumerate() {
            let out_port = if k + 1 < switches.len() {
                self.port_on(links[k], Node::Switch(s))
            } else {
                self.port_on(dst_link, Node::Switch(s))
            };
            self.switches[s.0 as usize]
                .install_route(vc, out_port, class)
                .expect("route installation on a validated path");
        }
        match class {
            TrafficClass::BestEffort => {
                // Credit gates: host→first switch, and each switch toward
                // its successor. The final hop (last switch → host) is
                // ungated: controllers always accept.
                self.hosts[src.0 as usize]
                    .credits
                    .insert(vc, self.cfg.be_credits);
                for &s in &switches[..switches.len().saturating_sub(1)] {
                    self.switches[s.0 as usize].set_credits(vc, self.cfg.be_credits);
                }
            }
            TrafficClass::Guaranteed { cells_per_frame } => {
                // Reserve crossbar slots on every switch (§4). Input port of
                // switch k is where the cell arrives from.
                for (k, &s) in switches.iter().enumerate() {
                    let in_port = if k == 0 {
                        self.port_on(src_link, Node::Switch(s))
                    } else {
                        self.port_on(links[k - 1], Node::Switch(s))
                    };
                    let out_port = if k + 1 < switches.len() {
                        self.port_on(links[k], Node::Switch(s))
                    } else {
                        self.port_on(dst_link, Node::Switch(s))
                    };
                    for _ in 0..cells_per_frame {
                        self.switches[s.0 as usize]
                            .schedule_mut()
                            .insert(in_port, out_port)
                            .expect("admission control guarantees feasibility");
                    }
                }
                self.hosts[src.0 as usize]
                    .gt_tokens
                    .insert(vc, cells_per_frame as u32);
            }
        }
        self.circuits.insert(
            vc,
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
                last_activity: self.slot,
                paged_out: false,
            },
        );
    }

    /// Removes a circuit: routing entries, schedule slots, credits, queued
    /// and in-flight cells. Returns its final statistics.
    pub fn close_circuit(&mut self, vc: VcId) -> Option<VcStats> {
        let mut circuit = self.circuits.remove(&vc)?;
        // Cells the teardown reaps (buffered in switches or in flight) are
        // drops; the returned stats must balance sent against delivered +
        // dropped + lost.
        let reaped = self.teardown_path(vc, &circuit);
        circuit.stats.dropped_cells += reaped;
        self.hosts[circuit.src.0 as usize].outbox.remove(&vc);
        self.hosts[circuit.src.0 as usize].credits.remove(&vc);
        self.hosts[circuit.src.0 as usize].gt_tokens.remove(&vc);
        self.hosts[circuit.dst.0 as usize]
            .reassembler
            .reset_circuit(vc);
        Some(circuit.stats)
    }

    fn teardown_path(&mut self, vc: VcId, circuit: &Circuit) -> u64 {
        // A setup cell still in flight must not resurrect the circuit.
        self.pending_setups.remove(&vc);
        let mut dropped = 0u64;
        for (k, &s) in circuit.switches.iter().enumerate() {
            dropped += self.switches[s.0 as usize].remove_route(vc) as u64;
            self.switches[s.0 as usize].clear_credits(vc);
            if let TrafficClass::Guaranteed { cells_per_frame } = circuit.class {
                let in_port = if k == 0 {
                    self.port_on(circuit.src_link, Node::Switch(s))
                } else {
                    self.port_on(circuit.links[k - 1], Node::Switch(s))
                };
                let out_port = if k + 1 < circuit.switches.len() {
                    self.port_on(circuit.links[k], Node::Switch(s))
                } else {
                    self.port_on(circuit.dst_link, Node::Switch(s))
                };
                for _ in 0..cells_per_frame {
                    if self.switches[s.0 as usize]
                        .schedule_mut()
                        .remove(in_port, out_port)
                        .is_none()
                    {
                        break;
                    }
                }
            }
        }
        // Purge in-flight cells and credits of this circuit.
        for events in self.agenda.values_mut() {
            events.retain(|e| match e {
                Event::CellToSwitch { cell, .. } | Event::CellToHost { cell, .. } => {
                    if cell.vc() == vc {
                        // Signal cells never entered `sent_cells` or the
                        // `inject_slots` latency queue; counting them as
                        // drops desynced both.
                        if cell.header.kind != CellKind::Signal {
                            dropped += 1;
                        }
                        false
                    } else {
                        true
                    }
                }
                Event::CreditToSwitch { vc: cvc, .. } | Event::CreditToHost { vc: cvc, .. } => {
                    *cvc != vc
                }
            });
        }
        dropped
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
        let circuit = self
            .circuits
            .remove(&vc)
            .expect("rerouting unknown circuit");
        let dropped = self.teardown_path(vc, &circuit);
        self.hosts[circuit.dst.0 as usize]
            .reassembler
            .reset_circuit(vc);
        let (src, dst, class) = (circuit.src, circuit.dst, circuit.class);
        let mut stats = circuit.stats;
        stats.dropped_cells += dropped;
        let mut inject_slots = circuit.inject_slots;
        for _ in 0..dropped {
            inject_slots.pop_front();
        }
        let outbox_kept = self.hosts[src.0 as usize].outbox.remove(&vc);
        self.hosts[src.0 as usize].credits.remove(&vc);
        self.hosts[src.0 as usize].gt_tokens.remove(&vc);
        self.open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        let c = self.circuits.get_mut(&vc).expect("just opened");
        c.stats = stats;
        c.inject_slots = inject_slots;
        if let Some(q) = outbox_kept {
            self.hosts[src.0 as usize].outbox.insert(vc, q);
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
        assert!(!self.circuits.contains_key(&vc), "{vc} already open");
        assert_eq!(links.len() + 1, switches.len(), "malformed path");
        let class = TrafficClass::BestEffort;
        // Credit gates and host state as in open_circuit.
        self.hosts[src.0 as usize]
            .credits
            .insert(vc, self.cfg.be_credits);
        for &s in &switches[..switches.len().saturating_sub(1)] {
            self.switches[s.0 as usize].set_credits(vc, self.cfg.be_credits);
        }
        self.circuits.insert(
            vc,
            Circuit {
                src,
                dst,
                class,
                switches: switches.clone(),
                links: links.clone(),
                src_link,
                dst_link,
                inject_slots: VecDeque::new(),
                stats: VcStats::default(),
                last_activity: self.slot,
                paged_out: false,
            },
        );
        self.pending_setups.insert(
            vc,
            SetupPlan {
                class,
                switches,
                links,
                dst_link,
            },
        );
        // The setup cell leads the circuit's cell stream from the host.
        let setup = SignalMsg::Setup {
            circuit: vc,
            src_host: src.0 as u32,
            dst_host: dst.0 as u32,
            class,
        };
        self.hosts[src.0 as usize]
            .outbox
            .entry(vc)
            .or_default()
            .push_back(setup.to_cell(vc));
    }

    /// Whether a signaled circuit's setup cell has reached the destination
    /// (instantly true for circuits opened with [`Fabric::open_circuit`]).
    pub fn is_established(&self, vc: VcId) -> bool {
        self.circuits.contains_key(&vc) && !self.pending_setups.contains_key(&vc)
    }

    /// Line-card software: handles a signaling cell arriving at a switch.
    /// Installs the routing entry and forwards the setup onward after the
    /// processing delay.
    fn handle_signal_at_switch(&mut self, at: SwitchId, cell: Cell) {
        let vc = cell.vc();
        let Some(plan) = self.pending_setups.get(&vc).cloned() else {
            return; // stale or unknown signal: the line card drops it
        };
        let Some(k) = plan.switches.iter().position(|&s| s == at) else {
            return;
        };
        // The link the setup must travel next. If it died while the setup
        // was in flight, the line card drops the setup rather than launching
        // it onto a dead wire (the circuit never establishes; the `Network`
        // repair path reroutes it). Launching anyway was a bug: the cell
        // was pushed after the failure purge and so resurrected downstream
        // state on a link the fabric had already declared dead.
        let fwd_link = if k + 1 < plan.switches.len() {
            plan.links[k]
        } else {
            plan.dst_link
        };
        if self.topo.link_state(fwd_link) != LinkState::Working {
            return;
        }
        let out_port = self.port_on(fwd_link, Node::Switch(at));
        self.switches[at.0 as usize]
            .install_route(vc, out_port, plan.class)
            .expect("signaled path was validated at open");
        // Forward the setup cell out the chosen port, bypassing the data
        // queues (signaling has its own circuit, §2).
        let depart = self.slot + SIGNAL_PROCESSING_SLOTS;
        let latency = self.cfg.link_latency_slots;
        if k + 1 < plan.switches.len() {
            let next = plan.switches[k + 1];
            let link = plan.links[k];
            let input = self.port_on(link, Node::Switch(next));
            self.agenda
                .entry(depart + latency)
                .or_default()
                .push(Event::CellToSwitch {
                    switch: next,
                    input,
                    cell,
                    link,
                });
        } else {
            let link = plan.dst_link;
            let host = self.circuits[&vc].dst;
            self.agenda
                .entry(depart + latency)
                .or_default()
                .push(Event::CellToHost { host, cell, link });
        }
        // The host consumed one credit to inject the setup cell; the first
        // line card frees that buffer once the cell is processed.
        if k == 0 {
            self.return_credit(at, vc);
        }
    }

    /// Whether a best-effort circuit is idle enough to page out: nothing
    /// queued at the source, nothing in flight, and no activity for
    /// `idle_slots`.
    pub fn is_idle(&self, vc: VcId, idle_slots: u64) -> bool {
        let Some(c) = self.circuits.get(&vc) else {
            return false;
        };
        c.inject_slots.is_empty()
            && self.outbox_len(vc) == 0
            && self.slot.saturating_sub(c.last_activity) >= idle_slots
    }

    /// Whether the circuit is currently paged out.
    pub fn is_paged_out(&self, vc: VcId) -> bool {
        self.circuits.get(&vc).is_some_and(|c| c.paged_out)
    }

    /// Pages an idle best-effort circuit out (§2): releases its routing
    /// entries, schedule slots and buffers while keeping the circuit's
    /// identity and statistics. Returns `false` (and does nothing) if the
    /// circuit is unknown, already paged out, or not idle.
    pub fn page_out_circuit(&mut self, vc: VcId) -> bool {
        if !self.is_idle(vc, 0) || self.is_paged_out(vc) {
            return false;
        }
        let circuit = self.circuits.remove(&vc).expect("checked above");
        let dropped = self.teardown_path(vc, &circuit);
        debug_assert_eq!(dropped, 0, "idle circuit had in-flight cells");
        self.hosts[circuit.src.0 as usize].credits.remove(&vc);
        self.hosts[circuit.src.0 as usize].gt_tokens.remove(&vc);
        let mut circuit = circuit;
        circuit.paged_out = true;
        circuit.stats.pages_out += 1;
        self.circuits.insert(vc, circuit);
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
        let circuit = self
            .circuits
            .remove(&vc)
            .expect("paging in unknown circuit");
        assert!(circuit.paged_out, "{vc} is not paged out");
        let (src, dst, class) = (circuit.src, circuit.dst, circuit.class);
        let mut stats = circuit.stats;
        stats.pages_in += 1;
        self.open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        let c = self.circuits.get_mut(&vc).expect("just opened");
        c.stats = stats;
    }

    /// Queues cells at the source controller for injection.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn send_cells(&mut self, vc: VcId, cells: impl IntoIterator<Item = Cell>) {
        let src = self.circuits[&vc].src;
        self.hosts[src.0 as usize]
            .outbox
            .entry(vc)
            .or_default()
            .extend(cells);
    }

    /// Cells still waiting at the source controller.
    pub fn outbox_len(&self, vc: VcId) -> usize {
        let src = self.circuits[&vc].src;
        self.hosts[src.0 as usize]
            .outbox
            .get(&vc)
            .map_or(0, VecDeque::len)
    }

    /// Takes all packets delivered to a host since the last call.
    pub fn take_received(&mut self, host: HostId) -> Vec<(VcId, Packet)> {
        std::mem::take(&mut self.hosts[host.0 as usize].received)
    }

    /// Marks a link dead: in-flight traffic on it is lost and it disappears
    /// from the port map. Circuit repair is the `Network` layer's job.
    pub fn fail_link(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        self.rebuild_port_map();
        // Cells and credits in flight on the failed link are lost. Account
        // drops against their circuits so latency queues stay aligned.
        let mut dropped_by_vc: Vec<VcId> = Vec::new();
        for events in self.agenda.values_mut() {
            events.retain(|e| {
                let (l, lost_cell_vc) = match e {
                    Event::CellToSwitch { link, cell, .. }
                    | Event::CellToHost { link, cell, .. } => {
                        // Signal cells never entered `sent_cells` or the
                        // latency queue; they vanish without the
                        // per-circuit drop accounting data cells need.
                        let data_vc = (cell.header.kind != CellKind::Signal).then(|| cell.vc());
                        (*link, data_vc)
                    }
                    Event::CreditToSwitch { link, .. } | Event::CreditToHost { link, .. } => {
                        (*link, None)
                    }
                };
                if l == link {
                    if let Some(vc) = lost_cell_vc {
                        dropped_by_vc.push(vc);
                    }
                    false
                } else {
                    true
                }
            });
        }
        for vc in dropped_by_vc {
            if let Some(c) = self.circuits.get_mut(&vc) {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
        }
    }

    /// Best-effort circuit count per inter-switch link — the load measure
    /// used by the §2 load-balancing reroute extension.
    pub fn link_circuit_counts(&self) -> Vec<(LinkId, usize)> {
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
        for c in self.circuits.values() {
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
            .filter(|(_, c)| c.links.contains(&link) || c.src_link == link || c.dst_link == link)
            .map(|(&vc, _)| vc)
            .collect();
        out.sort_unstable();
        out
    }

    /// Advances the fabric by `slots` cell slots.
    pub fn step(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step_one();
        }
    }

    fn step_one(&mut self) {
        // 1. Deliveries scheduled for this slot.
        if let Some(events) = self.agenda.remove(&self.slot) {
            for event in events {
                match event {
                    Event::CellToSwitch {
                        switch,
                        input,
                        cell,
                        ..
                    } => {
                        if cell.header.kind == CellKind::Signal {
                            self.handle_signal_at_switch(switch, cell);
                        } else {
                            self.switches[switch.0 as usize]
                                .enqueue(input, cell)
                                .expect("port map produced a valid input port");
                        }
                    }
                    Event::CellToHost { host, cell, .. } => {
                        if cell.header.kind == CellKind::Signal {
                            // Setup complete: the destination controller
                            // acknowledges by accepting the circuit.
                            self.pending_setups.remove(&cell.vc());
                        } else {
                            self.deliver_to_host(host, cell);
                        }
                    }
                    Event::CreditToSwitch { switch, vc, .. } => {
                        if self.switches[switch.0 as usize]
                            .credit_balance(vc)
                            .is_some()
                        {
                            self.switches[switch.0 as usize].add_credit(vc);
                        }
                    }
                    Event::CreditToHost { host, vc, .. } => {
                        if let Some(c) = self.hosts[host.0 as usize].credits.get_mut(&vc) {
                            *c += 1;
                        }
                    }
                }
            }
        }
        // 2. Hosts inject (one cell per host per slot: the link rate).
        self.inject_from_hosts();
        // 3. Switches advance; departures propagate.
        for idx in 0..self.switches.len() {
            let departures = self.switches[idx].step(&mut self.switch_rngs[idx]);
            for d in departures {
                self.propagate(SwitchId(idx as u16), d.output, d.cell);
            }
        }
        // 4. Refill guaranteed token buckets at frame boundaries.
        let frame = self.cfg.switch.frame_slots as u64;
        if (self.slot + 1).is_multiple_of(frame) {
            for host in &mut self.hosts {
                let refill: Vec<(VcId, u32)> = host
                    .gt_tokens
                    .keys()
                    .map(|&vc| {
                        let k = match self.circuits[&vc].class {
                            TrafficClass::Guaranteed { cells_per_frame } => cells_per_frame as u32,
                            TrafficClass::BestEffort => 0,
                        };
                        (vc, k)
                    })
                    .collect();
                for (vc, k) in refill {
                    host.gt_tokens.insert(vc, k);
                }
            }
        }
        self.slot += 1;
    }

    fn inject_from_hosts(&mut self) {
        let latency = self.cfg.link_latency_slots;
        for h in 0..self.hosts.len() {
            let vcs: Vec<VcId> = self.hosts[h].outbox.keys().copied().collect();
            if vcs.is_empty() {
                continue;
            }
            let start = self.hosts[h].rotor % vcs.len();
            // One cell per slot; round-robin over ready circuits for
            // fairness on the shared host link.
            let mut injected = false;
            for k in 0..vcs.len() {
                let vc = vcs[(start + k) % vcs.len()];
                let Some(circuit) = self.circuits.get(&vc) else {
                    continue;
                };
                let ready = match circuit.class {
                    TrafficClass::BestEffort => {
                        self.hosts[h].credits.get(&vc).copied().unwrap_or(0) > 0
                    }
                    TrafficClass::Guaranteed { .. } => {
                        self.hosts[h].gt_tokens.get(&vc).copied().unwrap_or(0) > 0
                    }
                };
                if !ready || self.hosts[h].outbox[&vc].is_empty() {
                    continue;
                }
                let cell = self.hosts[h]
                    .outbox
                    .get_mut(&vc)
                    .and_then(VecDeque::pop_front)
                    .expect("checked non-empty");
                let is_signal = cell.header.kind == CellKind::Signal;
                match circuit.class {
                    TrafficClass::BestEffort => {
                        *self.hosts[h].credits.get_mut(&vc).unwrap() -= 1;
                    }
                    TrafficClass::Guaranteed { .. } => {
                        *self.hosts[h].gt_tokens.get_mut(&vc).unwrap() -= 1;
                    }
                }
                let first = circuit.switches[0];
                let link = circuit.src_link;
                let input = self.port_on(link, Node::Switch(first));
                self.agenda
                    .entry(self.slot + latency)
                    .or_default()
                    .push(Event::CellToSwitch {
                        switch: first,
                        input,
                        cell,
                        link,
                    });
                let c = self.circuits.get_mut(&vc).unwrap();
                if !is_signal {
                    c.inject_slots.push_back(self.slot);
                    c.stats.sent_cells += 1;
                }
                c.last_activity = self.slot;
                self.hosts[h].rotor = (start + k + 1) % vcs.len();
                injected = true;
                break;
            }
            if !injected {
                self.hosts[h].rotor = (start + 1) % vcs.len();
            }
        }
    }

    fn propagate(&mut self, from: SwitchId, output: usize, cell: Cell) {
        let vc = cell.vc();
        let latency = self.cfg.link_latency_slots;
        let Some(&attachment) = self.port_map.get(&(from, output)) else {
            // The outbound link died after the cell was scheduled: lost.
            if let Some(c) = self.circuits.get_mut(&vc) {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
            return;
        };
        // §5: forwarding this cell freed a buffer in `from`; return a credit
        // to the upstream hop (only best-effort circuits are gated).
        self.return_credit(from, vc);
        match attachment {
            Attachment::ToSwitch {
                switch,
                input,
                link,
            } => {
                self.agenda
                    .entry(self.slot + latency)
                    .or_default()
                    .push(Event::CellToSwitch {
                        switch,
                        input,
                        cell,
                        link,
                    });
            }
            Attachment::ToHost { host, link } => {
                self.agenda
                    .entry(self.slot + latency)
                    .or_default()
                    .push(Event::CellToHost { host, cell, link });
            }
        }
    }

    fn return_credit(&mut self, forwarder: SwitchId, vc: VcId) {
        let Some(circuit) = self.circuits.get(&vc) else {
            return;
        };
        if !matches!(circuit.class, TrafficClass::BestEffort) {
            return;
        }
        let latency = self.cfg.link_latency_slots;
        let Some(idx) = circuit.switches.iter().position(|&s| s == forwarder) else {
            return;
        };
        let event = if idx == 0 {
            Event::CreditToHost {
                host: circuit.src,
                vc,
                link: circuit.src_link,
            }
        } else {
            Event::CreditToSwitch {
                switch: circuit.switches[idx - 1],
                vc,
                link: circuit.links[idx - 1],
            }
        };
        self.agenda
            .entry(self.slot + latency)
            .or_default()
            .push(event);
    }

    fn deliver_to_host(&mut self, host: HostId, cell: Cell) {
        let vc = cell.vc();
        if let Some(c) = self.circuits.get_mut(&vc) {
            c.stats.delivered_cells += 1;
            c.last_activity = self.slot;
            if let Some(injected) = c.inject_slots.pop_front() {
                c.stats.latency_slots.record(self.slot - injected);
            }
        }
        match self.hosts[host.0 as usize].reassembler.push(&cell) {
            Ok(Some((vc, packet))) => {
                if let Some(c) = self.circuits.get_mut(&vc) {
                    c.stats.packets_delivered += 1;
                }
                self.hosts[host.0 as usize].received.push((vc, packet));
            }
            Ok(None) => {}
            Err(_) => {
                if let Some(c) = self.circuits.get_mut(&vc) {
                    c.stats.packets_corrupted += 1;
                }
            }
        }
    }
}
