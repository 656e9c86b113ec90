//! The embedded control plane: a distributed control protocol inside the
//! live network (§2).
//!
//! A [`ControlProtocol`] has two drivers, and this module is one of them.
//! The `an2-reconfig` harness (`an2_reconfig::harness::ReconfigNet`)
//! feeds the paper's protocol [`Input`]s from a heap over perfect links.
//! This module feeds the same `Input`s to a protocol — the paper's
//! up\*/down\* reconfiguration by default, or one of its arena rivals
//! (spanning tree, path vector) — on the fabric's slot-stepped timeline:
//! link-monitor verdicts become link events, and protocol messages are
//! segmented into 53-byte control cells that ride the same
//! fault-injectable links as data ([`Fabric::send_ctrl`]), each charged
//! the harness's per-message [`PROCESSING`] time.
//!
//! When the protocol quiesces — no control cells in flight and the
//! protocol's own convergence predicate satisfied on every live partition
//! — the network installs the new epoch's routes switch-by-switch from
//! the protocol's route emission (the canonical up\*/down\* forest for the
//! paper's protocol; tree paths or stored path vectors for the rivals).
//! Because the oracle harness can compute the same canonical forest from
//! the same edges, embedded up\*/down\* routes are byte-comparable to
//! harness routes (experiment N4's acceptance check).
//!
//! Convergence under message loss is guaranteed by a bounded retry: if an
//! epoch is open, nothing is in flight, and the protocol still disagrees,
//! the lowest live switch of the disagreeing partition gets a timer kick
//! after a quiet interval (`RETRY`, 5 ms) and re-initiates
//! with fresh progress (a higher tag / generation).

use super::Network;
use crate::fabric::Fabric;
use an2_cells::signal::TrafficClass;
use an2_cells::VcId;
use an2_reconfig::harness::PROCESSING;
use an2_reconfig::protocol::{ControlProtocol, Input, LinkEvent, ProtocolKind};
use an2_reconfig::quiesce::{edge, Edge, LiveView};
use an2_reconfig::{ReconfigEvent, Tag};
use an2_sim::{SimDuration, SimTime};
use an2_topology::{HostId, LinkId, LinkState, Node, SwitchId, Topology};
use an2_trace::{Entity, Phase, PhaseEdge, ProtocolTag, TraceEvent, Tracer};
use std::fmt;

/// How long an open epoch may sit with nothing in flight and disagreeing
/// views before a stale switch re-initiates. Covers protocol messages
/// destroyed by link loss or crashed line cards.
const RETRY: SimDuration = SimDuration::from_millis(5);
/// Upper bound on re-initiations, so a partitioned or hopeless run cannot
/// spin forever.
const MAX_RETRIES: u32 = 64;

/// Per-switch protocol state machines living on the fabric timeline, plus
/// the shared infrastructure — control-cell transport, stall-retry clock —
/// that turns their quiescent agreement into installed routes.
pub(super) struct ControlPlane {
    /// The pluggable protocol (selected by `Network::builder().protocol`).
    protocol: Box<dyn ControlProtocol>,
    /// `PROCESSING` in slots, added to every outbound control send.
    processing_slots: u64,
    /// `RETRY` in slots.
    retry_slots: u64,
    retries_used: u32,
    /// An epoch is open: the protocol's progress tag advanced past the
    /// last installed configuration and quiescence has not been declared
    /// yet.
    epoch_open: bool,
    /// The largest progress tag observed.
    best_tag: Tag,
    /// Last slot with control activity (arrival, verdict, or re-kick);
    /// the stall-retry clock.
    last_activity_slot: u64,
    /// Flight-recorder handle recording phase transitions as
    /// [`TraceEvent::ReconfigPhase`] records (shared with the fabric's).
    tracer: Option<Tracer>,
}

impl fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPlane")
            .field("protocol", &self.protocol.kind().name())
            .field("epoch_open", &self.epoch_open)
            .field("best_tag", &self.best_tag)
            .field("retries_used", &self.retries_used)
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// One protocol instance per switch, all idle. Boot knowledge is
    /// delivered by [`crate::Network::enable_control_plane`].
    fn new(switch_count: usize, slot_ns: u64, kind: ProtocolKind) -> Self {
        let slot_ns = slot_ns.max(1);
        ControlPlane {
            protocol: kind.build(switch_count),
            processing_slots: (PROCESSING.as_nanos() / slot_ns).max(1),
            retry_slots: (RETRY.as_nanos() / slot_ns).max(1),
            retries_used: 0,
            epoch_open: false,
            best_tag: Tag::ZERO,
            last_activity_slot: 0,
            tracer: None,
        }
    }

    /// A tracer attached after the control plane still sees its phase
    /// transitions.
    pub(super) fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The trace tag for this plane's protocol.
    fn trace_tag(&self) -> ProtocolTag {
        match self.protocol.kind() {
            ProtocolKind::UpDown => ProtocolTag::UpDown,
            ProtocolKind::SpanningTree => ProtocolTag::SpanningTree,
            ProtocolKind::PathVector => ProtocolTag::PathVector,
        }
    }

    /// Records a phase transition of epoch `epoch` in the flight recorder.
    fn trace_phase(&self, now: SimTime, phase: Phase, edge: PhaseEdge, epoch: u64) {
        if let Some(t) = &self.tracer {
            let event = TraceEvent::ReconfigPhase {
                phase,
                edge,
                epoch,
                protocol: self.trace_tag(),
            };
            t.emit_at_ns(now.as_nanos(), event);
        }
    }

    /// Runs one input through `sw`'s protocol instance and ships every
    /// reply as a control-cell burst over the lowest-id working link to
    /// its destination, in the protocol's send order.
    fn deliver(&mut self, fabric: &mut Fabric, now: SimTime, sw: SwitchId, input: Input) {
        let mut out = Vec::new();
        self.protocol.on_input(now, sw, input, &mut out);
        for (to, m) in out {
            // No working link left to the destination: the verdict beat
            // the protocol to it, and the message has nowhere to go.
            if let Some(link) = fabric.topology().links_between(sw, to).into_iter().min() {
                fabric.send_ctrl(sw, to, link, m, self.processing_slots);
            }
        }
    }

    /// Lets the live agents at both ends of the `a — b` adjacency observe
    /// its change locally (`event` names each end's neighbour), then notes
    /// the epoch that opens.
    fn adjacency_changed(
        &mut self,
        fabric: &mut Fabric,
        (slot, now): (u64, SimTime),
        (a, b): Edge,
        event: impl Fn(SwitchId) -> LinkEvent,
        log: &mut Vec<ReconfigEvent>,
    ) {
        for (sw, other) in [(a, b), (b, a)] {
            if !fabric.switch_crashed(sw) {
                self.deliver(fabric, now, sw, Input::Event(event(other)));
            }
        }
        self.observe_epoch(slot, now, log);
        self.last_activity_slot = slot;
    }

    /// Notes any tag growth after a batch of deliveries: the first growth
    /// beyond the installed configuration opens an epoch (propose) and
    /// starts the converge span.
    fn observe_epoch(&mut self, slot: u64, now: SimTime, events: &mut Vec<ReconfigEvent>) {
        let max_tag = self.protocol.progress_tag();
        if max_tag > self.best_tag {
            self.best_tag = max_tag;
            events.push(ReconfigEvent::EpochStarted {
                slot,
                at: now,
                tag: max_tag,
            });
            if !self.epoch_open {
                self.epoch_open = true;
                self.retries_used = 0;
                self.trace_phase(now, Phase::Converge, PhaseEdge::Begin, max_tag.epoch);
                if let Some(t) = &self.tracer {
                    t.counter_add("reconfig.epochs_started", Entity::Global, 1);
                }
            }
            self.last_activity_slot = slot;
        }
    }

    /// The protocol's own convergence predicate over the surviving
    /// topology. `Ok` carries the largest agreed tag; `Err` carries the
    /// lowest live switch of the first partition still in disagreement
    /// (the stall-retry candidate).
    fn partition_check(&self, fabric: &Fabric) -> Result<Tag, SwitchId> {
        let topo = fabric.topology();
        let crashed: Vec<bool> = topo.switches().map(|s| fabric.switch_crashed(s)).collect();
        self.protocol.convergence(&LiveView {
            topo,
            crashed: &crashed,
        })
    }

    /// Stall recovery: when an open epoch has drained without agreement,
    /// the lowest live switch of a disagreeing partition re-initiates.
    /// `None` while the quiet interval has not elapsed or once the retry
    /// budget is spent.
    fn retry_candidate(&mut self, fabric: &Fabric, slot: u64) -> Option<SwitchId> {
        if self.retries_used >= MAX_RETRIES
            || slot.saturating_sub(self.last_activity_slot) < self.retry_slots
        {
            return None;
        }
        let stale = self.partition_check(fabric).err()?;
        self.retries_used += 1;
        self.last_activity_slot = slot;
        Some(stale)
    }
}

/// The canonical wiring for one best-effort circuit on the protocol's
/// installed routes: iterate host attachments in link-id order and take
/// the first pair of attachment switches the protocol routes between;
/// concrete inter-switch hops use the lowest-id working link. For the
/// up*/down* protocol this is a pure function of (topology, forest), so
/// the N4 oracle can recompute it independently.
fn canonical_wiring(
    protocol: &mut dyn ControlProtocol,
    topo: &Topology,
    src: HostId,
    dst: HostId,
) -> Option<(Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId)> {
    let src_atts = topo.host_attachments(src);
    let dst_atts = topo.host_attachments(dst);
    for &(src_link, src_sw) in &src_atts {
        for &(dst_link, dst_sw) in &dst_atts {
            let Some(path) = protocol.switch_route(topo, src_sw, dst_sw) else {
                continue;
            };
            let links: Option<Vec<LinkId>> = path
                .windows(2)
                .map(|w| topo.links_between(w[0], w[1]).into_iter().min())
                .collect();
            if let Some(links) = links {
                return Some((path, links, src_link, dst_link));
            }
        }
    }
    None
}

/// The adjacency edges among live (non-crashed) switches over working
/// links, normalized, sorted, deduplicated — the route emission's input.
fn live_edges(fabric: &Fabric) -> (Vec<SwitchId>, Vec<Edge>) {
    let topo = fabric.topology();
    let live: Vec<SwitchId> = topo
        .switches()
        .filter(|&s| !fabric.switch_crashed(s))
        .collect();
    let mut edges: Vec<Edge> = topo
        .switch_links()
        .filter(|&(l, x, y)| {
            topo.link_state(l) == LinkState::Working
                && !fabric.switch_crashed(x)
                && !fabric.switch_crashed(y)
        })
        .map(|(_, x, y)| edge(x, y))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    (live, edges)
}

impl Network {
    /// Embeds the selected control protocol in this network's timeline
    /// (§2): one [`an2_reconfig::protocol::ControlProtocol`] state machine
    /// per switch — the paper's up\*/down\* reconfiguration agents by
    /// default, or a rival picked with [`crate::NetworkBuilder::protocol`] —
    /// booted with its local link knowledge. From here on, link-monitor
    /// verdicts feed the protocol instead of the centralized
    /// [`Network::fail_link`], protocol messages travel as control cells
    /// over the same lossy links as data, and on quiescence the protocol's
    /// own routes are installed switch-by-switch — tearing down and
    /// re-establishing only the circuits whose paths changed.
    ///
    /// Guaranteed circuits stay with the *centralized* bandwidth central
    /// on failure, as §4 prescribes — reservations need global capacity
    /// accounting that the distributed agents do not carry.
    ///
    /// # Panics
    ///
    /// Panics unless [`Network::attach_faults`] was called first: the
    /// agents are driven by monitor verdicts and the control cells need
    /// the fault layer's loss processes to be meaningful.
    pub fn enable_control_plane(&mut self) {
        assert!(
            self.faults.is_some(),
            "enable_control_plane requires attach_faults first"
        );
        let slot_ns = self.slot_duration().as_nanos().max(1);
        let mut cp = Box::new(ControlPlane::new(
            self.topology().switch_count(),
            slot_ns,
            self.protocol,
        ));
        // A tracer attached before the control plane still sees its phase
        // transitions, including the boot epoch's.
        cp.tracer = self.fabric.tracer().cloned();
        let slot = self.fabric.slot();
        let now = self.now();
        // Boot: each end of each working inter-switch link learns of it
        // locally, exactly as the oracle harness seeds its agents.
        let topo = self.fabric.topology();
        let boots: Vec<_> = topo
            .switch_links()
            .filter(|&(l, _, _)| topo.link_state(l) == LinkState::Working)
            .collect();
        let mut ctl = self.faults.take().expect("asserted above");
        for (l, x, y) in boots {
            for (sw, other) in [(x, y), (y, x)] {
                cp.deliver(
                    &mut self.fabric,
                    now,
                    sw,
                    Input::Event(LinkEvent::Up {
                        link: l,
                        neighbor: other,
                    }),
                );
            }
        }
        cp.observe_epoch(slot, now, &mut ctl.log);
        cp.last_activity_slot = slot;
        self.faults = Some(ctl);
        self.control = Some(cp);
    }

    /// Drains arrived control cells into their agents, ships the replies,
    /// and — when an open epoch has fully drained — checks for quiescence
    /// and installs the agreed topology's routes.
    pub(super) fn pump_control(&mut self) {
        let (Some(mut cp), Some(mut ctl)) = (self.control.take(), self.faults.take()) else {
            unreachable!("control plane requires the fault layer");
        };
        let slot = self.fabric.slot();
        let now = self.now();
        let arrivals = self.fabric.take_ctrl_arrivals();
        if !arrivals.is_empty() {
            cp.last_activity_slot = slot;
        }
        for (sw, _link, msg) in arrivals {
            if self.fabric.switch_crashed(sw) {
                continue; // the line card that would handle this is down
            }
            cp.deliver(&mut self.fabric, now, sw, Input::Message(msg));
        }
        cp.observe_epoch(slot, now, &mut ctl.log);
        if cp.epoch_open && self.fabric.ctrl_inflight_count() == 0 {
            if let Ok(tag) = cp.partition_check(&self.fabric) {
                ctl.log.push(ReconfigEvent::Quiesced {
                    slot,
                    at: now,
                    tag,
                    messages: cp.protocol.messages_sent(),
                });
                cp.trace_phase(now, Phase::Converge, PhaseEdge::End, tag.epoch);
                cp.epoch_open = false;
                self.install_routes(&mut cp, &mut ctl.log, slot, now, tag);
            } else if let Some(sw) = cp.retry_candidate(&self.fabric, slot) {
                // Lost control cells left the epoch stalled: the lowest
                // disagreeing live switch re-initiates with fresh progress.
                cp.deliver(&mut self.fabric, now, sw, Input::Timer);
                cp.observe_epoch(slot, now, &mut ctl.log);
            }
        }
        self.faults = Some(ctl);
        self.control = Some(cp);
    }

    /// Embedded-mode reaction to a dead-link verdict: fail the fabric
    /// link, strand its best-effort circuits until routes are reinstalled
    /// (guaranteed circuits go back to bandwidth central at once), and let
    /// the agents at both ends observe the loss locally. When a parallel
    /// link keeps the adjacency alive the topology view is unchanged, so
    /// the stranded circuits are re-established immediately instead of
    /// waiting for a reconfiguration that will never start.
    pub(super) fn on_verdict_dead(
        &mut self,
        link: LinkId,
        slot: u64,
        now: SimTime,
        log: &mut Vec<ReconfigEvent>,
    ) {
        let (ea, eb) = self.topology().endpoints(link);
        let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) else {
            return; // monitors only watch inter-switch links
        };
        let victims = self.fabric.circuits_using(link);
        self.fabric.fail_link(link);
        for vc in victims {
            let Some(meta) = self.meta.get(&vc) else {
                continue;
            };
            match meta.class {
                TrafficClass::BestEffort => {
                    if let Some(stats) = self.fabric.close_circuit(vc) {
                        self.broken.insert(vc, stats);
                    }
                }
                TrafficClass::Guaranteed { .. } => self.repair(vc),
            }
        }
        let mut cp = self.control.take().expect("caller checked");
        cp.protocol.invalidate_edge(a, b);
        if self.topology().links_between(a, b).is_empty() {
            let down = |neighbor| LinkEvent::Down { neighbor };
            cp.adjacency_changed(&mut self.fabric, (slot, now), (a, b), down, log);
        } else {
            let tag = cp.best_tag;
            self.install_routes(&mut cp, log, slot, now, tag);
        }
        self.control = Some(cp);
    }

    /// Embedded-mode reaction to a working-again verdict: revive the
    /// fabric link, hand stranded guaranteed circuits back to bandwidth
    /// central, and — when the adjacency was gone — let both agents
    /// observe the new link (opening a reconfiguration epoch). A restored
    /// parallel link changes no topology view, so stranded best-effort
    /// circuits are re-established on the spot.
    pub(super) fn on_verdict_working(
        &mut self,
        link: LinkId,
        slot: u64,
        now: SimTime,
        log: &mut Vec<ReconfigEvent>,
    ) {
        let (ea, eb) = self.topology().endpoints(link);
        let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) else {
            return;
        };
        let adjacency_before = !self.topology().links_between(a, b).is_empty();
        if !self.fabric.revive_link(link) {
            return;
        }
        self.reattach_stranded(|class| matches!(class, TrafficClass::Guaranteed { .. }));
        let mut cp = self.control.take().expect("caller checked");
        if adjacency_before {
            let tag = cp.best_tag;
            self.install_routes(&mut cp, log, slot, now, tag);
        } else {
            cp.protocol.invalidate_all();
            let up = |neighbor| LinkEvent::Up { link, neighbor };
            cp.adjacency_changed(&mut self.fabric, (slot, now), (a, b), up, log);
        }
        self.control = Some(cp);
    }

    /// Installs the protocol's routes for the current topology
    /// switch-by-switch (the canonical up*/down* forest for the paper's
    /// protocol; tree paths or path-vector tables for the rivals): every
    /// best-effort circuit is compared against its canonical wiring, and
    /// only circuits whose paths changed are torn down and re-established
    /// (§2's reduced-disruption goal). Stranded circuits come back with
    /// their accumulated statistics; circuits whose endpoints are
    /// partitioned stay broken.
    fn install_routes(
        &mut self,
        cp: &mut ControlPlane,
        log: &mut Vec<ReconfigEvent>,
        slot: u64,
        now: SimTime,
        tag: Tag,
    ) {
        cp.trace_phase(now, Phase::Install, PhaseEdge::Begin, tag.epoch);
        let (live, edges) = live_edges(&self.fabric);
        cp.protocol
            .prepare_routes(self.topology().switch_count(), &live, &edges);
        let mut vcs: Vec<VcId> = self
            .meta
            .iter()
            .filter(|(_, m)| matches!(m.class, TrafficClass::BestEffort))
            .map(|(&vc, _)| vc)
            .collect();
        vcs.sort_unstable();
        let (mut rerouted, mut kept, mut unroutable) = (0u64, 0u64, 0u64);
        for vc in vcs {
            if self.fabric.is_paged_out(vc) {
                continue; // holds no path; pages back in on fresh traffic
            }
            let meta = self.meta[&vc].clone();
            let target = canonical_wiring(
                cp.protocol.as_mut(),
                self.fabric.topology(),
                meta.src,
                meta.dst,
            );
            let current = self.fabric.circuit_wiring(vc);
            match (current, target) {
                (Some(cur), Some((switches, links, src_link, dst_link))) => {
                    // Sticky: an unchanged switch path over working links
                    // is left alone, even if its concrete parallel links
                    // are not the canonical choice — rerouting drops
                    // in-flight cells for no topological reason.
                    let topo = self.fabric.topology();
                    let alive = cur
                        .1
                        .iter()
                        .chain([&cur.2, &cur.3])
                        .all(|&l| topo.link_state(l) == LinkState::Working);
                    if cur.0 == switches && alive {
                        kept += 1;
                    } else {
                        self.fabric
                            .reroute_circuit(vc, switches, links, src_link, dst_link);
                        rerouted += 1;
                    }
                }
                (Some(_), None) => {
                    if let Some(stats) = self.fabric.close_circuit(vc) {
                        self.broken.insert(vc, stats);
                    }
                    unroutable += 1;
                }
                (None, Some((switches, links, src_link, dst_link))) => {
                    self.fabric.open_circuit(
                        vc,
                        meta.src,
                        meta.dst,
                        TrafficClass::BestEffort,
                        switches,
                        links,
                        src_link,
                        dst_link,
                    );
                    if let Some(stats) = self.broken.remove(&vc) {
                        self.fabric.restore_stats(vc, stats);
                    }
                    rerouted += 1;
                }
                (None, None) => unroutable += 1,
            }
        }
        log.push(ReconfigEvent::RoutesInstalled {
            slot,
            at: now,
            tag,
            rerouted,
            kept,
            unroutable,
        });
        cp.trace_phase(now, Phase::Install, PhaseEdge::End, tag.epoch);
        if let Some(t) = &cp.tracer {
            t.counter_add("reconfig.routes_installed", Entity::Global, 1);
        }
    }

    /// The topology view held by switch `s`'s embedded agent, as
    /// normalized sorted edges. `None` without a control plane or before
    /// the agent's first completed reconfiguration.
    pub fn agent_view_edges(&self, s: SwitchId) -> Option<Vec<(SwitchId, SwitchId)>> {
        self.control.as_ref()?.protocol.view_edges(s)
    }

    /// Whether the embedded agents have converged: no control cells in
    /// flight, no open epoch, and every live agent's view equal to its
    /// partition's surviving topology.
    pub fn control_converged(&self) -> bool {
        self.control.as_ref().is_some_and(|cp| {
            !cp.epoch_open
                && self.fabric.ctrl_inflight_count() == 0
                && cp.partition_check(&self.fabric).is_ok()
        })
    }
}
