//! The embedded control plane: a distributed control protocol inside the
//! live network (§2).
//!
//! The pre-existing `an2-reconfig` harness runs the reconfiguration
//! protocol from its own event heap, on its own clock, over perfect links.
//! This module embeds a [`ControlProtocol`] — the paper's up\*/down\*
//! reconfiguration by default, or one of its arena rivals (spanning tree,
//! path vector) — in the fabric's slot-stepped timeline: each switch owns
//! a protocol state machine, link-monitor verdicts become link events, and
//! protocol messages are segmented into 53-byte control cells that ride
//! the same fault-injectable links as data ([`Fabric::send_ctrl`]).
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
//! after a quiet interval ([`ControlPlaneConfig::retry`]) and re-initiates
//! with fresh progress (a higher tag / generation).

use crate::fabric::Fabric;
use an2_reconfig::protocol::{ControlProtocol, LinkEvent, ProtocolKind, ProtocolMsg};
use an2_reconfig::quiesce::LiveView;
use an2_reconfig::{ReconfigEvent, Tag};
use an2_sim::metrics::PhaseRecorder;
use an2_sim::{SimDuration, SimTime};
use an2_topology::{LinkState, Node, SwitchId};
use an2_trace::{Entity, Phase, PhaseEdge, ProtocolTag, TraceEvent, Tracer};
use std::fmt;

/// An undirected switch adjacency, lower id first.
pub(crate) type Edge = (SwitchId, SwitchId);

fn norm(a: SwitchId, b: SwitchId) -> Edge {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Tuning for the embedded control plane.
#[derive(Debug, Clone, Copy)]
pub struct ControlPlaneConfig {
    /// Line-card software time spent handling one protocol message before
    /// its replies hit the wire (the harness oracle's default is 100 µs).
    pub processing: SimDuration,
    /// How long an open epoch may sit with nothing in flight and
    /// disagreeing views before a stale switch re-initiates. Covers
    /// protocol messages destroyed by link loss or crashed line cards.
    pub retry: SimDuration,
    /// Upper bound on re-initiations, so a partitioned or hopeless run
    /// cannot spin forever.
    pub max_retries: u32,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            processing: SimDuration::from_micros(100),
            retry: SimDuration::from_millis(5),
            max_retries: 64,
        }
    }
}

/// What the control plane feeds the protocol: a local link event, a peer
/// message off the wire, or the stall-retry timer.
pub(crate) enum Input {
    /// A local link-state change (boot, up, down).
    Event(LinkEvent),
    /// A protocol message that arrived as control cells.
    Message(ProtocolMsg),
    /// The stall-retry timer: re-initiate.
    Timer,
}

/// Per-switch protocol state machines living on the fabric timeline, plus
/// the shared infrastructure — control-cell transport, stall-retry clock,
/// phase recorder — that turns their quiescent agreement into installed
/// routes.
pub(crate) struct ControlPlane {
    /// The pluggable protocol (selected by `Network::builder().protocol`).
    pub(crate) protocol: Box<dyn ControlProtocol>,
    /// `cfg.processing` in slots, added to every outbound control send.
    processing_slots: u64,
    /// `cfg.retry` in slots.
    retry_slots: u64,
    max_retries: u32,
    retries_used: u32,
    /// An epoch is open: the protocol's progress tag advanced past the
    /// last installed configuration and quiescence has not been declared
    /// yet.
    pub(crate) epoch_open: bool,
    /// The largest progress tag observed.
    pub(crate) best_tag: Tag,
    /// Last slot with control activity (arrival, verdict, or re-kick);
    /// the stall-retry clock.
    pub(crate) last_activity_slot: u64,
    /// Protocol messages that could not be sent because no working link
    /// remained to the destination (the verdict beat the protocol to it).
    pub(crate) unsendable: u64,
    /// Converge/install spans on the virtual clock.
    pub(crate) phases: PhaseRecorder,
    /// Flight-recorder handle mirroring phase transitions as
    /// [`TraceEvent::ReconfigPhase`] records (shared with the fabric's).
    pub(crate) tracer: Option<Tracer>,
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
    pub(crate) fn new(
        switch_count: usize,
        cfg: ControlPlaneConfig,
        slot_ns: u64,
        kind: ProtocolKind,
    ) -> Self {
        let slot_ns = slot_ns.max(1);
        ControlPlane {
            protocol: kind.build(switch_count),
            processing_slots: (cfg.processing.as_nanos() / slot_ns).max(1),
            retry_slots: (cfg.retry.as_nanos() / slot_ns).max(1),
            max_retries: cfg.max_retries,
            retries_used: 0,
            epoch_open: false,
            best_tag: Tag::ZERO,
            last_activity_slot: 0,
            unsendable: 0,
            phases: PhaseRecorder::new(),
            tracer: None,
        }
    }

    /// The trace tag for this plane's protocol.
    pub(crate) fn trace_tag(&self) -> ProtocolTag {
        match self.protocol.kind() {
            ProtocolKind::UpDown => ProtocolTag::UpDown,
            ProtocolKind::SpanningTree => ProtocolTag::SpanningTree,
            ProtocolKind::PathVector => ProtocolTag::PathVector,
        }
    }

    /// Runs one input through `sw`'s protocol instance and ships every
    /// reply as a control-cell burst over the lowest-id working link to
    /// its destination, in the protocol's send order.
    pub(crate) fn deliver(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        sw: SwitchId,
        input: Input,
    ) {
        let mut out = Vec::new();
        match input {
            Input::Event(ev) => self.protocol.on_link_event(now, sw, ev, &mut out),
            Input::Message(msg) => self.protocol.on_message(now, sw, msg, &mut out),
            Input::Timer => self.protocol.on_timer(now, sw, &mut out),
        }
        for (to, m) in out {
            let link = fabric.topology().links_between(sw, to).into_iter().min();
            match link {
                Some(link) => {
                    fabric.send_ctrl(sw, to, link, m, self.processing_slots);
                }
                None => self.unsendable += 1,
            }
        }
    }

    /// Notes any tag growth after a batch of deliveries: the first growth
    /// beyond the installed configuration opens an epoch (propose) and
    /// starts the converge span.
    pub(crate) fn observe_epoch(
        &mut self,
        slot: u64,
        now: SimTime,
        events: &mut Vec<ReconfigEvent>,
    ) {
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
                self.phases.begin("converge", now);
                if let Some(t) = &self.tracer {
                    t.emit_at_ns(
                        now.as_nanos(),
                        TraceEvent::ReconfigPhase {
                            phase: Phase::Converge,
                            edge: PhaseEdge::Begin,
                            epoch: max_tag.epoch,
                            protocol: self.trace_tag(),
                        },
                    );
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

    /// The largest agreed tag, when every live partition has converged.
    pub(crate) fn converged_tag(&self, fabric: &Fabric) -> Option<Tag> {
        self.partition_check(fabric).ok()
    }

    /// Total protocol messages sent by all switches so far.
    pub(crate) fn total_messages(&self) -> u64 {
        self.protocol.messages_sent()
    }

    /// Stall recovery: when an open epoch has drained without agreement,
    /// the lowest live switch of a disagreeing partition re-initiates.
    /// `None` while the quiet interval has not elapsed or once the retry
    /// budget is spent.
    pub(crate) fn retry_candidate(&mut self, fabric: &Fabric, slot: u64) -> Option<SwitchId> {
        if self.retries_used >= self.max_retries
            || slot.saturating_sub(self.last_activity_slot) < self.retry_slots
        {
            return None;
        }
        let stale = self.partition_check(fabric).err()?;
        self.retries_used += 1;
        self.last_activity_slot = slot;
        Some(stale)
    }

    /// The protocol's current topology view for switch `s`, as normalized
    /// sorted edges (`None` for protocols without full-topology views).
    pub(crate) fn view_edges(&self, s: SwitchId) -> Option<Vec<Edge>> {
        self.protocol.view_edges(s)
    }

    /// The largest tag switch `s` has seen.
    pub(crate) fn agent_tag(&self, s: SwitchId) -> Option<Tag> {
        self.protocol.tag_of(s)
    }
}

/// The canonical wiring for one best-effort circuit on the protocol's
/// installed routes: iterate host attachments in link-id order and take
/// the first pair of attachment switches the protocol routes between;
/// concrete inter-switch hops use the lowest-id working link. For the
/// up*/down* protocol this is a pure function of (topology, forest), so
/// the N4 oracle can recompute it independently.
pub(crate) fn canonical_wiring(
    protocol: &mut dyn ControlProtocol,
    topo: &an2_topology::Topology,
    src: an2_topology::HostId,
    dst: an2_topology::HostId,
) -> Option<(
    Vec<SwitchId>,
    Vec<an2_topology::LinkId>,
    an2_topology::LinkId,
    an2_topology::LinkId,
)> {
    let src_atts = topo.host_attachments(src);
    let dst_atts = topo.host_attachments(dst);
    for &(src_link, src_sw) in &src_atts {
        for &(dst_link, dst_sw) in &dst_atts {
            let Some(path) = protocol.switch_route(topo, src_sw, dst_sw) else {
                continue;
            };
            let mut links = Vec::with_capacity(path.len().saturating_sub(1));
            let mut ok = true;
            for w in path.windows(2) {
                match topo.links_between(w[0], w[1]).into_iter().min() {
                    Some(l) => links.push(l),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Some((path, links, src_link, dst_link));
            }
        }
    }
    None
}

/// The adjacency edges among live (non-crashed) switches over working
/// links, normalized, sorted, deduplicated — the route emission's input.
pub(crate) fn live_edges(fabric: &Fabric) -> (Vec<SwitchId>, Vec<Edge>) {
    let topo = fabric.topology();
    let live: Vec<SwitchId> = topo
        .switches()
        .filter(|&s| !fabric.switch_crashed(s))
        .collect();
    let mut edges: Vec<Edge> = Vec::new();
    for l in topo.links() {
        if topo.link_state(l) != LinkState::Working {
            continue;
        }
        let (a, b) = topo.endpoints(l);
        if let (Node::Switch(x), Node::Switch(y)) = (a.node, b.node) {
            if x != y && !fabric.switch_crashed(x) && !fabric.switch_crashed(y) {
                edges.push(norm(x, y));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (live, edges)
}
