//! The pluggable control-protocol interface.
//!
//! PR 4 turned reconfiguration traffic into ordinary 53-byte control cells
//! on lossy links — a substrate that can carry *any* distributed protocol.
//! [`ControlProtocol`] is the seam: a per-switch state machine consuming
//! link events, peer messages and stall-timer kicks, emitting messages in
//! send order, and reporting its own convergence predicate and routes. The
//! embedded control plane supplies the shared infrastructure — message
//! segmentation into control cells, the stall-retry clock, route
//! installation — and stays protocol-agnostic.
//!
//! Three first-class implementations ride the same substrate:
//!
//! - [`UpDownProtocol`] — the paper's §2 three-phase reconfiguration
//!   (wrapping [`SwitchAgent`] unchanged), emitting canonical up\*/down\*
//!   forest routes.
//! - [`crate::stp::StpProtocol`] — a BPDU-style spanning tree: root
//!   election, port roles, topology-change notifications, tree-path routes.
//! - [`crate::pathvector::PvProtocol`] — per-destination path vectors with
//!   poisoned reverse, shortest-path routes.

use crate::agent::{Msg, SwitchAgent};
use crate::quiesce::{uniform_views, Edge, LiveView};
use crate::Tag;
use an2_sim::SimTime;
use an2_topology::updown::{canonical_forest, RouteCache};
use an2_topology::{LinkId, SwitchId, Topology};

/// A local link-state event delivered to one switch's protocol instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The switch powers on with no link knowledge yet.
    Boot,
    /// A link to `neighbor` came up (or exists at boot).
    Up {
        /// The physical link.
        link: LinkId,
        /// The switch at the far end.
        neighbor: SwitchId,
    },
    /// The (last) link to `neighbor` was declared dead.
    Down {
        /// The switch at the far end.
        neighbor: SwitchId,
    },
    /// As [`Self::Down`], handled with §2's reduced-disruption extension:
    /// up\*/down\* floods an incremental delta instead of reconfiguring.
    /// Protocols without a delta form treat it as a plain `Down`.
    DownDelta {
        /// The switch at the far end.
        neighbor: SwitchId,
    },
}

/// What a driver feeds one switch's protocol instance: a local link
/// event, a peer message off the wire, or the stall-retry timer. Both
/// drivers — the ideal-transport harness and the embedded control plane —
/// queue these and hand each to [`ControlProtocol::on_input`].
#[derive(Debug)]
pub enum Input {
    /// A local link-state change.
    Event(LinkEvent),
    /// A protocol message from a neighbour.
    Message(ProtocolMsg),
    /// The stall-retry timer: re-initiate.
    Timer,
}

/// The wire envelope for every protocol's messages. The fabric segments
/// one `ProtocolMsg` into [`Self::wire_bytes`] worth of 48-byte control
/// cell payloads; losing any cell loses the whole message.
#[derive(Debug, Clone)]
pub enum ProtocolMsg {
    /// An up*/down* reconfiguration message (§2).
    UpDown(Msg),
    /// A spanning-tree message (BPDU or topology-change notification).
    Stp(crate::stp::StpMsg),
    /// A path-vector routing update.
    Pv(crate::pathvector::PvMsg),
}

impl ProtocolMsg {
    /// Serialized size on the wire, in bytes. The up*/down* encoding is
    /// frozen: it fixes how many control cells each message segments into,
    /// hence how many loss draws the fault injector makes — byte-identity
    /// of pre-refactor runs depends on these exact numbers.
    pub fn wire_bytes(&self) -> usize {
        match self {
            ProtocolMsg::UpDown(m) => match m {
                Msg::Invite { .. } => 12,
                Msg::InviteAck { .. } => 13,
                Msg::Delta { .. } => 16,
                Msg::Report { edges, parents, .. } | Msg::Distribute { edges, parents, .. } => {
                    14 + 4 * (edges.len() + parents.len())
                }
            },
            ProtocolMsg::Stp(m) => m.wire_bytes(),
            ProtocolMsg::Pv(m) => m.wire_bytes(),
        }
    }
}

/// Which control protocol a network runs. Selected via
/// `Network::builder().protocol(..)`; the default is the paper's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// §2 three-phase reconfiguration with canonical up*/down* routes.
    #[default]
    UpDown,
    /// BPDU-style spanning tree (root election, port roles, TCN).
    SpanningTree,
    /// Path-vector with poisoned reverse (AS-path style).
    PathVector,
}

impl ProtocolKind {
    /// Stable lowercase name for logs, traces and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::UpDown => "updown",
            ProtocolKind::SpanningTree => "stp",
            ProtocolKind::PathVector => "pathvector",
        }
    }

    /// Builds a fresh instance for `switch_count` switches.
    pub fn build(self, switch_count: usize) -> Box<dyn ControlProtocol> {
        match self {
            ProtocolKind::UpDown => Box::new(UpDownProtocol::new(switch_count)),
            ProtocolKind::SpanningTree => Box::new(crate::stp::StpProtocol::new(switch_count)),
            ProtocolKind::PathVector => Box::new(crate::pathvector::PvProtocol::new(switch_count)),
        }
    }
}

/// A distributed control protocol: one state machine per switch, driven by
/// link events, peer messages and stall timers; every message the protocol
/// wants delivered is appended to `out` as a `(destination, payload)`
/// pair, in send order. The caller owns transport — segmentation into
/// control cells, loss, delay — and delivery.
pub trait ControlProtocol {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// A local link-state change observed at `sw` (boot, link up, link
    /// down), typically from a monitor verdict.
    fn on_link_event(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        ev: LinkEvent,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    );

    /// A peer protocol message arrived at `sw`.
    fn on_message(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        msg: ProtocolMsg,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    );

    /// The stall-retry timer fired for `sw`: the epoch drained without
    /// agreement and `sw` is the designated re-initiator. The protocol
    /// must make fresh progress (a new epoch / generation).
    fn on_timer(&mut self, now: SimTime, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>);

    /// Feeds one queued [`Input`] to `sw`'s instance: the drivers' one
    /// dispatch.
    fn on_input(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        input: Input,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        match input {
            Input::Event(ev) => self.on_link_event(now, sw, ev, out),
            Input::Message(msg) => self.on_message(now, sw, msg, out),
            Input::Timer => self.on_timer(now, sw, out),
        }
    }

    /// The largest epoch tag any switch has reached — monotonically
    /// non-decreasing; growth past the last installed configuration opens
    /// an epoch. Protocols without native tags synthesize one from their
    /// generation counter.
    fn progress_tag(&self) -> Tag;

    /// This protocol's own convergence predicate over the surviving
    /// topology: `Ok` with the largest agreed tag when every live
    /// partition agrees, `Err` with the lowest live switch of the first
    /// disagreeing partition (the stall-retry candidate).
    fn convergence(&self, lv: &LiveView<'_>) -> Result<Tag, SwitchId>;

    /// Switch `sw`'s converged adjacency view as normalized sorted edges,
    /// when the protocol carries full-topology views (`None` for rivals
    /// that only hold routes or trees).
    fn view_edges(&self, sw: SwitchId) -> Option<Vec<Edge>>;

    /// Total protocol messages sent so far, across all switches.
    fn messages_sent(&self) -> u64;

    /// Rebuilds the protocol's routing structure for the agreed surviving
    /// topology (`live` switches, `edges` adjacency). Called once per
    /// route installation, before any [`Self::switch_route`] query.
    fn prepare_routes(&mut self, switch_count: usize, live: &[SwitchId], edges: &[Edge]);

    /// The switch path this protocol routes `src → dst` over, inclusive of
    /// both endpoints, or `None` when it holds no route.
    fn switch_route(
        &mut self,
        topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>>;

    /// Drops any memoized routes crossing the `a — b` adjacency.
    fn invalidate_edge(&mut self, a: SwitchId, b: SwitchId);

    /// Drops every memoized route.
    fn invalidate_all(&mut self);
}

/// The paper's §2 protocol behind the trait: one [`SwitchAgent`] per
/// switch, and the agents' only owner and only driver (the agent's
/// `on_event` and `handle` are crate-private). Link events go to
/// `on_event` and messages to `handle`; replies come back in the agent's
/// send order, and a timer kick is a [`LinkEvent::Boot`] (re-initiate
/// with a fresh tag).
pub struct UpDownProtocol {
    agents: Vec<SwitchAgent>,
    cache: RouteCache,
}

impl UpDownProtocol {
    /// One idle agent per switch, all at [`Tag::ZERO`].
    pub fn new(switch_count: usize) -> Self {
        UpDownProtocol {
            agents: (0..switch_count)
                .map(|s| SwitchAgent::new(SwitchId(s as u16)))
                .collect(),
            cache: RouteCache::new(),
        }
    }

    /// Switch `sw`'s agent, for what only up\*/down\* can answer: the
    /// full [`crate::agent::TopoView`], counters such as reconfigurations
    /// initiated.
    pub(crate) fn agent(&self, sw: SwitchId) -> &SwitchAgent {
        &self.agents[sw.0 as usize]
    }
}

impl ControlProtocol for UpDownProtocol {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::UpDown
    }

    fn on_link_event(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        ev: LinkEvent,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        self.agents[sw.0 as usize].on_event(now, ev, out);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        msg: ProtocolMsg,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        if let ProtocolMsg::UpDown(m) = msg {
            self.agents[sw.0 as usize].handle(now, m, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        self.on_link_event(now, sw, LinkEvent::Boot, out);
    }

    fn progress_tag(&self) -> Tag {
        self.agents
            .iter()
            .map(SwitchAgent::tag)
            .max()
            .unwrap_or(Tag::ZERO)
    }

    fn convergence(&self, lv: &LiveView<'_>) -> Result<Tag, SwitchId> {
        uniform_views(
            lv,
            &mut |s| self.agents[s.0 as usize].tag(),
            &mut |s, first, expected| {
                let view = self.agents[s.0 as usize].public().view.as_ref();
                view.is_some_and(|v| v.tag == first && v.edges == expected)
            },
        )
    }

    fn view_edges(&self, sw: SwitchId) -> Option<Vec<Edge>> {
        let view = self.agents.get(sw.0 as usize)?.public().view.as_ref();
        view.map(|v| v.edges.clone())
    }

    fn messages_sent(&self) -> u64 {
        self.agents.iter().map(|a| a.public().messages_sent).sum()
    }

    fn prepare_routes(&mut self, switch_count: usize, live: &[SwitchId], edges: &[Edge]) {
        self.cache
            .set_forest(canonical_forest(switch_count, live, edges));
    }

    fn switch_route(
        &mut self,
        topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>> {
        self.cache.route(topo, src, dst)
    }

    fn invalidate_edge(&mut self, a: SwitchId, b: SwitchId) {
        self.cache.invalidate_edge(a, b);
    }

    fn invalidate_all(&mut self) {
        self.cache.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_topology::{generators, LinkState};
    use std::collections::VecDeque;

    /// Delivers everything queued, first in first out, dropping messages
    /// with no working link to their destination; logs every send.
    fn settle(
        p: &mut dyn ControlProtocol,
        topo: &Topology,
        queue: &mut VecDeque<(SwitchId, Input)>,
        log: &mut Vec<String>,
    ) {
        let mut out = Vec::new();
        while let Some((sw, input)) = queue.pop_front() {
            p.on_input(SimTime::ZERO, sw, input, &mut out);
            for (to, m) in out.drain(..) {
                log.push(format!("{sw}->{to} {m:?}"));
                if !topo.links_between(sw, to).is_empty() {
                    queue.push_back((to, Input::Message(m)));
                }
            }
        }
    }

    /// Boots `kind` on a ring of five, kills the 0 — 1 adjacency with
    /// `down` at both ends, and settles: every message sent, in order,
    /// then the protocol's progress tag, message count, convergence and
    /// routes between every pair of switches.
    fn after_kill(kind: ProtocolKind, down: fn(SwitchId) -> LinkEvent) -> String {
        let mut topo = generators::ring(5);
        let mut p = kind.build(topo.switch_count());
        let (mut queue, mut log) = (VecDeque::new(), Vec::new());
        for (link, a, b) in topo.switch_links() {
            queue.push_back((a, Input::Event(LinkEvent::Up { link, neighbor: b })));
            queue.push_back((b, Input::Event(LinkEvent::Up { link, neighbor: a })));
        }
        settle(p.as_mut(), &topo, &mut queue, &mut log);
        let link = topo.links_between(SwitchId(0), SwitchId(1))[0];
        topo.set_link_state(link, LinkState::Dead);
        queue.push_back((SwitchId(0), Input::Event(down(SwitchId(1)))));
        queue.push_back((SwitchId(1), Input::Event(down(SwitchId(0)))));
        settle(p.as_mut(), &topo, &mut queue, &mut log);
        let lv = LiveView::all_live(&topo);
        let live: Vec<SwitchId> = topo.switches().collect();
        p.prepare_routes(live.len(), &live, &lv.expected_edges(&live));
        let routes: Vec<_> = live
            .iter()
            .flat_map(|&s| live.iter().map(move |&t| (s, t)))
            .map(|(s, t)| p.switch_route(&topo, s, t))
            .collect();
        format!(
            "{log:#?}\ntag {:?} sent {} converged {:?}\nroutes {routes:?}",
            p.progress_tag(),
            p.messages_sent(),
            p.convergence(&lv),
        )
    }

    #[test]
    fn rivals_treat_a_delta_down_as_a_plain_down() {
        let plain = |neighbor| LinkEvent::Down { neighbor };
        let delta = |neighbor| LinkEvent::DownDelta { neighbor };
        for kind in [ProtocolKind::SpanningTree, ProtocolKind::PathVector] {
            assert_eq!(
                after_kill(kind, delta),
                after_kill(kind, plain),
                "{}: a delta down differs from a plain down",
                kind.name()
            );
        }
        // The comparison sees the difference where there is one:
        // up*/down* floods a delta instead of reconfiguring.
        assert_ne!(
            after_kill(ProtocolKind::UpDown, delta),
            after_kill(ProtocolKind::UpDown, plain)
        );
    }
}
