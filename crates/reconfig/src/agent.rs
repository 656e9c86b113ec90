//! The per-switch reconfiguration protocol state machine.
//!
//! Each switch is a pure state machine exchanging messages with its
//! physical neighbours only; whoever owns the agents owns the transport.
//! The implementation follows §2's three phases
//! (propagation / collection / distribution) with epoch tags for overlapping
//! reconfigurations: "a switch that sees multiple configurations
//! participates in the one with the largest tag and eventually ignores all
//! others."

use crate::Tag;
use an2_sim::SimTime;
use an2_topology::{LinkId, SwitchId};
use std::collections::{BTreeMap, BTreeSet};

/// An undirected switch-to-switch edge, stored with the lower id first.
pub type Edge = (SwitchId, SwitchId);

fn edge(a: SwitchId, b: SwitchId) -> Edge {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Messages exchanged during reconfiguration (plus harness events).
#[derive(Debug, Clone)]
pub enum Msg {
    /// Harness: the switch powers on and initiates a reconfiguration.
    Boot,
    /// Harness: a link to `neighbor` came up (or exists at boot).
    LinkUp {
        /// The physical link.
        link: LinkId,
        /// The switch at the far end.
        neighbor: SwitchId,
    },
    /// Harness: the link to `neighbor` was declared dead.
    LinkDown {
        /// The switch at the far end of the dead link.
        neighbor: SwitchId,
    },
    /// Propagation phase: invitation to join the tag's spanning tree.
    Invite {
        /// The reconfiguration this invitation belongs to.
        tag: Tag,
        /// The inviting switch.
        from: SwitchId,
    },
    /// Acknowledgment of an invitation.
    InviteAck {
        /// The reconfiguration being acknowledged.
        tag: Tag,
        /// The acknowledging switch.
        from: SwitchId,
        /// Whether the invitation was accepted (sender became our child).
        accepted: bool,
    },
    /// Collection phase: a subtree's topology report, sent child → parent.
    Report {
        /// The reconfiguration this report belongs to.
        tag: Tag,
        /// The child sending the report.
        from: SwitchId,
        /// All switch-to-switch edges known in the subtree.
        edges: Vec<Edge>,
        /// Tree structure of the subtree as (child, parent) pairs.
        parents: Vec<(SwitchId, SwitchId)>,
    },
    /// Distribution phase: the complete topology, sent parent → child.
    Distribute {
        /// The reconfiguration this result belongs to.
        tag: Tag,
        /// Every switch-to-switch edge in the network.
        edges: Vec<Edge>,
        /// The complete spanning tree as (child, parent) pairs.
        parents: Vec<(SwitchId, SwitchId)>,
    },
    /// Harness: the link to `neighbor` died, but handle it with the §2
    /// *reduced-disruption* extension — originate an incremental delta
    /// flood instead of a full reconfiguration.
    LinkDownDelta {
        /// The switch at the far end of the dead link.
        neighbor: SwitchId,
    },
    /// §2 extension: an incremental topology update, flooded through the
    /// network. Duplicate-suppressed by `(origin, seq)`.
    Delta {
        /// The switch that observed the change.
        origin: SwitchId,
        /// The origin's delta sequence number.
        seq: u64,
        /// The edge that went down.
        edge: Edge,
    },
}

/// The topology view a switch holds after a completed reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoView {
    /// The reconfiguration that produced this view.
    pub tag: Tag,
    /// All switch-to-switch edges, normalized and sorted.
    pub edges: Vec<Edge>,
    /// The spanning tree built during propagation, as (child, parent).
    pub parents: Vec<(SwitchId, SwitchId)>,
    /// When this switch learned the complete topology.
    pub completed_at: SimTime,
}

/// The agent's observable state, read through [`SwitchAgent::public`].
#[derive(Debug, Default)]
pub struct AgentPublic {
    /// The switch's current topology view, if any reconfiguration has
    /// completed.
    pub view: Option<TopoView>,
    /// Protocol messages sent (invites, acks, reports, distributes).
    pub messages_sent: u64,
    /// Reconfigurations this switch initiated.
    pub initiated: u64,
    /// Incremental delta updates applied to the view (§2 extension).
    pub deltas_applied: u64,
}

#[derive(Debug)]
struct Participation {
    parent: Option<SwitchId>,
    awaiting_acks: BTreeSet<SwitchId>,
    children: BTreeSet<SwitchId>,
    awaiting_reports: BTreeSet<SwitchId>,
    edges: BTreeSet<Edge>,
    parents: Vec<(SwitchId, SwitchId)>,
    reported: bool,
}

/// The reconfiguration state machine for one switch.
pub struct SwitchAgent {
    id: SwitchId,
    /// Every neighbour ever announced, and whether the link to it is up.
    neighbors: BTreeMap<SwitchId, bool>,
    tag: Tag,
    part: Option<Participation>,
    public: AgentPublic,
    /// This switch's own delta sequence counter (§2 extension).
    delta_seq: u64,
    /// Highest delta sequence seen per origin (duplicate suppression).
    delta_seen: BTreeMap<SwitchId, u64>,
}

impl SwitchAgent {
    /// Creates an idle agent for switch `id`.
    pub fn new(id: SwitchId) -> Self {
        SwitchAgent {
            id,
            neighbors: BTreeMap::new(),
            tag: Tag::ZERO,
            part: None,
            public: AgentPublic::default(),
            delta_seq: 0,
            delta_seen: BTreeMap::new(),
        }
    }

    /// The switch this agent runs on.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// The largest reconfiguration tag this agent has seen (its current
    /// epoch). Monotonically non-decreasing.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The agent's observable state: topology view and counters.
    pub fn public(&self) -> &AgentPublic {
        &self.public
    }

    /// Removes `edge` from the stored topology view (idempotent) and counts
    /// the application.
    fn apply_delta(&mut self, edge: Edge) {
        if let Some(view) = &mut self.public.view {
            let before = view.edges.len();
            view.edges.retain(|&e| e != edge);
            if view.edges.len() != before {
                self.public.deltas_applied += 1;
            }
        }
    }

    /// Floods a delta to every working neighbour.
    fn flood_delta(
        &mut self,
        out: &mut Vec<(SwitchId, Msg)>,
        origin: SwitchId,
        seq: u64,
        edge: Edge,
    ) {
        for n in self.up_neighbors() {
            self.send(out, n, Msg::Delta { origin, seq, edge });
        }
    }

    fn up_neighbors(&self) -> Vec<SwitchId> {
        self.neighbors
            .iter()
            .filter(|&(_, &up)| up)
            .map(|(&s, _)| s)
            .collect()
    }

    fn own_edges(&self) -> BTreeSet<Edge> {
        self.up_neighbors()
            .into_iter()
            .map(|n| edge(self.id, n))
            .collect()
    }

    fn send(&mut self, out: &mut Vec<(SwitchId, Msg)>, to: SwitchId, msg: Msg) {
        if !self.neighbors[&to] {
            return; // link died under us; the message would be lost anyway
        }
        self.public.messages_sent += 1;
        out.push((to, msg));
    }

    fn start_reconfig(&mut self, now: SimTime, out: &mut Vec<(SwitchId, Msg)>) {
        self.tag = self.tag.successor(self.id);
        self.public.initiated += 1;
        let invitees: BTreeSet<SwitchId> = self.up_neighbors().into_iter().collect();
        self.part = Some(Participation {
            parent: None,
            awaiting_acks: invitees.clone(),
            children: BTreeSet::new(),
            awaiting_reports: BTreeSet::new(),
            edges: self.own_edges(),
            parents: Vec::new(),
            reported: false,
        });
        let tag = self.tag;
        for n in invitees {
            self.send(out, n, Msg::Invite { tag, from: self.id });
        }
        self.try_advance(now, out);
    }

    fn join(&mut self, now: SimTime, out: &mut Vec<(SwitchId, Msg)>, tag: Tag, parent: SwitchId) {
        self.tag = tag;
        let invitees: BTreeSet<SwitchId> = self
            .up_neighbors()
            .into_iter()
            .filter(|&n| n != parent)
            .collect();
        self.part = Some(Participation {
            parent: Some(parent),
            awaiting_acks: invitees.clone(),
            children: BTreeSet::new(),
            awaiting_reports: BTreeSet::new(),
            edges: self.own_edges(),
            parents: Vec::new(),
            reported: false,
        });
        self.send(
            out,
            parent,
            Msg::InviteAck {
                tag,
                from: self.id,
                accepted: true,
            },
        );
        for n in invitees {
            self.send(out, n, Msg::Invite { tag, from: self.id });
        }
        self.try_advance(now, out);
    }

    /// Collection / completion: once every invited neighbour has answered
    /// and every child has reported, a non-root reports to its parent and
    /// the root completes and distributes.
    fn try_advance(&mut self, now: SimTime, out: &mut Vec<(SwitchId, Msg)>) {
        let Some(part) = &self.part else { return };
        if part.reported || !part.awaiting_acks.is_empty() || !part.awaiting_reports.is_empty() {
            return;
        }
        let tag = self.tag;
        let edges: Vec<Edge> = part.edges.iter().copied().collect();
        let parents = part.parents.clone();
        match part.parent {
            Some(parent) => {
                self.send(
                    out,
                    parent,
                    Msg::Report {
                        tag,
                        from: self.id,
                        edges,
                        parents,
                    },
                );
                if let Some(p) = &mut self.part {
                    p.reported = true;
                }
            }
            None => {
                // Root: the reconfiguration is complete.
                if let Some(p) = &mut self.part {
                    p.reported = true;
                }
                self.complete_and_distribute(now, out, tag, edges, parents);
            }
        }
    }

    fn complete_and_distribute(
        &mut self,
        now: SimTime,
        out: &mut Vec<(SwitchId, Msg)>,
        tag: Tag,
        edges: Vec<Edge>,
        parents: Vec<(SwitchId, SwitchId)>,
    ) {
        self.public.view = Some(TopoView {
            tag,
            edges: edges.clone(),
            parents: parents.clone(),
            completed_at: now,
        });
        let children: Vec<SwitchId> = self
            .part
            .as_ref()
            .map(|p| p.children.iter().copied().collect())
            .unwrap_or_default();
        for c in children {
            self.send(
                out,
                c,
                Msg::Distribute {
                    tag,
                    edges: edges.clone(),
                    parents: parents.clone(),
                },
            );
        }
    }

    /// Runs the state machine on one message, transport-free: every message
    /// the agent wants delivered is appended to `out` as a `(destination,
    /// payload)` pair, in send order. The caller owns delivery — the
    /// harness queues each pair for link latency plus processing time
    /// later, while the embedded control plane segments the payload into
    /// control cells and ships them over the (lossy) fabric links.
    pub fn handle(&mut self, now: SimTime, msg: Msg, out: &mut Vec<(SwitchId, Msg)>) {
        match msg {
            Msg::Boot => self.start_reconfig(now, out),
            Msg::LinkUp { neighbor, .. } => {
                self.neighbors.insert(neighbor, true);
                self.start_reconfig(now, out);
            }
            Msg::LinkDown { neighbor } => {
                if let Some(up) = self.neighbors.get_mut(&neighbor) {
                    if *up {
                        *up = false;
                        self.start_reconfig(now, out);
                    }
                }
            }
            Msg::Invite { tag, from } => {
                // Drop protocol traffic from neighbours we consider dead.
                if self.neighbors.get(&from) != Some(&true) {
                    return;
                }
                if tag > self.tag {
                    self.join(now, out, tag, from);
                } else if tag == self.tag {
                    self.send(
                        out,
                        from,
                        Msg::InviteAck {
                            tag,
                            from: self.id,
                            accepted: false,
                        },
                    );
                }
                // tag < self.tag: a stale configuration — ignore entirely.
            }
            Msg::InviteAck {
                tag,
                from,
                accepted,
            } => {
                if tag != self.tag {
                    return;
                }
                let Some(part) = &mut self.part else { return };
                if !part.awaiting_acks.remove(&from) {
                    return;
                }
                if accepted {
                    part.children.insert(from);
                    part.awaiting_reports.insert(from);
                }
                self.try_advance(now, out);
            }
            Msg::Report {
                tag,
                from,
                edges,
                parents,
            } => {
                if tag != self.tag {
                    return;
                }
                let me = self.id;
                let Some(part) = &mut self.part else { return };
                if !part.awaiting_reports.remove(&from) {
                    return;
                }
                part.edges.extend(edges);
                part.parents.extend(parents);
                part.parents.push((from, me));
                self.try_advance(now, out);
            }
            Msg::Distribute {
                tag,
                edges,
                parents,
            } => {
                if tag != self.tag {
                    return;
                }
                self.complete_and_distribute(now, out, tag, edges, parents);
            }
            Msg::LinkDownDelta { neighbor } => {
                let Some(up) = self.neighbors.get_mut(&neighbor) else {
                    return;
                };
                if !*up {
                    return;
                }
                *up = false;
                // No reconfiguration: patch the local view and flood a
                // delta. The spanning tree is left as-is — the §2 trade-off:
                // "it should often be possible to restrict participation to
                // switches near the failing component".
                let dead = edge(self.id, neighbor);
                self.delta_seq += 1;
                let seq = self.delta_seq;
                self.apply_delta(dead);
                let me = self.id;
                self.delta_seen.insert(me, seq);
                self.flood_delta(out, me, seq, dead);
            }
            Msg::Delta { origin, seq, edge } => {
                let seen = self.delta_seen.get(&origin).copied().unwrap_or(0);
                if seq <= seen {
                    return; // duplicate: the flood already passed through
                }
                self.delta_seen.insert(origin, seq);
                self.apply_delta(edge);
                self.flood_delta(out, origin, seq, edge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ReconfigNet;
    use an2_topology::generators;

    // Two-switch behaviour runs on the harness transport; single-agent
    // behaviour calls `handle` directly. Full networks are covered in
    // harness.rs.
    fn two_switch_net() -> ReconfigNet {
        ReconfigNet::with_defaults(generators::line(2), 1)
    }

    fn view(net: &ReconfigNet, s: u16) -> TopoView {
        net.view_of(SwitchId(s))
            .cloned()
            .expect("switch has a view")
    }

    #[test]
    fn two_switches_agree_on_topology() {
        let mut net = two_switch_net();
        net.run_to_quiescence();
        let va = view(&net, 0);
        let vb = view(&net, 1);
        assert_eq!(va.tag, vb.tag);
        assert_eq!(va.edges, vec![(SwitchId(0), SwitchId(1))]);
        assert_eq!(va.edges, vb.edges);
        // Both switches initiated (each saw a LinkUp); the higher tag won.
        assert_eq!(va.tag.epoch, 1);
    }

    #[test]
    fn isolated_switch_completes_with_empty_topology() {
        let mut a = SwitchAgent::new(SwitchId(4));
        let mut out = Vec::new();
        a.handle(SimTime::ZERO, Msg::Boot, &mut out);
        assert!(out.is_empty(), "nobody to invite");
        let v = a.public().view.clone().unwrap();
        assert!(v.edges.is_empty());
        assert!(v.parents.is_empty());
        assert_eq!(v.tag.initiator, SwitchId(4));
    }

    #[test]
    fn link_down_triggers_new_epoch() {
        let mut net = two_switch_net();
        net.run_to_quiescence();
        let epoch_before = view(&net, 0).tag.epoch;
        // Tell both ends the link died.
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link(link);
        net.run_to_quiescence();
        let va = view(&net, 0);
        let vb = view(&net, 1);
        assert!(va.tag.epoch > epoch_before);
        assert!(vb.tag.epoch > epoch_before);
        assert!(va.edges.is_empty(), "partitioned: no shared edges");
        assert!(vb.edges.is_empty());
    }

    #[test]
    fn duplicate_link_down_is_idempotent() {
        let mut a = SwitchAgent::new(SwitchId(0));
        let mut out = Vec::new();
        let up = Msg::LinkUp {
            link: LinkId(0),
            neighbor: SwitchId(1),
        };
        a.handle(SimTime::ZERO, up, &mut out);
        let initiated_before = a.public().initiated;
        for _ in 0..2 {
            let down = Msg::LinkDown {
                neighbor: SwitchId(1),
            };
            a.handle(SimTime::from_nanos(1), down, &mut out);
        }
        let initiated_after = a.public().initiated;
        assert_eq!(
            initiated_after - initiated_before,
            1,
            "second LinkDown for a dead link must not reconfigure again"
        );
    }

    #[test]
    fn edge_helper_normalizes() {
        assert_eq!(edge(SwitchId(5), SwitchId(2)), (SwitchId(2), SwitchId(5)));
        assert_eq!(edge(SwitchId(1), SwitchId(1)), (SwitchId(1), SwitchId(1)));
    }
}
