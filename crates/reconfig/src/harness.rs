//! Runs the paper's reconfiguration protocol over a physical [`Topology`]
//! on an ideal transport, injects failures, and checks convergence — the
//! apparatus for the reconfiguration experiments (E1, E12).
//!
//! The harness is a driver, as the embedded control plane in
//! `an2::network::control` is: it owns one [`ControlProtocol`] of any
//! [`ProtocolKind`] and one heap of [`Input`]s keyed `(deliver_at,
//! send_seq)`. It pops the earliest, hands it to
//! [`ControlProtocol::on_input`], and queues every reply
//! [`LINK_LATENCY`] plus [`PROCESSING`] later. Failures are queued as
//! [`LinkEvent`]s at the current instant. Equal-time inputs are delivered
//! in send order, so a run is a pure function of the topology and the
//! failures injected. (The embedded plane drives the same protocol over
//! lossy 53-byte control cells instead.) What only the paper's protocol
//! can answer — views, completion times, propagation trees — goes through
//! [`ControlProtocol::as_updown`] and reads `None` (or `false`) for a
//! rival.

use crate::agent::TopoView;
use crate::protocol::{ControlProtocol, Input, LinkEvent, ProtocolKind};
use crate::quiesce::{self, Edge};
use an2_sim::{SimDuration, SimTime};
use an2_topology::{LinkId, LinkState, Node, SpanningTree, SwitchId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Per-message software processing time on a line-card CPU. AN1's
/// measured sub-200 ms reconfigurations imply per-message costs in the
/// high-microsecond range; 100 µs is deliberately conservative. The
/// embedded control plane charges the same time per message.
pub const PROCESSING: SimDuration = SimDuration::from_micros(100);

/// One-way latency of every switch-to-switch link on the ideal transport:
/// SRC's LAN is building-scale, so 1 µs. The fabric times its links in
/// slots instead (`an2::FabricConfig::link_latency_slots`).
pub const LINK_LATENCY: SimDuration = SimDuration::from_micros(1);

/// Inputs [`ReconfigNet::run_to_quiescence`] may deliver per switch per
/// link before it reports a [`Storm`]. No test or experiment needs more
/// than 3.5 (seven on a two-switch line); the most any run delivers is
/// 1 920, on 32 switches and 64 links.
pub const STORM_DELIVERIES: u64 = 64;

/// A run of the ideal transport that spent its delivery budget with
/// inputs still in flight: the protocol did not quiesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// Inputs delivered before the run gave up.
    pub delivered: u64,
    /// Inputs still queued when it did.
    pub in_flight: usize,
}

/// An input on the ideal transport, due at `at`.
struct InFlight {
    at: SimTime,
    seq: u64,
    to: SwitchId,
    input: Input,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    // Reversed so the max-heap pops the earliest delivery; equal instants
    // pop in send order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A control protocol over a physical topology on perfect links.
pub struct ReconfigNet {
    topo: Topology,
    protocol: Box<dyn ControlProtocol>,
    /// Switches whose plug was pulled, in kill order.
    crashed: Vec<SwitchId>,
    queue: BinaryHeap<InFlight>,
    now: SimTime,
    next_seq: u64,
}

impl ReconfigNet {
    /// Builds the network running `kind` and boots every switch at time
    /// zero (each switch learns its neighbours, as at power-on).
    pub fn new(topo: Topology, kind: ProtocolKind) -> Self {
        let mut boots = Vec::with_capacity(topo.link_count());
        boots.extend(
            topo.switch_links()
                .filter(|&(l, _, _)| topo.link_state(l) == LinkState::Working),
        );
        let mut net = ReconfigNet {
            protocol: kind.build(topo.switch_count()),
            topo,
            crashed: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        };
        // Announce every working inter-switch adjacency to both endpoints.
        for (link, a, b) in boots {
            net.send_now(a, LinkEvent::Up { link, neighbor: b });
            net.send_now(b, LinkEvent::Up { link, neighbor: a });
        }
        net
    }

    /// [`ReconfigNet::new`] running the paper's up\*/down\* protocol.
    ///
    /// `seed` is unread: nothing on the ideal transport is random. It stays
    /// in the signature because every caller (experiments, the benchmark
    /// of record) passes one.
    pub fn with_defaults(topo: Topology, _seed: u64) -> Self {
        ReconfigNet::new(topo, ProtocolKind::UpDown)
    }

    /// Queues `input` for delivery to `to` at `at`.
    fn send_at(&mut self, at: SimTime, to: SwitchId, input: Input) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(InFlight { at, seq, to, input });
    }

    /// Queues a local link event for `to` at the current instant.
    fn send_now(&mut self, to: SwitchId, ev: LinkEvent) {
        self.send_at(self.now, to, Input::Event(ev));
    }

    /// Runs the protocol until nothing remains in flight.
    ///
    /// # Errors
    ///
    /// [`Storm`] once the inputs delivered plus those still queued exceed
    /// [`STORM_DELIVERIES`] per switch per link. Every queued input of a
    /// run that quiesces is delivered in the end, so the bound is on its
    /// deliveries; a protocol that keeps answering itself fails here,
    /// however fast its queue grows, instead of running on. The inputs
    /// still queued stay queued.
    pub fn run_to_quiescence(&mut self) -> Result<(), Storm> {
        let scale = self.topo.switch_count() as u64 * self.topo.link_count() as u64;
        self.run_within(STORM_DELIVERIES * scale.max(1))
    }

    /// [`ReconfigNet::run_to_quiescence`] with a budget of `budget` inputs.
    fn run_within(&mut self, budget: u64) -> Result<(), Storm> {
        let mut out = Vec::new();
        let mut delivered = 0;
        while let Some(m) = self.queue.pop() {
            delivered += 1;
            debug_assert!(m.at >= self.now, "message from the past");
            self.now = m.at;
            self.protocol.on_input(m.at, m.to, m.input, &mut out);
            for (to, reply) in out.drain(..) {
                self.send_at(m.at + LINK_LATENCY + PROCESSING, to, Input::Message(reply));
            }
            let in_flight = self.queue.len();
            if delivered + in_flight as u64 > budget {
                return Err(Storm {
                    delivered,
                    in_flight,
                });
            }
        }
        Ok(())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The physical topology (including failures injected so far).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The protocol instance this network drives.
    pub fn protocol(&self) -> &dyn ControlProtocol {
        self.protocol.as_ref()
    }

    /// Rebuilds the protocol's routes for the surviving topology: every
    /// switch whose plug was not pulled, over the working adjacencies
    /// among them. Call before [`ReconfigNet::switch_route`].
    pub fn install_routes(&mut self) {
        let live: Vec<SwitchId> = self
            .topo
            .switches()
            .filter(|s| !self.crashed.contains(s))
            .collect();
        let edges = self.actual_edges();
        self.protocol
            .prepare_routes(self.topo.switch_count(), &live, &edges);
    }

    /// The switch path the protocol routes `src → dst` over, as of the
    /// last [`ReconfigNet::install_routes`], or `None` when it has none.
    pub fn switch_route(&mut self, src: SwitchId, dst: SwitchId) -> Option<Vec<SwitchId>> {
        self.protocol.switch_route(&self.topo, src, dst)
    }

    /// Kills a physical link and notifies both endpoint switches. If a
    /// parallel link between the same pair is still working, the logical
    /// adjacency survives and no notification is sent (the line card fails
    /// over transparently).
    pub fn kill_link(&mut self, link: LinkId) {
        self.cut(link, |neighbor| LinkEvent::Down { neighbor });
    }

    /// Kills a physical link but handles it with the §2 reduced-disruption
    /// extension: the endpoints flood an incremental delta instead of
    /// triggering a full reconfiguration. Stale spanning-tree state is the
    /// documented trade-off.
    pub fn kill_link_delta(&mut self, link: LinkId) {
        self.cut(link, |neighbor| LinkEvent::DownDelta { neighbor });
    }

    fn cut(&mut self, link: LinkId, event: fn(SwitchId) -> LinkEvent) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        self.notify_down(&[link], event, None);
    }

    /// Pulls the plug on a switch: every incident link dies and all its
    /// neighbours are notified (the victim itself is silenced — dead
    /// switches do not run the protocol, so its own notifications are
    /// irrelevant).
    pub fn kill_switch(&mut self, victim: SwitchId) {
        let incident: Vec<LinkId> = self
            .topo
            .working_links_of(Node::Switch(victim))
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        self.topo.kill_switch(victim);
        self.crashed.push(victim);
        self.notify_down(
            &incident,
            |neighbor| LinkEvent::Down { neighbor },
            Some(victim),
        );
    }

    /// The one notify path for dead links: for each of `links` (already
    /// dead) whose adjacency no working link still carries, queues
    /// `event(far end)` at both of its switches except `silenced`, in link
    /// order.
    fn notify_down(
        &mut self,
        links: &[LinkId],
        event: fn(SwitchId) -> LinkEvent,
        silenced: Option<SwitchId>,
    ) {
        for &link in links {
            let (ea, eb) = self.topo.endpoints(link);
            let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) else {
                continue;
            };
            if !self.topo.links_between(a, b).is_empty() {
                continue;
            }
            for (sw, other) in [(a, b), (b, a)] {
                if Some(sw) != silenced {
                    self.send_now(sw, event(other));
                }
            }
        }
    }

    /// The switch-to-switch edges that actually work right now.
    pub fn actual_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for s in self.topo.switches() {
            for t in self.topo.switch_neighbors(s) {
                if s < t {
                    edges.push((s, t));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// A switch's current topology view, if any reconfiguration has
    /// completed there. `None` under a rival, which carries no view.
    pub fn view_of(&self, s: SwitchId) -> Option<&TopoView> {
        let updown = self.protocol.as_updown()?;
        updown.agent(s).public().view.as_ref()
    }

    /// The (sorted, deduplicated) edges of a switch's current topology
    /// view, if it has one — for external consistency checks. `None`
    /// under a rival.
    pub fn view_edges_of(&self, s: SwitchId) -> Option<Vec<Edge>> {
        self.protocol.view_edges(s)
    }

    /// Whether every switch in the same partition as `reference` holds a
    /// topology view that (a) matches every other member's and (b) equals
    /// that partition's actual working edges. Built on the shared
    /// [`quiesce`] detector the embedded control plane and
    /// the chaos oracle use. Always `false` under a rival, whose switches
    /// hold no views.
    pub fn partition_converged(&self, reference: SwitchId) -> bool {
        let lv = quiesce::LiveView::all_live(&self.topo);
        let part = lv
            .live_partition_of(reference)
            .expect("reference switch exists");
        // View tags stand in for agent tags: a missing view reads as ZERO
        // and is then rejected by the view check, so agreement demands
        // every member completed the same reconfiguration.
        quiesce::partition_uniform(
            &lv,
            &part,
            &mut |s| self.view_of(s).map_or(crate::Tag::ZERO, |v| v.tag),
            &mut |s, _, expected| self.view_of(s).is_some_and(|v| v.edges == expected),
        )
        .is_ok()
    }

    /// Whether the whole network (assumed connected) has converged.
    pub fn converged(&self) -> bool {
        self.topo
            .switches()
            .next()
            .map(|s| self.topo.switches_connected() && self.partition_converged(s))
            .unwrap_or(true)
    }

    /// The instant the last switch in `reference`'s partition completed;
    /// `None` under a rival.
    pub fn last_completion(&self, reference: SwitchId) -> Option<SimTime> {
        let parts = self.topo.switch_partitions();
        let part = parts.iter().find(|p| p.contains(&reference))?;
        part.iter()
            .map(|&s| self.view_of(s).map(|v| v.completed_at))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Total protocol messages sent by all switches so far.
    pub fn total_messages(&self) -> u64 {
        self.protocol.messages_sent()
    }

    /// Total reconfigurations initiated across all switches; 0 under a
    /// rival, which initiates none.
    pub fn total_initiated(&self) -> u64 {
        let Some(updown) = self.protocol.as_updown() else {
            return 0;
        };
        self.topo
            .switches()
            .map(|s| updown.agent(s).public().initiated)
            .sum()
    }

    /// Reconstructs the propagation-order spanning tree from the converged
    /// view of `reference`'s partition.
    ///
    /// # Panics
    ///
    /// Panics if the switch has no view yet, as under a rival.
    pub fn spanning_tree(&self, reference: SwitchId) -> SpanningTree {
        let view = self
            .view_of(reference)
            .expect("switch has no topology view yet");
        SpanningTree::from_parents(
            view.tag.initiator,
            self.topo.switch_count(),
            view.parents.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Msg;
    use crate::protocol::ProtocolMsg;
    use an2_topology::generators;

    fn converge(topo: Topology, seed: u64) -> ReconfigNet {
        let mut net = ReconfigNet::with_defaults(topo, seed);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.converged(), "initial boot must converge");
        net
    }

    #[test]
    fn a_spent_delivery_budget_is_a_storm_and_keeps_the_queue() {
        let mut net = ReconfigNet::with_defaults(generators::ring(4), 1);
        let storm = net
            .run_within(1)
            .expect_err("eight boots exceed a budget of one");
        assert_eq!(storm.delivered, 1);
        assert_eq!(storm.in_flight, net.queue.len());
        assert!(storm.in_flight >= 7, "the other boots stay queued");
        // Resumed, the run reaches what an uninterrupted one does.
        net.run_to_quiescence().expect("the protocol quiesces");
        let whole = converge(generators::ring(4), 1);
        assert!(net.converged());
        assert_eq!(net.total_messages(), whole.total_messages());
        assert_eq!(net.now(), whole.now());
    }

    #[test]
    fn rivals_quiesce_and_route_around_a_pulled_plug() {
        for kind in [ProtocolKind::SpanningTree, ProtocolKind::PathVector] {
            let mut net = ReconfigNet::new(generators::ring(5), kind);
            net.run_to_quiescence().expect("the protocol quiesces");
            let lv = quiesce::LiveView::all_live(&net.topo);
            assert!(net.protocol().convergence(&lv).is_ok(), "{kind:?} boot");
            assert!(net.protocol().as_updown().is_none());
            assert_eq!(net.view_edges_of(SwitchId(0)), None);
            assert!(!net.partition_converged(SwitchId(0)));
            net.kill_switch(SwitchId(0));
            net.run_to_quiescence().expect("the protocol quiesces");
            net.install_routes();
            assert_eq!(net.switch_route(SwitchId(0), SwitchId(0)), None);
            let around = net.switch_route(SwitchId(1), SwitchId(4));
            assert_eq!(
                around,
                Some(vec![SwitchId(1), SwitchId(2), SwitchId(3), SwitchId(4)]),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn ties_delivered_in_send_order() {
        let mut net = converge(generators::line(3), 1);
        let t = net.now() + SimDuration::from_nanos(100);
        let invite = Msg::Invite {
            tag: crate::Tag::ZERO,
            from: SwitchId(1),
        };
        // Events, messages and timer kicks share one heap and one order.
        net.send_at(t, SwitchId(2), Input::Event(LinkEvent::Boot));
        net.send_at(t, SwitchId(0), Input::Message(ProtocolMsg::UpDown(invite)));
        net.send_at(t, SwitchId(1), Input::Timer);
        // Sent last but due first: time outranks send order.
        let early = net.now() + SimDuration::from_nanos(50);
        net.send_at(early, SwitchId(1), Input::Event(LinkEvent::Boot));
        let order: Vec<(SimTime, u16, &str)> = std::iter::from_fn(|| net.queue.pop())
            .map(|m| {
                let kind = match m.input {
                    Input::Event(_) => "event",
                    Input::Message(_) => "message",
                    Input::Timer => "timer",
                };
                (m.at, m.to.0, kind)
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (early, 1, "event"),
                (t, 2, "event"),
                (t, 0, "message"),
                (t, 1, "timer")
            ],
            "equal-time inputs arrive in send order"
        );
    }

    #[test]
    fn time_only_moves_forward() {
        let mut net = ReconfigNet::with_defaults(generators::ring(6), 1);
        assert_eq!(net.now(), SimTime::ZERO);
        net.run_to_quiescence().expect("the protocol quiesces");
        let booted = net.now();
        assert!(booted > SimTime::ZERO);
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link(link);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.now() > booted);
        for s in net.topology().switches() {
            let done = net.view_of(s).expect("reconverged").completed_at;
            assert!(
                booted < done && done <= net.now(),
                "{s} completed at {done}"
            );
        }
    }

    #[test]
    fn quiescence_is_an_empty_queue() {
        let mut net = ReconfigNet::with_defaults(generators::ring(6), 1);
        assert!(!net.queue.is_empty(), "boot announcements are queued");
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.queue.is_empty());
        // Nothing in flight: running again delivers nothing and the clock
        // stays put.
        let (now, messages) = (net.now(), net.total_messages());
        net.run_to_quiescence().expect("the protocol quiesces");
        assert_eq!((net.now(), net.total_messages()), (now, messages));
    }

    #[test]
    fn boot_converges_on_varied_topologies() {
        for topo in [
            generators::line(5),
            generators::ring(8),
            generators::star(6),
            generators::tree(2, 3),
            generators::mesh(3, 3),
            generators::torus(3, 3),
            generators::src_installation(8, 0),
        ] {
            converge(topo, 42);
        }
    }

    #[test]
    fn boot_converges_on_random_topologies_many_seeds() {
        for seed in 0..10 {
            let mut rng = an2_sim::SimRng::new(seed);
            let topo = generators::random_connected(16, 12, &mut rng);
            converge(topo, seed);
        }
    }

    #[test]
    fn view_matches_actual_edges() {
        let net = converge(generators::ring(6), 7);
        let edges = net.actual_edges();
        assert_eq!(edges.len(), 6);
        for s in net.topology().switches() {
            assert_eq!(net.view_edges_of(s).unwrap(), edges);
        }
    }

    #[test]
    fn link_failure_reconfigures_quickly() {
        let mut net = converge(generators::src_installation(8, 0), 3);
        let t0 = net.now();
        // Kill a backbone ring link.
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link(link);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.converged(), "must reconverge after link failure");
        let done = net.last_completion(SwitchId(0)).unwrap();
        let elapsed = done.duration_since(t0);
        // The paper's AN1 demo: under 200 ms.
        assert!(
            elapsed < SimDuration::from_millis(200),
            "reconfiguration took {elapsed}"
        );
    }

    #[test]
    fn switch_failure_is_survived() {
        // "Pulling the plug on an arbitrary switch": every victim in turn.
        let topo = generators::src_installation(6, 0);
        for victim in topo.switches() {
            let mut net = converge(topo.clone(), 11);
            net.kill_switch(victim);
            net.run_to_quiescence().expect("the protocol quiesces");
            // The survivors' partition must agree on the reduced topology.
            let survivor = topo
                .switches()
                .find(|&s| s != victim)
                .expect("more than one switch");
            assert!(
                net.partition_converged(survivor),
                "killing {victim} left survivors inconsistent"
            );
        }
    }

    #[test]
    fn kill_switch_silences_the_victim_and_the_survivors_agree() {
        // A parallel pair to the victim: each of its dead links queues a
        // notification for the survivor and none for the victim.
        let mut topo = generators::ring(5);
        topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
        for victim in topo.switches() {
            let mut net = converge(topo.clone(), 31);
            let state = |net: &ReconfigNet| {
                let agent = net.protocol().as_updown().expect("up*/down*").agent(victim);
                let public = agent.public();
                (agent.tag(), public.view.clone(), public.messages_sent)
            };
            let before = state(&net);
            net.kill_switch(victim);
            net.run_to_quiescence().expect("the protocol quiesces");
            assert_eq!(
                state(&net),
                before,
                "{victim} ran after its plug was pulled"
            );
            let survivor = SwitchId((victim.0 + 1) % 5);
            assert!(net.partition_converged(survivor), "killing {victim}");
            assert_eq!(net.view_edges_of(survivor), Some(net.actual_edges()));
        }
    }

    #[test]
    fn partition_converges_per_side() {
        // A line partitions when the middle link dies.
        let mut net = converge(generators::line(4), 5);
        let link = net.topology().links_between(SwitchId(1), SwitchId(2))[0];
        net.kill_link(link);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.partition_converged(SwitchId(0)));
        assert!(net.partition_converged(SwitchId(3)));
        // Sides disagree (as they must: different partitions).
        assert_ne!(
            net.view_edges_of(SwitchId(0)),
            net.view_edges_of(SwitchId(3))
        );
    }

    #[test]
    fn overlapping_reconfigurations_converge() {
        // Kill two links at the same instant: two (or more) concurrent
        // initiators; epoch tags must sort it out.
        let mut net = converge(generators::torus(3, 3), 13);
        let l1 = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        let l2 = net.topology().links_between(SwitchId(4), SwitchId(5))[0];
        net.kill_link(l1);
        net.kill_link(l2);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.converged());
    }

    #[test]
    fn propagation_tree_is_near_bfs() {
        // §2: "the tree obtained is usually very close to a breadth-first
        // tree". With uniform link latencies the propagation race gives a
        // BFS-depth tree; allow a small margin.
        let net = converge(generators::torus(4, 4), 17);
        let tree = net.spanning_tree(SwitchId(0));
        let root = tree.root();
        let bfs = SpanningTree::bfs(net.topology(), root);
        assert!(
            tree.height() <= bfs.height() + 1,
            "propagation tree height {} vs BFS {}",
            tree.height(),
            bfs.height()
        );
    }

    #[test]
    fn parallel_link_failover_without_reconfig() {
        let mut topo = generators::line(2);
        topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
        let mut net = converge(topo, 19);
        let initiated_before = net.total_initiated();
        // Kill one of the two parallel links: adjacency survives, so no
        // reconfiguration is triggered.
        let links = net.topology().links_between(SwitchId(0), SwitchId(1));
        assert_eq!(links.len(), 2);
        net.kill_link(links[0]);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert_eq!(net.total_initiated(), initiated_before);
        assert!(net.converged());
    }

    #[test]
    fn message_complexity_is_linear_in_links() {
        // Propagation+collection+distribution is O(E) messages per
        // reconfiguration; with n initiators at boot it stays well under
        // n * E.
        let topo = generators::ring(12);
        let net = converge(topo, 23);
        let messages = net.total_messages();
        assert!(
            messages < 12 * 12 * 8,
            "boot storm used {messages} messages"
        );
    }

    #[test]
    fn spanning_tree_covers_partition() {
        let net = converge(generators::mesh(3, 4), 29);
        let tree = net.spanning_tree(SwitchId(5));
        for s in net.topology().switches() {
            assert!(tree.contains(s), "{s} missing from propagation tree");
        }
    }

    #[test]
    fn delta_flood_patches_all_views_without_reconfiguration() {
        let mut net = converge(generators::src_installation(10, 0), 71);
        let initiated_before = net.total_initiated();
        let link = net.topology().links_between(SwitchId(2), SwitchId(3))[0];
        net.kill_link_delta(link);
        net.run_to_quiescence().expect("the protocol quiesces");
        // No new reconfiguration was triggered...
        assert_eq!(net.total_initiated(), initiated_before);
        // ...yet every switch's view matches the new reality.
        let edges = net.actual_edges();
        for s in net.topology().switches() {
            assert_eq!(net.view_edges_of(s).unwrap(), edges, "{s} has a stale view");
        }
        let updown = net.protocol().as_updown().expect("up*/down*");
        let deltas: u64 = net
            .topology()
            .switches()
            .map(|s| updown.agent(s).public().deltas_applied)
            .sum();
        assert!(deltas >= 10);
    }

    #[test]
    fn delta_uses_fewer_messages_than_full_reconfig() {
        let topo = generators::src_installation(16, 0);
        // Full reconfiguration cost.
        let mut full = converge(topo.clone(), 72);
        let before = full.total_messages();
        let link = full.topology().links_between(SwitchId(4), SwitchId(5))[0];
        full.kill_link(link);
        full.run_to_quiescence().expect("the protocol quiesces");
        let full_cost = full.total_messages() - before;
        // Delta cost on the same failure.
        let mut delta = converge(topo, 72);
        let before = delta.total_messages();
        let link = delta.topology().links_between(SwitchId(4), SwitchId(5))[0];
        delta.kill_link_delta(link);
        delta.run_to_quiescence().expect("the protocol quiesces");
        let delta_cost = delta.total_messages() - before;
        assert!(
            delta_cost < full_cost,
            "delta {delta_cost} messages !< full {full_cost}"
        );
        // Both end consistent.
        let edges = delta.actual_edges();
        for s in delta.topology().switches() {
            assert_eq!(delta.view_edges_of(s).unwrap(), edges);
        }
    }

    #[test]
    fn duplicate_deltas_suppressed_on_cyclic_topologies() {
        // On a ring the flood passes both ways around; the (origin, seq)
        // filter keeps the message count linear-ish in edges, not infinite.
        let mut net = converge(generators::ring(12), 73);
        let before = net.total_messages();
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link_delta(link);
        net.run_to_quiescence().expect("the protocol quiesces");
        let cost = net.total_messages() - before;
        // Two origins, each flooding over ~11 remaining links in both
        // directions: comfortably under 4*E + 2*N.
        assert!(cost < 4 * 12 + 2 * 12 + 20, "flood cost {cost}");
        let edges = net.actual_edges();
        for s in net.topology().switches() {
            assert_eq!(net.view_edges_of(s).unwrap(), edges);
        }
    }
}
