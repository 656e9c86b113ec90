//! Runs switch agents over a physical [`Topology`] on an ideal transport,
//! injects failures, and checks convergence — the apparatus for the
//! reconfiguration experiments (E1, E12).
//!
//! The harness is the whole event loop: it owns the agents and one heap of
//! in-flight messages keyed `(deliver_at, send_seq)`, pops the earliest,
//! hands it to [`SwitchAgent::handle`], and queues every reply
//! [`LINK_LATENCY`] plus [`PROCESSING`] later. Equal-time messages are
//! delivered in send order, so a run is a pure function of the topology
//! and the failures injected. (The embedded control plane in
//! `an2::network::control` drives the same agents over lossy 53-byte control
//! cells instead.)

use crate::agent::{Edge, Msg, SwitchAgent, TopoView};
use crate::quiesce;
use an2_sim::{SimDuration, SimTime};
use an2_topology::{LinkId, LinkState, Node, SpanningTree, SwitchId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Per-message software processing time on a line-card CPU. AN1's
/// measured sub-200 ms reconfigurations imply per-message costs in the
/// high-microsecond range; 100 µs is deliberately conservative.
pub const PROCESSING: SimDuration = SimDuration::from_micros(100);

/// One-way latency of every switch-to-switch link on the ideal transport:
/// SRC's LAN is building-scale, so 1 µs. The fabric times its links in
/// slots instead (`an2::FabricConfig::link_latency_slots`).
pub const LINK_LATENCY: SimDuration = SimDuration::from_micros(1);

/// A message on the ideal transport, due at `at`.
struct InFlight {
    at: SimTime,
    seq: u64,
    to: SwitchId,
    msg: Msg,
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

/// A network of reconfiguration agents over a physical topology.
pub struct ReconfigNet {
    topo: Topology,
    agents: Vec<SwitchAgent>,
    queue: BinaryHeap<InFlight>,
    now: SimTime,
    next_seq: u64,
}

impl ReconfigNet {
    /// Builds the network and boots every switch at time zero (each switch
    /// learns its neighbours and triggers a reconfiguration, as at power-on).
    ///
    /// `seed` is unread: nothing on the ideal transport is random. It stays
    /// in the signature because every caller (experiments, oracles, the
    /// benchmark of record) passes one.
    pub fn with_defaults(topo: Topology, _seed: u64) -> Self {
        let agents = topo.switches().map(SwitchAgent::new).collect();
        let mut net = ReconfigNet {
            topo,
            agents,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        };
        // Announce every working inter-switch adjacency to both endpoints.
        let links: Vec<LinkId> = net.topo.links().collect();
        for link in links {
            if net.topo.link_state(link) != LinkState::Working {
                continue;
            }
            let (ea, eb) = net.topo.endpoints(link);
            if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
                net.send_now(a, Msg::LinkUp { link, neighbor: b });
                net.send_now(b, Msg::LinkUp { link, neighbor: a });
            }
        }
        net
    }

    /// Queues `msg` for delivery to `to` at `at`.
    fn send_at(&mut self, at: SimTime, to: SwitchId, msg: Msg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(InFlight { at, seq, to, msg });
    }

    /// Queues a harness event for `to` at the current instant.
    fn send_now(&mut self, to: SwitchId, msg: Msg) {
        self.send_at(self.now, to, msg);
    }

    /// Runs the protocol until no messages remain in flight.
    pub fn run_to_quiescence(&mut self) {
        let mut out = Vec::new();
        while let Some(m) = self.queue.pop() {
            debug_assert!(m.at >= self.now, "message from the past");
            self.now = m.at;
            self.agents[m.to.0 as usize].handle(m.at, m.msg, &mut out);
            for (to, reply) in out.drain(..) {
                self.send_at(m.at + LINK_LATENCY + PROCESSING, to, reply);
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The physical topology (including failures injected so far).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Kills a physical link and notifies both endpoint switches. If a
    /// parallel link between the same pair is still working, the logical
    /// adjacency survives and no notification is sent (the line card fails
    /// over transparently).
    pub fn kill_link(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        let (ea, eb) = self.topo.endpoints(link);
        if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
            if self.topo.links_between(a, b).is_empty() {
                self.send_now(a, Msg::LinkDown { neighbor: b });
                self.send_now(b, Msg::LinkDown { neighbor: a });
            }
        }
    }

    /// Kills a physical link but handles it with the §2 reduced-disruption
    /// extension: the endpoints flood an incremental delta instead of
    /// triggering a full reconfiguration. Stale spanning-tree state is the
    /// documented trade-off.
    pub fn kill_link_delta(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        let (ea, eb) = self.topo.endpoints(link);
        if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
            if self.topo.links_between(a, b).is_empty() {
                self.send_now(a, Msg::LinkDownDelta { neighbor: b });
                self.send_now(b, Msg::LinkDownDelta { neighbor: a });
            }
        }
    }

    /// Pulls the plug on a switch: every incident link dies and all its
    /// neighbours are notified (the victim itself is silenced — dead
    /// switches do not run the protocol, so its own notifications are
    /// irrelevant).
    pub fn kill_switch(&mut self, victim: SwitchId) {
        let incident: Vec<LinkId> = self
            .topo
            .links()
            .filter(|&l| {
                let (ea, eb) = self.topo.endpoints(l);
                (ea.node == Node::Switch(victim) || eb.node == Node::Switch(victim))
                    && self.topo.link_state(l) == LinkState::Working
            })
            .collect();
        for link in incident {
            self.topo.set_link_state(link, LinkState::Dead);
            let (ea, eb) = self.topo.endpoints(link);
            if let (Node::Switch(a), Node::Switch(b)) = (ea.node, eb.node) {
                let survivor = if a == victim { b } else { a };
                self.send_now(survivor, Msg::LinkDown { neighbor: victim });
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
    /// completed there.
    pub fn view_of(&self, s: SwitchId) -> Option<&TopoView> {
        self.agents[s.0 as usize].public().view.as_ref()
    }

    /// The (sorted, deduplicated) edges of a switch's current topology
    /// view, if it has one — for external consistency checks.
    pub fn view_edges_of(&self, s: SwitchId) -> Option<Vec<Edge>> {
        self.view_of(s).map(|v| {
            let mut e: Vec<Edge> = v.edges.clone();
            e.sort_unstable();
            e.dedup();
            e
        })
    }

    /// Whether every switch in the same partition as `reference` holds a
    /// topology view that (a) matches every other member's and (b) equals
    /// that partition's actual working edges. Built on the shared
    /// [`quiesce`] detector the embedded control plane and
    /// the chaos oracle use.
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
            &mut |s, _, expected| self.view_edges_of(s).as_deref() == Some(expected),
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

    /// The instant the last switch in `reference`'s partition completed.
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
        self.agents.iter().map(|a| a.public().messages_sent).sum()
    }

    /// Total reconfigurations initiated across all switches.
    pub fn total_initiated(&self) -> u64 {
        self.agents.iter().map(|a| a.public().initiated).sum()
    }

    /// Reconstructs the propagation-order spanning tree from the converged
    /// view of `reference`'s partition.
    ///
    /// # Panics
    ///
    /// Panics if the switch has no view yet.
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
    use an2_topology::generators;

    fn converge(topo: Topology, seed: u64) -> ReconfigNet {
        let mut net = ReconfigNet::with_defaults(topo, seed);
        net.run_to_quiescence();
        assert!(net.converged(), "initial boot must converge");
        net
    }

    #[test]
    fn ties_delivered_in_send_order() {
        let mut net = converge(generators::line(3), 1);
        let t = net.now() + SimDuration::from_nanos(100);
        for s in [2, 0, 1] {
            net.send_at(t, SwitchId(s), Msg::Boot);
        }
        // Sent last but due first: time outranks send order.
        let early = net.now() + SimDuration::from_nanos(50);
        net.send_at(early, SwitchId(1), Msg::Boot);
        let order: Vec<(SimTime, u16)> = std::iter::from_fn(|| net.queue.pop())
            .map(|m| (m.at, m.to.0))
            .collect();
        assert_eq!(
            order,
            vec![(early, 1), (t, 2), (t, 0), (t, 1)],
            "equal-time messages arrive in send order"
        );
    }

    #[test]
    fn time_only_moves_forward() {
        let mut net = ReconfigNet::with_defaults(generators::ring(6), 1);
        assert_eq!(net.now(), SimTime::ZERO);
        net.run_to_quiescence();
        let booted = net.now();
        assert!(booted > SimTime::ZERO);
        let link = net.topology().links_between(SwitchId(0), SwitchId(1))[0];
        net.kill_link(link);
        net.run_to_quiescence();
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
        net.run_to_quiescence();
        assert!(net.queue.is_empty());
        // Nothing in flight: running again delivers nothing and the clock
        // stays put.
        let (now, messages) = (net.now(), net.total_messages());
        net.run_to_quiescence();
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
        net.run_to_quiescence();
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
            net.run_to_quiescence();
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
    fn partition_converges_per_side() {
        // A line partitions when the middle link dies.
        let mut net = converge(generators::line(4), 5);
        let link = net.topology().links_between(SwitchId(1), SwitchId(2))[0];
        net.kill_link(link);
        net.run_to_quiescence();
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
        net.run_to_quiescence();
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
        net.run_to_quiescence();
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
        net.run_to_quiescence();
        // No new reconfiguration was triggered...
        assert_eq!(net.total_initiated(), initiated_before);
        // ...yet every switch's view matches the new reality.
        let edges = net.actual_edges();
        for s in net.topology().switches() {
            assert_eq!(net.view_edges_of(s).unwrap(), edges, "{s} has a stale view");
        }
        let deltas: u64 = net.agents.iter().map(|a| a.public().deltas_applied).sum();
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
        full.run_to_quiescence();
        let full_cost = full.total_messages() - before;
        // Delta cost on the same failure.
        let mut delta = converge(topo, 72);
        let before = delta.total_messages();
        let link = delta.topology().links_between(SwitchId(4), SwitchId(5))[0];
        delta.kill_link_delta(link);
        delta.run_to_quiescence();
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
        net.run_to_quiescence();
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
