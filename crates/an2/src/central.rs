//! Bandwidth central: admission control and route choice for guaranteed
//! traffic (§4).
//!
//! "The request to reserve bandwidth is processed by a network service
//! called 'bandwidth central' [...] Because it resolves all bandwidth
//! requests, it knows the unreserved capacity of each link in the network.
//! A new request is granted if there is a path between source and
//! destination on which each link has enough unreserved bandwidth.
//! Otherwise, the request must be denied. Bandwidth central chooses the
//! route for the new virtual circuit if more than one possibility exists."
//!
//! Route choice here is the shortest path among those with capacity
//! (breadth-first over capacity-filtered links), which matches the spirit of
//! the heuristics the paper cites from the Paris network work.

use an2_topology::{HostId, LinkState, Node, SwitchId, Topology};
use std::collections::VecDeque;

/// Index of a directed link in the flat ledger: link id × direction, where
/// the direction bit is `from_a` (from the link's `a` endpoint toward `b`).
fn dir_slot(link: an2_topology::LinkId, from_a: bool) -> usize {
    link.0 as usize * 2 + from_a as usize
}

/// The bandwidth-central service. In this first realization it "resides at
/// a single switch, chosen during reconfiguration"; as a library object it
/// simply owns the global reservation ledger.
#[derive(Debug, Clone)]
pub struct BandwidthCentral {
    frame: u32,
    /// Remaining unreserved cells/frame, indexed by [`dir_slot`]. Link ids
    /// are dense (the topology allocates them from 0), so a flat vector
    /// replaces the hash ledger with two-instruction lookups.
    remaining: Vec<u32>,
}

impl BandwidthCentral {
    /// A fresh ledger: every working link direction starts with a full
    /// frame of unreserved capacity.
    pub fn new(topo: &Topology, frame: u32) -> Self {
        BandwidthCentral {
            frame,
            remaining: vec![frame; topo.link_count() * 2],
        }
    }

    /// The frame size reservations are expressed against.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Remaining capacity of a directed link.
    pub fn remaining(&self, link: an2_topology::LinkId, from_a: bool) -> u32 {
        self.remaining
            .get(dir_slot(link, from_a))
            .copied()
            .unwrap_or(0)
    }

    fn dir_of(topo: &Topology, link: an2_topology::LinkId, from: Node) -> bool {
        let (ea, _) = topo.endpoints(link);
        ea.node == from
    }

    /// Picks the shortest switch path from `src` to `dst` on which every
    /// hop still has `cells` unreserved capacity (in the traversal
    /// direction), together with the specific links used. Returns `None`
    /// when no such path exists — the request must be denied.
    pub(crate) fn find_route(
        &self,
        topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
        cells: u32,
    ) -> Option<(Vec<SwitchId>, Vec<an2_topology::LinkId>)> {
        if src == dst {
            return Some((vec![src], vec![]));
        }
        let n = topo.switch_count();
        let mut prev: Vec<Option<(SwitchId, an2_topology::LinkId)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[src.0 as usize] = true;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(s) = q.pop_front() {
            for t in topo.switch_neighbors(s) {
                if seen[t.0 as usize] {
                    continue;
                }
                // Any parallel link with capacity will do; prefer the lowest
                // id for determinism.
                let usable = topo.links_between(s, t).into_iter().find(|&l| {
                    let dir = Self::dir_of(topo, l, Node::Switch(s));
                    self.remaining(l, dir) >= cells
                });
                let Some(link) = usable else { continue };
                seen[t.0 as usize] = true;
                prev[t.0 as usize] = Some((s, link));
                if t == dst {
                    let mut switches = vec![dst];
                    let mut links = Vec::new();
                    let mut cur = dst;
                    while let Some((p, l)) = prev[cur.0 as usize] {
                        switches.push(p);
                        links.push(l);
                        cur = p;
                    }
                    switches.reverse();
                    links.reverse();
                    return Some((switches, links));
                }
                q.push_back(t);
            }
        }
        None
    }

    /// Reserves `cells` per frame on every hop of a chosen route (switch
    /// path plus the host attachment links at both ends).
    ///
    /// # Panics
    ///
    /// Panics if any hop lacks capacity — callers must reserve only routes
    /// the central found with room on every switch hop and host link.
    pub fn commit(
        &mut self,
        topo: &Topology,
        switches: &[SwitchId],
        links: &[an2_topology::LinkId],
        host_links: &[(an2_topology::LinkId, Node)],
        cells: u32,
    ) {
        for (k, &link) in links.iter().enumerate() {
            let dir = Self::dir_of(topo, link, Node::Switch(switches[k]));
            let r = self
                .remaining
                .get_mut(dir_slot(link, dir))
                .expect("link exists in ledger");
            assert!(*r >= cells, "over-committing {link}");
            *r -= cells;
        }
        for &(link, from) in host_links {
            let dir = Self::dir_of(topo, link, from);
            let r = self
                .remaining
                .get_mut(dir_slot(link, dir))
                .expect("host link exists in ledger");
            assert!(*r >= cells, "over-committing host {link}");
            *r -= cells;
        }
    }

    /// Returns reserved capacity when a circuit closes.
    pub fn release(
        &mut self,
        topo: &Topology,
        switches: &[SwitchId],
        links: &[an2_topology::LinkId],
        host_links: &[(an2_topology::LinkId, Node)],
        cells: u32,
    ) {
        for (k, &link) in links.iter().enumerate() {
            let dir = Self::dir_of(topo, link, Node::Switch(switches[k]));
            *self
                .remaining
                .get_mut(dir_slot(link, dir))
                .expect("ledger entry") += cells;
        }
        for &(link, from) in host_links {
            let dir = Self::dir_of(topo, link, from);
            *self
                .remaining
                .get_mut(dir_slot(link, dir))
                .expect("ledger entry") += cells;
        }
    }

    /// Whether a host attachment link still has `cells` unreserved in the
    /// direction leaving `from`.
    pub(crate) fn host_link_capacity_ok(
        &self,
        topo: &Topology,
        link: an2_topology::LinkId,
        from: Node,
        cells: u32,
    ) -> bool {
        topo.link_state(link) == LinkState::Working
            && self.remaining(link, Self::dir_of(topo, link, from)) >= cells
    }

    /// The attachment (link, switch) of `host` with the most unreserved
    /// capacity — how bandwidth central picks between a host's active and
    /// alternate links. `from_host` selects the direction that must have
    /// capacity: `true` for a traffic source (host → switch), `false` for a
    /// destination (switch → host).
    pub(crate) fn best_attachment(
        &self,
        topo: &Topology,
        host: HostId,
        cells: u32,
        from_host: bool,
    ) -> Option<(an2_topology::LinkId, SwitchId)> {
        let dir_node = |s: SwitchId| {
            if from_host {
                Node::Host(host)
            } else {
                Node::Switch(s)
            }
        };
        topo.host_attachments(host)
            .into_iter()
            .filter(|&(l, s)| self.host_link_capacity_ok(topo, l, dir_node(s), cells))
            .max_by_key(|&(l, s)| self.remaining(l, Self::dir_of(topo, l, dir_node(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_topology::generators;

    #[test]
    fn routes_avoid_saturated_links() {
        // Ring of 4: route 0 -> 2 both ways; saturate one side and the
        // route must take the other.
        let topo = generators::ring(4);
        let mut bc = BandwidthCentral::new(&topo, 100);
        let (sw, links) = bc.find_route(&topo, SwitchId(0), SwitchId(2), 60).unwrap();
        assert_eq!(sw.len(), 3);
        bc.commit(&topo, &sw, &links, &[], 60);
        // Same direction again: first path lacks 60, must use the other side.
        let (sw2, links2) = bc.find_route(&topo, SwitchId(0), SwitchId(2), 60).unwrap();
        assert_eq!(sw2.len(), 3);
        assert_ne!(sw, sw2, "second route must avoid the saturated side");
        bc.commit(&topo, &sw2, &links2, &[], 60);
        // Third request cannot fit anywhere.
        assert!(bc.find_route(&topo, SwitchId(0), SwitchId(2), 60).is_none());
    }

    #[test]
    fn release_restores_capacity() {
        let topo = generators::line(3);
        let mut bc = BandwidthCentral::new(&topo, 10);
        let (sw, links) = bc.find_route(&topo, SwitchId(0), SwitchId(2), 10).unwrap();
        bc.commit(&topo, &sw, &links, &[], 10);
        assert!(bc.find_route(&topo, SwitchId(0), SwitchId(2), 1).is_none());
        bc.release(&topo, &sw, &links, &[], 10);
        assert!(bc.find_route(&topo, SwitchId(0), SwitchId(2), 10).is_some());
    }

    #[test]
    fn directions_are_independent() {
        // Reserving 0 -> 1 fully must not consume 1 -> 0 capacity.
        let topo = generators::line(2);
        let mut bc = BandwidthCentral::new(&topo, 8);
        let (sw, links) = bc.find_route(&topo, SwitchId(0), SwitchId(1), 8).unwrap();
        bc.commit(&topo, &sw, &links, &[], 8);
        assert!(bc.find_route(&topo, SwitchId(0), SwitchId(1), 1).is_none());
        assert!(bc.find_route(&topo, SwitchId(1), SwitchId(0), 8).is_some());
    }

    #[test]
    fn same_switch_route_is_empty() {
        let topo = generators::line(2);
        let bc = BandwidthCentral::new(&topo, 8);
        let (sw, links) = bc.find_route(&topo, SwitchId(1), SwitchId(1), 5).unwrap();
        assert_eq!(sw, vec![SwitchId(1)]);
        assert!(links.is_empty());
    }

    #[test]
    fn host_attachment_selection_prefers_capacity() {
        let mut topo = generators::line(2);
        let h = topo.add_host();
        let l0 = topo.attach_host(h, SwitchId(0)).unwrap();
        let l1 = topo.attach_host(h, SwitchId(1)).unwrap();
        let mut bc = BandwidthCentral::new(&topo, 100);
        // Drain most of l0's host->switch capacity.
        bc.commit(&topo, &[], &[], &[(l0, Node::Host(h))], 90);
        let (best, sw) = bc.best_attachment(&topo, h, 20, true).unwrap();
        assert_eq!(best, l1);
        assert_eq!(sw, SwitchId(1));
        // The drained direction was host -> switch; toward the host both
        // links still have full capacity.
        assert!(bc.best_attachment(&topo, h, 100, false).is_some());
        // Request too big for either.
        assert!(bc.best_attachment(&topo, h, 101, true).is_none());
        assert!(bc.host_link_capacity_ok(&topo, l1, Node::Host(h), 100));
        assert!(!bc.host_link_capacity_ok(&topo, l0, Node::Host(h), 11));
    }

    #[test]
    fn parallel_links_add_capacity() {
        let mut topo = generators::line(2);
        topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
        let mut bc = BandwidthCentral::new(&topo, 10);
        // Two reservations of 10 fit: one per parallel link.
        for _ in 0..2 {
            let (sw, links) = bc.find_route(&topo, SwitchId(0), SwitchId(1), 10).unwrap();
            bc.commit(&topo, &sw, &links, &[], 10);
        }
        assert!(bc.find_route(&topo, SwitchId(0), SwitchId(1), 1).is_none());
    }
}
