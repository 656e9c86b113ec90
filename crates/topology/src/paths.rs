//! Unrestricted shortest-path routing over the working switch subgraph.
//!
//! AN2 routes each virtual circuit along a path chosen by line-card software
//! "based on the topology information obtained during reconfiguration" (§2).
//! This module supplies the path machinery: BFS shortest paths and
//! host-to-host route construction through each host's attached switches.

use crate::graph::{HostId, LinkId, SwitchId, Topology};
use std::collections::VecDeque;

/// A shortest switch-to-switch path (inclusive of both ends), or `None` when
/// unreachable. Ties are broken toward lower-numbered switches, so the result
/// is deterministic.
pub fn shortest_path(topo: &Topology, src: SwitchId, dst: SwitchId) -> Option<Vec<SwitchId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut prev: Vec<Option<SwitchId>> = vec![None; topo.switch_count()];
    let mut seen = vec![false; topo.switch_count()];
    seen[src.0 as usize] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(s) = q.pop_front() {
        for t in topo.switch_neighbors(s) {
            if !seen[t.0 as usize] {
                seen[t.0 as usize] = true;
                prev[t.0 as usize] = Some(s);
                if t == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(p) = prev[cur.0 as usize] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(t);
            }
        }
    }
    None
}

/// A host-to-host route: the attachment switches used at each end plus the
/// switch path between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRoute {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Switches traversed, first = source's attachment, last = destination's.
    pub switches: Vec<SwitchId>,
}

/// The shortest working route between two hosts, trying every combination of
/// their attachment switches (primary and alternate links, Figure 1).
/// Returns `None` if either host is detached or no switch path exists.
pub fn host_route(topo: &Topology, src: HostId, dst: HostId) -> Option<HostRoute> {
    let src_att = topo.host_attachments(src);
    let dst_att = topo.host_attachments(dst);
    let mut best: Option<Vec<SwitchId>> = None;
    for (_, s) in &src_att {
        for (_, d) in &dst_att {
            if let Some(path) = shortest_path(topo, *s, *d) {
                if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                    best = Some(path);
                }
            }
        }
    }
    best.map(|switches| HostRoute { src, dst, switches })
}

/// A host-to-host route made concrete: `(switches, links, src_link,
/// dst_link)` — the switch path, the link taken at each hop, and the
/// attachment link at each end.
pub type Wiring = (Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId);

/// [`host_route`] materialised into a [`Wiring`]: the lowest-id working link
/// at each hop, and each host's attachment link to its end of the path.
/// Returns `None` when [`host_route`] does.
pub fn host_wiring(topo: &Topology, src: HostId, dst: HostId) -> Option<Wiring> {
    let switches = host_route(topo, src, dst)?.switches;
    let links = switches
        .windows(2)
        .map(|w| topo.links_between(w[0], w[1]).first().copied())
        .collect::<Option<Vec<LinkId>>>()?;
    let attachment = |host, end: SwitchId| {
        topo.host_attachments(host)
            .into_iter()
            .find(|&(_, s)| s == end)
            .map(|(l, _)| l)
    };
    let src_link = attachment(src, *switches.first()?)?;
    let dst_link = attachment(dst, *switches.last()?)?;
    Some((switches, links, src_link, dst_link))
}

/// Like [`shortest_path`], but treating `avoid` as if it had failed —
/// equivalent to probing a clone of the topology with that link marked
/// dead, without the clone. Same lower-numbered-switch tie-break.
pub(crate) fn shortest_path_avoiding(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    avoid: LinkId,
) -> Option<Vec<SwitchId>> {
    let neighbors = |s: SwitchId| {
        let mut out: Vec<SwitchId> = topo
            .working_links_of(crate::graph::Node::Switch(s))
            .into_iter()
            .filter(|&(l, _)| l != avoid)
            .filter_map(|(_, far)| match far.node {
                crate::graph::Node::Switch(t) => Some(t),
                crate::graph::Node::Host(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    if src == dst {
        return Some(vec![src]);
    }
    let mut prev: Vec<Option<SwitchId>> = vec![None; topo.switch_count()];
    let mut seen = vec![false; topo.switch_count()];
    seen[src.0 as usize] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(s) = q.pop_front() {
        for t in neighbors(s) {
            if !seen[t.0 as usize] {
                seen[t.0 as usize] = true;
                prev[t.0 as usize] = Some(s);
                if t == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while let Some(p) = prev[cur.0 as usize] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(t);
            }
        }
    }
    None
}

/// Like [`host_route`], but treating `avoid` as if it had failed (the
/// load-balancing reroute probes "what if this hot link were gone" without
/// cloning the topology).
pub fn host_route_avoiding(
    topo: &Topology,
    src: HostId,
    dst: HostId,
    avoid: LinkId,
) -> Option<HostRoute> {
    let mut src_att = topo.host_attachments(src);
    let mut dst_att = topo.host_attachments(dst);
    src_att.retain(|&(l, _)| l != avoid);
    dst_att.retain(|&(l, _)| l != avoid);
    let mut best: Option<Vec<SwitchId>> = None;
    for (_, s) in &src_att {
        for (_, d) in &dst_att {
            if let Some(path) = shortest_path_avoiding(topo, *s, *d, avoid) {
                if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                    best = Some(path);
                }
            }
        }
    }
    best.map(|switches| HostRoute { src, dst, switches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::LinkState;

    #[test]
    fn shortest_path_on_ring_takes_short_side() {
        let topo = generators::ring(6);
        let p = shortest_path(&topo, SwitchId(0), SwitchId(2)).unwrap();
        assert_eq!(p, vec![SwitchId(0), SwitchId(1), SwitchId(2)]);
        let p = shortest_path(&topo, SwitchId(0), SwitchId(5)).unwrap();
        assert_eq!(p, vec![SwitchId(0), SwitchId(5)]);
    }

    #[test]
    fn shortest_path_same_node() {
        let topo = generators::line(2);
        assert_eq!(
            shortest_path(&topo, SwitchId(1), SwitchId(1)),
            Some(vec![SwitchId(1)])
        );
    }

    #[test]
    fn shortest_path_unreachable() {
        let mut topo = generators::line(2);
        let lonely = topo.add_switch();
        assert_eq!(shortest_path(&topo, SwitchId(0), lonely), None);
    }

    #[test]
    fn shortest_path_respects_dead_links() {
        let topo = generators::ring(4);
        let mut t = topo.clone();
        // Kill 0-1; path 0->1 must go the long way.
        let l = t.links_between(SwitchId(0), SwitchId(1))[0];
        t.set_link_state(l, LinkState::Dead);
        let p = shortest_path(&t, SwitchId(0), SwitchId(1)).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn host_route_uses_best_attachment_pair() {
        let mut topo = generators::line(4); // 0-1-2-3
        let h1 = topo.add_host();
        let h2 = topo.add_host();
        topo.attach_host(h1, SwitchId(0)).unwrap();
        topo.attach_host(h1, SwitchId(1)).unwrap();
        topo.attach_host(h2, SwitchId(3)).unwrap();
        topo.attach_host(h2, SwitchId(2)).unwrap();
        let r = host_route(&topo, h1, h2).unwrap();
        // Best pair is sw1..sw2 (2 switches), not sw0..sw3 (4 switches).
        assert_eq!(r.switches, vec![SwitchId(1), SwitchId(2)]);
    }

    #[test]
    fn host_route_fails_when_detached() {
        let mut topo = generators::line(2);
        let h1 = topo.add_host();
        let h2 = topo.add_host();
        topo.attach_host(h1, SwitchId(0)).unwrap();
        assert!(host_route(&topo, h1, h2).is_none());
    }

    #[test]
    fn host_route_failover_to_alternate() {
        let mut topo = generators::line(2);
        let h1 = topo.add_host();
        let h2 = topo.add_host();
        let primary = topo.attach_host(h1, SwitchId(0)).unwrap();
        topo.attach_host(h1, SwitchId(1)).unwrap();
        topo.attach_host(h2, SwitchId(0)).unwrap();
        topo.set_link_state(primary, LinkState::Dead);
        let r = host_route(&topo, h1, h2).unwrap();
        assert_eq!(r.switches, vec![SwitchId(1), SwitchId(0)]);
    }

    #[test]
    fn avoiding_helpers_match_a_dead_link_probe() {
        // The `_avoiding` variants must agree exactly with probing a clone
        // of the topology that has the link marked dead (the pattern they
        // replaced in the rebalancer).
        let mut topo = generators::src_installation(4, 4);
        let h0 = crate::graph::HostId(0);
        let h1 = crate::graph::HostId(2);
        let all: Vec<_> = topo.links().collect();
        // Include a pre-existing failure so the working subgraph is
        // non-trivial.
        topo.set_link_state(all[0], LinkState::Dead);
        for &avoid in &all {
            let mut probe = topo.clone();
            probe.set_link_state(avoid, LinkState::Dead);
            assert_eq!(
                shortest_path_avoiding(&topo, SwitchId(0), SwitchId(2), avoid),
                shortest_path(&probe, SwitchId(0), SwitchId(2)),
                "switch path diverges avoiding {avoid}"
            );
            assert_eq!(
                host_route_avoiding(&topo, h0, h1, avoid),
                host_route(&probe, h0, h1),
                "host route diverges avoiding {avoid}"
            );
        }
    }
}
