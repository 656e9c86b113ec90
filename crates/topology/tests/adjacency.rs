//! The adjacency index answers exactly what a scan of every link answers,
//! in the same order — BFS tie-breaks, and so every route, depend on it —
//! and `paths::host_wiring` materialises those routes the way every caller
//! used to by hand.

use an2_sim::SimRng;
use an2_topology::{
    generators, paths, Endpoint, HostId, LinkId, LinkState, Node, SwitchId, Topology,
};
use std::collections::VecDeque;

/// `working_links_of` by its definition: every link, ascending, kept when it
/// is working and touches `node`.
fn scan_working_links(t: &Topology, node: Node) -> Vec<(LinkId, Endpoint)> {
    t.links()
        .filter(|&l| t.link_state(l) == LinkState::Working)
        .filter_map(|l| {
            let (a, b) = t.endpoints(l);
            if a.node == node {
                Some((l, b))
            } else if b.node == node {
                Some((l, a))
            } else {
                None
            }
        })
        .collect()
}

/// `paths::host_route` rebuilt on the scan: same BFS, same lower-numbered
/// tie-break, same first-shortest choice over attachment pairs.
fn scan_host_route(t: &Topology, src: HostId, dst: HostId) -> Option<Vec<u16>> {
    let switches_of = |node: Node| -> Vec<u16> {
        scan_working_links(t, node)
            .into_iter()
            .filter_map(|(_, far)| match far.node {
                Node::Switch(s) => Some(s.0),
                Node::Host(_) => None,
            })
            .collect()
    };
    let shortest = |s: u16, d: u16| -> Option<Vec<u16>> {
        let mut prev = vec![None; t.switch_count()];
        let mut seen = vec![false; t.switch_count()];
        seen[s as usize] = true;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            if u == d {
                let mut path = vec![d];
                while let Some(p) = prev[*path.last().unwrap() as usize] {
                    path.push(p);
                }
                path.reverse();
                return Some(path);
            }
            let mut next = switches_of(Node::Switch(SwitchId(u)));
            next.sort_unstable();
            next.dedup();
            for v in next {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    prev[v as usize] = Some(u);
                    q.push_back(v);
                }
            }
        }
        None
    };
    let mut best: Option<Vec<u16>> = None;
    for s in switches_of(Node::Host(src)) {
        for d in switches_of(Node::Host(dst)) {
            if let Some(path) = shortest(s, d) {
                if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                    best = Some(path);
                }
            }
        }
    }
    best
}

/// `paths::host_wiring` as its callers wrote it out before it existed: the
/// first (lowest-id) working link at each hop, the first attachment link to
/// the switch at each end.
fn wiring_by_hand(t: &Topology, src: HostId, dst: HostId) -> Option<paths::Wiring> {
    let switches = paths::host_route(t, src, dst)?.switches;
    let mut links = Vec::new();
    for w in switches.windows(2) {
        links.push(*t.links_between(w[0], w[1]).first()?);
    }
    let src_link = t
        .host_attachments(src)
        .into_iter()
        .find(|&(_, s)| s == switches[0])
        .map(|(l, _)| l)?;
    let dst_link = t
        .host_attachments(dst)
        .into_iter()
        .find(|&(_, s)| s == *switches.last().expect("non-empty route"))
        .map(|(l, _)| l)?;
    Some((switches, links, src_link, dst_link))
}

fn assert_index_matches_scan(t: &Topology, what: &str) {
    let nodes = t
        .switches()
        .map(Node::Switch)
        .chain(t.hosts().map(Node::Host));
    for node in nodes {
        assert_eq!(
            t.working_links_of(node),
            scan_working_links(t, node),
            "{what}: {node}"
        );
    }
    for a in t.hosts() {
        for b in t.hosts() {
            let route = paths::host_route(t, a, b)
                .map(|r| r.switches.iter().map(|s| s.0).collect::<Vec<_>>());
            assert_eq!(route, scan_host_route(t, a, b), "{what}: {a} -> {b}");
            assert_eq!(
                paths::host_wiring(t, a, b),
                wiring_by_hand(t, a, b),
                "{what}: wiring {a} -> {b}"
            );
        }
    }
}

/// One host per switch, attached after every switch link exists.
fn with_hosts(mut t: Topology) -> Topology {
    for s in t.switches().collect::<Vec<_>>() {
        let h = t.add_host();
        t.attach_host(h, s).expect("a free port per switch");
    }
    t
}

#[test]
fn index_equals_full_scan_through_failures_and_revivals() {
    let cases: Vec<(&str, Topology)> = vec![
        ("fat_tree(2,4)", generators::fat_tree(2, 4)),
        ("torus(4,3)", with_hosts(generators::torus(4, 3))),
        (
            "src_installation(4,24)",
            generators::src_installation(4, 24),
        ),
        (
            "random_connected seed 5",
            with_hosts(generators::random_connected(12, 8, &mut SimRng::new(5))),
        ),
        (
            "random_connected seed 6",
            with_hosts(generators::random_connected(12, 8, &mut SimRng::new(6))),
        ),
    ];
    for (name, mut t) in cases {
        assert_index_matches_scan(&t, name);
        // Fail a spread of links (switch-to-switch and host attachments),
        // then a whole switch; check; revive everything; check again.
        let n = t.link_count() as u32;
        let victims = [0, n / 3, n / 2, n - 1].map(LinkId);
        for l in victims {
            t.set_link_state(l, LinkState::Dead);
        }
        assert_index_matches_scan(&t, &format!("{name}, four links dead"));
        t.kill_switch(SwitchId(1));
        assert_index_matches_scan(&t, &format!("{name}, switch 1 killed"));
        for l in t.links().collect::<Vec<_>>() {
            t.set_link_state(l, LinkState::Working);
        }
        assert_index_matches_scan(&t, &format!("{name}, all revived"));
    }
}

#[test]
fn host_wiring_takes_the_lowest_working_link_and_reports_no_route() {
    // a == b by two parallel links, b - c by one; a host on a and on c.
    let mut t = Topology::new();
    let [a, b, c] = [0; 3].map(|_| t.add_switch());
    let low = t.link_switches(a, b).unwrap();
    let high = t.link_switches(a, b).unwrap();
    let bc = t.link_switches(b, c).unwrap();
    let (ha, hc) = (t.add_host(), t.add_host());
    let la = t.attach_host(ha, a).unwrap();
    let lc = t.attach_host(hc, c).unwrap();
    assert!(low < high);

    let wired = |t: &Topology| paths::host_wiring(t, ha, hc);
    assert_eq!(wired(&t), Some((vec![a, b, c], vec![low, bc], la, lc)));
    t.set_link_state(low, LinkState::Dead);
    assert_eq!(wired(&t), Some((vec![a, b, c], vec![high, bc], la, lc)));
    assert_eq!(wired(&t), wiring_by_hand(&t, ha, hc));
    t.set_link_state(bc, LinkState::Dead);
    assert_eq!(wired(&t), None);
    assert_eq!(wiring_by_hand(&t, ha, hc), None);
    // A host talking to itself never leaves its switch.
    assert_eq!(
        paths::host_wiring(&t, ha, ha),
        Some((vec![a], vec![], la, la))
    );
}
