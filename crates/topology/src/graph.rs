//! The network graph: switches, hosts, ports and full-duplex links.

use std::collections::VecDeque;
use std::fmt;

/// Identifies a switch. The paper's tie-breaking rules ("up is toward the
/// higher-numbered switch", §5) and epoch ordering (§2) both rely on switch
/// ids being totally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Identifies a host (workstation + its network controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Either kind of network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A switch.
    Switch(SwitchId),
    /// A host.
    Host(HostId),
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Switch(s) => write!(f, "{s}"),
            Node::Host(h) => write!(f, "{h}"),
        }
    }
}

impl From<SwitchId> for Node {
    fn from(s: SwitchId) -> Node {
        Node::Switch(s)
    }
}

impl From<HostId> for Node {
    fn from(h: HostId) -> Node {
        Node::Host(h)
    }
}

/// A port number on a switch or host. AN2 switches have up to 16 ports (one
/// per line card); AN1 switches had 12 (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u8);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The node this end attaches to.
    pub node: Node,
    /// The port on that node.
    pub port: Port,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.port)
    }
}

/// Identifies a link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// The state the link monitor reports for a link (§2: "the reconfiguration
/// algorithm assumes that each link is unambiguously working or dead").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkState {
    /// Passing traffic.
    #[default]
    Working,
    /// Declared dead by the monitor (or physically removed).
    Dead,
}

#[derive(Debug, Clone)]
struct Link {
    a: Endpoint,
    b: Endpoint,
    state: LinkState,
}

/// Errors from topology construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The port is already cabled.
    PortInUse(Endpoint),
    /// The node has no free port left.
    NoFreePort(Node),
    /// A link may not connect a node to itself.
    SelfLoop(Node),
    /// Hosts connect only to switches, never to each other (paper Figure 1).
    HostToHost,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PortInUse(e) => write!(f, "port {e} is already connected"),
            TopologyError::NoFreePort(n) => write!(f, "{n} has no free port"),
            TopologyError::SelfLoop(n) => write!(f, "cannot connect {n} to itself"),
            TopologyError::HostToHost => write!(f, "hosts may only connect to switches"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The physical network: switches, hosts, and full-duplex point-to-point
/// links in an arbitrary pattern. Links carry no latency: the fabric times
/// them in slots (`an2::FabricConfig::link_latency_slots`) and the
/// reconfiguration harness with one constant
/// (`an2_reconfig::harness::LINK_LATENCY`).
///
/// ```
/// use an2_topology::Topology;
/// let mut t = Topology::new();
/// let a = t.add_switch();
/// let b = t.add_switch();
/// let h = t.add_host();
/// t.link_switches(a, b).unwrap();
/// t.attach_host(h, a).unwrap();
/// assert!(t.switches_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    switches: Vec<Cabling>,
    hosts: Vec<Cabling>,
    links: Vec<Link>,
}

/// One switch's or host's ports and what is cabled to them.
#[derive(Debug, Clone)]
struct Cabling {
    /// How many ports the node has.
    ports: u8,
    /// The cabled ports, bit `p` for port `p` (a `u8`, so four words
    /// cover every port), set as links are added. Links are never
    /// removed, so a bit is never cleared.
    cabled: [u64; 4],
    /// Adjacency index: the links cabled to the node, dead ones included,
    /// in ascending [`LinkId`] order (appended as links are added) — the
    /// order a scan of `links` yields, which BFS tie-breaks and therefore
    /// every route depend on. Readers filter by link state, so failing
    /// and reviving links needs no upkeep here.
    links: Vec<LinkId>,
}

impl Cabling {
    fn new(ports: u8) -> Self {
        Cabling {
            ports,
            cabled: [0; 4],
            links: Vec::new(),
        }
    }
}

/// Ports per AN2 switch (16 line cards, §1).
pub const AN2_SWITCH_PORTS: u8 = 16;
/// Ports per host controller: primary plus alternate link (Figure 1).
pub const HOST_PORTS: u8 = 2;

impl Topology {
    /// An empty network.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch with the standard AN2 port count and returns its id.
    pub fn add_switch(&mut self) -> SwitchId {
        self.add_switch_with_ports(AN2_SWITCH_PORTS)
    }

    /// Adds a switch with a custom port count (AN1 used 12).
    pub(crate) fn add_switch_with_ports(&mut self, ports: u8) -> SwitchId {
        self.switches.push(Cabling::new(ports));
        SwitchId((self.switches.len() - 1) as u16)
    }

    /// Adds a host (two ports: active + alternate).
    pub fn add_host(&mut self) -> HostId {
        self.hosts.push(Cabling::new(HOST_PORTS));
        HostId((self.hosts.len() - 1) as u16)
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switches.len()).map(|i| SwitchId(i as u16))
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len()).map(|i| HostId(i as u16))
    }

    /// All link ids (including dead links).
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId(i as u32))
    }

    /// Every switch-to-switch link, dead ones included, with its two
    /// switches as cabled, in link-id order.
    pub fn switch_links(&self) -> impl Iterator<Item = (LinkId, SwitchId, SwitchId)> + '_ {
        self.links().filter_map(|l| {
            let (a, b) = self.endpoints(l);
            match (a.node, b.node) {
                (Node::Switch(x), Node::Switch(y)) => Some((l, x, y)),
                _ => None,
            }
        })
    }

    /// Number of links (including dead ones).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    fn cabling(&self, node: Node) -> &Cabling {
        match node {
            Node::Switch(s) => &self.switches[s.0 as usize],
            Node::Host(h) => &self.hosts[h.0 as usize],
        }
    }

    fn cabling_mut(&mut self, node: Node) -> &mut Cabling {
        match node {
            Node::Switch(s) => &mut self.switches[s.0 as usize],
            Node::Host(h) => &mut self.hosts[h.0 as usize],
        }
    }

    fn port_count(&self, node: Node) -> u8 {
        self.cabling(node).ports
    }

    /// Every link cabled to `node` (dead ones included), ascending.
    fn links_of(&self, node: Node) -> &[LinkId] {
        &self.cabling(node).links
    }

    fn port_in_use(&self, node: Node, port: Port) -> bool {
        self.cabling(node).cabled[port.0 as usize / 64] >> (port.0 % 64) & 1 != 0
    }

    /// How wide `s` is cabled: one past its highest port with a link on it,
    /// whatever the link's state (0 = nothing cabled). Links are never
    /// removed, only marked dead, so this can grow with the topology but
    /// never shrink — it is the port count a data-plane switch needs to
    /// serve every cable `s` will ever see traffic on.
    pub fn cabled_ports(&self, s: SwitchId) -> usize {
        let mask = &self.switches[s.0 as usize].cabled;
        (0..mask.len())
            .rev()
            .find(|&w| mask[w] != 0)
            .map_or(0, |w| w * 64 + 64 - mask[w].leading_zeros() as usize)
    }

    /// The lowest-numbered free port on `node`, if any.
    pub(crate) fn free_port(&self, node: Node) -> Option<Port> {
        let mask = &self.cabling(node).cabled;
        let w = mask.iter().position(|&bits| bits != !0)?;
        let port = w * 64 + mask[w].trailing_ones() as usize;
        (port < self.port_count(node) as usize).then_some(Port(port as u8))
    }

    /// Connects two nodes on automatically chosen free ports.
    ///
    /// # Errors
    ///
    /// Fails on self-loops, host-to-host links, or port exhaustion.
    pub(crate) fn connect(&mut self, a: Node, b: Node) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if matches!((a, b), (Node::Host(_), Node::Host(_))) {
            return Err(TopologyError::HostToHost);
        }
        let pa = self.free_port(a).ok_or(TopologyError::NoFreePort(a))?;
        let pb = self.free_port(b).ok_or(TopologyError::NoFreePort(b))?;
        self.connect_ports(
            Endpoint { node: a, port: pa },
            Endpoint { node: b, port: pb },
        )
    }

    /// Connects two specific ports.
    ///
    /// # Errors
    ///
    /// Fails if either port is cabled already, on self-loops, or host-to-host
    /// links.
    pub(crate) fn connect_ports(
        &mut self,
        a: Endpoint,
        b: Endpoint,
    ) -> Result<LinkId, TopologyError> {
        if a.node == b.node {
            return Err(TopologyError::SelfLoop(a.node));
        }
        if matches!((a.node, b.node), (Node::Host(_), Node::Host(_))) {
            return Err(TopologyError::HostToHost);
        }
        for (node, port) in [(a.node, a.port), (b.node, b.port)] {
            if port.0 >= self.port_count(node) {
                return Err(TopologyError::NoFreePort(node));
            }
            if self.port_in_use(node, port) {
                return Err(TopologyError::PortInUse(Endpoint { node, port }));
            }
        }
        self.links.push(Link {
            a,
            b,
            state: LinkState::Working,
        });
        let id = LinkId((self.links.len() - 1) as u32);
        for end in [a, b] {
            let node = self.cabling_mut(end.node);
            node.links.push(id);
            node.cabled[end.port.0 as usize / 64] |= 1 << (end.port.0 % 64);
        }
        Ok(id)
    }

    /// Connects two switches on free ports.
    ///
    /// # Errors
    ///
    /// Fails on a self-loop or port exhaustion.
    pub fn link_switches(&mut self, a: SwitchId, b: SwitchId) -> Result<LinkId, TopologyError> {
        self.connect(Node::Switch(a), Node::Switch(b))
    }

    /// Attaches a host to a switch on free ports.
    ///
    /// # Errors
    ///
    /// Fails on port exhaustion.
    pub fn attach_host(&mut self, h: HostId, s: SwitchId) -> Result<LinkId, TopologyError> {
        self.connect(Node::Host(h), Node::Switch(s))
    }

    /// The two endpoints of a link.
    pub fn endpoints(&self, id: LinkId) -> (Endpoint, Endpoint) {
        let l = &self.links[id.0 as usize];
        (l.a, l.b)
    }

    /// The link's current state.
    pub fn link_state(&self, id: LinkId) -> LinkState {
        self.links[id.0 as usize].state
    }

    /// Marks a link working or dead (the monitor's output, §2).
    pub fn set_link_state(&mut self, id: LinkId, state: LinkState) {
        self.links[id.0 as usize].state = state;
    }

    /// Given a link and one of its endpoint nodes, the far endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of the link.
    pub(crate) fn far_end(&self, id: LinkId, from: Node) -> Endpoint {
        let l = &self.links[id.0 as usize];
        if l.a.node == from {
            l.b
        } else if l.b.node == from {
            l.a
        } else {
            panic!("{from} is not an endpoint of {id}")
        }
    }

    /// The local endpoint of a link as seen from `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of the link.
    pub fn near_end(&self, id: LinkId, from: Node) -> Endpoint {
        let l = &self.links[id.0 as usize];
        if l.a.node == from {
            l.a
        } else if l.b.node == from {
            l.b
        } else {
            panic!("{from} is not an endpoint of {id}")
        }
    }

    /// Working links incident to a node, with the far endpoint.
    pub fn working_links_of(&self, node: Node) -> Vec<(LinkId, Endpoint)> {
        self.links_of(node)
            .iter()
            .filter(|id| self.links[id.0 as usize].state == LinkState::Working)
            .map(|&id| (id, self.far_end(id, node)))
            .collect()
    }

    /// Neighbouring switches reachable over working links (deduplicated,
    /// sorted). Parallel links to the same switch appear once.
    pub fn switch_neighbors(&self, s: SwitchId) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = self
            .working_links_of(Node::Switch(s))
            .into_iter()
            .filter_map(|(_, far)| match far.node {
                Node::Switch(t) => Some(t),
                Node::Host(_) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Working links from switch `s` to switch `t` (there may be several in
    /// redundant installations).
    pub fn links_between(&self, s: SwitchId, t: SwitchId) -> Vec<LinkId> {
        let node = Node::Switch(s);
        self.links_of(node)
            .iter()
            .copied()
            .filter(|&id| {
                self.links[id.0 as usize].state == LinkState::Working
                    && self.far_end(id, node).node == Node::Switch(t)
            })
            .collect()
    }

    /// The switches a host is attached to over working links (active +
    /// alternate, Figure 1).
    pub fn host_attachments(&self, h: HostId) -> Vec<(LinkId, SwitchId)> {
        self.working_links_of(Node::Host(h))
            .into_iter()
            .filter_map(|(id, far)| match far.node {
                Node::Switch(s) => Some((id, s)),
                Node::Host(_) => None,
            })
            .collect()
    }

    /// Whether all switches are mutually reachable over working switch-to-
    /// switch links. (Hosts do not forward traffic, so connectivity is a
    /// property of the switch subgraph.)
    pub fn switches_connected(&self) -> bool {
        self.switch_partitions().len() <= 1
    }

    /// The connected components of the switch subgraph over working links.
    pub fn switch_partitions(&self) -> Vec<Vec<SwitchId>> {
        let n = self.switch_count();
        let mut seen = vec![false; n];
        let mut parts = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::new();
            q.push_back(SwitchId(start as u16));
            seen[start] = true;
            while let Some(s) = q.pop_front() {
                comp.push(s);
                for t in self.switch_neighbors(s) {
                    if !seen[t.0 as usize] {
                        seen[t.0 as usize] = true;
                        q.push_back(t);
                    }
                }
            }
            comp.sort_unstable();
            parts.push(comp);
        }
        parts
    }

    /// Whether the switch subgraph stays connected after removing any single
    /// working inter-switch link — the redundancy property Figure 1's
    /// installation is built for.
    pub fn survives_any_single_link_failure(&self) -> bool {
        if !self.switches_connected() {
            return false;
        }
        for (id, _, _) in self.switch_links() {
            if self.link_state(id) != LinkState::Working {
                continue;
            }
            let mut probe = self.clone();
            probe.set_link_state(id, LinkState::Dead);
            if !probe.switches_connected() {
                return false;
            }
        }
        true
    }

    /// Whether every host still reaches some switch, and the switch subgraph
    /// stays connected, after any single *switch* is powered off — the
    /// paper's favourite demo ("pulling the plug on an arbitrary switch",
    /// §1).
    pub fn survives_any_single_switch_failure(&self) -> bool {
        for victim in self.switches() {
            let mut probe = self.clone();
            probe.kill_switch(victim);
            let parts = probe.switch_partitions();
            let live: Vec<_> = parts.iter().flatten().filter(|s| **s != victim).collect();
            // All remaining switches mutually connected.
            let mut remaining_parts = 0;
            for p in &parts {
                if p.iter().any(|s| *s != victim) {
                    remaining_parts += 1;
                }
            }
            if remaining_parts > 1 || live.is_empty() {
                return false;
            }
            for h in probe.hosts() {
                if probe.host_attachments(h).is_empty() {
                    return false;
                }
            }
        }
        true
    }

    /// Marks every link incident to a switch dead — a switch crash/power-off.
    pub fn kill_switch(&mut self, s: SwitchId) {
        for &id in &self.switches[s.0 as usize].links {
            self.links[id.0 as usize].state = LinkState::Dead;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, [SwitchId; 3]) {
        let mut t = Topology::new();
        let a = t.add_switch();
        let b = t.add_switch();
        let c = t.add_switch();
        t.link_switches(a, b).unwrap();
        t.link_switches(b, c).unwrap();
        t.link_switches(c, a).unwrap();
        (t, [a, b, c])
    }

    #[test]
    fn switch_links_skip_hosts_and_keep_dead_links_in_id_order() {
        let (mut t, [a, b, c]) = triangle();
        let h = t.add_host();
        t.attach_host(h, b).unwrap();
        let parallel = t.link_switches(c, a).unwrap();
        t.set_link_state(LinkId(1), LinkState::Dead);
        let links: Vec<_> = t.switch_links().collect();
        assert_eq!(
            links,
            [
                (LinkId(0), a, b),
                (LinkId(1), b, c),
                (LinkId(2), c, a),
                (parallel, c, a)
            ]
        );
    }

    #[test]
    fn ids_are_dense_and_displayable() {
        let (t, [a, b, c]) = triangle();
        assert_eq!((a, b, c), (SwitchId(0), SwitchId(1), SwitchId(2)));
        assert_eq!(t.switch_count(), 3);
        assert_eq!(a.to_string(), "sw0");
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(LinkId(1).to_string(), "link1");
        assert_eq!(Port(4).to_string(), "p4");
        assert_eq!(Node::Switch(a).to_string(), "sw0");
    }

    #[test]
    fn connect_assigns_free_ports_in_order() {
        let (t, [a, b, _]) = triangle();
        let (ea, eb) = t.endpoints(LinkId(0));
        assert_eq!(
            ea,
            Endpoint {
                node: a.into(),
                port: Port(0)
            }
        );
        assert_eq!(
            eb,
            Endpoint {
                node: b.into(),
                port: Port(0)
            }
        );
        let (ea2, _) = t.endpoints(LinkId(2)); // c-a link: a's second port
        assert_eq!(ea2.node, Node::Switch(SwitchId(2)));
    }

    #[test]
    fn self_loop_and_host_host_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch();
        let h1 = t.add_host();
        let h2 = t.add_host();
        assert_eq!(
            t.connect(a.into(), a.into()),
            Err(TopologyError::SelfLoop(a.into()))
        );
        assert_eq!(
            t.connect(h1.into(), h2.into()),
            Err(TopologyError::HostToHost)
        );
    }

    #[test]
    fn port_masks_agree_with_a_scan_of_the_links() {
        use crate::generators::{fat_tree, line, ring, src_installation, star, wide_hub};
        // The definitions the masks replace: a port is in use iff some link
        // of the node has it as its near end, dead links included.
        let scan_free = |t: &Topology, node: Node| {
            (0..t.port_count(node)).map(Port).find(|&p| {
                !t.links_of(node)
                    .iter()
                    .any(|&id| t.near_end(id, node).port == p)
            })
        };
        let scan_cabled = |t: &Topology, s: SwitchId| {
            let node = Node::Switch(s);
            t.links_of(node)
                .iter()
                .map(|&id| t.near_end(id, node).port.0 as usize + 1)
                .max()
                .unwrap_or(0)
        };
        let topologies = [
            ("line(3)", line(3)),
            ("line(9)", line(9)),
            ("ring(4)", ring(4)),
            ("ring(12)", ring(12)),
            ("star(3)", star(3)),
            ("star(15)", star(15)),
            ("fat_tree(2,2)", fat_tree(2, 2)),
            ("fat_tree(2,3)", fat_tree(2, 3)),
            ("wide_hub(20)", wide_hub(20)),
            ("wide_hub(255)", wide_hub(255)),
            ("src_installation(4,8)", src_installation(4, 8)),
            ("src_installation(12,40)", src_installation(12, 40)),
        ];
        for (name, mut t) in topologies {
            // Dead links keep their ports: kill one and check again.
            for round in 0..2 {
                let nodes = t
                    .switches()
                    .map(Node::Switch)
                    .chain(t.hosts().map(Node::Host));
                for node in nodes {
                    let at = format!("{name} round {round} {node}");
                    assert_eq!(t.free_port(node), scan_free(&t, node), "{at}");
                    if let Node::Switch(s) = node {
                        assert_eq!(t.cabled_ports(s), scan_cabled(&t, s), "{at}");
                    }
                }
                t.set_link_state(LinkId(0), LinkState::Dead);
            }
        }
    }

    #[test]
    fn port_exhaustion() {
        let mut t = Topology::new();
        let hub = t.add_switch_with_ports(2);
        let others: Vec<_> = (0..3).map(|_| t.add_switch()).collect();
        t.link_switches(hub, others[0]).unwrap();
        t.link_switches(hub, others[1]).unwrap();
        assert_eq!(
            t.link_switches(hub, others[2]),
            Err(TopologyError::NoFreePort(hub.into()))
        );
    }

    #[test]
    fn port_reuse_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch();
        let b = t.add_switch();
        let c = t.add_switch();
        let ea = Endpoint {
            node: a.into(),
            port: Port(0),
        };
        let eb = Endpoint {
            node: b.into(),
            port: Port(0),
        };
        t.connect_ports(ea, eb).unwrap();
        let ec = Endpoint {
            node: c.into(),
            port: Port(0),
        };
        assert_eq!(t.connect_ports(ea, ec), Err(TopologyError::PortInUse(ea)));
        // Out-of-range port.
        let bad = Endpoint {
            node: c.into(),
            port: Port(99),
        };
        assert_eq!(
            t.connect_ports(
                bad,
                Endpoint {
                    node: a.into(),
                    port: Port(5)
                }
            ),
            Err(TopologyError::NoFreePort(c.into()))
        );
    }

    #[test]
    fn neighbors_and_far_end() {
        let (t, [a, b, c]) = triangle();
        assert_eq!(t.switch_neighbors(a), vec![b, c]);
        let far = t.far_end(LinkId(0), a.into());
        assert_eq!(far.node, Node::Switch(b));
        let near = t.near_end(LinkId(0), a.into());
        assert_eq!(near.node, Node::Switch(a));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn far_end_wrong_node_panics() {
        let (t, [_, _, c]) = triangle();
        t.far_end(LinkId(0), c.into());
    }

    #[test]
    fn dead_links_hide_from_neighbor_queries() {
        let (mut t, [a, _b, c]) = triangle();
        t.set_link_state(LinkId(0), LinkState::Dead);
        assert_eq!(t.switch_neighbors(a), vec![c]);
        assert_eq!(t.link_state(LinkId(0)), LinkState::Dead);
        assert!(t.switches_connected(), "triangle minus one edge is a path");
        t.set_link_state(LinkId(1), LinkState::Dead);
        assert!(!t.switches_connected());
        assert_eq!(t.switch_partitions().len(), 2);
    }

    #[test]
    fn parallel_links_supported() {
        let mut t = Topology::new();
        let a = t.add_switch();
        let b = t.add_switch();
        t.link_switches(a, b).unwrap();
        t.link_switches(a, b).unwrap();
        assert_eq!(t.links_between(a, b).len(), 2);
        assert_eq!(t.switch_neighbors(a), vec![b], "deduplicated");
        t.set_link_state(LinkId(0), LinkState::Dead);
        assert!(t.switches_connected(), "redundant link keeps connectivity");
    }

    #[test]
    fn host_attachments_and_failover() {
        let mut t = Topology::new();
        let a = t.add_switch();
        let b = t.add_switch();
        t.link_switches(a, b).unwrap();
        let h = t.add_host();
        let l1 = t.attach_host(h, a).unwrap();
        let _l2 = t.attach_host(h, b).unwrap();
        assert_eq!(t.host_attachments(h).len(), 2);
        t.set_link_state(l1, LinkState::Dead);
        let att = t.host_attachments(h);
        assert_eq!(att.len(), 1);
        assert_eq!(att[0].1, b);
    }

    #[test]
    fn single_link_failure_survival() {
        let (t, _) = triangle();
        assert!(t.survives_any_single_link_failure());
        let mut line = Topology::new();
        let a = line.add_switch();
        let b = line.add_switch();
        line.link_switches(a, b).unwrap();
        assert!(!line.survives_any_single_link_failure());
    }

    #[test]
    fn switch_failure_survival_requires_dual_homing() {
        let (mut t, [a, b, _c]) = triangle();
        let h = t.add_host();
        t.attach_host(h, a).unwrap();
        // Host homed to only one switch: killing that switch strands it.
        assert!(!t.survives_any_single_switch_failure());
        t.attach_host(h, b).unwrap();
        assert!(t.survives_any_single_switch_failure());
    }

    #[test]
    fn kill_switch_downs_all_its_links() {
        let (mut t, [a, _, _]) = triangle();
        t.kill_switch(a);
        assert!(t.switch_neighbors(a).is_empty());
        // b-c link survives.
        assert_eq!(t.switch_neighbors(SwitchId(1)), vec![SwitchId(2)]);
    }

    #[test]
    fn error_display() {
        assert!(TopologyError::HostToHost.to_string().contains("switches"));
        assert!(TopologyError::SelfLoop(Node::Switch(SwitchId(1)))
            .to_string()
            .contains("sw1"));
    }
}
