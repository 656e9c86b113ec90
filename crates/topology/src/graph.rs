//! The network graph: switches, hosts, ports and full-duplex links.

use an2_sim::SimDuration;
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
    latency: SimDuration,
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
/// links in an arbitrary pattern.
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
    switch_ports: Vec<u8>,
    host_ports: Vec<u8>,
    links: Vec<Link>,
    /// Adjacency index: the links cabled to each switch / host, dead ones
    /// included, in ascending [`LinkId`] order (appended as links are
    /// added) — the order a scan of `links` yields, which BFS tie-breaks
    /// and therefore every route depend on. Readers filter by link state,
    /// so failing and reviving links needs no upkeep here.
    switch_links: Vec<Vec<LinkId>>,
    host_links: Vec<Vec<LinkId>>,
    default_latency: SimDuration,
}

/// Default one-way link latency: 500 m of fibre ≈ 2.5 µs? No — SRC's LAN is
/// building-scale; we default to 1 µs, and generators may override per link.
const DEFAULT_LATENCY: SimDuration = SimDuration::from_micros(1);

/// Ports per AN2 switch (16 line cards, §1).
pub const AN2_SWITCH_PORTS: u8 = 16;
/// Ports per host controller: primary plus alternate link (Figure 1).
pub const HOST_PORTS: u8 = 2;

impl Topology {
    /// An empty network.
    pub fn new() -> Self {
        Topology {
            switch_ports: Vec::new(),
            host_ports: Vec::new(),
            links: Vec::new(),
            switch_links: Vec::new(),
            host_links: Vec::new(),
            default_latency: DEFAULT_LATENCY,
        }
    }

    /// Sets the default one-way latency applied to subsequently added links.
    pub fn set_default_latency(&mut self, latency: SimDuration) {
        self.default_latency = latency;
    }

    /// Adds a switch with the standard AN2 port count and returns its id.
    pub fn add_switch(&mut self) -> SwitchId {
        self.add_switch_with_ports(AN2_SWITCH_PORTS)
    }

    /// Adds a switch with a custom port count (AN1 used 12).
    pub fn add_switch_with_ports(&mut self, ports: u8) -> SwitchId {
        self.switch_ports.push(ports);
        self.switch_links.push(Vec::new());
        SwitchId((self.switch_ports.len() - 1) as u16)
    }

    /// Adds a host (two ports: active + alternate).
    pub fn add_host(&mut self) -> HostId {
        self.host_ports.push(HOST_PORTS);
        self.host_links.push(Vec::new());
        HostId((self.host_ports.len() - 1) as u16)
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_ports.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_ports.len()
    }

    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switch_ports.len()).map(|i| SwitchId(i as u16))
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.host_ports.len()).map(|i| HostId(i as u16))
    }

    /// All link ids (including dead links).
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId(i as u32))
    }

    /// Number of links (including dead ones).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    fn port_count(&self, node: Node) -> u8 {
        match node {
            Node::Switch(s) => self.switch_ports[s.0 as usize],
            Node::Host(h) => self.host_ports[h.0 as usize],
        }
    }

    /// Every link cabled to `node` (dead ones included), ascending.
    fn links_of(&self, node: Node) -> &[LinkId] {
        match node {
            Node::Switch(s) => &self.switch_links[s.0 as usize],
            Node::Host(h) => &self.host_links[h.0 as usize],
        }
    }

    fn links_of_mut(&mut self, node: Node) -> &mut Vec<LinkId> {
        match node {
            Node::Switch(s) => &mut self.switch_links[s.0 as usize],
            Node::Host(h) => &mut self.host_links[h.0 as usize],
        }
    }

    fn port_in_use(&self, node: Node, port: Port) -> bool {
        self.links_of(node)
            .iter()
            .any(|&id| self.near_end(id, node).port == port)
    }

    /// How wide `s` is cabled: one past its highest port with a link on it,
    /// whatever the link's state (0 = nothing cabled). Links are never
    /// removed, only marked dead, so this can grow with the topology but
    /// never shrink — it is the port count a data-plane switch needs to
    /// serve every cable `s` will ever see traffic on.
    pub fn cabled_ports(&self, s: SwitchId) -> usize {
        let node = Node::Switch(s);
        self.links_of(node)
            .iter()
            .map(|&id| self.near_end(id, node).port.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// The lowest-numbered free port on `node`, if any.
    pub fn free_port(&self, node: Node) -> Option<Port> {
        (0..self.port_count(node))
            .map(Port)
            .find(|&p| !self.port_in_use(node, p))
    }

    /// Connects two nodes on automatically chosen free ports.
    ///
    /// # Errors
    ///
    /// Fails on self-loops, host-to-host links, or port exhaustion.
    pub fn connect(&mut self, a: Node, b: Node) -> Result<LinkId, TopologyError> {
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
    pub fn connect_ports(&mut self, a: Endpoint, b: Endpoint) -> Result<LinkId, TopologyError> {
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
            latency: self.default_latency,
        });
        let id = LinkId((self.links.len() - 1) as u32);
        self.links_of_mut(a.node).push(id);
        self.links_of_mut(b.node).push(id);
        Ok(id)
    }

    /// Convenience: connect two switches on free ports.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::connect`].
    pub fn link_switches(&mut self, a: SwitchId, b: SwitchId) -> Result<LinkId, TopologyError> {
        self.connect(Node::Switch(a), Node::Switch(b))
    }

    /// Convenience: attach a host to a switch on free ports.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::connect`].
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

    /// One-way latency of a link.
    pub fn link_latency(&self, id: LinkId) -> SimDuration {
        self.links[id.0 as usize].latency
    }

    /// Overrides a link's one-way latency.
    pub fn set_link_latency(&mut self, id: LinkId, latency: SimDuration) {
        self.links[id.0 as usize].latency = latency;
    }

    /// Given a link and one of its endpoint nodes, the far endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of the link.
    pub fn far_end(&self, id: LinkId, from: Node) -> Endpoint {
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
        self.working_links_of(Node::Switch(s))
            .into_iter()
            .filter(|(_, far)| far.node == Node::Switch(t))
            .map(|(id, _)| id)
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
        for id in self.links() {
            let (a, b) = self.endpoints(id);
            if !matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_))) {
                continue;
            }
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
        for &id in &self.switch_links[s.0 as usize] {
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
    fn latency_defaults_and_overrides() {
        let mut t = Topology::new();
        t.set_default_latency(SimDuration::from_nanos(500));
        let a = t.add_switch();
        let b = t.add_switch();
        let l = t.link_switches(a, b).unwrap();
        assert_eq!(t.link_latency(l), SimDuration::from_nanos(500));
        t.set_link_latency(l, SimDuration::from_micros(50));
        assert_eq!(t.link_latency(l), SimDuration::from_micros(50));
    }

    #[test]
    fn error_display() {
        assert!(TopologyError::HostToHost.to_string().contains("switches"));
        assert!(TopologyError::SelfLoop(Node::Switch(SwitchId(1)))
            .to_string()
            .contains("sw1"));
    }
}
