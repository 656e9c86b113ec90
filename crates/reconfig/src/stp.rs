//! A BPDU-style spanning-tree control protocol (the classic 802.1D shape):
//! root election by lowest switch id, per-port roles, topology-change
//! notifications — the textbook rival the arena races against §2's
//! up\*/down\* reconfiguration.
//!
//! Every local link event opens a new *generation* (the epoch analog):
//! the observer resets its election state, floods a BPDU claiming itself
//! root, and sends a topology-change notification rootward. Higher
//! generations supersede lower ones, exactly like §2's epoch tags, so
//! overlapping failures resolve to one election. Within a generation the
//! usual BPDU order decides: lower root wins, then shorter distance, then
//! lower sender id.
//!
//! Routes are *tree paths*: `src → dst` climbs to the lowest common
//! ancestor and descends — every flow shares the tree's links, the
//! protocol's textbook weakness that the arena's path-stretch column
//! quantifies.

use crate::protocol::{ControlProtocol, LinkEvent, ProtocolKind, ProtocolMsg};
use crate::quiesce::{Edge, LiveView};
use crate::Tag;
use an2_sim::SimTime;
use an2_topology::{SwitchId, Topology};
use std::collections::BTreeMap;

/// Spanning-tree wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StpMsg {
    /// A configuration BPDU: "in generation `gen`, I believe `root` is
    /// root and I am `dist` hops from it."
    Bpdu {
        /// The election generation this BPDU belongs to.
        gen: u64,
        /// The sender's current root candidate.
        root: SwitchId,
        /// The sender's distance to that root.
        dist: u32,
        /// The sending switch.
        from: SwitchId,
    },
    /// A topology-change notification, forwarded rootward; the root
    /// answers by re-flooding its configuration.
    Tcn {
        /// The generation the change was observed in.
        gen: u64,
        /// The switch that observed the change.
        from: SwitchId,
    },
}

impl StpMsg {
    /// Serialized size on the wire, in bytes (gen 8 + root 2 + dist 4 +
    /// from 2 for a BPDU; gen 8 + from 2 for a TCN).
    pub fn wire_bytes(&self) -> usize {
        match self {
            StpMsg::Bpdu { .. } => 16,
            StpMsg::Tcn { .. } => 10,
        }
    }
}

#[derive(Debug)]
struct StpSwitch {
    /// Physical neighbors and whether the adjacency is up.
    neighbors: BTreeMap<SwitchId, bool>,
    /// Current election generation.
    gen: u64,
    /// Elected (or claimed) root.
    root: SwitchId,
    /// Hops to the root.
    dist: u32,
    /// The root-port neighbor; `None` when this switch is root.
    parent: Option<SwitchId>,
    /// Best (root, dist) heard per neighbor in the current generation.
    heard: BTreeMap<SwitchId, (SwitchId, u32)>,
    /// Last generation this switch forwarded a TCN for (dedup).
    tcn_gen: u64,
}

impl StpSwitch {
    fn up_neighbors(&self) -> Vec<SwitchId> {
        self.neighbors
            .iter()
            .filter(|(_, &up)| up)
            .map(|(&n, _)| n)
            .collect()
    }
}

/// The spanning-tree protocol instance: one election state machine per
/// switch, plus the route table snapshotted at install time.
pub struct StpProtocol {
    switches: Vec<StpSwitch>,
    messages_sent: u64,
    /// Snapshot taken by `prepare_routes`: per switch `(root, parent)`.
    table: Vec<(SwitchId, Option<SwitchId>)>,
}

impl StpProtocol {
    /// One idle instance per switch; everyone is its own root of an empty
    /// generation-0 tree until the first link event.
    pub fn new(switch_count: usize) -> Self {
        let mut switches = Vec::with_capacity(switch_count);
        for s in 0..switch_count {
            switches.push(StpSwitch {
                neighbors: BTreeMap::new(),
                gen: 0,
                root: SwitchId(s as u16),
                dist: 0,
                parent: None,
                heard: BTreeMap::new(),
                tcn_gen: 0,
            });
        }
        StpProtocol {
            switches,
            messages_sent: 0,
            table: Vec::new(),
        }
    }

    fn send(&mut self, out: &mut Vec<(SwitchId, ProtocolMsg)>, to: SwitchId, msg: StpMsg) {
        self.messages_sent += 1;
        out.push((to, ProtocolMsg::Stp(msg)));
    }

    /// Floods `sw`'s current configuration BPDU to every up neighbor.
    fn flood_bpdu(&mut self, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        let st = &self.switches[sw.0 as usize];
        let (gen, root, dist) = (st.gen, st.root, st.dist);
        for n in st.up_neighbors() {
            self.send(
                out,
                n,
                StpMsg::Bpdu {
                    gen,
                    root,
                    dist,
                    from: sw,
                },
            );
        }
    }

    /// Opens generation `gen` at `sw`: reset the election, claim root.
    fn reset(&mut self, sw: SwitchId, gen: u64) {
        let st = &mut self.switches[sw.0 as usize];
        st.gen = gen;
        st.root = sw;
        st.dist = 0;
        st.parent = None;
        st.heard.clear();
    }

    /// Re-runs `sw`'s election over everything heard this generation.
    /// Returns whether its advertised (root, dist) changed.
    fn recompute(&mut self, sw: SwitchId) -> bool {
        let st = &mut self.switches[sw.0 as usize];
        let before = (st.root, st.dist, st.parent);
        // Own claim: (self, 0); every up neighbor n offering (root, dist)
        // bids (root, dist + 1, n). Lexicographic minimum wins.
        let mut best: (SwitchId, u32, Option<SwitchId>) = (sw, 0, None);
        for (&n, &(root, dist)) in &st.heard {
            if !st.neighbors.get(&n).copied().unwrap_or(false) {
                continue;
            }
            let bid = (root, dist.saturating_add(1), Some(n));
            let better = bid.0 < best.0
                || (bid.0 == best.0 && bid.1 < best.1)
                || (bid.0 == best.0 && bid.1 == best.1 && n < best.2.unwrap_or(sw));
            if better {
                best = bid;
            }
        }
        (st.root, st.dist, st.parent) = best;
        (st.root, st.dist, st.parent) != before
    }

    /// A local topology change at `sw`: open a fresh generation, flood the
    /// new claim, and send a TCN toward the previous root port.
    fn topology_change(&mut self, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        let st = &self.switches[sw.0 as usize];
        let old_parent = st.parent;
        let gen = st.gen + 1;
        self.reset(sw, gen);
        self.switches[sw.0 as usize].tcn_gen = gen;
        self.flood_bpdu(sw, out);
        // The notification races the BPDU flood rootward along the old
        // tree; whichever arrives first restarts the election there.
        if let Some(p) = old_parent {
            if self.switches[sw.0 as usize]
                .neighbors
                .get(&p)
                .copied()
                .unwrap_or(false)
            {
                self.send(out, p, StpMsg::Tcn { gen, from: sw });
            }
        }
    }

    /// Walks `s`'s parent chain in the snapshot to the root. `None` on a
    /// cycle or missing link (stale snapshot).
    fn ancestry(&self, s: SwitchId) -> Option<Vec<SwitchId>> {
        let mut chain = vec![s];
        let mut cur = s;
        while let Some(&(_, parent)) = self.table.get(cur.0 as usize) {
            match parent {
                None => return Some(chain),
                Some(p) => {
                    if chain.len() > self.table.len() {
                        return None; // cycle in a stale snapshot
                    }
                    chain.push(p);
                    cur = p;
                }
            }
        }
        None
    }
}

impl ControlProtocol for StpProtocol {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::SpanningTree
    }

    fn on_link_event(
        &mut self,
        _now: SimTime,
        sw: SwitchId,
        ev: LinkEvent,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        match ev {
            LinkEvent::Boot => {}
            LinkEvent::Up { neighbor, .. } => {
                self.switches[sw.0 as usize]
                    .neighbors
                    .insert(neighbor, true);
            }
            LinkEvent::Down { neighbor } | LinkEvent::DownDelta { neighbor } => {
                let st = &mut self.switches[sw.0 as usize];
                if !st.neighbors.get(&neighbor).copied().unwrap_or(false) {
                    return; // already down: nothing changed
                }
                st.neighbors.insert(neighbor, false);
                st.heard.remove(&neighbor);
            }
        }
        self.topology_change(sw, out);
    }

    fn on_message(
        &mut self,
        _now: SimTime,
        sw: SwitchId,
        msg: ProtocolMsg,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        let ProtocolMsg::Stp(msg) = msg else { return };
        match msg {
            StpMsg::Bpdu {
                gen,
                root,
                dist,
                from,
            } => {
                let st = &mut self.switches[sw.0 as usize];
                if !st.neighbors.get(&from).copied().unwrap_or(false) {
                    return; // from a neighbor we consider dead
                }
                if gen < st.gen {
                    return; // a superseded generation
                }
                let adopted = gen > st.gen;
                if adopted {
                    self.reset(sw, gen);
                }
                self.switches[sw.0 as usize]
                    .heard
                    .insert(from, (root, dist));
                let changed = self.recompute(sw);
                if adopted || changed {
                    self.flood_bpdu(sw, out);
                }
            }
            StpMsg::Tcn { gen, from } => {
                let st = &mut self.switches[sw.0 as usize];
                if !st.neighbors.get(&from).copied().unwrap_or(false) {
                    return;
                }
                if gen > st.gen {
                    // The change outran its BPDU flood: restart here too.
                    self.reset(sw, gen);
                    self.switches[sw.0 as usize].tcn_gen = gen;
                    self.flood_bpdu(sw, out);
                    return;
                }
                let st = &mut self.switches[sw.0 as usize];
                if gen < st.gen || st.tcn_gen >= gen {
                    return; // stale, or already handled this generation
                }
                st.tcn_gen = gen;
                match st.parent {
                    // Not root: keep forwarding rootward.
                    Some(p) => self.send(out, p, StpMsg::Tcn { gen, from: sw }),
                    // Root: acknowledge by re-flooding the configuration.
                    None => self.flood_bpdu(sw, out),
                }
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        // Lost BPDUs stalled the election: open a fresh generation, which
        // forces every reachable switch to re-elect from scratch.
        self.topology_change(sw, out);
    }

    fn progress_tag(&self) -> Tag {
        self.switches
            .iter()
            .map(|st| Tag {
                epoch: st.gen,
                initiator: st.root,
            })
            .max()
            .unwrap_or(Tag::ZERO)
    }

    fn convergence(&self, lv: &LiveView<'_>) -> Result<Tag, SwitchId> {
        let mut best = Tag::ZERO;
        for live in lv.live_partitions() {
            let Some(&lowest) = live.first() else {
                continue;
            };
            let first = &self.switches[lowest.0 as usize];
            let (gen, root) = (first.gen, first.root);
            // The true root of a lowest-id election is the partition's
            // lowest live member — which is `lowest` itself.
            if root != lowest {
                return Err(lowest);
            }
            for &s in &live {
                let st = &self.switches[s.0 as usize];
                if st.gen != gen || st.root != root {
                    return Err(lowest);
                }
                match st.parent {
                    None => {
                        if s != root || st.dist != 0 {
                            return Err(lowest);
                        }
                    }
                    Some(p) => {
                        // The root port must lead one hop closer to the
                        // root over a live, working adjacency — distances
                        // strictly decreasing rootward make the tree
                        // loop-free by construction.
                        let pd = self.switches[p.0 as usize].dist;
                        if !live.contains(&p)
                            || !lv.topo.switch_neighbors(s).contains(&p)
                            || st.dist != pd + 1
                        {
                            return Err(lowest);
                        }
                    }
                }
            }
            best = best.max(Tag {
                epoch: gen,
                initiator: root,
            });
        }
        Ok(best)
    }

    fn view_edges(&self, _sw: SwitchId) -> Option<Vec<Edge>> {
        None // the tree is the only topology a bridge learns
    }

    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    fn prepare_routes(&mut self, switch_count: usize, _live: &[SwitchId], _edges: &[Edge]) {
        // Routes come from the protocol's own converged tree, not the
        // ground-truth adjacency — the whole point of the arena.
        self.table = (0..switch_count)
            .map(|s| {
                let st = &self.switches[s];
                (st.root, st.parent)
            })
            .collect();
    }

    fn switch_route(
        &mut self,
        _topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>> {
        if self.table.get(src.0 as usize)?.0 != self.table.get(dst.0 as usize)?.0 {
            return None; // different trees: partitioned
        }
        let up = self.ancestry(src)?;
        let down = self.ancestry(dst)?;
        // Splice at the lowest common ancestor: first switch on src's
        // rootward chain that also lies on dst's.
        let (i, j) = up
            .iter()
            .enumerate()
            .find_map(|(i, s)| down.iter().position(|d| d == s).map(|j| (i, j)))?;
        let mut path: Vec<SwitchId> = up[..=i].to_vec();
        path.extend(down[..j].iter().rev());
        Some(path)
    }

    fn invalidate_edge(&mut self, _a: SwitchId, _b: SwitchId) {
        self.table.clear(); // conservatively drop the whole snapshot
    }

    fn invalidate_all(&mut self) {
        self.table.clear();
    }
}
