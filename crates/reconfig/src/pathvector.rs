//! A path-vector control protocol (the BGP/AS-path shape): every switch
//! advertises its full path to each destination, receivers reject paths
//! containing themselves, and routes a neighbor is the next hop for are
//! poisoned back to it — the loop-suppression pair that replaces §2's
//! global epoch agreement.
//!
//! Updates are *authoritative table syncs*: one message carries the
//! sender's position for every destination (a real path or an explicit
//! withdrawal), so a received update fully supersedes whatever the
//! receiver previously learned from that neighbor. That makes recovery
//! from lost messages a plain re-send (the stall timer's job) at the cost
//! of chattier bytes — the arena's control-overhead column measures
//! exactly this trade against up\*/down\*'s three-phase exchange.
//!
//! Generations play the epoch role: every local link event bumps the
//! observer's generation, updates carry it, receivers adopt the maximum
//! and re-sync, and convergence requires a partition-uniform generation —
//! the quiescence analog of §2's tag agreement.

use crate::protocol::{ControlProtocol, LinkEvent, ProtocolKind, ProtocolMsg};
use crate::quiesce::{Edge, LiveView};
use crate::Tag;
use an2_sim::SimTime;
use an2_topology::{SwitchId, Topology};
use std::collections::BTreeMap;

/// Path-vector wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PvMsg {
    /// An authoritative routing-table sync from one neighbor.
    Update {
        /// The sender's generation (adopt the maximum seen).
        gen: u64,
        /// The sending switch.
        from: SwitchId,
        /// Per-destination paths, sender first (`[from, .., dest]`); an
        /// empty path is an explicit withdrawal (poisoned reverse or a
        /// destination the sender cannot reach).
        entries: Vec<(SwitchId, Vec<SwitchId>)>,
    },
}

impl PvMsg {
    /// Serialized size on the wire, in bytes: gen 8 + from 2, then per
    /// entry dest 2 + length 2 + 2 per path hop.
    pub fn wire_bytes(&self) -> usize {
        match self {
            PvMsg::Update { entries, .. } => {
                10 + entries.iter().map(|(_, p)| 4 + 2 * p.len()).sum::<usize>()
            }
        }
    }
}

#[derive(Debug, Default)]
struct PvSwitch {
    /// Physical neighbors and whether the adjacency is up.
    neighbors: BTreeMap<SwitchId, bool>,
    /// Best known path per destination, *excluding* this switch itself:
    /// `routes[d] = [next_hop, .., d]`; the self entry is the empty path.
    routes: BTreeMap<SwitchId, Vec<SwitchId>>,
    /// This switch's activity generation.
    gen: u64,
}

impl PvSwitch {
    fn up_neighbors(&self) -> Vec<SwitchId> {
        self.neighbors
            .iter()
            .filter(|(_, &up)| up)
            .map(|(&n, _)| n)
            .collect()
    }
}

/// The path-vector protocol instance, plus the route tables snapshotted at
/// install time.
pub struct PvProtocol {
    switches: Vec<PvSwitch>,
    switch_count: usize,
    messages_sent: u64,
    /// Snapshot taken by `prepare_routes`: per-switch route tables.
    table: Vec<BTreeMap<SwitchId, Vec<SwitchId>>>,
}

impl PvProtocol {
    /// One instance per switch; everyone starts knowing only itself.
    pub fn new(switch_count: usize) -> Self {
        let mut switches = Vec::with_capacity(switch_count);
        for s in 0..switch_count {
            let mut sw = PvSwitch::default();
            sw.routes.insert(SwitchId(s as u16), Vec::new());
            switches.push(sw);
        }
        PvProtocol {
            switches,
            switch_count,
            messages_sent: 0,
            table: Vec::new(),
        }
    }

    /// Sends `sw`'s full table to every up neighbor, split-horizon
    /// poisoned: destinations the receiver is the next hop for, and
    /// destinations `sw` cannot reach, go out as explicit withdrawals.
    fn sync_all(&mut self, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        let st = &self.switches[sw.0 as usize];
        let gen = st.gen;
        let targets = st.up_neighbors();
        for n in targets {
            let st = &self.switches[sw.0 as usize];
            let mut entries = Vec::with_capacity(self.switch_count);
            for d in 0..self.switch_count {
                let dest = SwitchId(d as u16);
                let path = match st.routes.get(&dest) {
                    // Poisoned reverse: never offer a route back through
                    // its own next hop.
                    Some(p) if p.first() == Some(&n) => Vec::new(),
                    Some(p) => {
                        let mut adv = Vec::with_capacity(p.len() + 1);
                        adv.push(sw);
                        adv.extend_from_slice(p);
                        adv
                    }
                    None => Vec::new(),
                };
                entries.push((dest, path));
            }
            self.messages_sent += 1;
            out.push((
                n,
                ProtocolMsg::Pv(PvMsg::Update {
                    gen,
                    from: sw,
                    entries,
                }),
            ));
        }
    }

    /// Applies one advertised entry at `sw`. Returns whether the table
    /// changed.
    fn apply_entry(
        &mut self,
        sw: SwitchId,
        from: SwitchId,
        dest: SwitchId,
        path: &[SwitchId],
    ) -> bool {
        if dest == sw {
            return false; // own entry is immutable
        }
        let cap = self.switch_count;
        let st = &mut self.switches[sw.0 as usize];
        let via_from = st
            .routes
            .get(&dest)
            .is_some_and(|p| p.first() == Some(&from));
        // A withdrawal only invalidates what was learned from this
        // neighbor; so does a rejected path (loop back through us, or
        // implausibly long) — the advertiser can no longer be our next
        // hop for this destination.
        if path.is_empty() || path.contains(&sw) || path.len() > cap {
            return via_from && st.routes.remove(&dest).is_some();
        }
        let candidate = path.to_vec(); // [from, .., dest] — from IS the next hop
        match st.routes.get(&dest) {
            // Whatever the current next hop says replaces the old word,
            // better or worse; other neighbors' offers must strictly win.
            Some(cur) if !via_from => {
                if candidate.len() < cur.len() || (candidate.len() == cur.len() && candidate < *cur)
                {
                    st.routes.insert(dest, candidate);
                    true
                } else {
                    false
                }
            }
            Some(cur) if *cur == candidate => false,
            _ => {
                st.routes.insert(dest, candidate);
                true
            }
        }
    }
}

impl ControlProtocol for PvProtocol {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::PathVector
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
                let st = &mut self.switches[sw.0 as usize];
                st.neighbors.insert(neighbor, true);
                // The direct route is the shortest possible: adopt it.
                st.routes.insert(neighbor, vec![neighbor]);
            }
            LinkEvent::Down { neighbor } | LinkEvent::DownDelta { neighbor } => {
                let st = &mut self.switches[sw.0 as usize];
                if !st.neighbors.get(&neighbor).copied().unwrap_or(false) {
                    return;
                }
                st.neighbors.insert(neighbor, false);
                // Every route through the dead next hop is gone.
                st.routes.retain(|_, p| p.first() != Some(&neighbor));
            }
        }
        self.switches[sw.0 as usize].gen += 1;
        self.sync_all(sw, out);
    }

    fn on_message(
        &mut self,
        _now: SimTime,
        sw: SwitchId,
        msg: ProtocolMsg,
        out: &mut Vec<(SwitchId, ProtocolMsg)>,
    ) {
        let ProtocolMsg::Pv(PvMsg::Update { gen, from, entries }) = msg else {
            return;
        };
        let st = &mut self.switches[sw.0 as usize];
        if !st.neighbors.get(&from).copied().unwrap_or(false) {
            return; // from a neighbor we consider dead
        }
        let adopted = gen > st.gen;
        if adopted {
            st.gen = gen;
        }
        let mut changed = false;
        for (dest, path) in &entries {
            changed |= self.apply_entry(sw, from, *dest, path);
        }
        // Re-sync on any table change, and on generation adoption so the
        // new generation floods even through unchanged tables.
        if changed || adopted {
            self.sync_all(sw, out);
        }
    }

    fn on_timer(&mut self, _now: SimTime, sw: SwitchId, out: &mut Vec<(SwitchId, ProtocolMsg)>) {
        // Lost updates left someone stale: bump the generation and re-sync
        // (receivers adopt and cascade).
        self.switches[sw.0 as usize].gen += 1;
        self.sync_all(sw, out);
    }

    fn progress_tag(&self) -> Tag {
        Tag {
            epoch: self.switches.iter().map(|st| st.gen).max().unwrap_or(0),
            initiator: SwitchId(0),
        }
    }

    fn convergence(&self, lv: &LiveView<'_>) -> Result<Tag, SwitchId> {
        let mut best = Tag::ZERO;
        for live in lv.live_partitions() {
            let Some(&lowest) = live.first() else {
                continue;
            };
            let gen = self.switches[lowest.0 as usize].gen;
            for &s in &live {
                let st = &self.switches[s.0 as usize];
                if st.gen != gen {
                    return Err(lowest);
                }
                // Exactly the partition's live members are reachable.
                let dests: Vec<SwitchId> = st.routes.keys().copied().collect();
                if dests != live {
                    return Err(lowest);
                }
                for (&dest, path) in &st.routes {
                    if dest == s {
                        if !path.is_empty() {
                            return Err(lowest);
                        }
                        continue;
                    }
                    // A valid path: ends at the destination, every hop a
                    // live member, consecutive hops working adjacencies,
                    // no switch visited twice.
                    if path.last() != Some(&dest) {
                        return Err(lowest);
                    }
                    let mut prev = s;
                    for (i, &hop) in path.iter().enumerate() {
                        if !live.contains(&hop)
                            || !lv.topo.switch_neighbors(prev).contains(&hop)
                            || path[..i].contains(&hop)
                            || hop == s
                        {
                            return Err(lowest);
                        }
                        prev = hop;
                    }
                }
            }
            best = best.max(Tag {
                epoch: gen,
                initiator: SwitchId(0),
            });
        }
        Ok(best)
    }

    fn view_edges(&self, _sw: SwitchId) -> Option<Vec<Edge>> {
        None // a path-vector speaker never learns the full topology
    }

    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    fn prepare_routes(&mut self, _switch_count: usize, _live: &[SwitchId], _edges: &[Edge]) {
        // Routes come from the protocol's own tables, not the ground
        // truth: installed paths are what the speakers actually agreed on.
        self.table = self.switches.iter().map(|st| st.routes.clone()).collect();
    }

    fn switch_route(
        &mut self,
        _topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>> {
        let stored = self.table.get(src.0 as usize)?.get(&dst)?;
        let mut path = Vec::with_capacity(stored.len() + 1);
        path.push(src);
        path.extend_from_slice(stored);
        Some(path)
    }

    fn invalidate_edge(&mut self, _a: SwitchId, _b: SwitchId) {
        self.table.clear(); // conservatively drop the whole snapshot
    }

    fn invalidate_all(&mut self) {
        self.table.clear();
    }
}
