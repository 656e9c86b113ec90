//! Experiment N9: the protocol arena — up\*/down\* vs the BPDU-style
//! spanning tree vs path vector, raced over the same fabric, fault layer,
//! and failure schedule.
//!
//! Every cell of the topology × loss grid runs all three
//! [`an2::ProtocolKind`]s through an identical script: boot, converge,
//! steady best-effort traffic, one permanent backbone-link failure,
//! reconverge. The columns are the §2 trade-offs the rivals move along:
//!
//! - **convergence time** — dead-link verdict → routes reinstalled, in
//!   simulated milliseconds (the paper's < 200 ms budget is the up\*/down\*
//!   yardstick);
//! - **control-cell overhead** — 53-byte control cells put on real wires
//!   over the whole run (path vector's authoritative full-table syncs pay
//!   here);
//! - **cells lost during reconvergence** — data cells destroyed or dropped
//!   between the verdict and the reinstall (slower convergence leaves
//!   circuits on dead paths longer);
//! - **routed-path stretch** — mean installed-path hops over shortest-path
//!   hops across surviving circuits (the spanning tree pays here: every
//!   route must climb to the tree, shortcuts are blocked).

use crate::{quiet_spec, NEVER};
use an2::{FlapEvent, LossModel, Network, ProtocolKind, ReconfigEvent, SwitchId};
use an2_cells::Packet;
use an2_topology::{generators, Topology};
use std::collections::VecDeque;
use std::fmt::Write;

/// One (protocol, topology, loss) cell's measured outcome.
pub struct ArenaRow {
    /// Protocol name (updown / stp / pathvector).
    pub protocol: String,
    /// Topology name (src4 / ring5).
    pub topology: String,
    /// Independent per-cell loss probability on every link.
    pub loss: f64,
    /// Dead-link verdict → routes reinstalled, in simulated ms.
    pub converge_ms: f64,
    /// Control cells sent over the whole run.
    pub ctrl_cells: u64,
    /// Control messages sent over the whole run.
    pub ctrl_messages: u64,
    /// Control messages destroyed by loss, dead links, or crashes.
    pub ctrl_lost: u64,
    /// Data cells lost or dropped in the reconvergence window.
    pub reconv_lost_cells: u64,
    /// Mean installed-path hops / shortest-path hops over surviving
    /// circuits (1.0 = every route shortest).
    pub stretch: f64,
    /// Circuits still open after reconvergence.
    pub surviving: u64,
    /// Whether the protocol reconverged within the horizon.
    pub converged: bool,
}

/// BFS hop count between two switches over the current working adjacency.
fn shortest_hops(topo: &Topology, src: SwitchId, dst: SwitchId) -> Option<u64> {
    if src == dst {
        return Some(0);
    }
    let n = topo.switch_count();
    let mut dist = vec![u64::MAX; n];
    dist[src.0 as usize] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(s) = q.pop_front() {
        for t in topo.switch_neighbors(s) {
            if dist[t.0 as usize] == u64::MAX {
                dist[t.0 as usize] = dist[s.0 as usize] + 1;
                if t == dst {
                    return Some(dist[t.0 as usize]);
                }
                q.push_back(t);
            }
        }
    }
    None
}

/// The two arena topologies: a Figure 1–style dual-homed installation and
/// a single-homed ring.
fn arena_topologies() -> Vec<(&'static str, Topology)> {
    let mut ring = generators::ring(5);
    for k in 0..10 {
        let h = ring.add_host();
        ring.attach_host(h, SwitchId((k % 5) as u16))
            .expect("ring host attach");
    }
    vec![
        ("src4", generators::src_installation(4, 8)),
        ("src6", generators::src_installation(6, 12)),
        ("ring5", ring),
    ]
}

/// Runs one protocol through the shared failure script on one grid cell.
fn run_cell(kind: ProtocolKind, topo_name: &str, topo: Topology, loss: f64) -> ArenaRow {
    const FAIL_AT: u64 = 40_000;
    const CHUNK: u64 = 2_000;
    const HORIZON: u64 = 1_500_000;
    let seed = 11;

    let mut net = Network::builder()
        .topology(topo)
        .seed(seed)
        .protocol(kind)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let half = (hosts.len() / 2).max(1);
    let mut vcs = Vec::new();
    for i in 0..half.min(6) {
        let (a, b) = (hosts[i], hosts[(i + half) % hosts.len()]);
        if let Ok(vc) = net.open_best_effort(a, b) {
            vcs.push(vc);
        }
    }

    let mut spec = quiet_spec();
    if loss > 0.0 {
        spec.default_link.loss = LossModel::Independent { p: loss };
    }
    // Fail the highest-id backbone link: present in every arena topology,
    // and in the dual-homed installation it cuts a backbone adjacency
    // rather than an access link.
    let (victim, _, _) = net
        .topology()
        .switch_links()
        .last()
        .expect("arena topologies have a backbone");
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at: FAIL_AT,
        up_at: NEVER,
    });
    net.attach_faults(&spec, seed);
    net.enable_control_plane();

    // Steady traffic through boot, failure, and reconvergence. Watch the
    // reconfiguration log for the verdict and the reinstall that follows
    // it; snapshot data-loss counters at both edges.
    let lost_now = |net: &Network| -> u64 {
        vcs.iter()
            .map(|&vc| {
                let st = net.stats(vc);
                st.lost_cells + st.dropped_cells
            })
            .sum()
    };
    let mut verdict_slot: Option<u64> = None;
    let mut reinstall_slot: Option<u64> = None;
    let mut lost_at_verdict = 0u64;
    let mut lost_at_reinstall = 0u64;
    while net.slot() < HORIZON {
        for &vc in &vcs {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![0x42; 300]));
            }
        }
        net.step(CHUNK);
        if verdict_slot.is_none() {
            if let Some(s) = net.reconfig_log().iter().find_map(|e| match *e {
                ReconfigEvent::LinkDead { slot, .. } => Some(slot),
                _ => None,
            }) {
                verdict_slot = Some(s);
                lost_at_verdict = lost_now(&net);
            }
        }
        if let Some(vs) = verdict_slot {
            if reinstall_slot.is_none() {
                if let Some(s) = net.reconfig_log().iter().find_map(|e| match *e {
                    ReconfigEvent::RoutesInstalled { slot, .. } if slot >= vs => Some(slot),
                    _ => None,
                }) {
                    // The reinstall only counts once the protocol also
                    // reports convergence (a parallel-link reinstall can
                    // fire without a reconfiguration).
                    if net.control_converged() {
                        reinstall_slot = Some(s);
                        lost_at_reinstall = lost_now(&net);
                        break;
                    }
                }
            }
        }
    }

    let slot_ms = net.slot_duration().as_nanos() as f64 / 1e6;
    let converge_ms = match (verdict_slot, reinstall_slot) {
        (Some(v), Some(r)) => (r - v) as f64 * slot_ms,
        _ => f64::NAN,
    };

    // Path stretch over the survivor topology: installed hops vs BFS
    // shortest hops between each circuit's chosen attachment switches.
    let mut stretch_sum = 0.0;
    let mut stretch_n = 0u64;
    let mut surviving = 0u64;
    for &vc in &vcs {
        let Some((switches, _, _, _)) = net.circuit_wiring(vc) else {
            continue;
        };
        surviving += 1;
        let (src, dst) = (switches[0], *switches.last().expect("non-empty path"));
        if let Some(short) = shortest_hops(net.topology(), src, dst) {
            if short > 0 {
                stretch_sum += (switches.len() as u64 - 1) as f64 / short as f64;
                stretch_n += 1;
            }
        }
    }
    let cc = net.ctrl_counters();
    ArenaRow {
        protocol: match kind {
            ProtocolKind::UpDown => "updown",
            ProtocolKind::SpanningTree => "stp",
            ProtocolKind::PathVector => "pathvector",
        }
        .into(),
        topology: topo_name.into(),
        loss,
        converge_ms,
        ctrl_cells: cc.cells_sent,
        ctrl_messages: cc.messages_sent,
        ctrl_lost: cc.messages_lost,
        reconv_lost_cells: lost_at_reinstall.saturating_sub(lost_at_verdict),
        stretch: if stretch_n > 0 {
            stretch_sum / stretch_n as f64
        } else {
            1.0
        },
        surviving,
        converged: reinstall_slot.is_some(),
    }
}

/// N9: the full grid — 3 topologies × 2 loss rates × 3 protocols.
pub fn n9_protocol_arena() -> (Vec<ArenaRow>, String) {
    let mut rows = Vec::new();
    for (name, topo) in arena_topologies() {
        for &loss in &[0.0, 0.02] {
            for kind in [
                ProtocolKind::UpDown,
                ProtocolKind::SpanningTree,
                ProtocolKind::PathVector,
            ] {
                rows.push(run_cell(kind, name, topo.clone(), loss));
            }
        }
    }

    let mut text = String::from(
        "N9: protocol arena — one failure, three control planes\n\
         topology  loss    protocol    converge_ms  ctrl_cells  ctrl_lost  reconv_lost  stretch  surviving\n",
    );
    for r in &rows {
        writeln!(
            text,
            "{:<9} {:<7.3} {:<11} {:>11.2} {:>11} {:>10} {:>12} {:>8.3} {:>10}",
            r.topology,
            r.loss,
            r.protocol,
            r.converge_ms,
            r.ctrl_cells,
            r.ctrl_lost,
            r.reconv_lost_cells,
            r.stretch,
            r.surviving,
        )
        .expect("string write");
        assert!(
            r.converged,
            "{}/{} (loss {}) failed to reconverge within the horizon",
            r.protocol, r.topology, r.loss
        );
    }
    // The acceptance shape, asserted rather than eyeballed: up*/down*
    // stays inside the paper's 200 ms budget on every cell, and the
    // spanning tree's tree-path routing can never beat shortest paths.
    for r in &rows {
        if r.protocol == "updown" {
            assert!(
                r.converge_ms < 200.0,
                "up*/down* blew the 200 ms budget on {}/{}: {:.2} ms",
                r.topology,
                r.loss,
                r.converge_ms
            );
        }
        assert!(
            r.stretch >= 1.0 - 1e-9,
            "{}/{}: stretch {:.3} below 1 — shortest-path arithmetic is wrong",
            r.protocol,
            r.topology,
            r.stretch
        );
    }
    (rows, text)
}
