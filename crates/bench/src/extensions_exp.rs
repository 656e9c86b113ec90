//! Experiment X1: the paper's "later versions" extensions, measured.
//!
//! §2 proposes (a) restricting reconfiguration "to switches near the
//! failing component" and (b) paging idle circuits out to reclaim
//! resources; §5 proposes (c) "dynamically altering buffer allocation
//! based on use". All three are implemented; this experiment quantifies
//! each against the baseline the first AN2 release shipped with.

use an2::{Network, VcId};
use an2_cells::Packet;
use an2_flow::sharing::{AllocationPolicy, SharedLinkConfig, SharedLinkSim};
use an2_reconfig::harness::ReconfigNet;
use an2_sim::SimRng;
use an2_topology::{generators, SwitchId};
use std::fmt::Write;

/// Delta-flood vs full-reconfiguration cost on one link failure.
#[derive(Debug, Clone)]
pub struct DeltaVsFull {
    /// Switches in the installation.
    pub switches: usize,
    /// Messages used by a full reconfiguration.
    pub full_messages: u64,
    /// Messages used by the incremental delta flood.
    pub delta_messages: u64,
    /// Both mechanisms left every view consistent with reality.
    pub both_consistent: bool,
}

/// X1a — incremental topology deltas vs full reconfiguration (§2).
pub fn x1_delta_vs_full() -> (Vec<DeltaVsFull>, String) {
    let mut rows = Vec::new();
    for switches in [8usize, 16, 32] {
        let topo = generators::src_installation(switches, 0);
        let victim = |net: &ReconfigNet| {
            net.topology()
                .links_between(SwitchId(1), SwitchId(2))
                .first()
                .copied()
                .expect("backbone link exists")
        };
        // Full reconfiguration.
        let mut full = ReconfigNet::with_defaults(topo.clone(), 77);
        full.run_to_quiescence().expect("the protocol quiesces");
        assert!(full.converged());
        let before = full.total_messages();
        let link = victim(&full);
        full.kill_link(link);
        full.run_to_quiescence().expect("the protocol quiesces");
        let full_messages = full.total_messages() - before;
        let full_ok = full.converged();
        // Delta flood.
        let mut delta = ReconfigNet::with_defaults(topo, 77);
        delta.run_to_quiescence().expect("the protocol quiesces");
        let before = delta.total_messages();
        let link = victim(&delta);
        delta.kill_link_delta(link);
        delta.run_to_quiescence().expect("the protocol quiesces");
        let delta_messages = delta.total_messages() - before;
        let edges = delta.actual_edges();
        let delta_ok = delta
            .topology()
            .switches()
            .all(|s| delta.view_edges_of(s).as_deref() == Some(&edges[..]));
        rows.push(DeltaVsFull {
            switches,
            full_messages,
            delta_messages,
            both_consistent: full_ok && delta_ok,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X1a  link failure handling: full reconfiguration vs delta flood (§2 extension)"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>15} {:>15} {:>12}",
        "switches", "full (msgs)", "delta (msgs)", "consistent"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>15} {:>15} {:>12}",
            r.switches, r.full_messages, r.delta_messages, r.both_consistent
        );
    }
    let _ = writeln!(
        out,
        "trade-off: deltas patch every view without rebuilding the spanning \
         tree, so up*/down* orientations age until the next full reconfiguration."
    );
    (rows, out)
}

/// Page-out measurements.
#[derive(Debug, Clone)]
pub struct PageOutRow {
    /// Circuits opened.
    pub circuits: usize,
    /// Circuits paged out after going idle.
    pub paged_out: usize,
    /// Routing-table entries across all switches before paging.
    pub entries_before: usize,
    /// Routing-table entries after paging.
    pub entries_after: usize,
    /// All paged circuits delivered traffic again after paging back in.
    pub all_recovered: bool,
}

/// X1b — paging idle circuits out reclaims switch resources (§2).
pub fn x1_page_out() -> (PageOutRow, String) {
    let mut net = Network::builder().src_installation(8, 16).seed(88).build();
    let hosts: Vec<_> = net.hosts().collect();
    let circuits: Vec<_> = (0..8)
        .map(|k| net.open_best_effort(hosts[k], hosts[15 - k]).unwrap())
        .collect();
    // Use every circuit once, then let them idle.
    for &vc in &circuits {
        net.send_packet(vc, Packet::from_bytes(vec![1; 500]))
            .unwrap();
    }
    net.step(20_000);
    let entries_before: usize = circuits
        .iter()
        .map(|&vc| net.circuit_path(vc).map_or(0, |p| p.len()))
        .sum();
    let paged = net.page_out_idle(5_000);
    let entries_after: usize = circuits
        .iter()
        .filter(|&&vc| !net.is_paged_out(vc))
        .map(|&vc| net.circuit_path(vc).map_or(0, |p| p.len()))
        .sum();
    // Wake every circuit back up.
    for &vc in &circuits {
        net.send_packet(vc, Packet::from_bytes(vec![2; 500]))
            .unwrap();
    }
    net.step(20_000);
    let all_recovered = circuits.iter().all(|&vc| {
        let s = net.stats(vc);
        s.packets_delivered == 2 && s.pages_in == s.pages_out
    });
    let row = PageOutRow {
        circuits: circuits.len(),
        paged_out: paged.len(),
        entries_before,
        entries_after,
        all_recovered,
    };
    let mut out = String::new();
    let _ = writeln!(out, "X1b  paging idle circuits out (§2 extension)");
    let _ = writeln!(
        out,
        "{} circuits opened; {} paged out after 5k idle slots; routing-table \
         entries {} -> {}; all delivered again after transparent page-in: {}",
        row.circuits, row.paged_out, row.entries_before, row.entries_after, row.all_recovered
    );
    (row, out)
}

/// Buffer-allocation comparison.
#[derive(Debug, Clone)]
pub struct AllocationRow {
    /// Policy label.
    pub policy: String,
    /// Aggregate link utilization.
    pub utilization: f64,
}

/// X1c — dynamic buffer allocation vs the static default (§5).
pub fn x1_dynamic_buffers() -> (Vec<AllocationRow>, String) {
    let vcs = 32;
    let total_buffers = 64;
    let demand: Vec<f64> = (0..vcs).map(|k| if k < 3 { 0.33 } else { 0.001 }).collect();
    let run = |policy: AllocationPolicy| {
        let mut sim = SharedLinkSim::new(SharedLinkConfig {
            vcs,
            total_buffers,
            latency_slots: 8,
            demand: demand.clone(),
            policy,
        });
        sim.run(60_000, &mut SimRng::new(89)).utilization
    };
    let rows = vec![
        AllocationRow {
            policy: "static (equal shares)".into(),
            utilization: run(AllocationPolicy::Static),
        },
        AllocationRow {
            policy: "dynamic (EWMA, floor 1)".into(),
            utilization: run(AllocationPolicy::Dynamic {
                adapt_interval: 500,
                alpha: 0.3,
            }),
        },
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X1c  buffer allocation on one link: {vcs} circuits, {total_buffers} \
         buffers, 16-slot round trip, 3 hot circuits (§5 extension)"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<26} link utilization {:.3}",
            r.policy, r.utilization
        );
    }
    let _ = writeln!(
        out,
        "paper: dynamic allocation 'could allow the link to support more \
         virtual circuits without adversely affecting performance.'"
    );
    (rows, out)
}

/// Load-balancing reroute measurements.
#[derive(Debug, Clone)]
pub struct RebalanceRow {
    /// Circuits opened.
    pub circuits: usize,
    /// Maximum circuits on any link before rebalancing.
    pub max_load_before: usize,
    /// After rebalancing to a fixed point.
    pub max_load_after: usize,
    /// Reroutes performed.
    pub moves: usize,
}

/// X1d — load-balancing reroute (§2): "a more speculative option is to
/// reroute circuits to balance the load on the network."
pub fn x1_rebalance() -> (RebalanceRow, String) {
    // Two switches, two parallel links, circuits piled on one by the
    // deterministic tie-break.
    let mut topo = generators::line(2);
    topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
    let mut hosts = Vec::new();
    for k in 0..12 {
        let h = topo.add_host();
        topo.attach_host(h, SwitchId((k % 2) as u16)).unwrap();
        hosts.push(h);
    }
    let mut net = Network::builder().topology(topo).seed(90).build();
    let circuits: Vec<VcId> = (0..6)
        .map(|k| {
            net.open_best_effort(hosts[2 * k], hosts[2 * k + 1])
                .unwrap()
        })
        .collect();
    let max_load_before = net.link_loads().iter().map(|&(_, c)| c).max().unwrap_or(0);
    let mut moves = 0;
    while net.rebalance().is_some() {
        moves += 1;
        assert!(moves <= 32, "rebalance failed to reach a fixed point");
    }
    let max_load_after = net.link_loads().iter().map(|&(_, c)| c).max().unwrap_or(0);
    let row = RebalanceRow {
        circuits: circuits.len(),
        max_load_before,
        max_load_after,
        moves,
    };
    let mut out = String::new();
    let _ = writeln!(out, "X1d  load-balancing reroute (§2 extension)");
    let _ = writeln!(
        out,
        "{} circuits over two parallel links: max circuits/link {} -> {}          in {} sideways reroutes (strict-improvement rule; terminates)",
        row.circuits, row.max_load_before, row.max_load_after, row.moves
    );
    (row, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x1a_delta_cheaper_and_consistent() {
        let (rows, _) = x1_delta_vs_full();
        for r in &rows {
            assert!(r.both_consistent, "{} switches", r.switches);
            assert!(
                r.delta_messages < r.full_messages,
                "{} switches: delta {} !< full {}",
                r.switches,
                r.delta_messages,
                r.full_messages
            );
        }
    }

    #[test]
    fn x1b_page_out_reclaims_and_recovers() {
        let (row, _) = x1_page_out();
        assert_eq!(row.paged_out, row.circuits);
        assert_eq!(row.entries_after, 0);
        assert!(row.entries_before > 0);
        assert!(row.all_recovered);
    }

    #[test]
    fn x1c_dynamic_wins_under_skew() {
        let (rows, _) = x1_dynamic_buffers();
        assert!(rows[1].utilization > rows[0].utilization + 0.3);
    }

    #[test]
    fn x1d_rebalance_halves_hot_link() {
        let (row, _) = x1_rebalance();
        assert_eq!(row.max_load_before, 6);
        assert_eq!(row.max_load_after, 3);
        assert_eq!(row.moves, 3);
    }
}
