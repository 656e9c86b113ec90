//! Experiments E1 and E12: reconfiguration speed and behaviour (§1, §2).

use an2_reconfig::harness::ReconfigNet;
use an2_reconfig::monitor::{LinkMonitor, LinkVerdict, MonitorConfig};
use an2_reconfig::skeptic::SkepticConfig;
use an2_sim::{SimDuration, SimRng};
use an2_topology::{generators, SpanningTree, SwitchId, Topology};
use std::fmt::Write;

/// One reconfiguration measurement.
#[derive(Debug, Clone)]
pub struct ReconfigRun {
    /// Topology label.
    pub topology: String,
    /// Switch count.
    pub switches: usize,
    /// Virtual time from failure to the last survivor's completed view.
    pub reconfig_time: SimDuration,
    /// Protocol messages used for the reconfiguration.
    pub messages: u64,
    /// Whether the survivors converged on the correct topology.
    pub converged: bool,
}

/// E1 — the paper's demo: kill a switch, measure time to reconverge.
/// "The network reconfigures in less than 200 milliseconds."
pub fn e1_pull_the_plug() -> (Vec<ReconfigRun>, String) {
    let cases: Vec<(String, Topology)> = vec![
        ("src-8".into(), generators::src_installation(8, 0)),
        ("src-16".into(), generators::src_installation(16, 0)),
        ("src-24".into(), generators::src_installation(24, 0)),
        ("torus-4x4".into(), generators::torus(4, 4)),
        ("torus-6x6".into(), generators::torus(6, 6)),
    ];
    let mut rows = Vec::new();
    for (name, topo) in cases {
        let switches = topo.switch_count();
        let mut net = ReconfigNet::with_defaults(topo, 1000);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.converged());
        let msgs_before = net.total_messages();
        let t0 = net.now();
        // Kill a middle switch, as the demo pulls an arbitrary plug.
        let victim = SwitchId((switches / 2) as u16);
        net.kill_switch(victim);
        net.run_to_quiescence().expect("the protocol quiesces");
        let survivor = SwitchId(0);
        let converged = net.partition_converged(survivor);
        let reconfig_time = net
            .last_completion(survivor)
            .map(|t| t.duration_since(t0))
            .unwrap_or(SimDuration::ZERO);
        rows.push(ReconfigRun {
            topology: name,
            switches,
            reconfig_time,
            messages: net.total_messages() - msgs_before,
            converged,
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "E1  pull the plug on a switch: time to reconverge");
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>14} {:>10} {:>10} {:>8}",
        "topology", "switches", "reconfig time", "messages", "converged", "<200ms"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>14} {:>10} {:>10} {:>8}",
            r.topology,
            r.switches,
            r.reconfig_time.to_string(),
            r.messages,
            r.converged,
            r.reconfig_time < SimDuration::from_millis(200),
        );
    }
    let _ = writeln!(
        out,
        "(per-message line-card software cost modelled at 100us; links 1us)"
    );
    (rows, out)
}

/// Tree-quality and damping measurements for E12.
#[derive(Debug, Clone)]
pub struct E12Report {
    /// (topology, propagation-tree height, BFS height) rows.
    pub tree_heights: Vec<(String, u32, u32)>,
    /// Concurrent reconfigurations all converged.
    pub overlap_converged: bool,
    /// Verdict transitions of a worst-case flapping link in consecutive
    /// 100-second windows.
    pub flap_transitions: Vec<u32>,
}

/// E12 — propagation-order trees are near-BFS; overlapping
/// reconfigurations converge via epoch tags; the skeptic damps flapping.
pub fn e12_reconfig_behaviour() -> (E12Report, String) {
    // Tree quality.
    let mut tree_heights = Vec::new();
    for (name, topo) in [
        ("torus-5x5".to_string(), generators::torus(5, 5)),
        ("mesh-4x6".to_string(), generators::mesh(4, 6)),
        ("src-16".to_string(), generators::src_installation(16, 0)),
        (
            "random-24".to_string(),
            generators::random_connected(24, 20, &mut SimRng::new(5)),
        ),
    ] {
        let mut net = ReconfigNet::with_defaults(topo, 11);
        net.run_to_quiescence().expect("the protocol quiesces");
        assert!(net.converged());
        let tree = net.spanning_tree(SwitchId(0));
        let bfs = SpanningTree::bfs(net.topology(), tree.root());
        tree_heights.push((name, tree.height(), bfs.height()));
    }

    // Overlapping reconfigurations: kill three links at the same instant.
    let mut net = ReconfigNet::with_defaults(generators::torus(4, 4), 13);
    net.run_to_quiescence().expect("the protocol quiesces");
    for (a, b) in [(0u16, 1u16), (5, 6), (10, 11)] {
        let link = net.topology().links_between(SwitchId(a), SwitchId(b))[0];
        net.kill_link(link);
    }
    net.run_to_quiescence().expect("the protocol quiesces");
    let overlap_converged = net.converged();

    // Skeptic damping: a worst-case flapper, transitions per window.
    let cfg = MonitorConfig {
        ping_interval: SimDuration::from_millis(10),
        fail_threshold: 3,
        recover_threshold: 5,
        skeptic: SkepticConfig {
            base_wait: SimDuration::from_millis(100),
            max_level: 16,
            decay_after: SimDuration::from_secs(600),
        },
    };
    let mut monitor = LinkMonitor::new(cfg);
    let window_pings = 10_000u64; // 100 s per window at 10 ms pings
    let mut flap_transitions = Vec::new();
    let mut now = an2_sim::SimTime::ZERO;
    for _ in 0..4 {
        let mut transitions = 0;
        for _ in 0..window_pings {
            // Worst-case flapper: fails whenever declared working, behaves
            // whenever declared dead.
            let ok = monitor.verdict() == LinkVerdict::Dead;
            now += SimDuration::from_millis(10);
            if monitor.on_ping(ok, now).is_some() {
                transitions += 1;
            }
        }
        flap_transitions.push(transitions);
    }

    let report = E12Report {
        tree_heights,
        overlap_converged,
        flap_transitions,
    };
    let mut out = String::new();
    let _ = writeln!(out, "E12  reconfiguration behaviour");
    let _ = writeln!(out, "propagation-order tree vs breadth-first tree:");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12}",
        "topology", "prop height", "BFS height"
    );
    for (name, ph, bh) in &report.tree_heights {
        let _ = writeln!(out, "{name:<12} {ph:>12} {bh:>12}");
    }
    let _ = writeln!(
        out,
        "three simultaneous link failures, epoch-tag resolution: converged = {}",
        report.overlap_converged
    );
    let _ = writeln!(
        out,
        "worst-case flapping link, verdict transitions per 100s window: {:?}",
        report.flap_transitions
    );
    let _ = writeln!(
        out,
        "paper: the tree is 'usually very close to a breadth-first tree'; the \
         skeptic makes flapping-induced reconfigurations increasingly rare."
    );
    (report, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_under_200ms() {
        let (rows, _) = e1_pull_the_plug();
        for r in &rows {
            assert!(r.converged, "{} failed to converge", r.topology);
            assert!(
                r.reconfig_time < SimDuration::from_millis(200),
                "{}: {}",
                r.topology,
                r.reconfig_time
            );
        }
    }

    #[test]
    fn e12_trees_near_bfs_and_flaps_damped() {
        let (rep, _) = e12_reconfig_behaviour();
        for (name, ph, bh) in &rep.tree_heights {
            assert!(ph <= &(bh + 2), "{name}: {ph} vs {bh}");
        }
        assert!(rep.overlap_converged);
        let first = rep.flap_transitions[0];
        let last = *rep.flap_transitions.last().unwrap();
        assert!(
            last * 2 < first.max(1),
            "damping failed: {:?}",
            rep.flap_transitions
        );
    }
}
