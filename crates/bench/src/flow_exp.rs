//! Experiments E10 and E11: credit flow control (§5) and deadlock.
//!
//! E10 runs on the fabric the network runs, through [`CreditLine`]: the
//! same credit gates, switch buffers and resync the rest of the
//! reproduction uses, not a side model of one link.

use an2::{
    Fabric, FabricConfig, FaultCounters, FaultSpec, LinkFaultModel, LossModel, TrafficClass,
    VcStats,
};
use an2_cells::{LinkRate, Packet, Segmenter, VcId};
use an2_flow::round_trip_credits;
use an2_sim::{SimDuration, SimRng};
use an2_topology::{generators, updown, LinkId, SpanningTree, SwitchId};
use std::fmt::Write;

/// §5's credit link on the fabric: host0 – sw0 – sw1 – host1, one
/// best-effort circuit whose source never runs dry within the run. The
/// host's gate feeds sw0 and sw0's gate feeds sw1; sw0 → sw1 is the link
/// F4 draws and E10b makes lossy.
pub struct CreditLine {
    /// The fabric carrying the circuit.
    pub fabric: Fabric,
    /// The circuit.
    pub vc: VcId,
    /// The sw0–sw1 link.
    pub mid: LinkId,
}

impl CreditLine {
    /// Two switches joined by `latency_slots`-slot links, `credits`
    /// buffers per gated hop, and at least `backlog` cells queued at
    /// host0.
    pub fn new(credits: u32, latency_slots: u64, backlog: u64) -> Self {
        let mut topo = generators::line(2);
        let (h0, h1) = (topo.add_host(), topo.add_host());
        let src = topo.attach_host(h0, SwitchId(0)).expect("fresh host");
        let dst = topo.attach_host(h1, SwitchId(1)).expect("fresh host");
        let mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
        let cfg = FabricConfig {
            link_latency_slots: latency_slots,
            be_credits: credits,
            ..FabricConfig::default()
        };
        let mut fabric = Fabric::new(topo, cfg, 0);
        let vc = VcId::new(1);
        fabric.open_circuit(
            vc,
            h0,
            h1,
            TrafficClass::BestEffort,
            vec![SwitchId(0), SwitchId(1)],
            vec![mid],
            src,
            dst,
        );
        // 20-cell packets: 960 bytes of cell payload less the AAL5 trailer.
        let packet = Segmenter::new(vc).segment(&Packet::from_bytes(vec![0x5a; 20 * 48 - 8]));
        for _ in 0..backlog.div_ceil(packet.len() as u64) {
            fabric.send_cells(vc, packet.clone());
        }
        CreditLine { fabric, vc, mid }
    }

    /// The circuit's statistics so far.
    pub fn stats(&self) -> &VcStats {
        self.fabric.stats(self.vc)
    }
}

/// Slots one credit takes to come back to the gate that spent it, on
/// links of `latency_slots`: the cell's trip to the next switch, its
/// three-slot cut-through pipeline there (E2), and the credit's trip back.
/// A circuit with `c` credits sends at most `c` cells per round trip, so
/// full rate needs `c >= round_trip_slots(latency)`.
pub fn round_trip_slots(latency_slots: u64) -> u64 {
    2 * latency_slots + 3
}

/// One point of the credit-sizing sweep.
#[derive(Debug, Clone)]
pub struct CreditPoint {
    /// Initial credits (downstream buffers per hop).
    pub credits: u32,
    /// One-way link latency in slots.
    pub latency_slots: u32,
    /// Achieved throughput: cells host0 sent per slot.
    pub throughput: f64,
}

/// Slots each E10a point runs.
const E10A_SLOTS: u64 = 20_000;

/// E10a — throughput vs credits: full rate requires credits covering one
/// round trip (§5). Asserts every point reads `min(1, credits /
/// round_trip_slots(latency))` to within one round trip's start-up.
pub fn e10_credit_sizing() -> (Vec<CreditPoint>, String) {
    let mut rows = Vec::new();
    for latency_slots in [1u32, 2, 4, 8] {
        for credits in [1u32, 2, 4, 8, 16, 24] {
            let mut line = CreditLine::new(credits, latency_slots as u64, E10A_SLOTS);
            line.fabric.step(E10A_SLOTS);
            let throughput = line.stats().sent_cells as f64 / E10A_SLOTS as f64;
            let expect = (credits as f64 / round_trip_slots(latency_slots as u64) as f64).min(1.0);
            assert!(
                (throughput - expect).abs() <= credits as f64 / E10A_SLOTS as f64,
                "E10a latency {latency_slots}, credits {credits}: {throughput} vs {expect}"
            );
            rows.push(CreditPoint {
                credits,
                latency_slots,
                throughput,
            });
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10a  best-effort throughput vs credits (always-backlogged circuit, \
         host0-sw0-sw1-host1 fabric, {}k slots)",
        E10A_SLOTS / 1000
    );
    let _ = write!(out, "{:>14}", "credits:");
    for credits in [1, 2, 4, 8, 16, 24] {
        let _ = write!(out, " {credits:>7}");
    }
    let _ = writeln!(out);
    for latency in [1u32, 2, 4, 8] {
        let _ = write!(out, "latency {latency:>2} slots");
        for credits in [1u32, 2, 4, 8, 16, 24] {
            let p = rows
                .iter()
                .find(|r| r.credits == credits && r.latency_slots == latency)
                .unwrap();
            let _ = write!(out, " {:>7.3}", p.throughput);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "paper: full link rate requires credits >= one round trip (2 x latency \
         + 3 slots of switch pipeline here; every point reads min(1, credits / \
         round trip)); e.g. 10 km at 622 Mb/s needs {} credits",
        round_trip_credits(LinkRate::Mbps622, SimDuration::from_micros(50))
    );
    (rows, out)
}

/// Loss/resync comparison for E10b.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Scenario label.
    pub scenario: String,
    /// Cells host0 sent per slot over the run.
    pub throughput: f64,
    /// The fault layer's counters at the end of the run.
    pub faults: FaultCounters,
}

/// Slots each E10b scenario runs.
const E10B_SLOTS: u64 = 60_000;

/// The E10b scenarios: `(label, loss probability on sw0–sw1, resync
/// interval)`.
const E10B_SCENARIOS: [(&str, f64, u64); 3] = [
    ("no loss", 0.0, 0),
    ("0.5% link loss, no resync", 0.005, 0),
    ("0.5% link loss + resync every 250 slots", 0.005, 250),
];

/// One E10b scenario on a fresh [`CreditLine`] (8 credits, 2-slot links)
/// with its fault layer attached, ready to step.
fn e10b_line(loss: f64, resync_interval_slots: u64) -> CreditLine {
    let mut line = CreditLine::new(8, 2, E10B_SLOTS);
    let model = LinkFaultModel {
        loss: if loss > 0.0 {
            LossModel::Independent { p: loss }
        } else {
            LossModel::None
        },
        ..LinkFaultModel::default()
    };
    let spec = FaultSpec {
        per_link: vec![(line.mid, model)],
        resync_interval_slots,
        ..FaultSpec::default()
    };
    line.fabric.attach_faults(&spec, 501);
    line
}

/// E10b — a lossy link only degrades performance; resynchronization
/// restores it; no buffer ever overflows (§5). The fault layer loses
/// credits and cells alike on the lossy wire, and its invariant checker
/// counts every cell reaching a full buffer and every credit reaching a
/// full gate: the `overflows` column.
pub fn e10_loss_and_resync() -> (Vec<LossPoint>, String) {
    let mut rows = Vec::new();
    for (name, loss, interval) in E10B_SCENARIOS {
        let mut line = e10b_line(loss, interval);
        line.fabric.step(E10B_SLOTS);
        let throughput = line.stats().sent_cells as f64 / E10B_SLOTS as f64;
        let faults = line.fabric.fault_counters().expect("attached");
        // Every cell host0 sent was delivered, lost on the wire, or is
        // still buffered or in flight, which closing the circuit reaps.
        let s = line.fabric.close_circuit(line.vc).expect("open");
        assert_eq!(
            s.sent_cells,
            s.delivered_cells + s.lost_cells + s.dropped_cells,
            "E10b {name}: cells unaccounted for"
        );
        assert_eq!(s.lost_cells, faults.cells_lost, "E10b {name}");
        rows.push(LossPoint {
            scenario: name.to_string(),
            throughput,
            faults,
        });
    }
    let [clean, lossy, resynced] = &rows[..] else {
        unreachable!("three scenarios")
    };
    for r in &rows {
        assert_eq!(r.faults.invariant_violations, 0, "E10b {}", r.scenario);
    }
    assert!(clean.throughput > 0.999, "E10b: lossless link below rate");
    assert!(lossy.faults.cells_lost + lossy.faults.credits_lost > 0);
    assert!(
        lossy.throughput < clean.throughput - 0.1,
        "E10b: loss without resync did not degrade the circuit"
    );
    assert!(
        resynced.throughput > lossy.throughput + 0.1,
        "E10b: resync did not restore throughput"
    );
    assert!(resynced.faults.resyncs_completed > 100);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10b  loss on the sw0-sw1 link and credit resynchronization ({}k slots, \
         8 credits, 2-slot links)",
        E10B_SLOTS / 1000
    );
    let _ = writeln!(
        out,
        "{:<42} {:>8} {:>10} {:>12} {:>8} {:>9}",
        "scenario", "thruput", "cells lost", "credits lost", "resyncs", "overflows"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<42} {:>8.3} {:>10} {:>12} {:>8} {:>9}",
            r.scenario,
            r.throughput,
            r.faults.cells_lost,
            r.faults.credits_lost,
            r.faults.resyncs_completed,
            r.faults.invariant_violations
        );
    }
    let _ = writeln!(
        out,
        "paper: 'a lost message can only cause reduced performance. Performance \
         can be regained by [...] a re-synchronization of credits.' No buffer \
         overflowed in any scenario; the cells lost are the wire's, every one \
         accounted for."
    );
    (rows, out)
}

/// One row of the deadlock study.
#[derive(Debug, Clone)]
pub struct DeadlockRow {
    /// Topology label.
    pub topology: String,
    /// Unrestricted shortest-path routing has a dependency cycle.
    pub unrestricted_cyclic: bool,
    /// Up*/down* routing has a dependency cycle (must be false).
    pub updown_cyclic: bool,
    /// Mean path inflation of up*/down* vs shortest.
    pub inflation: f64,
}

/// E11 — up\*/down\* deadlock freedom and its routing cost (§5).
pub fn e11_deadlock() -> (Vec<DeadlockRow>, String) {
    let mut rng = SimRng::new(502);
    let cases = vec![
        ("ring-8".to_string(), generators::ring(8)),
        ("torus-4x4".to_string(), generators::torus(4, 4)),
        ("mesh-4x4".to_string(), generators::mesh(4, 4)),
        ("src-12".to_string(), generators::src_installation(12, 0)),
        (
            "random-20".to_string(),
            generators::random_connected(20, 16, &mut rng),
        ),
    ];
    let mut rows = Vec::new();
    for (name, topo) in cases {
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        // Unrestricted: all-pairs shortest paths.
        let mut free_routes = Vec::new();
        let mut legal_routes = Vec::new();
        for s in topo.switches() {
            for t in topo.switches() {
                if s == t {
                    continue;
                }
                free_routes.push(an2_topology::paths::shortest_path(&topo, s, t).unwrap());
                legal_routes.push(updown::route(&topo, &tree, s, t).unwrap());
            }
        }
        let unrestricted_cyclic =
            !updown::dependency_graph_acyclic(&updown::channel_dependencies(&free_routes));
        let updown_cyclic =
            !updown::dependency_graph_acyclic(&updown::channel_dependencies(&legal_routes));
        let inflation = updown::path_inflation(&topo, &tree).unwrap();
        rows.push(DeadlockRow {
            topology: name,
            unrestricted_cyclic,
            updown_cyclic,
            inflation,
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "E11  deadlock: unrestricted vs up*/down* routing");
    let _ = writeln!(
        out,
        "{:<12} {:>22} {:>16} {:>10}",
        "topology", "unrestricted cyclic?", "updown cyclic?", "inflation"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>22} {:>16} {:>10.3}",
            r.topology, r.unrestricted_cyclic, r.updown_cyclic, r.inflation
        );
    }
    let _ = writeln!(
        out,
        "paper: up*/down* prevents cycle formation (AN1); AN2 instead gives \
         each circuit private buffers, so any route set is deadlock-free at \
         the cost of more memory. Inflation is the route-restriction price."
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10a_round_trip_threshold() {
        let (rows, _) = e10_credit_sizing();
        assert_eq!(rows.len(), 24);
        for r in &rows {
            // Each credit carries one cell per 2L + 3 slots: full rate
            // from there on, proportional below (so linear in credits).
            let round_trip = round_trip_slots(r.latency_slots as u64) as f64;
            let expect = (r.credits as f64 / round_trip).min(1.0);
            assert!(
                (r.throughput - expect).abs() < 1e-3,
                "latency {} credits {}: {} vs {expect}",
                r.latency_slots,
                r.credits,
                r.throughput
            );
        }
    }

    #[test]
    fn e10b_resync_recovers() {
        let (rows, _) = e10_loss_and_resync();
        assert!(rows[2].throughput > rows[1].throughput + 0.1);
        assert!(rows.iter().all(|r| r.faults.invariant_violations == 0));
    }

    /// A traced replay of E10b's resync row reads the same and records the
    /// credit and resync lifecycle of the circuit's sw0–sw1 hop.
    #[test]
    fn e10b_tracer_sees_credits_and_resyncs_without_changing_the_run() {
        use an2::{TraceConfig, TraceEvent, Tracer};
        let (_, loss, interval) = E10B_SCENARIOS[2];
        let run = |tracer: Option<Tracer>| {
            let mut line = e10b_line(loss, interval);
            if let Some(t) = tracer {
                line.fabric.attach_tracer(t);
            }
            line.fabric.step(5_000);
            (line.fabric.digest(), line.vc.raw(), line.mid.0)
        };
        let tracer = Tracer::new(TraceConfig::default());
        let (plain, vc, mid) = run(None);
        assert_eq!(
            plain,
            run(Some(tracer.clone())).0,
            "tracing perturbed the run"
        );
        let kinds: Vec<_> = (tracer.records().iter())
            .filter(|r| match r.event {
                TraceEvent::CreditSend { vc: v, link, .. }
                | TraceEvent::ResyncBegin { vc: v, link, .. }
                | TraceEvent::ResyncComplete { vc: v, link, .. } => (v, link) == (vc, mid),
                _ => false,
            })
            .map(|r| r.event.kind())
            .collect();
        for kind in ["credit_send", "resync_begin", "resync_complete"] {
            assert!(kinds.contains(&kind), "no {kind} on the sw0-sw1 hop");
        }
    }

    #[test]
    fn e11_updown_always_acyclic() {
        let (rows, _) = e11_deadlock();
        for r in &rows {
            assert!(!r.updown_cyclic, "{}", r.topology);
            assert!(r.inflation >= 1.0);
        }
        // The ring must show the classic unrestricted cycle.
        let ring = rows.iter().find(|r| r.topology == "ring-8").unwrap();
        assert!(ring.unrestricted_cyclic);
    }
}
