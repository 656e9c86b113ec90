//! The fault-injection layer end to end: inert specs cost nothing, lossy
//! links recover their credits via resync, flaps are detected and repaired
//! by the monitor, line-card crashes degrade but never wedge, and the same
//! `(spec, seed)` replays byte-identically.

use an2::{
    CrashEvent, Fabric, FabricConfig, FaultSpec, FlapEvent, LinkFaultModel, LossModel, Network,
    TrafficClass, VcId,
};
use an2_cells::{Packet, Segmenter};
use an2_sim::SimDuration;
use an2_topology::{generators, HostId, LinkId, SwitchId, Topology};

fn payload(n: usize, tag: u8) -> Packet {
    Packet::from_bytes(vec![tag; n])
}

/// host0 - sw0 - sw1 - host1, returning (topology, src link, inter-switch
/// link, dst link).
fn two_switch_line() -> (Topology, LinkId, LinkId, LinkId) {
    let mut topo = generators::line(2);
    let h0 = topo.add_host();
    let h1 = topo.add_host();
    let src_link = topo.attach_host(h0, SwitchId(0)).unwrap();
    let dst_link = topo.attach_host(h1, SwitchId(1)).unwrap();
    let mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
    (topo, src_link, mid, dst_link)
}

fn fabric_on_line() -> (Fabric, LinkId, LinkId, LinkId) {
    let (topo, src, mid, dst) = two_switch_line();
    let f = Fabric::new(
        topo,
        FabricConfig {
            link_latency_slots: 1,
            ..Default::default()
        },
        1,
    );
    (f, src, mid, dst)
}

fn open_be(f: &mut Fabric, vc: u32, src: LinkId, mid: LinkId, dst: LinkId) -> VcId {
    let vc = VcId::new(vc);
    f.open_circuit(
        vc,
        HostId(0),
        HostId(1),
        TrafficClass::BestEffort,
        vec![SwitchId(0), SwitchId(1)],
        vec![mid],
        src,
        dst,
    );
    vc
}

/// Drives the same workload with and without an inert fault layer and
/// demands byte-identical results: the fault hooks must be provably free
/// when no fault is configured.
#[test]
fn inert_fault_layer_is_byte_identical() {
    let run = |attach: bool| {
        let (mut f, src, mid, dst) = fabric_on_line();
        let vc = open_be(&mut f, 100, src, mid, dst);
        if attach {
            // Inert spec: no loss, no flaps, no crashes, no periodic
            // resync. (resync_interval_slots > 0 would add marker cells.)
            f.attach_faults(&FaultSpec::default(), 99);
        }
        for k in 0..5 {
            f.send_cells(vc, Segmenter::new(vc).segment(&payload(700, k)));
        }
        f.step(4_000);
        // The library digest (a fabric with no layer digests zero fault
        // counters, like an inert one) and on top of it the full payloads.
        ((f.digest(), f.take_received(HostId(1))), f.fault_counters())
    };
    let (bare, none) = run(false);
    let (faulted, counters) = run(true);
    assert!(none.is_none());
    let c = counters.expect("fault layer attached");
    assert_eq!(c, an2::FaultCounters::default(), "inert spec drew faults");
    assert_eq!(
        bare, faulted,
        "inert fault layer changed observable behaviour"
    );
}

/// A 1% bursty (Gilbert–Elliott) lossy inter-switch link: traffic gets
/// through degraded, periodic resync plus one forced resync restores every
/// hop to full credit, and the invariant checker stays silent throughout.
#[test]
fn lossy_link_recovers_credits_via_resync() {
    let (topo, src, mid, dst) = two_switch_line();
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            link_latency_slots: 1,
            ..Default::default()
        },
        1,
    );
    let spec = FaultSpec {
        per_link: vec![(
            mid,
            LinkFaultModel {
                loss: LossModel::GilbertElliott {
                    p_good_to_bad: 0.002,
                    p_bad_to_good: 0.1,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                },
                ..Default::default()
            },
        )],
        resync_interval_slots: 2_000,
        ..Default::default()
    };
    f.attach_faults(&spec, 7);
    let vc = open_be(&mut f, 100, src, mid, dst);
    for k in 0..20 {
        f.send_cells(vc, Segmenter::new(vc).segment(&payload(500, k)));
        f.step(1_500);
    }
    // Drain, then force resyncs until the balance is whole again. Markers
    // ride the same lossy wire as data, so retry until one round trip
    // completes.
    f.step(20_000);
    for _ in 0..50 {
        if f.credits_fully_restored(vc) {
            break;
        }
        f.force_resync(vc);
        f.step(2_000);
    }
    let s = f.stats(vc).clone();
    let c = f.fault_counters().unwrap();
    assert!(c.cells_lost > 0, "the lossy link never fired");
    assert!(
        f.credits_fully_restored(vc),
        "credits not restored: lost={} resyncs={} markers={}/{} replies_lost={}",
        c.credits_lost,
        c.resyncs_completed,
        c.markers_sent,
        c.markers_lost,
        c.replies_lost
    );
    assert_eq!(c.invariant_violations, 0);
    assert!(c.resyncs_completed > 0);
    assert!(s.packets_delivered > 0, "nothing got through at 1% loss");
    assert_eq!(
        s.sent_cells,
        s.delivered_cells + s.lost_cells,
        "cell conservation: sent must equal delivered + lost on a fixed path"
    );
}

/// Corrupted payloads are delivered (HEC covers only the header) and the
/// reassembler catches them end to end; corrupted headers vanish as loss.
#[test]
fn corruption_is_caught_end_to_end() {
    let (topo, src, mid, dst) = two_switch_line();
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            link_latency_slots: 1,
            ..Default::default()
        },
        1,
    );
    let spec = FaultSpec {
        per_link: vec![(
            mid,
            LinkFaultModel {
                corrupt_per_cell: 0.05,
                ..Default::default()
            },
        )],
        ..Default::default()
    };
    f.attach_faults(&spec, 21);
    let vc = open_be(&mut f, 100, src, mid, dst);
    for k in 0..30 {
        f.send_cells(vc, Segmenter::new(vc).segment(&payload(800, k)));
        f.step(1_200);
    }
    f.step(10_000);
    let s = f.stats(vc);
    let c = f.fault_counters().unwrap();
    assert!(c.cells_corrupted > 0, "corruption never fired");
    assert!(
        s.packets_corrupted > 0,
        "payload corruption must surface at the reassembler"
    );
    assert!(s.packets_delivered > 0);
    assert_eq!(c.invariant_violations, 0);
}

/// A line-card crash eats buffered and arriving cells; after the scripted
/// restart the same circuit carries fresh traffic with no operator action.
#[test]
fn crash_and_restart_resumes_delivery() {
    let (topo, src, mid, dst) = two_switch_line();
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            link_latency_slots: 1,
            ..Default::default()
        },
        1,
    );
    let spec = FaultSpec {
        crashes: vec![CrashEvent {
            switch: SwitchId(1),
            at: 1_000,
            restart_at: 3_000,
        }],
        resync_interval_slots: 2_000,
        ..Default::default()
    };
    f.attach_faults(&spec, 3);
    let vc = open_be(&mut f, 100, src, mid, dst);
    // Keep the pipe full across the crash window.
    for k in 0..10 {
        f.send_cells(vc, Segmenter::new(vc).segment(&payload(600, k)));
        f.step(500);
    }
    f.step(20_000);
    for _ in 0..50 {
        if f.credits_fully_restored(vc) {
            break;
        }
        f.force_resync(vc);
        f.step(2_000);
    }
    let before = f.stats(vc).packets_delivered;
    let c = f.fault_counters().unwrap();
    assert!(
        c.cells_lost > 0,
        "the crash window should have eaten something"
    );
    assert_eq!(c.invariant_violations, 0);
    assert!(
        f.credits_fully_restored(vc),
        "crash-lost credits must come back via resync"
    );
    // Fresh traffic after restart flows at full rate.
    f.send_cells(vc, Segmenter::new(vc).segment(&payload(900, 0xEE)));
    f.step(3_000);
    assert_eq!(f.stats(vc).packets_delivered, before + 1);
}

/// The network-level loop: a scripted flap takes a backbone link down; the
/// monitor's pings detect it and reconfigure well inside 200 ms of
/// simulated time (§2's "a few seconds" is the loose bound; AN2's pings
/// are per-millisecond); after the flap ends the skeptic readmits the link.
#[test]
fn flap_is_detected_and_repaired_by_the_monitor() {
    let mut net = Network::builder().src_installation(4, 4).seed(5).build();
    let hosts: Vec<_> = net.hosts().collect();
    let slot_ns = net.slot_duration().as_nanos();
    // Pick the first inter-switch link on the open circuit's path.
    let vc = net.open_best_effort(hosts[0], hosts[2]).unwrap();
    let path = net.circuit_path(vc).unwrap().to_vec();
    assert!(path.len() >= 2, "need an inter-switch hop to flap");
    let flapped = net.topology().links_between(path[0], path[1])[0];
    let down_at = 10_000u64;
    let up_at = 400_000u64;
    let mut spec = FaultSpec {
        flaps: vec![FlapEvent {
            link: flapped,
            down_at,
            up_at,
        }],
        ..Default::default()
    };
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    net.attach_faults(&spec, 11);
    net.send_packet(vc, payload(1_000, 0xAA)).unwrap();
    net.step(5_000);
    // Run through the flap window plus recovery margin.
    net.step(1_200_000);
    let log = net.reconfig_log().to_vec();
    let death = log
        .iter()
        .find_map(|e| match *e {
            an2::ReconfigEvent::LinkDead { slot, link, .. } if link == flapped => Some(slot),
            _ => None,
        })
        .unwrap_or_else(|| panic!("monitor never declared {flapped:?} dead; log={log:?}"));
    let detect_slots = death - down_at;
    let detect_ms = detect_slots as f64 * slot_ns as f64 / 1e6;
    assert!(
        detect_ms < 200.0,
        "reconfiguration took {detect_ms:.1} ms (> 200 ms)"
    );
    let recovery = log.iter().find(|e| {
        matches!(
            **e,
            an2::ReconfigEvent::LinkWorking { slot, link, .. } if link == flapped && slot > up_at
        )
    });
    assert!(
        recovery.is_some(),
        "skeptic never readmitted the link after the flap ended; log={log:?}"
    );
    // The circuit survived: it was rerouted around the dead link (dual
    // backbone), not partitioned.
    assert!(!net.is_broken(vc));
    net.send_packet(vc, payload(1_000, 0xBB)).unwrap();
    net.step(10_000);
    let got = net.take_received(hosts[2]);
    assert!(
        got.iter().any(|(v, p)| *v == vc && p.as_bytes()[0] == 0xBB),
        "traffic did not resume after the flap"
    );
}

/// force_resync surfaces the typed errors: unknown circuits, dead links on
/// the path, and double-starts.
#[test]
fn force_resync_reports_typed_errors() {
    let mut net = Network::builder().src_installation(4, 4).seed(9).build();
    let hosts: Vec<_> = net.hosts().collect();
    net.attach_faults(&FaultSpec::default(), 1);
    let vc = net.open_best_effort(hosts[0], hosts[2]).unwrap();
    assert_eq!(
        net.force_resync(VcId::new(9999)),
        Err(an2::NetError::UnknownCircuit(VcId::new(9999)))
    );
    // Prime the gate below capacity so a resync has something to do, then
    // start one and immediately ask again.
    net.send_packet(vc, payload(2_000, 1)).unwrap();
    net.step(3);
    net.force_resync(vc).unwrap();
    assert_eq!(net.force_resync(vc), Err(an2::NetError::ResyncPending(vc)));
    net.step(5_000);
    assert!(!net.resync_pending(vc));
}

/// Replaying the same `(spec, seed)` twice yields byte-identical stats,
/// payloads, and counters; changing the seed changes the run.
#[test]
fn replay_is_byte_identical() {
    let run = |seed: u64| {
        let (topo, src, mid, dst) = two_switch_line();
        let mut f = Fabric::new(
            topo,
            FabricConfig {
                link_latency_slots: 1,
                ..Default::default()
            },
            1,
        );
        let spec = FaultSpec {
            per_link: vec![(
                mid,
                LinkFaultModel {
                    loss: LossModel::Independent { p: 0.02 },
                    corrupt_per_cell: 0.01,
                    jitter_slots: 3,
                },
            )],
            resync_interval_slots: 1_000,
            ..Default::default()
        };
        f.attach_faults(&spec, seed);
        let vc = open_be(&mut f, 100, src, mid, dst);
        for k in 0..12 {
            f.send_cells(vc, Segmenter::new(vc).segment(&payload(640, k)));
            f.step(900);
        }
        f.step(15_000);
        (f.digest(), f.take_received(HostId(1)))
    };
    assert_eq!(
        run(42),
        run(42),
        "same (spec, seed) must replay identically"
    );
    assert_ne!(run(42), run(43), "different seeds should diverge");
}

/// Regression (signal-cell accounting): tearing down a circuit while its
/// setup cell is still in flight must not count the signal cell as a
/// dropped data cell.
#[test]
fn teardown_does_not_count_setup_cells_as_drops() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = VcId::new(77);
    f.open_circuit_signaled(
        vc,
        HostId(0),
        HostId(1),
        vec![SwitchId(0), SwitchId(1)],
        vec![mid],
        src,
        dst,
    );
    // The setup cell is still travelling; close now.
    f.step(1);
    let stats = f.close_circuit(vc).expect("circuit existed");
    assert_eq!(
        stats.dropped_cells, 0,
        "a purged setup cell is not a dropped data cell"
    );
}

/// Regression (agenda hygiene): after fail_link nothing for that link may
/// remain scheduled, and the per-cell accounting balances.
#[test]
fn fail_link_purges_the_agenda_completely() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    f.send_cells(vc, Segmenter::new(vc).segment(&payload(2_000, 5)));
    f.step(10); // cells now in flight on all three links
    f.fail_link(mid);
    assert_eq!(
        f.inflight_on_link(mid),
        0,
        "events for a dead link must be purged"
    );
    // Cells already buffered inside switches are neither delivered nor
    // dropped yet; teardown reaps them. After that, every injected cell
    // must sit in exactly one terminal bucket.
    let s = f.close_circuit(vc).expect("circuit existed");
    assert_eq!(
        s.sent_cells,
        s.delivered_cells + s.dropped_cells + s.lost_cells
    );
    assert!(
        s.dropped_cells > 0,
        "the purge should have reaped something"
    );
}
