//! Full-stack integration tests: many circuits, both traffic classes,
//! failures mid-stream, and conservation invariants across the network.

use an2::{Network, VcId};
use an2_cells::Packet;
use an2_repro::workload::{CbrStream, FileTransfer, PoissonMix, RpcPair};
use an2_sim::SimRng;
use an2_topology::SwitchId;

#[test]
fn heavy_mixed_workload_conserves_cells() {
    let mut net = Network::builder()
        .src_installation(10, 20)
        .frame_slots(128)
        .seed(31)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let mut vcs: Vec<VcId> = Vec::new();
    // 10 best-effort + 5 guaranteed circuits, criss-crossing.
    for k in 0..10 {
        vcs.push(net.open_best_effort(hosts[k], hosts[19 - k]).unwrap());
    }
    for k in 0..5 {
        vcs.push(net.open_guaranteed(hosts[k], hosts[k + 10], 16).unwrap());
    }
    let mut rng = SimRng::new(7);
    for _ in 0..200 {
        for &vc in &vcs {
            if rng.gen_bool(0.3) {
                let size = 40 + rng.gen_range(2000);
                net.send_packet(vc, Packet::from_bytes(vec![0xAA; size]))
                    .unwrap();
            }
        }
        net.step(300);
    }
    net.step(100_000); // drain
    for &vc in &vcs {
        let s = net.stats(vc);
        assert_eq!(
            s.sent_cells,
            s.delivered_cells + s.dropped_cells,
            "{vc}: cells leaked (sent {} delivered {} dropped {})",
            s.sent_cells,
            s.delivered_cells,
            s.dropped_cells
        );
        assert_eq!(s.dropped_cells, 0, "no failures injected: nothing may drop");
        assert_eq!(net.outbox_len(vc), 0, "outbox must drain");
    }
}

#[test]
fn workloads_compose_on_one_network() {
    let mut net = Network::builder()
        .src_installation(8, 12)
        .frame_slots(128)
        .seed(32)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let gt = net.open_guaranteed(hosts[0], hosts[6], 32).unwrap();
    let mut cbr = CbrStream::new(gt, 480, 256);
    let ft_vc = net.open_best_effort(hosts[1], hosts[7]).unwrap();
    let mut ft = FileTransfer::new(ft_vc, 4800, 100, 4);
    let rpc_up = net.open_best_effort(hosts[2], hosts[8]).unwrap();
    let rpc_dn = net.open_best_effort(hosts[8], hosts[2]).unwrap();
    let mut rpc = RpcPair::new(hosts[2], hosts[8], rpc_up, rpc_dn, 96, 960);
    let bg_vcs: Vec<VcId> = (3..6)
        .map(|k| net.open_best_effort(hosts[k], hosts[k + 6]).unwrap())
        .collect();
    let mut bg = PoissonMix::new(bg_vcs, 0.1, 960, 8);

    for _ in 0..400 {
        cbr.tick(&mut net).unwrap();
        ft.tick(&mut net).unwrap();
        rpc.tick(&mut net).unwrap();
        bg.tick(&mut net);
        net.step(256);
    }
    net.step(50_000);

    assert!(cbr.sent() >= 390);
    assert_eq!(net.stats(gt).packets_delivered, cbr.sent());
    assert_eq!(ft.remaining(), 0);
    assert_eq!(net.stats(ft_vc).packets_delivered, 100);
    assert!(
        rpc.completed() >= 100,
        "RPCs completed: {}",
        rpc.completed()
    );
    assert!(bg.sent() > 50);
}

#[test]
fn repeated_failures_and_reroutes_keep_network_usable() {
    let mut net = Network::builder().src_installation(10, 10).seed(33).build();
    let hosts: Vec<_> = net.hosts().collect();
    let vcs: Vec<VcId> = (0..5)
        .map(|k| net.open_best_effort(hosts[k], hosts[k + 5]).unwrap())
        .collect();
    let mut rng = SimRng::new(9);
    let mut failures = 0;
    for round in 0..6 {
        for &vc in &vcs {
            if !net.is_broken(vc) {
                net.send_packet(vc, Packet::from_bytes(vec![round as u8; 500]))
                    .unwrap();
            }
        }
        net.step(2_000);
        // Fail a random still-working backbone link every round.
        let working: Vec<_> = net
            .topology()
            .links()
            .filter(|&l| {
                let (a, b) = net.topology().endpoints(l);
                matches!(
                    (a.node, b.node),
                    (an2_topology::Node::Switch(_), an2_topology::Node::Switch(_))
                ) && net.topology().link_state(l) == an2_topology::LinkState::Working
            })
            .collect();
        if let Some(&victim) = rng.choose(&working) {
            net.fail_link(victim);
            failures += 1;
        }
        net.step(5_000);
    }
    assert_eq!(failures, 6);
    // Most circuits should still be alive and able to deliver.
    let alive: Vec<_> = vcs.iter().filter(|&&vc| !net.is_broken(vc)).collect();
    assert!(
        !alive.is_empty(),
        "every circuit died after 6 link failures"
    );
    for &&vc in &alive {
        net.send_packet(vc, Packet::from_bytes(vec![0x77; 300]))
            .unwrap();
    }
    net.step(30_000);
    for &&vc in &alive {
        let s = net.stats(vc);
        assert!(s.packets_delivered > 0, "{vc} delivered nothing");
        assert_eq!(s.sent_cells, s.delivered_cells + s.dropped_cells);
    }
}

#[test]
fn large_network_scales() {
    // A 16-switch, 48-host installation with 24 concurrent circuits.
    let mut net = Network::builder().src_installation(16, 48).seed(34).build();
    let hosts: Vec<_> = net.hosts().collect();
    let vcs: Vec<VcId> = (0..24)
        .map(|k| net.open_best_effort(hosts[k], hosts[47 - k]).unwrap())
        .collect();
    for &vc in &vcs {
        for _ in 0..3 {
            net.send_packet(vc, Packet::from_bytes(vec![1; 1500]))
                .unwrap();
        }
    }
    net.step(60_000);
    for (k, &vc) in vcs.iter().enumerate() {
        assert_eq!(net.stats(vc).packets_delivered, 3, "circuit {k} incomplete");
    }
}

#[test]
fn guaranteed_rate_matching_prevents_buffer_growth() {
    // §5: guaranteed traffic "matches transmission rate with reserved
    // bandwidth so that buffer capacity is never exceeded". Saturate a
    // guaranteed circuit's source; the network's in-flight population must
    // stay bounded by the path's buffering, not grow with time.
    let mut net = Network::builder()
        .src_installation(6, 6)
        .frame_slots(64)
        .seed(35)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let vc = net.open_guaranteed(hosts[0], hosts[3], 8).unwrap();
    // Offer far more than the reservation.
    for _ in 0..200 {
        net.send_packet(vc, Packet::from_bytes(vec![2; 480]))
            .unwrap();
    }
    let mut max_in_network = 0u64;
    for _ in 0..100 {
        net.step(64);
        let s = net.stats(vc);
        let in_network = s.sent_cells - s.delivered_cells - s.dropped_cells;
        max_in_network = max_in_network.max(in_network);
    }
    let p = net.circuit_path(vc).unwrap().len() as u64;
    // Sent cells enter the network at most 8/frame; each hop can hold at
    // most ~2 frames' worth transiently (§4's sizing argument).
    assert!(
        max_in_network <= (p + 2) * 2 * 64,
        "in-network population {max_in_network} grows unboundedly"
    );
    // The excess waits at the source controller.
    assert!(net.outbox_len(vc) > 0);
}

#[test]
fn alternate_host_link_used_when_primary_fails_before_open() {
    let mut net = Network::builder().src_installation(6, 6).seed(36).build();
    let hosts: Vec<_> = net.hosts().collect();
    let (primary, _) = net.topology().host_attachments(hosts[0])[0];
    net.fail_link(primary);
    // Opening after the failure must use the alternate.
    let vc = net.open_best_effort(hosts[0], hosts[3]).unwrap();
    net.send_packet(vc, Packet::from_bytes(vec![5; 800]))
        .unwrap();
    net.step(10_000);
    assert_eq!(net.stats(vc).packets_delivered, 1);
}

#[test]
fn broken_guaranteed_circuit_releases_bandwidth_for_others() {
    let mut net = Network::builder()
        .ring(4, 8)
        .frame_slots(32)
        .seed(37)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let vc = net.open_guaranteed(hosts[0], hosts[2], 32).unwrap();
    // Sever the destination host: the circuit cannot be repaired.
    let (dst_link, _) = net.topology().host_attachments(hosts[2])[0];
    net.fail_link(dst_link);
    assert!(net.is_broken(vc));
    // Its backbone reservation was released: a fresh circuit between the
    // same source and another host sharing those links is admitted.
    let vc2 = net.open_guaranteed(hosts[0], hosts[1], 32);
    assert!(vc2.is_ok(), "released capacity must be reusable: {vc2:?}");
}

#[test]
fn ring_backbone_end_to_end_under_updown_consistency() {
    // The data-plane shortest-path routes used by the Network and the
    // control-plane up*/down* routes must both exist for every pair after
    // reconfiguration of the same topology.
    let net = Network::builder().ring(6, 6).seed(38).build();
    let topo = net.topology().clone();
    let tree = an2_topology::SpanningTree::bfs(&topo, SwitchId(0));
    for s in topo.switches() {
        for t in topo.switches() {
            assert!(an2_topology::paths::shortest_path(&topo, s, t).is_some());
            assert!(an2_topology::updown::route(&topo, &tree, s, t).is_some());
        }
    }
}
