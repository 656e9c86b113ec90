//! Direct tests of the cell-level fabric, below the `Network` API.

use an2::{Fabric, FabricConfig, FaultSpec, LossModel, TrafficClass};
use an2_cells::{Cell, CellKind, Segmenter, VcId, PAYLOAD_BYTES};
use an2_topology::{generators, paths, HostId, LinkId, Node, SwitchId, Topology};

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

#[test]
fn cells_flow_end_to_end() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    let packet = an2_cells::Packet::from_bytes(vec![7; 200]);
    f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    f.step(500);
    let got = f.take_received(HostId(1));
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1.as_bytes(), &vec![7u8; 200][..]);
    let s = f.stats(vc);
    assert_eq!(s.sent_cells, s.delivered_cells);
    assert!(f.has_circuit(vc));
    assert_eq!(f.circuit_path(vc).unwrap(), &[SwitchId(0), SwitchId(1)][..]);
}

#[test]
fn circuits_using_reports_all_hops() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    assert_eq!(f.circuits_using(src), vec![vc]);
    assert_eq!(f.circuits_using(mid), vec![vc]);
    assert_eq!(f.circuits_using(dst), vec![vc]);
}

#[test]
fn fail_link_drops_in_flight_cells_and_accounts_them() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    // Queue plenty, let some get in flight, then cut the middle link.
    let cells: Vec<Cell> = (0..50)
        .map(|_| Cell::new(vc, CellKind::Data, [1; PAYLOAD_BYTES]))
        .collect();
    f.send_cells(vc, cells);
    f.step(10);
    f.fail_link(mid);
    f.step(200);
    let s = f.stats(vc);
    assert!(s.dropped_cells > 0, "cells on the dead link must be lost");
    // Conservation: everything is delivered, dropped, or still queued.
    assert!(s.sent_cells >= s.delivered_cells + s.dropped_cells);
}

#[test]
fn close_circuit_returns_stats_and_clears_state() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    let packet = an2_cells::Packet::from_bytes(vec![3; 40]);
    f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    f.step(200);
    let stats = f.close_circuit(vc).expect("open circuit closes");
    assert_eq!(stats.packets_delivered, 1);
    assert!(!f.has_circuit(vc));
    assert!(f.close_circuit(vc).is_none());
}

#[test]
fn reroute_preserves_outbox_and_stats() {
    // Parallel inter-switch links: reroute from one to the other.
    let (mut topo, ..) = {
        let t = two_switch_line();
        (t.0, t.1, t.2, t.3)
    };
    let second_mid = topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
    let src = topo.host_attachments(HostId(0))[0].0;
    let dst = topo.host_attachments(HostId(1))[0].0;
    let first_mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
    let mut f = Fabric::new(topo, FabricConfig::default(), 2);
    let vc = VcId::new(200);
    f.open_circuit(
        vc,
        HostId(0),
        HostId(1),
        TrafficClass::BestEffort,
        vec![SwitchId(0), SwitchId(1)],
        vec![first_mid],
        src,
        dst,
    );
    let packet = an2_cells::Packet::from_bytes(vec![9; 2000]);
    f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    f.step(5);
    let queued_before = f.outbox_len(vc);
    assert!(queued_before > 0, "transfer still in progress");
    f.reroute_circuit(
        vc,
        vec![SwitchId(0), SwitchId(1)],
        vec![second_mid],
        src,
        dst,
    );
    // Outbox survived the reroute; the partially-sent packet is the only
    // casualty.
    assert_eq!(f.outbox_len(vc), queued_before);
    f.step(1_000);
    let s = f.stats(vc);
    assert_eq!(s.sent_cells, s.delivered_cells + s.dropped_cells);
}

#[test]
fn guaranteed_circuit_gets_schedule_and_releases_it() {
    let (topo, src, mid, dst) = two_switch_line();
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            frame_slots: 16,
            ..Default::default()
        },
        3,
    );
    let vc = VcId::new(300);
    f.open_circuit(
        vc,
        HostId(0),
        HostId(1),
        TrafficClass::Guaranteed { cells_per_frame: 4 },
        vec![SwitchId(0), SwitchId(1)],
        vec![mid],
        src,
        dst,
    );
    // Both switches now carry 4 scheduled cells for this circuit's ports.
    let in_port0 = topo_port(&f, src, SwitchId(0));
    let out_port0 = topo_port(&f, mid, SwitchId(0));
    assert_eq!(
        f.switch_mut(SwitchId(0))
            .schedule()
            .scheduled_cells(in_port0, out_port0),
        4
    );
    f.close_circuit(vc).unwrap();
    assert_eq!(
        f.switch_mut(SwitchId(0))
            .schedule()
            .scheduled_cells(in_port0, out_port0),
        0,
        "teardown must free the reserved slots"
    );
}

fn topo_port(f: &Fabric, link: LinkId, on: SwitchId) -> usize {
    f.topology().near_end(link, Node::Switch(on)).port.0 as usize
}

/// A guaranteed circuit's token bucket refills in the slot before each
/// frame boundary, so a quiet jump must stop there. Every link loses every
/// cell: the spent token's cell leaves the fabric quiet with the bucket
/// empty, and only the refill slots stepped inside the jump let the second
/// cell out.
#[test]
fn a_quiet_jump_still_refills_guaranteed_tokens() {
    let (topo, src, mid, dst) = two_switch_line();
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            frame_slots: 64,
            ..Default::default()
        },
        1,
    );
    f.enable_profiling();
    let vc = VcId::new(400);
    f.open_circuit(
        vc,
        HostId(0),
        HostId(1),
        TrafficClass::Guaranteed { cells_per_frame: 1 },
        vec![SwitchId(0), SwitchId(1)],
        vec![mid],
        src,
        dst,
    );
    let mut spec = FaultSpec::default();
    spec.default_link.loss = LossModel::Independent { p: 1.0 };
    f.attach_faults(&spec, 1);
    let cell = || vec![Cell::new(vc, CellKind::Data, [1; PAYLOAD_BYTES])];
    f.send_cells(vc, cell());
    f.step(200);
    let skipped = f.profile().expect("profiling enabled").skipped_slots;
    assert!(skipped > 64, "jumped only {skipped} of 200 quiet slots");
    f.send_cells(vc, cell());
    f.step(1);
    assert_eq!(f.stats(vc).sent_cells, 2, "the bucket was never refilled");
}

#[test]
fn is_idle_tracks_activity() {
    let (mut f, src, mid, dst) = fabric_on_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    assert!(
        !f.is_idle(vc, 10),
        "just opened: activity clock at open slot"
    );
    f.step(50);
    assert!(f.is_idle(vc, 10));
    let packet = an2_cells::Packet::from_bytes(vec![1; 40]);
    f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    f.step(2);
    assert!(!f.is_idle(vc, 10), "in-flight cells are activity");
    f.step(200);
    assert!(f.is_idle(vc, 10), "drained and quiet again");
}

/// A hub cabled wider than `FabricConfig::default()`'s 16-port switch: the
/// fabric sizes the switch from the 24 cables, not from the config, so
/// circuits between the hosts on ports 20 and 23 open and carry cells.
#[test]
fn hub_cabled_wider_than_the_config_carries_traffic() {
    let mut f = Fabric::new(generators::wide_hub(24), FabricConfig::default(), 5);
    assert_eq!(f.switch_mut(SwitchId(0)).ports(), 24);
    let packet = an2_cells::Packet::from_bytes(vec![9; 300]);
    for (vc, src, dst) in [(1u32, HostId(20), HostId(23)), (2, HostId(23), HostId(20))] {
        let vc = VcId::new(vc);
        let (switches, links, src_link, dst_link) =
            paths::host_wiring(f.topology(), src, dst).expect("both hosts hang off the hub");
        assert_eq!(topo_port(&f, src_link, SwitchId(0)), src.0 as usize);
        f.open_circuit(
            vc,
            src,
            dst,
            TrafficClass::BestEffort,
            switches,
            links,
            src_link,
            dst_link,
        );
        f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    }
    f.step(200);
    for (vc, dst) in [(1u32, HostId(23)), (2, HostId(20))] {
        let got = f.take_received(dst);
        assert_eq!(got.len(), 1, "circuit {vc}");
        assert_eq!(got[0].1.as_bytes(), packet.as_bytes());
        let s = f.stats(VcId::new(vc));
        assert!(s.sent_cells > 0 && s.sent_cells == s.delivered_cells);
    }
}

/// Every switch of a 2-ary 4-level fat-tree is built as wide as it is
/// cabled — two hosts or two down-links plus two up-links, and only the two
/// down-links at the top level: a fabric has no port-count setting.
#[test]
fn fabric_switches_are_as_wide_as_their_cabling() {
    let topo = generators::fat_tree(2, 4);
    let mut f = Fabric::new(topo.clone(), FabricConfig::default(), 1);
    for s in topo.switches() {
        let top_level = s.0 as usize >= 3 * 8;
        let want = if top_level { 2 } else { 4 };
        assert_eq!(topo.cabled_ports(s), want, "{s}");
        assert_eq!(f.switch_mut(s).ports(), want, "{s}");
    }
}
