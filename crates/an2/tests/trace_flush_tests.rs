//! Nothing stays in a trace lane across a public call: the fabric and its
//! switches buffer what they record, so each test here drives one public
//! method and reads the tracer the moment it returns — every record and
//! counter the call produced must already be there, stamped with the slot
//! it happened in, and agree with the fabric's own statistics.

use an2::{
    Entity, Fabric, FabricConfig, FaultSpec, TraceConfig, TraceEvent, Tracer, TrafficClass, VcId,
    VcStats,
};
use an2_cells::{Packet, Segmenter};
use an2_topology::{generators, HostId, LinkId, SwitchId};

/// host0 - sw0 - sw1 - host1 with a tracer attached (every cell sampled,
/// ring big enough to keep the whole run).
fn traced_line() -> (Fabric, Tracer, LinkId, LinkId, LinkId) {
    let mut topo = generators::line(2);
    let h0 = topo.add_host();
    let h1 = topo.add_host();
    let src = topo.attach_host(h0, SwitchId(0)).unwrap();
    let dst = topo.attach_host(h1, SwitchId(1)).unwrap();
    let mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
    let mut f = Fabric::new(
        topo,
        FabricConfig {
            link_latency_slots: 1,
            ..Default::default()
        },
        1,
    );
    let tracer = Tracer::new(TraceConfig {
        sample_every: 1,
        ring_capacity: 1 << 16,
        ..TraceConfig::default()
    });
    f.attach_tracer(tracer.clone());
    (f, tracer, src, mid, dst)
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

fn send(f: &mut Fabric, vc: VcId, bytes: usize) {
    let packet = Packet::from_bytes(vec![7; bytes]);
    f.send_cells(vc, Segmenter::new(vc).segment(&packet));
}

fn count(tracer: &Tracer, pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    tracer.records().iter().filter(|r| pred(&r.event)).count() as u64
}

/// The tracer, read right now, tells the same story as `stats`: one
/// inject and one deliver record and count per cell, nothing from the
/// future, nothing left behind in a lane.
fn assert_settled(f: &Fabric, tracer: &Tracer, stats: &[&VcStats]) {
    assert_eq!(tracer.events_dropped(), 0, "ring too small for the test");
    let sent: u64 = stats.iter().map(|s| s.sent_cells).sum();
    let delivered: u64 = stats.iter().map(|s| s.delivered_cells).sum();
    assert_eq!(tracer.counter_total("fabric.cells_injected"), sent);
    assert_eq!(tracer.counter_total("fabric.cells_delivered"), delivered);
    assert_eq!(
        count(tracer, |e| matches!(e, TraceEvent::CellInject { .. })),
        sent
    );
    assert_eq!(
        count(tracer, |e| matches!(e, TraceEvent::CellDeliver { .. })),
        delivered
    );
    // A cell in a switch was enqueued there and not yet dequeued.
    let enqueued = tracer.counter_total("switch.cells_enqueued");
    let dequeued = count(tracer, |e| matches!(e, TraceEvent::CellDequeue { .. }));
    assert_eq!(
        count(tracer, |e| matches!(e, TraceEvent::CellEnqueue { .. })),
        enqueued
    );
    assert!(dequeued <= enqueued);
    assert_eq!(tracer.counter_total("xbar.grants"), dequeued);
    let records = tracer.records();
    assert!(records.windows(2).all(|w| w[0].slot <= w[1].slot));
    assert!(records.iter().all(|r| r.slot <= f.slot()));
}

#[test]
fn step_leaves_nothing_buffered() {
    let (mut f, tracer, src, mid, dst) = traced_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    send(&mut f, vc, 1_000);
    // Mid-flight: cells on wires, in both switches, at the host.
    for _ in 0..6 {
        f.step(3);
        assert_settled(&f, &tracer, &[f.stats(vc)]);
        let last = tracer.records().last().map(|r| r.slot);
        assert_eq!(
            last,
            Some(f.slot() - 1),
            "the last stepped slot is on record"
        );
    }
    f.step(200);
    assert_settled(&f, &tracer, &[f.stats(vc)]);
    assert_eq!(f.stats(vc).sent_cells, f.stats(vc).delivered_cells);
    // Both switches' lanes reached the tracer, in switch order per slot.
    for switch in 0..2u16 {
        assert!(
            tracer.counter("switch.cells_enqueued", Entity::Switch(switch)) > 0,
            "switch {switch} never flushed"
        );
    }
}

#[test]
fn fail_link_leaves_nothing_buffered() {
    let (mut f, tracer, src, mid, dst) = traced_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    send(&mut f, vc, 2_000);
    f.step(10);
    let before = tracer.events_seen();
    f.fail_link(mid);
    assert_eq!(
        tracer.events_seen(),
        before,
        "the verdict itself records nothing"
    );
    assert_settled(&f, &tracer, &[f.stats(vc)]);
    // The first switch still holds cells for the dead port: the next slot
    // drops one, and the drop is on record as soon as `step` is back.
    let slot = f.slot();
    f.step(1);
    let drops: Vec<_> = tracer
        .records()
        .into_iter()
        .filter(|r| matches!(r.event, TraceEvent::CellDrop { .. }))
        .collect();
    assert!(!drops.is_empty(), "no dead-link drop recorded");
    assert!(drops.iter().all(|r| r.slot == slot));
    assert_eq!(
        tracer.counter_total("fabric.cells_dropped"),
        drops.len() as u64
    );
    assert!(f.stats(vc).dropped_cells >= drops.len() as u64);
}

#[test]
fn close_circuit_leaves_nothing_buffered() {
    let (mut f, tracer, src, mid, dst) = traced_line();
    let vc = open_be(&mut f, 100, src, mid, dst);
    let other = open_be(&mut f, 101, src, mid, dst);
    send(&mut f, vc, 1_500);
    send(&mut f, other, 1_500);
    f.step(12);
    let before = tracer.events_seen();
    let closed = f.close_circuit(vc).expect("circuit existed");
    assert_eq!(tracer.events_seen(), before);
    assert_settled(&f, &tracer, &[&closed, f.stats(other)]);
    f.step(300);
    assert_settled(&f, &tracer, &[&closed, f.stats(other)]);
    assert_eq!(f.stats(other).sent_cells, f.stats(other).delivered_cells);
}

#[test]
fn open_circuit_signaled_leaves_nothing_buffered() {
    let (mut f, tracer, src, mid, dst) = traced_line();
    let vc = VcId::new(100);
    f.open_circuit_signaled(
        vc,
        HostId(0),
        HostId(1),
        vec![SwitchId(0), SwitchId(1)],
        vec![mid],
        src,
        dst,
    );
    assert_eq!(
        tracer.events_seen(),
        0,
        "the setup cell has not left the host"
    );
    send(&mut f, vc, 600);
    // Data chases the setup cell down the path; read after every slot.
    while !f.is_established(vc) {
        f.step(1);
        assert_settled(&f, &tracer, &[f.stats(vc)]);
    }
    f.step(200);
    assert_settled(&f, &tracer, &[f.stats(vc)]);
    let s = f.stats(vc);
    assert_eq!(s.sent_cells, s.delivered_cells);
}

#[test]
fn force_resync_leaves_nothing_buffered() {
    let (mut f, tracer, src, mid, dst) = traced_line();
    f.attach_faults(&FaultSpec::default(), 3);
    let vc = open_be(&mut f, 100, src, mid, dst);
    send(&mut f, vc, 2_000);
    f.step(4); // credits spent on every hop: a resync has work to do
    assert_eq!(tracer.counter_total("flow.resyncs_begun"), 0);
    let slot = f.slot();
    assert!(f.force_resync(vc));
    let begun: Vec<_> = tracer
        .records()
        .into_iter()
        .filter(|r| matches!(r.event, TraceEvent::ResyncBegin { .. }))
        .collect();
    assert!(!begun.is_empty(), "the markers went out unrecorded");
    assert!(
        begun.iter().all(|r| r.slot == slot),
        "a forced resync happens at the slot about to run"
    );
    assert_eq!(
        tracer.counter_total("flow.resyncs_begun"),
        begun.len() as u64
    );
    assert_settled(&f, &tracer, &[f.stats(vc)]);
    f.step(500);
    assert_eq!(
        tracer.counter_total("flow.resyncs_completed"),
        count(&tracer, |e| matches!(e, TraceEvent::ResyncComplete { .. }))
    );
    assert_settled(&f, &tracer, &[f.stats(vc)]);
}
