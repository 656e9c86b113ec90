//! `Network::digest` / `Fabric::digest` — what every equivalence suite and
//! the chaos oracle mean by "byte-identical" — held to their own contract:
//! reading is repeatable and takes nothing; each class of observable the
//! walk claims to cover moves the value on its own; shard count and
//! tracing do not.

use an2::{FaultSpec, FlapEvent, LinkId, LossModel, Network, SwitchId, TraceConfig, VcId};
use an2_cells::Packet;
use an2_reconfig::{agent::Msg, protocol::ProtocolMsg, Tag};
use an2_sim::SimDuration;
use an2_topology::{generators, HostId};

/// host0 - sw0 - sw1 - host1 with one best-effort circuit across it, one
/// packet sent and `slots` stepped.
fn line(latency: u64, payload: Vec<u8>, slots: u64) -> (Network, VcId, LinkId) {
    let mut topo = generators::line(2);
    for s in [0, 1] {
        let h = topo.add_host();
        topo.attach_host(h, SwitchId(s)).unwrap();
    }
    let mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
    let builder = Network::builder().topology(topo).seed(1);
    let mut net = builder.link_latency_slots(latency).build();
    let vc = net.open_best_effort(HostId(0), HostId(1)).unwrap();
    net.send_packet(vc, Packet::from_bytes(payload)).unwrap();
    net.step(slots);
    (net, vc, mid)
}

fn link_between(net: &Network, a: u16, b: u16) -> LinkId {
    net.topology().links_between(SwitchId(a), SwitchId(b))[0]
}

/// A ring with no circuits whose monitors vote one flapped link dead: the
/// log's single event names the link, and nothing else tells two apart.
fn one_verdict(from: u16) -> Network {
    let mut net = Network::builder().ring(4, 4).seed(1).build();
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec.flaps.push(FlapEvent {
        link: link_between(&net, from, from + 1),
        down_at: 1_000,
        up_at: u64::MAX,
    });
    net.attach_faults(&spec, 1);
    net.step(30_000);
    assert_eq!(net.reconfig_log().len(), 1, "{:?}", net.reconfig_log());
    net
}

/// Each pair differs in one class of observable; the digests must differ.
fn one_class_apart() -> Vec<(&'static str, u64, u64)> {
    let delivered = |latency, payload| line(latency, payload, 200).0;
    let base = delivered(1, vec![0; 40]);
    let mut pairs = Vec::new();

    // A cell injected and still on the wire: `sent_cells` and nothing else.
    let (idle, vc, _) = line(4, vec![0; 40], 0);
    let (sent, ..) = line(4, vec![0; 40], 1);
    let s = sent.stats(vc);
    assert_eq!((s.sent_cells, s.delivered_cells), (1, 0));
    pairs.push(("one VcStats field", idle.digest(), sent.digest()));

    // The same packet over a slower wire: the same counts, later samples.
    let slow = delivered(2, vec![0; 40]);
    let (a, b) = (base.stats(vc), slow.stats(vc));
    assert_eq!((a.sent_cells, a.delivered_cells), (1, 1));
    assert_eq!((b.sent_cells, b.delivered_cells), (1, 1));
    assert_ne!(a.latency_slots.samples(), b.latency_slots.samples());
    pairs.push(("one latency sample", base.digest(), slow.digest()));

    // The walk reads a packet's length and first eight bytes; the suites
    // that care fold every byte in on top.
    let with_byte = |i: usize| {
        let mut payload = vec![0; 40];
        payload[i] = 1;
        delivered(1, payload).digest()
    };
    pairs.push(("a packet's eighth byte", base.digest(), with_byte(7)));
    assert_eq!(base.digest(), with_byte(8));

    // A control message put on a wire (at the fabric: the network sends
    // them only from its agents, which log as they do).
    let topo = generators::line(2);
    let mid = topo.links_between(SwitchId(0), SwitchId(1))[0];
    let mut f = an2::Fabric::new(topo, an2::FabricConfig::default(), 1);
    let before = f.digest();
    let (from, tag) = (SwitchId(0), Tag::ZERO);
    let invite = ProtocolMsg::UpDown(Msg::Invite { tag, from });
    f.send_ctrl(from, SwitchId(1), mid, invite, 0);
    pairs.push(("one control counter", before, f.digest()));

    // A resync marker sent for the hop whose cell is still in flight.
    let (mut net, vc, _) = line(4, vec![0; 40], 0);
    net.attach_faults(&FaultSpec::default(), 1);
    net.step(1);
    let before = net.digest();
    net.force_resync(vc).unwrap();
    assert_eq!(net.fault_counters().unwrap().markers_sent, 1);
    pairs.push(("one fault counter", before, net.digest()));

    // The same verdict about a different link.
    let (a, b) = (one_verdict(0), one_verdict(1));
    assert_eq!(a.fault_counters(), b.fault_counters());
    pairs.push(("one log event", a.digest(), b.digest()));

    // The only route cut: the circuit's statistics give way to the marker.
    let (mut net, vc, mid) = line(1, vec![0; 40], 200);
    net.fail_link(mid);
    assert!(net.is_broken(vc));
    pairs.push(("a broken circuit", base.digest(), net.digest()));
    pairs
}

/// Lossy links, a flap long enough to be voted dead and repaired around,
/// and the live control plane on a dual-homed SRC installation.
fn faulted_run(shards: usize, traced: bool) -> u64 {
    let mut net = Network::builder().src_installation(4, 8).seed(3).build();
    net.set_shards(shards);
    let hosts: Vec<_> = net.hosts().collect();
    let circuits: Vec<VcId> = hosts
        .chunks(2)
        .map(|pair| net.open_best_effort(pair[0], pair[1]).unwrap())
        .collect();
    let mut spec = FaultSpec {
        resync_interval_slots: 2_000,
        ..Default::default()
    };
    spec.default_link.loss = LossModel::Independent { p: 0.002 };
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec.flaps.push(FlapEvent {
        link: link_between(&net, 0, 1),
        down_at: 4_000,
        up_at: 14_000,
    });
    net.attach_faults(&spec, 3);
    if traced {
        net.attach_tracer(TraceConfig::default());
    }
    net.enable_control_plane();
    for tag in 0..8 {
        for &vc in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        net.step(3_000);
    }
    net.step(8_000);
    assert!(net.fault_counters().unwrap().cells_lost > 0);
    assert!(net.ctrl_counters().messages_sent > 0);
    assert!(net.reconfig_log().len() > 2, "{:?}", net.reconfig_log());
    net.digest()
}

#[test]
fn digest_is_repeatable_moved_by_each_observable_and_by_no_engine_setting() {
    // Reading takes nothing: the packet is still there for the host, and
    // once the host takes it the digest says so.
    let (mut net, ..) = line(1, vec![9; 500], 200);
    let first = net.digest();
    assert_eq!(first, net.digest());
    assert_eq!(net.take_received(HostId(1)).len(), 1);
    assert_ne!(first, net.digest());

    for (class, before, after) in one_class_apart() {
        assert_ne!(before, after, "the digest did not move with {class}");
    }

    let base = faulted_run(1, false);
    for shards in [1, 3] {
        for traced in [false, true] {
            let run = faulted_run(shards, traced);
            assert_eq!(base, run, "{shards} shards, traced {traced}");
        }
    }
}
