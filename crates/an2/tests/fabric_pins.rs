//! Pins the fabric's absolute behaviour: per-circuit statistics with every
//! latency sample, delivered bytes, the final slot, fault and control
//! counters and, traced, the record stream — for three topologies × two
//! seeds × three fault modes, each at shard counts {1, 3} and {untraced,
//! traced}, plus two `Network` rows with lossy links, a flap, a line-card
//! crash and the live control plane.
//!
//! The table was captured at 97ac7e8 (PR 18), before `fabric.rs` was split
//! into parts, and the split must reproduce it exactly. `fault_tests`,
//! `chaos_corpus` and `shard_equiv` compare a run with its own replay,
//! which a deterministic change of behaviour passes; this suite is the one
//! that notices a reordered RNG draw or trace emission on the fault path.
//!
//! A row's values do not depend on the shard count or on tracing (that is
//! `watermark_equiv`'s and `trace_determinism`'s claim), so the table holds
//! one line per (topology, seed, mode) and the grid's engine walk checks
//! every line in all four configurations.

mod grid;

use an2::{
    CrashEvent, Fabric, FabricConfig, FaultSpec, FlapEvent, LinkFaultModel, LossModel, Network,
    SkepticConfig, TraceConfig, Tracer, VcStats,
};
use an2_cells::{Packet, Segmenter};
use an2_reconfig::agent::Msg;
use an2_reconfig::protocol::ProtocolMsg;
use an2_reconfig::Tag;
use an2_sim::{Fnv, SimDuration, SimRng};
use an2_topology::{paths, LinkId, SwitchId, Topology};
use grid::{Engine, Outcome, Shape};

/// The fabric rows' shapes; this table calls the fat-tree `tree2x3`.
const SHAPES: [Shape; 3] = [
    ("line3", grid::line3),
    ("tree2x3", grid::fat2x3),
    ("src4x6", grid::src4x6),
];

/// Every field of a circuit's statistics, then every latency sample.
fn hash_stats(h: &mut Fnv, s: &VcStats) {
    for x in [
        s.sent_cells,
        s.delivered_cells,
        s.dropped_cells,
        s.packets_delivered,
        s.packets_corrupted,
        s.pages_out,
        s.pages_in,
        s.lost_cells,
        s.corrupted_cells,
        s.latency_slots.count() as u64,
    ] {
        h.add(x);
    }
    for &sample in s.latency_slots.samples() {
        h.add(sample);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// No fault layer.
    Plain,
    /// Loss, corruption and jitter on every link — one of them jittered by
    /// more than the agenda's ring, so arrivals share a bucket with events
    /// a ring-length later — with periodic resync.
    Lossy,
    /// Two flaps and a line-card crash over light loss, per-slot invariant
    /// checks on.
    Chaos,
}

const MODES: [(Mode, &str); 3] = [
    (Mode::Plain, "plain"),
    (Mode::Lossy, "lossy"),
    (Mode::Chaos, "chaos"),
];

fn spec_for(mode: Mode, topo: &Topology) -> Option<FaultSpec> {
    let links: Vec<_> = topo.switch_links().collect();
    match mode {
        Mode::Plain => None,
        Mode::Lossy => Some(FaultSpec {
            default_link: LinkFaultModel {
                loss: LossModel::Independent { p: 0.01 },
                corrupt_per_cell: 0.01,
                jitter_slots: 3,
            },
            per_link: vec![(
                links[links.len() - 1].0,
                LinkFaultModel {
                    loss: LossModel::GilbertElliott {
                        p_good_to_bad: 0.01,
                        p_bad_to_good: 0.2,
                        loss_good: 0.0,
                        loss_bad: 0.4,
                    },
                    corrupt_per_cell: 0.02,
                    jitter_slots: 70,
                },
            )],
            resync_interval_slots: 300,
            ..FaultSpec::default()
        }),
        Mode::Chaos => Some(FaultSpec {
            default_link: LinkFaultModel {
                loss: LossModel::Independent { p: 0.003 },
                ..LinkFaultModel::default()
            },
            flaps: vec![
                FlapEvent {
                    link: links[0].0,
                    down_at: 90,
                    up_at: 260,
                },
                FlapEvent {
                    link: links[links.len() - 1].0,
                    down_at: 400,
                    up_at: 430,
                },
            ],
            crashes: vec![CrashEvent {
                switch: links[0].2,
                at: 200,
                restart_at: 330,
            }],
            resync_interval_slots: 256,
            ..FaultSpec::default()
        }),
    }
}

fn trace_part(tracer: &Tracer) -> String {
    let mut h = Fnv::new();
    for r in tracer.records() {
        h.add(r.slot);
        h.add(r.at_ns);
        h.bytes(format!("{:?}", r.event).as_bytes());
    }
    h.bytes(tracer.metrics_json().as_bytes());
    format!("{}:{:016x}", tracer.events_seen(), h.finish())
}

fn counters_part(f: Option<an2::FaultCounters>, c: an2::CtrlCounters) -> String {
    let faults = f.map_or_else(
        || "-".to_string(),
        |f| {
            format!(
                "{},{},{},{},{},{},{},{},{}",
                f.cells_lost,
                f.cells_corrupted,
                f.credits_lost,
                f.markers_sent,
                f.markers_lost,
                f.replies_lost,
                f.resyncs_completed,
                f.crash_dropped_cells,
                f.invariant_violations
            )
        },
    );
    format!(
        "faults={faults} ctrl={},{},{}",
        c.messages_sent, c.messages_lost, c.cells_sent
    )
}

/// A seeded mixed workload on a bare fabric: best-effort, guaranteed and
/// signalled circuits opened on both sides of the fault attach, control
/// messages on the inter-switch wires, a mid-run `fail_link` with reroutes
/// and a later revival, forced resyncs and pings, a circuit closed with
/// cells in flight, and a page-out/page-in after the drain.
fn fabric_run(shape: fn() -> Topology, seed: u64, mode: Mode, e: Engine) -> Outcome<String> {
    let topo = shape();
    let spec = spec_for(mode, &topo);
    let backbone: Vec<_> = topo.switch_links().collect();
    let mut f = Fabric::new(topo, FabricConfig::default(), seed);
    f.set_shards(e.shards);
    let mut wl = SimRng::new(seed ^ 0x5eed);
    let mut misc = Fnv::new();
    // Circuits on both sides of the attach, and the two attaches in either
    // order: the ledger is built for open circuits and for later ones, and
    // the injector sees the tracer whichever came first.
    let mut vcs = grid::open_mixed(&mut f, &mut wl, 0..4);
    let mut tracer = None;
    let tracer_first = !seed.is_multiple_of(2);
    if e.traced && tracer_first {
        tracer = Some(grid::attach_tracer(&mut f, 8));
    }
    if let Some(spec) = &spec {
        f.attach_faults(spec, seed.wrapping_mul(31) + 7);
    }
    if e.traced && !tracer_first {
        tracer = Some(grid::attach_tracer(&mut f, 8));
    }
    vcs.extend(grid::open_mixed(&mut f, &mut wl, 4..8));

    let mut failed: Option<LinkId> = None;
    let mut closed: Vec<VcStats> = Vec::new();
    for round in 0..12 {
        grid::offer(&mut f, &mut wl, &vcs, 3, 0.8, 700);
        if round % 3 == 1 {
            // Control messages both ways on every inter-switch wire: a
            // one-cell invitation and a report long enough to segment.
            for &(l, a, b) in &backbone {
                let tag = Tag {
                    epoch: round as u64,
                    initiator: a,
                };
                let invite = ProtocolMsg::UpDown(Msg::Invite { tag, from: a });
                let report = ProtocolMsg::UpDown(Msg::Report {
                    tag,
                    from: b,
                    edges: (0..20).map(|k| (SwitchId(k), SwitchId(k + 1))).collect(),
                    parents: vec![(a, b)],
                });
                misc.add(u64::from(f.send_ctrl(a, b, l, invite, 3)));
                misc.add(u64::from(f.send_ctrl(b, a, l, report, 0)));
            }
        }
        f.step(40 + wl.gen_range(60) as u64);
        for (sw, link, msg) in f.take_ctrl_arrivals() {
            misc.add(u64::from(sw.0) << 32 | u64::from(link.0));
            misc.add(msg.wire_bytes() as u64);
            misc.add(f.slot());
        }
        if round == 5 {
            if let Some(cut) = grid::cut_loaded_link(&mut f, &vcs) {
                failed = Some(cut.link);
                closed.extend(cut.closed.into_iter().map(|(_, s)| s));
            }
        }
        if round == 7 {
            for &(vc, _, _) in &vcs {
                misc.add(u64::from(f.force_resync(vc)));
                misc.add(u64::from(f.resync_pending(vc)));
            }
            for &(l, _, _) in &backbone {
                misc.add(u64::from(f.ping_link(l)));
                misc.add(f.inflight_on_link(l) as u64);
            }
        }
        if round == 8 {
            if let Some(link) = failed {
                misc.add(u64::from(f.revive_link(link)));
            }
        }
        if round == 9 {
            // A circuit closed right after a send: cells in the outbox, in
            // switch buffers and on wires are reaped and accounted.
            if let Some(&(vc, _, _)) = vcs.iter().rev().find(|&&(vc, _, _)| f.has_circuit(vc)) {
                let pkt = Packet::from_bytes(vec![9; 600]);
                f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
                f.step(7);
                closed.extend(f.close_circuit(vc));
            }
        }
    }
    f.step(2_500);
    // Page every idle best-effort circuit out, then back in on today's
    // topology with fresh traffic.
    let mut paged = Vec::new();
    for &(vc, src, dst) in &vcs {
        if f.has_circuit(vc) && f.page_out_circuit(vc) {
            paged.push((vc, src, dst));
        }
    }
    f.step(50);
    for &(vc, src, dst) in &paged {
        let (sw, links, sl, dl) =
            paths::host_wiring(f.topology(), src, dst).expect("revived topology is connected");
        f.page_in_circuit(vc, sw, links, sl, dl);
        let pkt = Packet::from_bytes(vec![vc.raw() as u8; 333]);
        f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
    }
    f.step(1_500);

    let mut stats = Fnv::new();
    for &(vc, _, _) in &vcs {
        stats.add(u64::from(f.has_circuit(vc)));
        if let Some(s) = f.try_stats(vc) {
            hash_stats(&mut stats, s);
            stats.add(f.outbox_len(vc) as u64);
            stats.add(u64::from(f.is_established(vc)));
            stats.add(u64::from(f.credits_fully_restored(vc)));
        }
    }
    for s in &closed {
        hash_stats(&mut stats, s);
    }
    let mut bytes = Fnv::new();
    for h in f.topology().hosts().collect::<Vec<_>>() {
        for (vc, p) in f.take_received(h) {
            bytes.add(u64::from(vc.raw()));
            bytes.bytes(p.as_bytes());
        }
    }
    Outcome {
        line: format!(
            "stats={:016x} bytes={:016x} misc={:016x} slot={} paged={} closed={} {}",
            stats.finish(),
            bytes.finish(),
            misc.finish(),
            f.slot(),
            paged.len(),
            closed.len(),
            counters_part(f.fault_counters(), f.ctrl_counters()),
        ),
        trace: tracer.as_ref().map(trace_part),
    }
}

/// The full `Network` under light loss with the embedded control plane: a
/// backbone link flaps long enough to be voted dead and earn its way back,
/// and a line card crashes and restarts while the agents reconfigure.
fn network_run(row: usize, e: Engine) -> Outcome<String> {
    let (shape, seed): (fn() -> Topology, u64) = match row {
        0 => (grid::src4x8, 3),
        _ => (grid::ring4x8, 17),
    };
    let builder = Network::builder().topology(shape());
    let mut net = builder.seed(seed).build();
    net.set_shards(e.shards);
    let circuits = grid::open_pairs(&mut net, usize::MAX, Some(4));
    let backbone: Vec<_> = net.topology().switch_links().collect();
    let mut spec = FaultSpec {
        resync_interval_slots: 2_000,
        flaps: vec![FlapEvent {
            link: backbone[row].0,
            down_at: 3_000,
            up_at: 12_000,
        }],
        crashes: vec![CrashEvent {
            switch: SwitchId(2),
            at: 9_000,
            restart_at: 11_000,
        }],
        ..grid::pinged_spec()
    };
    spec.default_link.loss = LossModel::Independent {
        p: [0.002, 0.01][row],
    };
    spec.monitor.skeptic = SkepticConfig {
        base_wait: SimDuration::from_millis(2),
        max_level: 4,
        decay_after: SimDuration::from_secs(60),
    };
    // The tracer attaches before the fault layer in one row, after the
    // control plane in the other.
    let mut tracer = None;
    if e.traced && row == 0 {
        tracer = Some(net.attach_tracer(TraceConfig::default()));
    }
    net.attach_faults(&spec, seed);
    net.enable_control_plane();
    if e.traced && row == 1 {
        tracer = Some(net.attach_tracer(TraceConfig::default()));
    }
    let mut fill = 0u8;
    while net.slot() < 40_000 {
        for &vc in &circuits {
            for k in 0..3 {
                if !net.is_broken(vc) {
                    let _ = net.send_packet(vc, Packet::from_bytes(vec![fill; 300 + 200 * k]));
                }
            }
        }
        fill = fill.wrapping_add(1);
        net.step(2_500);
    }
    net.step(8_000);

    let mut stats = Fnv::new();
    for &vc in &circuits {
        stats.add(u64::from(net.is_broken(vc)));
        if !net.is_broken(vc) {
            hash_stats(&mut stats, net.stats(vc));
        }
    }
    let mut bytes = Fnv::new();
    for h in net.hosts().collect::<Vec<_>>() {
        for (vc, p) in net.take_received(h) {
            bytes.add(u64::from(vc.raw()));
            bytes.bytes(p.as_bytes());
        }
    }
    let mut misc = Fnv::new();
    for e in net.reconfig_log() {
        misc.bytes(format!("{e:?}").as_bytes());
    }
    misc.add(net.suppressed_recoveries());
    misc.add(u64::from(net.control_converged()));
    Outcome {
        line: format!(
            "stats={:016x} bytes={:016x} misc={:016x} slot={} log={} {}",
            stats.finish(),
            bytes.finish(),
            misc.finish(),
            net.slot(),
            net.reconfig_log().len(),
            counters_part(net.fault_counters(), net.ctrl_counters()),
        ),
        trace: tracer.as_ref().map(trace_part),
    }
}

/// Runs one table row at 1 and 3 shards, untraced and traced, and returns
/// its line; the walk fails if the configurations disagree.
fn pinned_line(label: &str, run: impl Fn(Engine) -> Outcome<String>) -> String {
    let engines = grid::engines(&[1, 3], &[false, true], &[grid::WHOLE]);
    let row = grid::walk(label, &engines, run);
    let trace = row.trace.expect("the walk has traced engines");
    format!("{label} {} trace={trace}\n", row.line)
}

const PINS: &str = "\
line3/s1/plain stats=ed78ad2b53afcb24 bytes=99ad1d19a8bd3f3f misc=5b04aded606b9003 slot=4933 paged=1 closed=6 faults=- ctrl=16,2,32 trace=11897:3769583f84e03c8a\n\
line3/s1/lossy stats=5b9b7b3a02bd80e4 bytes=d37889f53e3be9e5 misc=b9e0119d85683443 slot=4933 paged=1 closed=6 faults=23,20,8,20,1,0,19,0,0 ctrl=16,2,32 trace=6051:7516a153076d1191\n\
line3/s1/chaos stats=6dfb4a16f5df6e12 bytes=a4d5a5124476f619 misc=f30e7dd00f9bf9fc slot=4933 paged=1 closed=6 faults=34,0,25,13,7,0,6,23,0 ctrl=16,4,32 trace=4974:4dcaaaa2f5d32d75\n\
line3/s2/plain stats=b6d082f3b5db50fa bytes=9eddbe8922dcf0cd misc=3fb541718fa2da8f slot=4931 paged=1 closed=6 faults=- ctrl=16,2,32 trace=14782:b8fa2abe6f592ba7\n\
line3/s2/lossy stats=b7a762e2edf9b267 bytes=043032029d37b975 misc=98238f50fb022caf slot=4931 paged=1 closed=6 faults=20,17,10,17,0,0,16,0,0 ctrl=16,2,32 trace=6541:07a7cfb5b1cfd036\n\
line3/s2/chaos stats=b99c88582f7abcdc bytes=a56a85dfd55c48d7 misc=a3b68d7a26ea9ed9 slot=4931 paged=1 closed=6 faults=39,0,26,13,8,0,5,24,0 ctrl=16,4,32 trace=3663:5373b72ab8d33728\n\
tree2x3/s1/plain stats=525a6e73fece6fb7 bytes=440bdb3128df3b6b misc=213bbe84160bf144 slot=4806 paged=5 closed=1 faults=- ctrl=128,2,256 trace=34746:98efd842334ca95f\n\
tree2x3/s1/lossy stats=cfccd51a181aade8 bytes=542f7b2d8576e2a0 misc=f7014bc4fa22c9ac slot=4806 paged=4 closed=1 faults=59,47,48,140,3,2,133,0,0 ctrl=128,3,256 trace=27113:2a7d3cbc19b83d00\n\
tree2x3/s1/chaos stats=e765ddc2fdcf1aa6 bytes=f93245dbfe382d97 misc=3216e9402d8ebe15 slot=4806 paged=5 closed=1 faults=68,0,40,108,7,3,98,28,0 ctrl=128,9,256 trace=33932:90e70473219e5ea1\n\
tree2x3/s2/plain stats=2c3770242886c4f4 bytes=4e88296f4276007a misc=9edbee8c5a09f81a slot=4972 paged=5 closed=1 faults=- ctrl=128,2,256 trace=37300:f0185d301479489a\n\
tree2x3/s2/lossy stats=3f0f89089aa6a1aa bytes=4b6d8f48186fbc17 misc=0346a6a66e9a304d slot=4972 paged=5 closed=1 faults=80,83,75,74,1,2,71,0,0 ctrl=128,5,256 trace=36616:78aaac60b28c1626\n\
tree2x3/s2/chaos stats=3d6eabb4b5e995f0 bytes=9cd49a63408405cb misc=697eb07d27c49765 slot=4972 paged=5 closed=1 faults=57,0,33,84,6,3,75,16,0 ctrl=128,7,256 trace=35532:be2b02b6c32ca0ec\n\
src4x6/s1/plain stats=ef398664896acf05 bytes=1010d580b236a05d misc=dc3004b469aa5ed0 slot=4806 paged=5 closed=1 faults=- ctrl=48,2,96 trace=13156:6d2e3367bceaf9a0\n\
src4x6/s1/lossy stats=ebe35984f6cafb2d bytes=9604c67ac5b1356b misc=470e6e6b35e8c59f slot=4806 paged=5 closed=1 faults=43,29,17,33,0,1,32,0,0 ctrl=48,2,96 trace=13030:14215308bbb9996f\n\
src4x6/s1/chaos stats=168dee3aeb17e1c4 bytes=153383cb8c23e4ef misc=ffc8f511ee471a09 slot=4806 paged=5 closed=1 faults=36,0,8,31,3,1,27,2,0 ctrl=48,5,96 trace=12780:49fcd1a725aa904b\n\
src4x6/s2/plain stats=6948e7387176cc4b bytes=40ecf20d01be4d4c misc=740327978329defc slot=4972 paged=5 closed=1 faults=- ctrl=48,2,96 trace=14346:609ffa10b790a26f\n\
src4x6/s2/lossy stats=affff62dbb554631 bytes=40b75e05e5452a30 misc=eed98323c1d53b37 slot=4972 paged=5 closed=1 faults=36,39,25,29,1,2,26,0,0 ctrl=48,3,96 trace=14042:f0f99f9bd5c0f815\n\
src4x6/s2/chaos stats=18b5c3377e555f5d bytes=8ff99c68864756c0 misc=66c393728f2f9ae9 slot=4972 paged=5 closed=1 faults=58,0,12,32,6,1,25,10,0 ctrl=48,6,96 trace=14036:2551e89ed17fbc12\n\
network0 stats=0d9fe0c653849f05 bytes=e219c3261c8e05f5 misc=31114a1876a1159f slot=48000 log=11 faults=49,0,7,16,2,0,14,4,0 ctrl=112,0,118 trace=20243:bdf3627c9963f89d\n\
network1 stats=37843635741fe742 bytes=4a6903088b3400d9 misc=250834654840dbeb slot=48000 log=11 faults=76,0,35,56,0,0,56,0,0 ctrl=65,0,65 trace=20115:d9f5472272ac2b2b\n\
";

#[test]
fn fabric_runs_are_pinned() {
    let mut actual = String::new();
    for (name, shape) in SHAPES {
        for seed in [1u64, 2] {
            for (mode, mode_name) in MODES {
                actual += &pinned_line(&format!("{name}/s{seed}/{mode_name}"), |e| {
                    fabric_run(shape, seed, mode, e)
                });
            }
        }
    }
    for row in 0..2 {
        actual += &pinned_line(&format!("network{row}"), |e| network_run(row, e));
    }
    grid::assert_pins("fabric runs", &actual, PINS);
}
