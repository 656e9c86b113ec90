//! The batched data plane's central guarantee: fast-forwarding is
//! invisible.
//!
//! Every switch keeps a *next-event watermark* — the earliest future slot
//! at which stepping it could change anything — and the fabric jumps idle
//! switches (and whole quiet regions) past slots it proves uneventful.
//! These tests drive seeded mixed workloads and hold each grid point's
//! digest to a pin: the library's `digest()` (per-circuit statistics
//! including every latency sample, received packets, counters, the typed
//! log) and on top of it every payload byte, the final slot, and (when
//! traced) the flight-recorder contents in order. Each point runs at every
//! setting of its engine axes and the grid's walk holds them to one row:
//! the mixed workload at 1, 2, 3, 4, 5 and 64 shards, traced and untraced;
//! the fault legs traced and untraced at three `step` chunkings; the full
//! `Network` with lossy links and the live embedded control plane — the
//! harshest source of asynchronous watermark clamps we have — at 1, 2 and
//! 4 shards; the skeptic legs at three chunkings. A crew of shard threads
//! also skips exactly the quiet slots one thread skips.
//!
//! The pins are the answers of the slot-by-slot engine the fabric once had
//! beside this one, which stepped a faulted fabric every slot, recorded
//! while that engine still ran beside each comparison: per grid point, the
//! digest and the cells delivered (the quarantines entered, on the skeptic
//! legs). A fault layer bounds the whole-fabric jump instead of forbidding
//! it, and each fault leg states the share of its slots it jumped as a
//! floor. A row moves only in a commit that changes no simulation code;
//! the failure prints the actual rows.

mod grid;

use an2::{
    CrashEvent, Fabric, FabricConfig, FaultSpec, FlapEvent, LinkFaultModel, LossModel, Network,
    SkepticConfig, TrafficClass, VcStats,
};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{Fnv, SimDuration, SimRng};
use an2_topology::{paths, HostId, LinkId, SwitchId, Topology};
use grid::{Engine, Outcome, Shape};

/// The `Fabric` grids' shapes, fewest switches first: a three-switch line,
/// the four-switch installation, the twelve-switch fat-tree.
const SHAPES: [Shape; 3] = [
    ("line3", grid::line3),
    ("src4x6", grid::src4x6),
    ("fat2x3", grid::fat2x3),
];

/// The two `VcStats` fields the library walk leaves out.
fn hash_paging(h: &mut Fnv, s: &VcStats) {
    h.add(s.pages_out);
    h.add(s.pages_in);
}

/// Drives a fabric through a seeded mixed workload (the grid's circuit
/// mix; a mid-run cut of a loaded link with reroutes) at `e`'s shard count
/// and tracing, and returns its row: the digest of everything observable
/// and the cells delivered, and, traced, the digest with the flight
/// recorder's records folded in. Asserts that the run fast-forwarded.
fn drive((name, shape): Shape, seed: u64, e: Engine) -> Outcome<(u64, u64), u64> {
    let mut f = Fabric::new(shape(), FabricConfig::default(), seed);
    f.set_shards(e.shards);
    f.enable_profiling();
    let tracer = e.traced.then(|| grid::attach_tracer(&mut f, 8));
    let mut wl = SimRng::new(seed + 100);
    let vcs = grid::open_mixed(&mut f, &mut wl, 0..6);
    for round in 0..8 {
        grid::offer(&mut f, &mut wl, &vcs, 1, 0.8, 700);
        f.step(20 + wl.gen_range(40) as u64);
        if round == 4 {
            grid::cut_loaded_link(&mut f, &vcs);
        }
    }
    f.step(2_000);

    // Either form of fast-forward counts: whole-fabric slot jumps, or
    // per-switch skips inside stepped slots.
    let skipped = f
        .profile()
        .map_or(0, |p| p.skipped_slots + p.skipped_switch_steps);
    assert!(
        skipped > 0,
        "{name}/s{seed}, {e}: the run never fast-forwarded"
    );
    let delivered = vcs
        .iter()
        .filter_map(|&(vc, _, _)| f.try_stats(vc))
        .map(|s| s.delivered_cells)
        .sum();
    let (digest, traced) = grid::with_records(grid::fabric_digest(&mut f), tracer.as_ref());
    Outcome {
        line: (digest, delivered),
        trace: traced,
    }
}

/// Topology × seed → the slot-by-slot engine's answer: the untraced and
/// traced digests and the cells delivered.
const FAST_FORWARD_PINS: &str = "\
line3/s0 digest=f92fe8f07d9ae7ef traced=d8dcb278ee8fe060 delivered=148\n\
line3/s1 digest=c91ac1f0fbdb1b77 traced=f57d86e773638fab delivered=186\n\
line3/s2 digest=b39dbf3dfc0a66d4 traced=089105dd70e9ebe1 delivered=90\n\
line3/s3 digest=24d3d8b6738ab2e3 traced=28eaad5d6cfcc422 delivered=48\n\
src4x6/s0 digest=2333f168f51b815d traced=ea74cf415f947101 delivered=260\n\
src4x6/s1 digest=8b1996654a5b010e traced=3e49722a77c3330b delivered=254\n\
src4x6/s2 digest=65da5707241c6951 traced=316c35b80e5968b9 delivered=307\n\
src4x6/s3 digest=ceba08fed113b7a0 traced=be2a6861579bddf6 delivered=199\n\
fat2x3/s0 digest=c9f80bcda085efa3 traced=313b96dfe3f6a379 delivered=256\n\
fat2x3/s1 digest=1d599efec9cb6c30 traced=eae4b48c1793c679 delivered=250\n\
fat2x3/s2 digest=b537d2dce54638f9 traced=634e931b5e0b9e80 delivered=268\n\
fat2x3/s3 digest=4d227cae034fea88 traced=d9ca967cb41d9e99 delivered=178\n\
";

/// Each topology, fewest switches first, under four seeds: runs digest as
/// the slot-by-slot engine's pins, traced and untraced, at every shard count
/// — 64 exceeds every switch count here and clamps to it.
#[test]
fn fast_forwarding_is_invisible() {
    let engines = grid::engines(&[1, 2, 3, 4, 5, 64], &[false, true], &[grid::WHOLE]);
    let mut actual = String::new();
    for shape in SHAPES {
        for seed in 0..4u64 {
            let at = format!("{}/s{seed}", shape.0);
            let row = grid::walk(&at, &engines, |e| drive(shape, seed, e));
            let (digest, delivered) = row.line;
            let traced = row.trace.expect("the walk has traced engines");
            assert!(delivered > 0, "{at}: workload moved no traffic");
            actual +=
                &format!("{at} digest={digest:016x} traced={traced:016x} delivered={delivered}\n");
        }
    }
    grid::assert_pins("fast-forwarding", &actual, FAST_FORWARD_PINS);
}

/// What a fault leg observed: the digest of everything observable (and,
/// traced, the digest with the recording folded in), cells delivered, and
/// how many of `slots` the whole-fabric jump skipped.
struct FaultRun {
    digest: u64,
    traced: Option<u64>,
    delivered: u64,
    skipped_slots: u64,
    slots: u64,
}

/// A fabric under a fault layer that exercises every bound on the jump: one
/// Gilbert–Elliott link among independent-loss ones, corruption, jitter
/// beyond the agenda ring (64 slots at the default config), two flaps, a
/// crash with a restart, a 256-slot resync interval and the per-slot
/// invariant checker — under bursts of traffic 1 500 slots apart, so whole
/// resync intervals pass with nothing in flight.
fn fault_drive(shape: fn() -> Topology, seed: u64, e: Engine) -> FaultRun {
    let mut f = Fabric::new(shape(), FabricConfig::default(), seed);
    f.enable_profiling();
    let tracer = e.traced.then(|| {
        let t = grid::attach_tracer(&mut f, 4);
        // 190 slots: boundaries fall inside jumps, not on the ends of
        // the 1 500-slot calls below.
        t.enable_observatory(an2_trace::ObservatoryConfig { every_slots: 190 });
        t
    });
    let mut wl = SimRng::new(seed + 100);
    let guaranteed = VcId::new(504);
    let mut vcs = Vec::new();
    let mut used_links: Vec<LinkId> = Vec::new();
    let mut used_switches: Vec<SwitchId> = Vec::new();
    for i in 0..5u32 {
        let vc = VcId::new(500 + i);
        let (src, dst) = grid::draw_pair(&mut wl, f.topology().host_count());
        let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) else {
            continue;
        };
        used_links.push(sl);
        used_links.extend(&links);
        used_switches.extend(&sw);
        let class = if vc == guaranteed {
            TrafficClass::Guaranteed { cells_per_frame: 2 }
        } else {
            TrafficClass::BestEffort
        };
        f.open_circuit(vc, src, dst, class, sw, links, sl, dl);
        vcs.push(vc);
    }
    let pick = |wl: &mut SimRng, from: &[LinkId]| from[wl.gen_range(from.len())];
    let mut spec = FaultSpec {
        default_link: LinkFaultModel {
            loss: LossModel::Independent { p: 0.01 },
            corrupt_per_cell: 0.01,
            jitter_slots: 80,
        },
        resync_interval_slots: 256,
        ..Default::default()
    };
    spec.per_link.push((
        pick(&mut wl, &used_links),
        LinkFaultModel {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.05,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            corrupt_per_cell: 0.02,
            jitter_slots: 80,
        },
    ));
    for (down_at, up_at) in [(1_505, 1_700), (4_600, 4_640)] {
        spec.flaps.push(FlapEvent {
            link: pick(&mut wl, &used_links),
            down_at,
            up_at,
        });
    }
    spec.crashes.push(CrashEvent {
        switch: used_switches[wl.gen_range(used_switches.len())],
        at: 3_010,
        restart_at: 3_200,
    });
    f.attach_faults(&spec, seed ^ 0x5eed);

    for burst in 0..6u8 {
        for &vc in &vcs {
            // The guaranteed circuit offers two cells, twice: a switch
            // holding a guaranteed cell for its frame slot wants stepping
            // every slot, which is not what this leg is for.
            if vc == guaranteed && burst % 3 != 0 {
                continue;
            }
            let len = if vc == guaranteed {
                60
            } else {
                100 + wl.gen_range(500)
            };
            let pkt = Packet::from_bytes(vec![burst ^ len as u8; len]);
            f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
        }
        grid::step_in_chunks(&mut f, 1_500, e.chunk);
        // Between calls, as `Network::run_pings` and the chaos oracle's
        // drain do: what these record must land in the interval, and be
        // stamped with the slot, they would have without the jump.
        for &link in &used_links {
            f.ping_link(link);
        }
        for &vc in &vcs {
            f.force_resync(vc);
        }
    }
    grid::step_in_chunks(&mut f, 6_500, e.chunk);

    let delivered = vcs.iter().map(|&vc| f.stats(vc).delivered_cells).sum();
    let mut h = grid::fabric_digest(&mut f);
    for &vc in &vcs {
        hash_paging(&mut h, f.stats(vc));
    }
    let digest = h.finish();
    let traced = tracer.map(|t| {
        grid::hash_debug(&mut h, &t.records());
        grid::hash_debug(&mut h, &t.intervals());
        h.finish()
    });
    FaultRun {
        digest,
        traced,
        delivered,
        skipped_slots: f.profile().expect("profiling enabled").skipped_slots,
        slots: f.slot(),
    }
}

/// Topology × seed × tracing → the slot-by-slot engine's answer under the
/// fault layer: the digest and the cells delivered.
const FAULT_PINS: &str = "\
line3/s0 traced=false digest=55e412daf167594e delivered=175\n\
line3/s0 traced=true digest=370b832ede78eea1 delivered=175\n\
line3/s1 traced=false digest=edead097c79c9ec1 delivered=128\n\
line3/s1 traced=true digest=58d04c31d5ae1109 delivered=128\n\
line3/s2 traced=false digest=b9914b70d42e5e27 delivered=150\n\
line3/s2 traced=true digest=d8460d4b96264e43 delivered=150\n\
src4x6/s0 traced=false digest=c68b0e5995e238b8 delivered=177\n\
src4x6/s0 traced=true digest=8b3f4ab9920304aa delivered=177\n\
src4x6/s1 traced=false digest=25e4721f3c88255b delivered=130\n\
src4x6/s1 traced=true digest=9017307011281921 delivered=130\n\
src4x6/s2 traced=false digest=7306b509c366f653 delivered=172\n\
src4x6/s2 traced=true digest=bef259cca77df3b8 delivered=172\n\
fat2x3/s0 traced=false digest=cfd838d18005a09e delivered=172\n\
fat2x3/s0 traced=true digest=b57cf0a355b74c74 delivered=172\n\
fat2x3/s1 traced=false digest=2e55c7d814dbb7a8 delivered=114\n\
fat2x3/s1 traced=true digest=ee625a5d2efee18d delivered=114\n\
fat2x3/s2 traced=false digest=6462729a5d818855 delivered=161\n\
fat2x3/s2 traced=true digest=0e62b81ea69c0ef3 delivered=161\n\
";

/// The fault layer bounds the jump: on each topology (fewest switches
/// first) under three seeds, traced and untraced, at three `step`
/// chunkings, the run digests as the slot-by-slot engine's pins.
#[test]
fn fast_forwarding_under_a_fault_layer_is_invisible() {
    let engines = grid::engines(&[1], &[false, true], &[grid::WHOLE, 1, 997]);
    let mut actual = String::new();
    for (name, shape) in SHAPES {
        for seed in 0..3u64 {
            let at = format!("{name}/s{seed}");
            let row = grid::walk(&at, &engines, |e| {
                let run = fault_drive(shape, seed, e);
                let leg = format!("{at}, {e}");
                assert!(run.delivered > 0, "{leg}: no traffic moved");
                // Between a burst and the resync rounds that unstick its
                // circuits the fabric waits (measured: 49-86 % jumped; the
                // rest is mostly the guaranteed circuit's cells waiting in
                // a switch for their frame slot).
                assert_jumped(&run, 40, &leg);
                Outcome {
                    line: (run.digest, run.delivered),
                    trace: run.traced,
                }
            });
            let (digest, delivered) = row.line;
            let traced = row.trace.expect("the walk has traced engines");
            actual += &format!("{at} traced=false digest={digest:016x} delivered={delivered}\n");
            actual += &format!("{at} traced=true digest={traced:016x} delivered={delivered}\n");
        }
    }
    grid::assert_pins("the fault legs", &actual, FAULT_PINS);
}

/// A violation that persists is counted once per slot, so a dirty state
/// refuses the jump: without the clean-state test the run would count
/// only the one slot it lands on after each jump.
#[test]
fn a_persisting_violation_is_still_counted_every_slot() {
    let mut f = Fabric::new(grid::line3(), FabricConfig::default(), 4);
    f.enable_profiling();
    let (src, dst) = (HostId(0), HostId(2));
    let (sw, links, sl, dl) = paths::host_wiring(f.topology(), src, dst).expect("line");
    let vc = VcId::new(9);
    let upstream = sw[0];
    f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl);
    f.attach_faults(&FaultSpec::default(), 4);
    f.step(1_000);
    let clean_skips = f.profile().expect("profiling enabled").skipped_slots;
    assert!(clean_skips > 0, "an idle clean fabric never jumped");
    // The hardware gate now holds one credit more than the hop has
    // buffers: conservation breaks on an idle hop.
    f.switch_mut(upstream)
        .set_credits(vc, FabricConfig::default().be_credits + 1);
    f.step(5_000);
    assert_eq!(
        f.profile().expect("profiling enabled").skipped_slots,
        clean_skips,
        "a dirty state was jumped over"
    );
    assert_eq!(
        f.fault_counters().expect("attached").invariant_violations,
        5_000,
        "one over-full gate, once per slot"
    );
}

/// Sparse bursts with long quiet gaps on the 12-switch fat-tree, profiled.
/// Returns `(digest, skipped_slots, skipped_switch_steps, phases_ns,
/// wall_ns)`, having asserted that the watermark skipped more switch-steps
/// than the run executed.
fn sparse_profiled_run(shards: usize) -> (u64, u64, u64, u64, u64) {
    let mut f = Fabric::new(grid::fat2x3(), FabricConfig::default(), 9);
    f.set_shards(shards);
    f.enable_profiling();
    let hosts = f.topology().host_count() as u16;
    let mut vcs = Vec::new();
    for h in 0..hosts {
        let vc = VcId::new(300 + h as u32);
        let (src, dst) = (HostId(h), HostId((h + 5) % hosts));
        let (sw, links, sl, dl) =
            paths::host_wiring(f.topology(), src, dst).expect("tree is connected");
        f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl);
        vcs.push(vc);
    }
    let started = std::time::Instant::now();
    for burst in 0..5usize {
        for (i, &vc) in vcs.iter().enumerate() {
            let pkt = Packet::from_bytes(vec![(burst + i) as u8; 150 + 60 * i]);
            f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
        }
        f.step(2_500);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let p = f.profile().expect("profiling enabled").clone();
    for &vc in &vcs {
        let s = f.stats(vc);
        assert_eq!(s.sent_cells, s.delivered_cells, "{vc} did not drain");
    }
    let digest = grid::fabric_digest(&mut f).finish();
    assert!(
        p.skipped_switch_steps > p.stepped_switch_steps,
        "{shards} shards: most switch-steps of a sparse run should be skipped: {p:?}"
    );
    let phases_ns = p.enqueue_ns + p.schedule_ns + p.commit_ns + p.fast_forward_ns;
    (
        digest,
        p.skipped_slots,
        p.skipped_switch_steps,
        phases_ns,
        wall_ns,
    )
}

/// Whole-slot fast-forward keeps working under shards: every shard reports
/// the earliest slot it needs stepping, and the crew jumps exactly the
/// stretches the sequential engine jumps. Profiling stays meaningful: the
/// phases are disjoint spans of the calling thread, so they fit the wall.
#[test]
fn a_crew_skips_the_same_quiet_slots_as_one_thread() {
    let (base, skipped_slots, skipped_steps, phases, wall) = sparse_profiled_run(1);
    assert!(skipped_slots > 0, "the gaps were never fast-forwarded");
    assert!(
        phases <= wall,
        "phases {phases} ns exceed the wall {wall} ns"
    );
    for shards in [2usize, 3] {
        let (digest, slots, steps, phases, wall) = sparse_profiled_run(shards);
        assert_eq!(base, digest, "{shards} shards diverged");
        assert_eq!(skipped_slots, slots, "{shards} shards skipped other slots");
        assert_eq!(skipped_steps, steps, "{shards} shards skipped other steps");
        assert!(
            phases > 0 && phases <= wall,
            "{shards} shards: {phases} of {wall} ns"
        );
    }
}

/// The lossy + live-control-plane leg: the full `Network` with independent
/// per-link loss, a fast monitor and the embedded reconfiguration protocol.
/// Faults fire and control messages expire on their own clocks, each of
/// which must clamp the affected switch watermarks down — a missed clamp
/// shows up here as a digest mismatch.
fn network_run(shape: fn() -> Topology, seed: u64, churn: bool, shards: usize) -> FaultRun {
    let mut net = Network::builder().topology(shape()).seed(seed).build();
    net.set_shards(shards);
    net.enable_profiling();
    let circuits = grid::open_pairs(&mut net, usize::MAX, None);
    let mut spec = grid::pinged_spec();
    spec.default_link.loss = LossModel::Independent { p: 0.002 };
    if churn {
        churn_loss(&mut spec);
    }
    net.attach_faults(&spec, seed);
    net.enable_control_plane();
    grid::send_rounds(&mut net, &circuits, 8, 3_000, 300);
    net.step(8_000);
    network_digest(&mut net, &circuits)
}

/// The chaos campaigns' churn-loss shape: a Gilbert–Elliott chain on every
/// link (~2 % of slots in the bad state, half the cells lost there), so
/// every skipped slot costs every link a chain draw; and their periodic
/// resync, without which a circuit that lost a credit keeps its outbox —
/// and the fabric's attention — forever.
fn churn_loss(spec: &mut FaultSpec) {
    spec.default_link.loss = LossModel::GilbertElliott {
        p_good_to_bad: 0.002,
        p_bad_to_good: 0.1,
        loss_good: 0.0,
        loss_bad: 0.5,
    };
    spec.resync_interval_slots = 2_048;
}

/// Everything a `Network` run leaves observable: [`Network::digest`] and,
/// on top, what its walk leaves out — every payload byte, the final slot,
/// the paging counts, and the reconfiguration log's every field (the walk hashes each event's
/// slot and payload, not its instant, initiator or the tags of `Quiesced`
/// and `RoutesInstalled`).
fn network_digest(net: &mut Network, circuits: &[VcId]) -> FaultRun {
    let delivered = circuits
        .iter()
        .filter(|&&vc| !net.is_broken(vc))
        .map(|&vc| net.stats(vc).delivered_cells)
        .sum();
    let mut h = grid::network_digest(net);
    for &vc in circuits.iter().filter(|&&vc| !net.is_broken(vc)) {
        hash_paging(&mut h, net.stats(vc));
    }
    grid::hash_debug(&mut h, &net.reconfig_log());
    FaultRun {
        digest: h.finish(),
        traced: None,
        delivered,
        skipped_slots: net.profile().expect("profiling enabled").skipped_slots,
        slots: net.slot(),
    }
}

/// The skeptic leg: scripted flap trains drive two backbone links through
/// death, quarantine and holddown expiry while the monitor pings every
/// millisecond. Sends happen at fixed slots regardless of `chunk`, so runs
/// differ only in where `Network::step` call boundaries fall relative to
/// each ping deadline and each skeptic holddown expiry. A deadline batcher
/// that skipped a ping would shift a verdict transition; one that skipped a
/// holddown expiry would shift a quarantine exit — both land in the digest
/// via the typed reconfiguration log.
fn skeptic_run(shape: fn() -> Topology, seed: u64, chunk: u64, churn: bool) -> (FaultRun, u64) {
    let mut net = Network::builder().topology(shape()).seed(seed).build();
    net.enable_profiling();
    let circuits = grid::open_pairs(&mut net, usize::MAX, None);
    let backbone: Vec<LinkId> = net.topology().switch_links().map(|(l, _, _)| l).collect();
    let mut spec = grid::pinged_spec();
    if churn {
        churn_loss(&mut spec);
    }
    spec.monitor.fail_threshold = 3;
    spec.monitor.recover_threshold = 5;
    spec.monitor.skeptic = SkepticConfig {
        base_wait: SimDuration::from_millis(5),
        max_level: 2,
        decay_after: SimDuration::from_millis(400),
    };
    // Three flaps per link: downs just past the fail threshold, up-gaps
    // short enough that the skeptic's growing holddown (5 ms, 10 ms, 20 ms)
    // outlasts the recovery streak from the second flap on — so quarantines
    // enter and expire mid-run.
    for (i, &link) in backbone.iter().take(2).enumerate() {
        let base = 20_000 + 3_000 * i as u64;
        for k in 0..3u64 {
            spec.flaps.push(FlapEvent {
                link,
                down_at: base + 30_000 * k,
                up_at: base + 30_000 * k + 8_000,
            });
        }
    }
    net.attach_faults(&spec, seed);
    net.enable_control_plane();
    let mut tag = 0u8;
    let mut next_send = 0u64;
    while net.slot() < 150_000 {
        if net.slot() >= next_send {
            for &vc in &circuits {
                if !net.is_broken(vc) {
                    let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
                }
            }
            tag = tag.wrapping_add(1);
            next_send += 3_000;
        }
        // Never step across a send slot: workload stays identical while the
        // step boundaries inside each window vary with `chunk`.
        let remaining = next_send.min(150_000) - net.slot();
        net.step(remaining.min(chunk));
    }
    net.step(60_000);

    let mut run = network_digest(&mut net, &circuits);
    let quarantine_entries = net
        .reconfig_log()
        .iter()
        .filter(|e| matches!(e, an2::ReconfigEvent::LinkQuarantined { entered: true, .. }))
        .count() as u64;
    let mut h = Fnv::new();
    h.add(run.digest);
    for &l in &backbone {
        grid::hash_debug(&mut h, &net.skeptic_level(l));
    }
    run.digest = h.finish();
    (run, quarantine_entries)
}

/// A fault leg must have jumped, by at least the share of its slots stated
/// at the call site.
fn assert_jumped(run: &FaultRun, floor_pct: u64, leg: &str) {
    assert!(
        run.skipped_slots * 100 >= run.slots * floor_pct,
        "{leg}: jumped {} of {} slots, under the {floor_pct} % it is idle for",
        run.skipped_slots,
        run.slots
    );
}

/// The skeptic legs' shapes.
const SKEPTIC_SHAPES: [Shape; 2] = [("src4x8", grid::src4x8), ("ring4x8", grid::ring4x8)];

/// Churn × topology → the slot-by-slot engine's answer under the skeptic:
/// the digest and the quarantines entered.
const SKEPTIC_PINS: &str = "\
src4x8 churn=false digest=bc23e74533b8fe4a quarantines=4\n\
ring4x8 churn=false digest=968c610a91650a8f quarantines=4\n\
src4x8 churn=true digest=dcfd6de90c00a7f8 quarantines=3\n\
ring4x8 churn=true digest=c26a869c5f65fba6 quarantines=3\n\
";

#[test]
fn batched_stepping_never_skips_a_ping_or_holddown_expiry() {
    // Odd chunk sizes move every step boundary relative to ping deadlines
    // and holddown expiries; the digest must not move.
    let engines = grid::engines(&[1], &[false], &[3_000, 997, 7_919]);
    let mut actual = String::new();
    for churn in [false, true] {
        for (name, shape) in SKEPTIC_SHAPES {
            let at = format!("{name} churn={churn}");
            let row = grid::walk(&at, &engines, |e| {
                let leg = format!("skeptic {at}, {e}");
                let (run, quarantines) = skeptic_run(shape, 5, e.chunk, churn);
                assert!(
                    quarantines > 0,
                    "the scripted flap train never quarantined ({leg}) — the leg proves nothing"
                );
                // A packet per circuit every 3 000 slots and a ping round
                // every 1 468: the rest is waiting (measured: 93-94 %
                // jumped).
                assert_jumped(&run, 90, &leg);
                Outcome::untraced((run.digest, quarantines))
            });
            let (digest, quarantines) = row.line;
            actual += &format!("{at} digest={digest:016x} quarantines={quarantines}\n");
        }
    }
    grid::assert_pins("the skeptic legs", &actual, SKEPTIC_PINS);
}

/// The `Network` legs' shapes.
const NETWORK_SHAPES: [Shape; 3] = [
    ("src4x8", grid::src4x8),
    ("src6x12", grid::src6x12),
    ("ring4x8", grid::ring4x8),
];

/// Churn × topology × seed → the slot-by-slot engine's answer on the full
/// `Network`: the digest and the cells delivered.
const NETWORK_PINS: &str = "\
src4x8/s3 churn=false digest=53e417d6a107196f delivered=222\n\
src4x8/s17 churn=false digest=49887262d088529e delivered=223\n\
src4x8/s91 churn=false digest=f3814a6643b3e191 delivered=222\n\
src6x12/s3 churn=false digest=7f579cdc81e60350 delivered=334\n\
src6x12/s17 churn=false digest=c531170764382196 delivered=332\n\
src6x12/s91 churn=false digest=59d1a8de9b182ae9 delivered=335\n\
ring4x8/s3 churn=false digest=0d20a671b156cec1 delivered=223\n\
ring4x8/s17 churn=false digest=3cb7eb345e019120 delivered=224\n\
ring4x8/s91 churn=false digest=57d6af796fe9c8c5 delivered=223\n\
src4x8/s3 churn=true digest=ba61464901fa8bfe delivered=218\n\
src4x8/s17 churn=true digest=d38cd04f6c5fcd19 delivered=214\n\
src4x8/s91 churn=true digest=7e46c26f9e943204 delivered=223\n\
src6x12/s3 churn=true digest=4c681eb5c5189289 delivered=330\n\
src6x12/s17 churn=true digest=dbbe89802bba9e1c delivered=327\n\
src6x12/s91 churn=true digest=db1cd0bbfd3cd488 delivered=328\n\
ring4x8/s3 churn=true digest=3e8373205bf9186e delivered=217\n\
ring4x8/s17 churn=true digest=5685efdda31525ca delivered=216\n\
ring4x8/s91 churn=true digest=1116cb4fd9e557d4 delivered=221\n\
";

/// Each row at one, two and four shards: faults and control traffic draw
/// from per-entity streams, so they shard as cleanly as the data plane.
#[test]
fn batched_network_survives_loss_and_reconfiguration_identically() {
    let engines = grid::engines(&[1, 2, 4], &[false], &[grid::WHOLE]);
    let mut actual = String::new();
    for churn in [false, true] {
        for (name, shape) in NETWORK_SHAPES {
            for seed in [3u64, 17, 91] {
                let at = format!("{name}/s{seed} churn={churn}");
                let row = grid::walk(&at, &engines, |e| {
                    let leg = format!("network {at}, {e}");
                    let run = network_run(shape, seed, churn, e.shards);
                    assert!(run.delivered > 0, "workload moved no traffic ({leg})");
                    // Measured: 89-96 % jumped.
                    assert_jumped(&run, 85, &leg);
                    Outcome::untraced((run.digest, run.delivered))
                });
                let (digest, delivered) = row.line;
                actual += &format!("{at} digest={digest:016x} delivered={delivered}\n");
            }
        }
    }
    grid::assert_pins("the network legs", &actual, NETWORK_PINS);
}
