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
//! traced) the flight-recorder contents in order. One leg adds sharding,
//! and another checks that a crew of shard threads skips exactly the quiet
//! slots one thread skips; a third drives the full `Network` with lossy
//! links and the live embedded control plane — the harshest source of
//! asynchronous watermark clamps we have.
//!
//! The pins are the answers of the slot-by-slot engine the fabric once had
//! beside this one, which stepped a faulted fabric every slot, recorded
//! while that engine still ran beside each comparison: per grid point, the
//! digest and the cells delivered (the quarantines entered, on the skeptic
//! legs). A fault layer bounds the whole-fabric jump instead of forbidding
//! it; the fault legs (a `Fabric`-level grid of topologies and seeds, and
//! the `Network` legs under independent and Gilbert–Elliott loss) run at
//! several `step` chunkings, each asserts the same pins, and each states
//! the share of its slots it jumped as a floor. A row moves only in a
//! commit that changes no simulation code; the failure prints the actual
//! rows.

use an2::{
    CrashEvent, FabricConfig, FaultSpec, FlapEvent, LinkFaultModel, LossModel, Network,
    NetworkBuilder, SkepticConfig, TraceConfig, TrafficClass, VcStats,
};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{Fnv, SimDuration, SimRng};
use an2_topology::{generators, paths, HostId, LinkId, LinkState, Node, SwitchId, Topology};

/// The `Fabric` grids' topologies, as their pin rows name them.
const TOPOLOGIES: [&str; 3] = ["line3", "src4x6", "fat2x3"];

/// The grids' topologies, fewest switches first: a three-switch line,
/// the four-switch installation, the twelve-switch fat-tree.
fn topology(idx: usize) -> Topology {
    match idx {
        0 => {
            let mut t = generators::line(3);
            for s in [0u16, 0, 2, 2] {
                let h = t.add_host();
                t.attach_host(h, SwitchId(s)).unwrap();
            }
            t
        }
        1 => generators::src_installation(4, 6),
        _ => generators::fat_tree(2, 3),
    }
}

/// Folds a value's every field into the hash through its `Debug` form.
fn hash_debug(h: &mut Fnv, value: &impl std::fmt::Debug) {
    h.bytes(format!("{value:?}").as_bytes());
}

/// A hasher holding the library digest and, on top, what its walk leaves
/// out: every payload byte and the final slot. `digest` must be taken
/// before `received` is drained — the walk reads each waiting packet's
/// circuit and length, which is what tells these bytes apart.
fn on_top_of(digest: u64, received: Vec<(VcId, Packet)>, slot: u64) -> Fnv {
    let mut h = Fnv::new();
    h.add(digest);
    for (_, p) in received {
        h.bytes(p.as_bytes());
    }
    h.add(slot);
    h
}

/// A grid's rows against its pin table; the failure prints both.
fn assert_pins(grid: &str, actual: &str, pinned: &str) {
    assert!(
        actual == pinned,
        "{grid} moved off the pins.\n--- actual ---\n{actual}--- pinned ---\n{pinned}"
    );
}

/// The two `VcStats` fields the library walk leaves out.
fn hash_paging(h: &mut Fnv, s: &VcStats) {
    h.add(s.pages_out);
    h.add(s.pages_in);
}

/// Drives a fabric through a seeded mixed workload (best-effort,
/// guaranteed and signaled circuits; a mid-run link failure with reroutes)
/// and digests everything observable. Returns `(digest, delivered,
/// skipped_slots)` — the caller asserts the run actually skipped.
fn drive(topo_idx: usize, seed: u64, wl_seed: u64, shards: usize, traced: bool) -> (u64, u64, u64) {
    let mut f = an2::Fabric::new(topology(topo_idx), FabricConfig::default(), seed);
    f.set_shards(shards);
    f.enable_profiling();
    let tracer = traced.then(|| {
        let t = an2_trace::Tracer::new(TraceConfig {
            sample_every: 8,
            ..TraceConfig::default()
        });
        f.attach_tracer(t.clone());
        t
    });
    let mut wl = SimRng::new(wl_seed);
    let hosts: Vec<HostId> = (0..f.topology().host_count())
        .map(|h| HostId(h as u16))
        .collect();
    let mut vcs: Vec<(VcId, HostId, HostId)> = Vec::new();
    for i in 0..6u32 {
        let vc = VcId::new(100 + i);
        let src = hosts[wl.gen_range(hosts.len())];
        let mut dst = hosts[wl.gen_range(hosts.len())];
        if dst == src {
            dst = hosts[(src.0 as usize + 1) % hosts.len()];
        }
        let Some((sw, links, sl, dst_link)) = paths::host_wiring(f.topology(), src, dst) else {
            continue;
        };
        match i % 4 {
            0 => f.open_circuit(
                vc,
                src,
                dst,
                TrafficClass::Guaranteed { cells_per_frame: 2 },
                sw,
                links,
                sl,
                dst_link,
            ),
            1 => f.open_circuit_signaled(vc, src, dst, sw, links, sl, dst_link),
            _ => f.open_circuit(
                vc,
                src,
                dst,
                TrafficClass::BestEffort,
                sw,
                links,
                sl,
                dst_link,
            ),
        }
        vcs.push((vc, src, dst));
    }
    for round in 0..8 {
        for &(vc, _, _) in &vcs {
            if !f.has_circuit(vc) || f.is_paged_out(vc) {
                continue;
            }
            if wl.gen_bool(0.8) {
                let len = 40 + wl.gen_range(700);
                let pkt = Packet::from_bytes(vec![(len % 251) as u8; len]);
                f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
            }
        }
        f.step(20 + wl.gen_range(40) as u64);
        if round == 4 {
            let victim = f.topology().links().find(|&l| {
                let (a, b) = f.topology().endpoints(l);
                matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_)))
                    && f.topology().link_state(l) == LinkState::Working
                    && !f.circuits_using(l).is_empty()
            });
            if let Some(link) = victim {
                let victims = f.circuits_using(link);
                f.fail_link(link);
                for vc in victims {
                    let (src, dst) = vcs
                        .iter()
                        .find(|(v, _, _)| *v == vc)
                        .map(|&(_, s, d)| (s, d))
                        .expect("victim was opened by this test");
                    match paths::host_wiring(f.topology(), src, dst) {
                        Some((sw, links, sl, dst_link)) => {
                            f.reroute_circuit(vc, sw, links, sl, dst_link);
                        }
                        None => {
                            let _ = f.close_circuit(vc);
                        }
                    }
                }
            }
        }
    }
    f.step(2_000);

    // Either form of fast-forward counts: whole-fabric slot jumps, or
    // per-switch skips inside stepped slots.
    let skipped = f
        .profile()
        .map_or(0, |p| p.skipped_slots + p.skipped_switch_steps);
    let delivered = vcs
        .iter()
        .filter_map(|&(vc, _, _)| f.try_stats(vc))
        .map(|s| s.delivered_cells)
        .sum();
    let digest = f.digest();
    let received = hosts
        .iter()
        .flat_map(|&host| f.take_received(host))
        .collect();
    let mut h = on_top_of(digest, received, f.slot());
    if let Some(t) = tracer {
        hash_debug(&mut h, &t.records());
    }
    (h.finish(), delivered, skipped)
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
/// the slot-by-slot engine's pins, traced and untraced, and with two shards.
#[test]
fn fast_forwarding_is_invisible() {
    let mut actual = String::new();
    for (topo_idx, name) in TOPOLOGIES.into_iter().enumerate() {
        for seed in 0..4u64 {
            let at = format!("{name}/s{seed}");
            let wl_seed = seed + 100;
            let (digest, delivered, skipped) = drive(topo_idx, seed, wl_seed, 1, false);
            let (traced, _, _) = drive(topo_idx, seed, wl_seed, 1, true);
            actual +=
                &format!("{at} digest={digest:016x} traced={traced:016x} delivered={delivered}\n");
            assert!(delivered > 0, "{at}: workload moved no traffic");
            assert!(skipped > 0, "{at}: the run never fast-forwarded");
            // Fast-forwarding composes with sharding: same digest again.
            let (sharded, _, _) = drive(topo_idx, seed, wl_seed, 2, false);
            assert_eq!(digest, sharded, "{at}: 2 shards diverged from one");
        }
    }
    assert_pins("fast-forwarding", &actual, FAST_FORWARD_PINS);
}

/// Steps `slots` slots in calls of at most `chunk`.
fn step_in_chunks(f: &mut an2::Fabric, slots: u64, chunk: u64) {
    let end = f.slot() + slots;
    while f.slot() < end {
        f.step(chunk.min(end - f.slot()));
    }
}

/// What a fault leg observed: the digest of everything observable, cells
/// delivered, and how many of `slots` the whole-fabric jump skipped.
struct FaultRun {
    digest: u64,
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
fn fault_drive(topo_idx: usize, seed: u64, wl_seed: u64, traced: bool, chunk: u64) -> FaultRun {
    let mut f = an2::Fabric::new(topology(topo_idx), FabricConfig::default(), seed);
    f.enable_profiling();
    let tracer = traced.then(|| {
        let t = an2_trace::Tracer::new(TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        });
        // 190 slots: boundaries fall inside jumps, not on the ends of
        // the 1 500-slot calls below.
        t.enable_observatory(an2_trace::ObservatoryConfig { every_slots: 190 });
        f.attach_tracer(t.clone());
        t
    });
    let mut wl = SimRng::new(wl_seed);
    let hosts: Vec<HostId> = (0..f.topology().host_count())
        .map(|h| HostId(h as u16))
        .collect();
    let guaranteed = VcId::new(504);
    let mut vcs = Vec::new();
    let mut used_links: Vec<LinkId> = Vec::new();
    let mut used_switches: Vec<SwitchId> = Vec::new();
    for i in 0..5u32 {
        let vc = VcId::new(500 + i);
        let src = hosts[wl.gen_range(hosts.len())];
        let mut dst = hosts[wl.gen_range(hosts.len())];
        if dst == src {
            dst = hosts[(src.0 as usize + 1) % hosts.len()];
        }
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
        step_in_chunks(&mut f, 1_500, chunk);
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
    step_in_chunks(&mut f, 6_500, chunk);

    let delivered = vcs.iter().map(|&vc| f.stats(vc).delivered_cells).sum();
    let digest = f.digest();
    let received = hosts
        .iter()
        .flat_map(|&host| f.take_received(host))
        .collect();
    let mut h = on_top_of(digest, received, f.slot());
    for &vc in &vcs {
        hash_paging(&mut h, f.stats(vc));
    }
    if let Some(t) = tracer {
        hash_debug(&mut h, &t.records());
        hash_debug(&mut h, &t.intervals());
    }
    FaultRun {
        digest: h.finish(),
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
/// first) under three seeds, at three `step` chunkings, the run digests as
/// the slot-by-slot engine's pins.
#[test]
fn fast_forwarding_under_a_fault_layer_is_invisible() {
    const CHUNKS: [u64; 3] = [u64::MAX, 1, 997];
    let mut actual = CHUNKS.map(|_| String::new());
    for (topo_idx, name) in TOPOLOGIES.into_iter().enumerate() {
        for seed in 0..3u64 {
            let wl_seed = seed + 100;
            for traced in [false, true] {
                let at = format!("{name}/s{seed} traced={traced}");
                for (rows, chunk) in actual.iter_mut().zip(CHUNKS) {
                    let run = fault_drive(topo_idx, seed, wl_seed, traced, chunk);
                    *rows += &format!(
                        "{at} digest={:016x} delivered={}\n",
                        run.digest, run.delivered
                    );
                    assert!(run.delivered > 0, "{at}, chunk {chunk}: no traffic moved");
                    // Between a burst and the resync rounds that unstick
                    // its circuits the fabric waits (measured: 49-86 %
                    // jumped; the rest is mostly the guaranteed circuit's
                    // cells waiting in a switch for their frame slot).
                    assert_jumped(&run, 40, &format!("{at}, chunk {chunk}"));
                }
            }
        }
    }
    for (rows, chunk) in actual.iter().zip(CHUNKS) {
        assert_pins(
            &format!("the fault legs at chunk {chunk}"),
            rows,
            FAULT_PINS,
        );
    }
}

/// A violation that persists is counted once per slot, so a dirty state
/// refuses the jump: without the clean-state test the run would count
/// only the one slot it lands on after each jump.
#[test]
fn a_persisting_violation_is_still_counted_every_slot() {
    let mut f = an2::Fabric::new(topology(0), FabricConfig::default(), 4);
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
    let mut f = an2::Fabric::new(generators::fat_tree(2, 3), FabricConfig::default(), 9);
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
    let digest = on_top_of(f.digest(), Vec::new(), f.slot()).finish();
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
fn network_run(topo: usize, seed: u64, churn: bool) -> FaultRun {
    let b = Network::builder();
    let b: NetworkBuilder = match topo {
        0 => b.src_installation(4, 8),
        1 => b.src_installation(6, 12),
        _ => b.ring(4, 8),
    };
    let mut net = b.seed(seed).build();
    net.enable_profiling();
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            if let Ok(vc) = net.open_best_effort(a, b) {
                circuits.push(vc);
            }
        }
    }
    let mut spec = FaultSpec::default();
    spec.default_link.loss = LossModel::Independent { p: 0.002 };
    if churn {
        churn_loss(&mut spec);
    }
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    net.attach_faults(&spec, seed);
    net.enable_control_plane();
    let mut tag = 0u8;
    while net.slot() < 24_000 {
        for &vc in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(3_000);
    }
    net.step(8_000);
    network_digest(&mut net, &circuits, &hosts)
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
fn network_digest(net: &mut Network, circuits: &[VcId], hosts: &[HostId]) -> FaultRun {
    let delivered = circuits
        .iter()
        .filter(|&&vc| !net.is_broken(vc))
        .map(|&vc| net.stats(vc).delivered_cells)
        .sum();
    let digest = net.digest();
    let received = hosts
        .iter()
        .flat_map(|&host| net.take_received(host))
        .collect();
    let mut h = on_top_of(digest, received, net.slot());
    for &vc in circuits.iter().filter(|&&vc| !net.is_broken(vc)) {
        hash_paging(&mut h, net.stats(vc));
    }
    hash_debug(&mut h, &net.reconfig_log());
    FaultRun {
        digest: h.finish(),
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
fn skeptic_run(topo: usize, seed: u64, chunk: u64, churn: bool) -> (FaultRun, u64) {
    let b = Network::builder();
    let b: NetworkBuilder = match topo {
        0 => b.src_installation(4, 8),
        _ => b.ring(4, 8),
    };
    let mut net = b.seed(seed).build();
    net.enable_profiling();
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            if let Ok(vc) = net.open_best_effort(a, b) {
                circuits.push(vc);
            }
        }
    }
    let backbone: Vec<LinkId> = net
        .topology()
        .links()
        .filter(|&l| {
            let (a, b) = net.topology().endpoints(l);
            matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_)))
        })
        .collect();
    let mut spec = FaultSpec::default();
    if churn {
        churn_loss(&mut spec);
    }
    spec.monitor.ping_interval = SimDuration::from_millis(1);
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

    let mut run = network_digest(&mut net, &circuits, &hosts);
    let quarantine_entries = net
        .reconfig_log()
        .iter()
        .filter(|e| matches!(e, an2::ReconfigEvent::LinkQuarantined { entered: true, .. }))
        .count() as u64;
    let mut h = Fnv::new();
    h.add(run.digest);
    for &l in &backbone {
        hash_debug(&mut h, &net.skeptic_level(l));
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

/// The skeptic legs' topologies, as their pin rows name them.
const SKEPTIC_TOPOLOGIES: [&str; 2] = ["src4x8", "ring4x8"];

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
    const CHUNKS: [u64; 3] = [3_000, 997, 7_919];
    let mut actual = CHUNKS.map(|_| String::new());
    for churn in [false, true] {
        for (topo, name) in SKEPTIC_TOPOLOGIES.into_iter().enumerate() {
            for (rows, chunk) in actual.iter_mut().zip(CHUNKS) {
                let leg = format!("skeptic (topo {topo}, churn {churn}, chunk {chunk})");
                let (run, quarantines) = skeptic_run(topo, 5, chunk, churn);
                *rows += &format!(
                    "{name} churn={churn} digest={:016x} quarantines={quarantines}\n",
                    run.digest
                );
                assert!(
                    quarantines > 0,
                    "the scripted flap train never quarantined ({leg}) — the leg proves nothing"
                );
                // A packet per circuit every 3 000 slots and a ping round
                // every 1 468: the rest is waiting (measured: 93-94 %
                // jumped).
                assert_jumped(&run, 90, &leg);
            }
        }
    }
    for (rows, chunk) in actual.iter().zip(CHUNKS) {
        assert_pins(
            &format!("the skeptic legs at chunk {chunk}"),
            rows,
            SKEPTIC_PINS,
        );
    }
}

/// The `Network` legs' topologies, as their pin rows name them.
const NETWORK_TOPOLOGIES: [&str; 3] = ["src4x8", "src6x12", "ring4x8"];

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

#[test]
fn batched_network_survives_loss_and_reconfiguration_identically() {
    let mut actual = String::new();
    for churn in [false, true] {
        for (topo, name) in NETWORK_TOPOLOGIES.into_iter().enumerate() {
            for seed in [3u64, 17, 91] {
                let leg = format!("network (topo {topo}, seed {seed}, churn {churn})");
                let run = network_run(topo, seed, churn);
                actual += &format!(
                    "{name}/s{seed} churn={churn} digest={:016x} delivered={}\n",
                    run.digest, run.delivered
                );
                assert!(run.delivered > 0, "workload moved no traffic ({leg})");
                // Measured: 89-96 % jumped.
                assert_jumped(&run, 85, &leg);
            }
        }
    }
    assert_pins("the network legs", &actual, NETWORK_PINS);
}
