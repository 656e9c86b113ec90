//! The parallel data plane's central guarantee: shard count is invisible.
//!
//! A fabric split into any number of shards (switch groups worked by
//! persistent threads behind one release and one join per slot) must digest
//! byte-identical to the sequential engine — `Fabric::digest` (per-circuit
//! statistics including every latency sample, received packets, counters)
//! and on top of it every delivered payload byte, the final slot, and, when
//! traced, the same flight-recorder contents in the same order. A separate
//! leg drives the full `Network` with lossy links and the
//! live embedded control plane, the harshest RNG-adjacent workload we have;
//! another walks every condition that keeps the switches with the calling
//! thread, a traced run on the crew, and every way of slicing a run into
//! `step` calls.

use an2::{
    Fabric, FabricConfig, FaultSpec, LossModel, Network, NetworkBuilder, TraceConfig, TrafficClass,
};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{Fnv, SimDuration, SimRng};
use an2_topology::{generators, paths, HostId, LinkState, SwitchId, Topology};

/// The grid's topologies, fewest switches first: a three-switch line,
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

/// Drives a sharded fabric through a seeded mixed workload (best-effort,
/// guaranteed and signaled circuits; a mid-run link failure with reroutes)
/// and digests everything observable. With `traced`, the digest also folds
/// in every flight-recorder record, in recording order.
fn drive(topo_idx: usize, seed: u64, wl_seed: u64, shards: usize, traced: bool) -> (u64, u64) {
    let mut f = Fabric::new(topology(topo_idx), FabricConfig::default(), seed);
    f.set_shards(shards);
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
        let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) else {
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
                dl,
            ),
            1 => f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl),
            _ => f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl),
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
            let victim = f.topology().switch_links().map(|(l, _, _)| l).find(|&l| {
                f.topology().link_state(l) == LinkState::Working && !f.circuits_using(l).is_empty()
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
                        Some((sw, links, sl, dl)) => f.reroute_circuit(vc, sw, links, sl, dl),
                        None => {
                            let _ = f.close_circuit(vc);
                        }
                    }
                }
            }
        }
    }
    f.step(2_000);

    let open: Vec<VcId> = vcs
        .iter()
        .map(|&(vc, _, _)| vc)
        .filter(|&vc| f.has_circuit(vc))
        .collect();
    digest_run(&mut f, &open, tracer.as_ref())
}

/// [`Fabric::digest`] and, on top, what its walk leaves out: every payload
/// byte, the final slot and, when traced, every flight-recorder record in
/// recording order. Also returns the cells delivered.
fn digest_run(f: &mut Fabric, vcs: &[VcId], tracer: Option<&an2_trace::Tracer>) -> (u64, u64) {
    let delivered = vcs.iter().map(|&vc| f.stats(vc).delivered_cells).sum();
    let mut h = Fnv::new();
    h.add(f.digest());
    for host in 0..f.topology().host_count() {
        for (_, p) in f.take_received(HostId(host as u16)) {
            h.bytes(p.as_bytes());
        }
    }
    h.add(f.slot());
    if let Some(t) = tracer {
        h.bytes(format!("{:?}", t.records()).as_bytes());
    }
    (h.finish(), delivered)
}

/// Each topology, fewest switches first, under four seeds: sharded runs
/// digest as the sequential one, traced and untraced.
#[test]
fn shard_count_is_invisible() {
    for topo_idx in 0..3usize {
        for seed in 0..4u64 {
            let at = format!("topo {topo_idx}, seed {seed}");
            let wl_seed = seed + 100;
            let (base, delivered) = drive(topo_idx, seed, wl_seed, 1, false);
            let (base_traced, _) = drive(topo_idx, seed, wl_seed, 1, true);
            assert!(delivered > 0, "{at}: workload moved no traffic");
            // 64 exceeds every switch count here and clamps to it.
            for shards in [2usize, 3, 4, 5, 64] {
                let (sharded, sharded_delivered) = drive(topo_idx, seed, wl_seed, shards, false);
                assert_eq!(
                    base, sharded,
                    "{at}: {shards} shards diverged from sequential"
                );
                assert_eq!(delivered, sharded_delivered, "{at}: {shards} shards");
                let (sharded_traced, _) = drive(topo_idx, seed, wl_seed, shards, true);
                assert_eq!(
                    base_traced, sharded_traced,
                    "{at}: {shards} shards perturbed the trace"
                );
            }
        }
    }
}

/// How a [`leg_run`] is set up and sliced into `step` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    /// Nothing attached, one `step` call per quiet gap: the crew's home turf.
    Plain,
    /// The same run as `step(1)` × n: a crew per slot.
    SingleSteps,
    /// Shard count changed between bursts (3 → the leg's count → 1 → back).
    ReshardMidRun,
    /// A tracer attached (digest folds in the recording, in order): the
    /// switches record into their own lanes, so the crew keeps running.
    Traced,
    /// Fallback: an (inert) fault layer attached.
    Faulted,
    /// Fallback: a signalled set-up in flight when `step` is entered.
    SignalledSetup,
    /// `Plain` one level deeper: 32 switches, so 8 shards are 8 real lanes.
    DeepTree,
}

/// Bursts of best-effort traffic on the 12-switch fat-tree separated by
/// long quiet gaps, digested like [`drive`]. Also returns each shard
/// lane's count of backlogged switch steps.
fn leg_run(leg: Leg, shards: usize) -> (u64, Vec<u64>) {
    let levels = if leg == Leg::DeepTree { 4 } else { 3 };
    let topo = generators::fat_tree(2, levels);
    let mut f = Fabric::new(topo, FabricConfig::default(), 41);
    f.set_shards(if leg == Leg::ReshardMidRun { 3 } else { shards });
    let tracer = (leg == Leg::Traced).then(|| {
        let t = an2_trace::Tracer::new(TraceConfig::default());
        f.attach_tracer(t.clone());
        t
    });
    if leg == Leg::Faulted {
        f.attach_faults(&FaultSpec::default(), 5);
    }
    let hosts = f.topology().host_count() as u16;
    let mut vcs = Vec::new();
    for h in 0..hosts {
        let vc = VcId::new(200 + h as u32);
        let (src, dst) = (HostId(h), HostId((h + 3) % hosts));
        let (sw, links, sl, dl) =
            paths::host_wiring(f.topology(), src, dst).expect("tree is connected");
        if leg == Leg::SignalledSetup && h % 2 == 0 {
            f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl);
        } else {
            f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl);
        }
        vcs.push(vc);
    }
    for burst in 0..4usize {
        for (i, &vc) in vcs.iter().enumerate() {
            let pkt = Packet::from_bytes(vec![(burst * 16 + i) as u8; 200 + 90 * i]);
            f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
        }
        if leg == Leg::ReshardMidRun {
            f.set_shards([shards, 1, shards, 2][burst]);
        }
        if leg == Leg::SingleSteps {
            for _ in 0..1_500 {
                f.step(1);
            }
        } else {
            f.step(1_500);
        }
    }

    for &vc in &vcs {
        let s = f.stats(vc);
        assert_eq!(
            s.sent_cells, s.delivered_cells,
            "{leg:?}: {vc} did not drain"
        );
    }
    let work = f.shard_work().to_vec();
    (digest_run(&mut f, &vcs, tracer.as_ref()).0, work)
}

/// Every way into the slot engine gives the sequential run's digest: each
/// condition that keeps the switches with the calling thread, `step(1)` × n
/// against `step(n)`, and shard counts changed mid-run.
#[test]
fn every_engine_path_matches_the_sequential_run() {
    let (plain, _) = leg_run(Leg::Plain, 1);
    for leg in [Leg::Plain, Leg::SingleSteps, Leg::ReshardMidRun] {
        for shards in [1usize, 2, 5] {
            assert_eq!(plain, leg_run(leg, shards).0, "{leg:?} at {shards} shards");
        }
    }
    // The record stream is the 1-shard one at any shard count, with the
    // work really spread over the lanes (not funnelled through one).
    let (traced, _) = leg_run(Leg::Traced, 1);
    for shards in [2usize, 3, 5] {
        let (digest, work) = leg_run(Leg::Traced, shards);
        let lanes_worked = work.iter().filter(|&&w| w > 0).count();
        assert_eq!(traced, digest, "trace at {shards} shards");
        assert!(
            lanes_worked > 1,
            "traced run at {shards} shards stepped switches on {lanes_worked} lane(s)"
        );
    }
    for leg in [Leg::Faulted, Leg::SignalledSetup] {
        let (base, _) = leg_run(leg, 1);
        for shards in [2usize, 5] {
            assert_eq!(base, leg_run(leg, shards).0, "{leg:?} at {shards} shards");
        }
    }
    // Eight real lanes digest as one, and a 4-way block plan spreads the
    // switch phase: no lane holds half the backlogged steps (sum/max > 2).
    let (deep, _) = leg_run(Leg::DeepTree, 1);
    assert_eq!(deep, leg_run(Leg::DeepTree, 8).0, "DeepTree at 8 shards");
    let (digest, work) = leg_run(Leg::DeepTree, 4);
    assert_eq!(deep, digest, "DeepTree at 4 shards");
    let busiest = *work.iter().max().expect("four lanes");
    assert!(
        work.iter().sum::<u64>() > 2 * busiest,
        "4-way plan leaves one lane most of the work: {work:?}"
    );
}

/// Nothing separates two switches without link latency — a cell launched in
/// a slot would be due after that slot's deliveries had run, and never
/// arrive — so the value is refused where it enters.
#[test]
#[should_panic(expected = "link_latency_slots")]
fn zero_link_latency_is_rejected() {
    let cfg = FabricConfig {
        link_latency_slots: 0,
        ..FabricConfig::default()
    };
    let _ = Fabric::new(generators::fat_tree(2, 3), cfg, 41);
}

/// The lossy + live-control-plane leg: the full `Network` with independent
/// per-link loss, a fast monitor and the embedded reconfiguration protocol,
/// digested across shard counts. Faults and control traffic draw from
/// per-entity streams, so they shard as cleanly as the data plane.
fn network_run(topo: usize, seed: u64, shards: usize) -> (u64, u64) {
    let b = Network::builder();
    let b: NetworkBuilder = match topo {
        0 => b.src_installation(4, 8),
        1 => b.src_installation(6, 12),
        _ => b.ring(4, 8),
    };
    let mut net = b.seed(seed).build();
    net.set_shards(shards);
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

    let delivered = circuits
        .iter()
        .filter(|&&vc| !net.is_broken(vc))
        .map(|&vc| net.stats(vc).delivered_cells)
        .sum();
    (net.digest(), delivered)
}

#[test]
fn sharded_network_survives_loss_and_reconfiguration_identically() {
    for topo in 0..3usize {
        for seed in [3u64, 17, 91] {
            let (base, delivered) = network_run(topo, seed, 1);
            assert!(
                delivered > 0,
                "workload moved no traffic (topo {topo}, seed {seed})"
            );
            for shards in [2usize, 4] {
                let (sharded, sharded_delivered) = network_run(topo, seed, shards);
                assert_eq!(
                    base, sharded,
                    "{shards} shards diverged under faults (topo {topo}, seed {seed})"
                );
                assert_eq!(delivered, sharded_delivered);
            }
        }
    }
}
