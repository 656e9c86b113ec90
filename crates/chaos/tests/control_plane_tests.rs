//! The embedded control plane end to end: distributed reconfiguration
//! agents living inside [`Network`], fed by link-monitor verdicts, talking
//! over lossy fabric links, installing canonical up*/down* routes on
//! quiescence.
//!
//! The oracle throughout is `an2_chaos::oracle`'s reference pair, the
//! same check the chaos campaigns and experiment N4 run: the
//! `an2-reconfig` harness runs the same protocol on its ideal transport
//! over the same surviving topology, the embedded agents must reach
//! byte-identical views, and every circuit must land on the
//! byte-identical canonical up*/down* path. The suite lives in `an2-chaos`
//! because `an2` cannot take `an2-chaos` as a dev-dependency without
//! building a second copy of itself.

use an2::{CrashEvent, FaultSpec, FlapEvent, Network, ReconfigEvent, SwitchId, VcId};
use an2_cells::Packet;
use an2_chaos::oracle::{check_paths, check_views};
use an2_sim::SimDuration;
use an2_topology::Topology;

/// Far-future slot: a flap that never recovers / a crash that never
/// restarts within any test horizon.
const NEVER: u64 = 1_000_000_000;

fn quiet_spec() -> FaultSpec {
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec
}

/// Steps until the control plane reports convergence, in ping-interval
/// sized chunks. Returns the slot convergence was first observed at.
fn step_until_converged(net: &mut Network, cap_slots: u64) -> u64 {
    let start = net.slot();
    while net.slot() - start < cap_slots {
        net.step(2_000);
        if net.control_converged() {
            return net.slot();
        }
    }
    panic!(
        "control plane failed to converge within {cap_slots} slots; log={:?}",
        net.reconfig_log()
    );
}

/// The reference check, `an2_chaos::oracle`'s: every live agent's view
/// equals the ideal-transport harness's on the same surviving topology,
/// every tree of the canonical forest routes deadlock-free, and every
/// circuit sits on its canonical, legal up*/down* path (broken circuits
/// are exactly those with none). Failures are reported under `at`.
fn assert_oracle_holds(
    at: &str,
    net: &Network,
    circuits: &[(VcId, an2::HostId, an2::HostId)],
    crashed: &[SwitchId],
) {
    let mut violations = check_views(net, crashed);
    violations.extend(check_paths(net, circuits, crashed));
    let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(lines.is_empty(), "{at}: {lines:#?}");
}

/// Builds a network on `topo`, opens one best-effort circuit per
/// consecutive host pair, attaches the (quiet unless amended) fault spec,
/// and embeds the control plane.
fn build(
    topo: Topology,
    seed: u64,
    spec: &FaultSpec,
) -> (Network, Vec<(VcId, an2::HostId, an2::HostId)>) {
    let mut net = Network::builder().topology(topo).seed(seed).build();
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            let vc = net.open_best_effort(a, b).expect("open circuit");
            circuits.push((vc, a, b));
        }
    }
    net.attach_faults(spec, seed);
    net.enable_control_plane();
    (net, circuits)
}

#[test]
fn boot_converges_and_installs_canonical_routes() {
    let (mut net, circuits) = build(
        an2_topology::generators::src_installation(4, 8),
        3,
        &quiet_spec(),
    );
    step_until_converged(&mut net, 400_000);
    assert!(
        net.reconfig_log()
            .iter()
            .any(|e| matches!(e, ReconfigEvent::RoutesInstalled { .. })),
        "boot reconfiguration never installed routes; log={:?}",
        net.reconfig_log()
    );
    assert_oracle_holds("boot", &net, &circuits, &[]);
    // Traffic flows on the canonical routes.
    let (vc, src, dst) = circuits[0];
    net.send_packet(vc, Packet::from_bytes(vec![0x5A; 500]))
        .unwrap();
    net.step(20_000);
    let _ = src;
    assert!(
        net.take_received(dst).iter().any(|(v, _)| *v == vc),
        "no delivery over installed canonical routes"
    );
}

#[test]
fn link_failure_converges_under_200ms_with_live_traffic() {
    let topo = an2_topology::generators::src_installation(4, 8);
    let (victim, _, _) = topo.switch_links().next().expect("a backbone");
    let down_at = 40_000u64;
    let mut spec = quiet_spec();
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at,
        up_at: NEVER,
    });
    let (mut net, circuits) = build(topo, 7, &spec);
    step_until_converged(&mut net, 400_000); // boot epoch
                                             // Keep traffic live across the failure window.
    let mut sent = 0u64;
    while net.slot() < down_at + 400_000 {
        for &(vc, _, _) in &circuits {
            if net
                .send_packet(vc, Packet::from_bytes(vec![0xC3; 200]))
                .is_ok()
            {
                sent += 1;
            }
        }
        net.step(4_000);
    }
    assert!(sent > 0);
    let log = net.reconfig_log();
    let dead_at = log
        .iter()
        .find_map(|e| match *e {
            ReconfigEvent::LinkDead { slot, link, .. } if link == victim => Some(slot),
            _ => None,
        })
        .expect("monitor never declared the victim dead");
    let installed_at = log
        .iter()
        .find_map(|e| match *e {
            ReconfigEvent::RoutesInstalled { slot, .. } if slot >= dead_at => Some(slot),
            _ => None,
        })
        .expect("no route install after the failure");
    let ms = (installed_at - down_at) as f64 * net.slot_duration().as_nanos() as f64 / 1e6;
    assert!(
        ms < 200.0,
        "failure → converged routes took {ms:.1} ms (≥ 200 ms)"
    );
    assert!(net.control_converged(), "not converged after failure");
    assert_oracle_holds("link failure", &net, &circuits, &[]);
}

#[test]
fn flap_during_reconfiguration_still_converges() {
    let topo = an2_topology::generators::src_installation(4, 8);
    let backbone: Vec<_> = topo.switch_links().collect();
    let (a, b) = (backbone[0].0, backbone[backbone.len() - 1].0);
    let mut spec = quiet_spec();
    // `a` dies for good; `b` flaps down one ping round later — its verdict
    // lands while the first failure's epoch is still converging — and
    // recovers, so the skeptic must readmit it afterwards.
    spec.flaps.push(FlapEvent {
        link: a,
        down_at: 40_000,
        up_at: NEVER,
    });
    spec.flaps.push(FlapEvent {
        link: b,
        down_at: 42_000,
        up_at: 150_000,
    });
    let (mut net, circuits) = build(topo, 11, &spec);
    net.step(700_000); // flap window + skeptic probation + margin
    assert!(
        net.control_converged(),
        "flap during reconfiguration wedged the control plane; log={:?}",
        net.reconfig_log()
    );
    // b recovered, so only a's adjacency may be missing.
    assert_oracle_holds("flap", &net, &circuits, &[]);
}

#[test]
fn switch_crash_converges_excluding_victim() {
    let topo = an2_topology::generators::src_installation(4, 8);
    let victim = SwitchId(1);
    let mut spec = quiet_spec();
    spec.crashes.push(CrashEvent {
        switch: victim,
        at: 40_000,
        restart_at: NEVER,
    });
    let (mut net, circuits) = build(topo, 13, &spec);
    net.step(800_000);
    assert!(
        net.control_converged(),
        "crash never converged; log={:?}",
        net.reconfig_log()
    );
    assert_oracle_holds("crash", &net, &circuits, &[victim]);
    // Dual-homing keeps every host pair connected around one dead switch:
    // traffic still flows end to end.
    let (vc, _, dst) = circuits[0];
    net.send_packet(vc, Packet::from_bytes(vec![0x77; 300]))
        .unwrap();
    net.step(30_000);
    assert!(
        net.take_received(dst).iter().any(|(v, _)| *v == vc),
        "no delivery after the crash reconfiguration"
    );
}

/// The replay digest of a run with a long flap under steady load.
fn run_digest(seed: u64) -> u64 {
    let topo = an2_topology::generators::src_installation(4, 8);
    let (victim, _, _) = topo.switch_links().nth(2).expect("three backbone links");
    let mut spec = quiet_spec();
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at: 40_000,
        up_at: 150_000,
    });
    let (mut net, circuits) = build(topo, seed, &spec);
    for k in 0..80u64 {
        for &(vc, _, _) in &circuits {
            let _ = net.send_packet(vc, Packet::from_bytes(vec![(k & 0xFF) as u8; 300]));
        }
        net.step(5_000);
    }
    net.digest()
}

#[test]
fn replay_is_byte_identical() {
    assert_eq!(
        run_digest(21),
        run_digest(21),
        "same (spec, seed) must replay byte-identically"
    );
}

/// The grid's topologies, fewest switches first: a four-switch
/// installation, a single-homed five-switch ring, a six-switch
/// installation.
fn grid_topology(which: usize) -> Topology {
    match which {
        0 => an2_topology::generators::src_installation(4, 8),
        1 => {
            let mut t = an2_topology::generators::ring(5);
            for k in 0..10u16 {
                let h = t.add_host();
                t.attach_host(h, SwitchId(k % 5)).unwrap();
            }
            t
        }
        _ => an2_topology::generators::src_installation(6, 12),
    }
}

/// Across topologies (fewest switches first), one or two scripted link
/// failures (the second landing mid-reconfiguration) and seeds, the
/// embedded agents converge to the harness oracle's views and every
/// circuit sits on the canonical up*/down* path.
#[test]
fn embedded_agents_match_harness_oracle() {
    // Backbone link indices (taken modulo the backbone): the first fails
    // for good, the second, if any, one ping round into its epoch.
    let failures = [(0usize, None), (3, None), (0, Some(1)), (5, Some(2))];
    for which in 0..3 {
        for (k1, k2) in failures {
            for seed in 1..4u64 {
                let at = format!("topology {which}, failures {k1}/{k2:?}, seed {seed}");
                let topo = grid_topology(which);
                let backbone: Vec<_> = topo.switch_links().collect();
                let mut spec = quiet_spec();
                let first = backbone[k1 % backbone.len()].0;
                let second = k2.map(|k| backbone[k % backbone.len()].0);
                spec.flaps.push(FlapEvent {
                    link: first,
                    down_at: 40_000,
                    up_at: NEVER,
                });
                if let Some(second) = second.filter(|&l| l != first) {
                    spec.flaps.push(FlapEvent {
                        link: second,
                        down_at: 42_000,
                        up_at: NEVER,
                    });
                }
                let (mut net, circuits) = build(topo, seed, &spec);
                net.step(600_000);
                assert!(
                    net.control_converged(),
                    "{at}: not converged; log={:?}",
                    net.reconfig_log()
                );
                assert_oracle_holds(&at, &net, &circuits, &[]);
            }
        }
    }
}
