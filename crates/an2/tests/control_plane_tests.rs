//! The embedded control plane end to end: distributed reconfiguration
//! agents living inside [`Network`], fed by link-monitor verdicts, talking
//! over lossy fabric links, installing canonical up*/down* routes on
//! quiescence.
//!
//! The oracle throughout is the untouched `an2-reconfig` harness: run the
//! same protocol in its own actor world on the same surviving topology and
//! demand the embedded agents reach byte-identical views, and that every
//! circuit lands on the byte-identical canonical up*/down* path.

use an2::{CrashEvent, FaultSpec, FlapEvent, Network, ReconfigEvent, SwitchId, VcId};
use an2_cells::Packet;
use an2_reconfig::harness::ReconfigNet;
use an2_sim::SimDuration;
use an2_topology::{updown, LinkId, LinkState, Node, Topology};

/// Far-future slot: a flap that never recovers / a crash that never
/// restarts within any test horizon.
const NEVER: u64 = 1_000_000_000;

fn quiet_spec() -> FaultSpec {
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec
}

/// Inter-switch links of the current topology, in id order.
fn backbone_links(topo: &Topology) -> Vec<(LinkId, SwitchId, SwitchId)> {
    topo.links()
        .filter_map(|l| {
            let (a, b) = topo.endpoints(l);
            match (a.node, b.node) {
                (Node::Switch(x), Node::Switch(y)) => Some((l, x, y)),
                _ => None,
            }
        })
        .collect()
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

/// The surviving adjacency among non-crashed switches, normalized sorted.
fn surviving_edges(topo: &Topology, crashed: &[SwitchId]) -> Vec<(SwitchId, SwitchId)> {
    let mut edges: Vec<(SwitchId, SwitchId)> = backbone_links(topo)
        .into_iter()
        .filter(|&(l, a, b)| {
            topo.link_state(l) == LinkState::Working
                && !crashed.contains(&a)
                && !crashed.contains(&b)
        })
        .map(|(_, a, b)| if a <= b { (a, b) } else { (b, a) })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Every live agent's view must equal the harness oracle's view for the
/// same switch after the oracle protocol quiesces on the same surviving
/// topology. Failures are reported under `at`.
fn assert_views_match_oracle(at: &str, net: &Network, oracle_seed: u64, crashed: &[SwitchId]) {
    let mut oracle = ReconfigNet::with_defaults(net.topology().clone(), oracle_seed);
    for &s in crashed {
        oracle.kill_switch(s);
    }
    oracle.run_to_quiescence();
    for s in net.topology().switches() {
        if crashed.contains(&s) {
            continue;
        }
        let embedded = net
            .agent_view_edges(s)
            .unwrap_or_else(|| panic!("{at}: no embedded view for {s}"));
        match oracle.view_edges_of(s) {
            Some(oracle_view) => {
                assert!(
                    oracle.partition_converged(s),
                    "{at}: oracle harness failed to converge in {s}'s partition"
                );
                assert_eq!(
                    embedded, oracle_view,
                    "{at}: embedded view of {s} diverges from the harness oracle"
                );
            }
            // A switch with no working links never boots in the oracle
            // world; the embedded agent saw its links die and must hold
            // an empty view.
            None => assert!(
                embedded.is_empty(),
                "{at}: isolated {s} holds a non-empty view {embedded:?}"
            ),
        }
    }
}

/// Recomputes every circuit's canonical wiring independently — canonical
/// forest over the surviving adjacency, host attachments in link-id
/// order, first pair the up*/down* router connects — and demands each
/// open circuit sits on the byte-identical switch path (broken circuits
/// must be exactly the ones with no canonical route). Failures are
/// reported under `at`.
fn assert_paths_canonical(
    at: &str,
    net: &Network,
    circuits: &[(VcId, an2::HostId, an2::HostId)],
    crashed: &[SwitchId],
) {
    let topo = net.topology();
    let live: Vec<SwitchId> = topo.switches().filter(|s| !crashed.contains(s)).collect();
    let edges = surviving_edges(topo, crashed);
    let forest = updown::canonical_forest(topo.switch_count(), &live, &edges);
    for tree in &forest {
        assert!(
            updown::all_pairs_updown_deadlock_free(topo, tree),
            "{at}: canonical tree rooted at {} admits a channel-dependency cycle",
            tree.root()
        );
    }
    for &(vc, src, dst) in circuits {
        let mut expected: Option<Vec<SwitchId>> = None;
        'pairs: for (_, ss) in topo.host_attachments(src) {
            for (_, ds) in topo.host_attachments(dst) {
                let Some(tree) = forest.iter().find(|t| t.contains(ss) && t.contains(ds)) else {
                    continue;
                };
                if let Some(path) = updown::route(topo, tree, ss, ds) {
                    expected = Some(path);
                    break 'pairs;
                }
            }
        }
        match (net.circuit_wiring(vc), expected) {
            (Some((switches, _, _, _)), Some(path)) => {
                assert_eq!(
                    switches, path,
                    "{at}: {vc} is not on its canonical up*/down* path"
                );
                let tree = forest
                    .iter()
                    .find(|t| t.contains(path[0]))
                    .expect("path switches live in some tree");
                assert!(
                    updown::is_legal_path(tree, &switches),
                    "{at}: {vc} path violates the up*/down* rule"
                );
            }
            (None, None) => {} // correctly broken: endpoints partitioned
            (Some(_), None) => panic!("{at}: {vc} is open but has no canonical route"),
            (None, Some(p)) => panic!("{at}: {vc} is broken despite canonical route {p:?}"),
        }
    }
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
    assert_views_match_oracle("boot", &net, 1, &[]);
    assert_paths_canonical("boot", &net, &circuits, &[]);
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
    let victim = backbone_links(&topo)[0].0;
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
    assert_views_match_oracle("link failure", &net, 2, &[]);
    assert_paths_canonical("link failure", &net, &circuits, &[]);
}

#[test]
fn flap_during_reconfiguration_still_converges() {
    let topo = an2_topology::generators::src_installation(4, 8);
    let backbone = backbone_links(&topo);
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
    assert_views_match_oracle("flap", &net, 5, &[]);
    assert_paths_canonical("flap", &net, &circuits, &[]);
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
    assert_views_match_oracle("crash", &net, 9, &[victim]);
    assert_paths_canonical("crash", &net, &circuits, &[victim]);
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
    let victim = backbone_links(&topo)[2].0;
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
/// circuit sits on the canonical deadlock-free up*/down* path.
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
                let backbone = backbone_links(&topo);
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
                assert_views_match_oracle(&at, &net, seed.wrapping_mul(31) + 1, &[]);
                assert_paths_canonical(&at, &net, &circuits, &[]);
            }
        }
    }
}
