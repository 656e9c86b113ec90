//! Convergence of the arena rivals — the BPDU-style spanning tree and the
//! path-vector protocol — embedded in the live control plane.
//!
//! The up*/down* agent has a byte-identical oracle (`control_plane_tests`,
//! `protocol_equiv`); the chaos oracle holds each rival to its own run
//! on the ideal transport, and the contract here is self-consistency: after boot
//! and after a single link failure, the protocol must reach its own
//! convergence predicate (uniform generations and loop-free agreement in
//! every live partition, checked by `Network::control_converged`), and
//! every route it installs must be a simple path over working links —
//! no routing loops, no dead hops. Each protocol walks the same grid:
//! three topologies (fewest switches first) × eight victim links × three
//! seeds.

mod grid;

use an2::{CrashEvent, FlapEvent, Network, Packet, ProtocolKind, SwitchId, VcId};
use an2_topology::{LinkState, Topology};

/// The three arena topologies, fewest switches first: a four-switch
/// Figure 1–style installation, a single-homed five-switch ring, and a
/// six-switch installation.
const SHAPES: [fn() -> Topology; 3] = [grid::src4x8, grid::ring5x10, grid::src6x12];

fn step_until_converged(net: &mut Network, cap_slots: u64, what: &str) {
    let start = net.slot();
    while net.slot() - start < cap_slots {
        net.step(2_000);
        if net.control_converged() {
            return;
        }
    }
    panic!(
        "{what}: control plane failed to converge within {cap_slots} slots; log={:?}",
        net.reconfig_log()
    );
}

/// Every open circuit must sit on a simple path: no switch visited twice,
/// every inter-switch link working, endpoints consistent.
fn assert_routes_loop_free(net: &Network, vcs: &[VcId], what: &str) {
    let topo = net.topology();
    for &vc in vcs {
        let Some((switches, links, src_link, dst_link)) = net.circuit_wiring(vc) else {
            continue; // broken: no route in the surviving topology
        };
        let mut seen = switches.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            switches.len(),
            "{what}: {vc} routed through a loop: {switches:?}"
        );
        assert_eq!(
            links.len() + 1,
            switches.len(),
            "{what}: {vc} has {} links for {} switches",
            links.len(),
            switches.len()
        );
        for &l in links.iter().chain([&src_link, &dst_link]) {
            assert_eq!(
                topo.link_state(l),
                LinkState::Working,
                "{what}: {vc} wired over non-working link {l}"
            );
        }
    }
}

/// Boots the protocol on `which` topology, converges, kills one backbone
/// link (`victim_choice` modulo the backbone), and demands reconvergence
/// with loop-free installed routes.
fn run_case(kind: ProtocolKind, which: usize, seed: u64, victim_choice: usize) {
    let topo = SHAPES[which]();
    let mut net = Network::builder()
        .topology(topo)
        .seed(seed)
        .protocol(kind)
        .build();

    // A few best-effort circuits spread across host pairs, so route
    // installation has something to wire.
    let vcs = grid::open_pairs(&mut net, 4, None);
    assert!(!vcs.is_empty(), "t{which}/s{seed}: no circuits opened");

    let backbone: Vec<_> = net.topology().switch_links().collect();
    let (victim, _, _) = backbone[victim_choice % backbone.len()];
    let mut spec = grid::pinged_spec();
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at: 40_000,
        up_at: grid::NEVER,
    });
    net.attach_faults(&spec, seed);
    net.enable_control_plane();

    let name = match kind {
        ProtocolKind::UpDown => "updown",
        ProtocolKind::SpanningTree => "stp",
        ProtocolKind::PathVector => "pathvector",
    };
    let at = format!("{name}/t{which}/v{victim_choice}/s{seed}");
    step_until_converged(&mut net, 40_000, &format!("{at} boot"));
    assert_routes_loop_free(&net, &vcs, &format!("{at} boot"));

    // Ride past the failure and demand reconvergence on the survivor
    // topology.
    while net.slot() < 60_000 {
        net.step(2_000);
    }
    step_until_converged(&mut net, 1_000_000, &format!("{at} post-failure"));
    assert_routes_loop_free(&net, &vcs, &format!("{at} post-failure"));
}

/// Every point of the grid, fewest switches first, then victim, then seed.
fn walk_grid(kind: ProtocolKind) {
    for which in 0..3 {
        for victim in 0..8 {
            for seed in [3u64, 7, 21] {
                run_case(kind, which, seed, victim);
            }
        }
    }
}

/// Spanning tree: 3 topologies × 8 victims × 3 seeds.
#[test]
fn spanning_tree_converges_after_single_failure() {
    walk_grid(ProtocolKind::SpanningTree);
}

/// Path vector: same grid, same contract.
#[test]
fn path_vector_converges_after_single_failure() {
    walk_grid(ProtocolKind::PathVector);
}

/// A rival routes no circuit through a crashed switch. Hosts 0 and 4 of
/// the four-switch installation are both homed on switches 0 and 1, so
/// their circuit is the one-switch path `[s0]`. Once `s0` crashes for
/// good, the circuit must move to `[s1]` and deliver: a crashed switch
/// keeps its last protocol state, and its host links still read working.
#[test]
fn rivals_reroute_a_circuit_off_a_crashed_switch() {
    for kind in [ProtocolKind::SpanningTree, ProtocolKind::PathVector] {
        let mut net = Network::builder()
            .topology(grid::src4x8())
            .seed(5)
            .protocol(kind)
            .build();
        let hosts: Vec<_> = net.hosts().collect();
        let (src, dst) = (hosts[0], hosts[4]);
        let vc = net.open_best_effort(src, dst).expect("open circuit");
        let mut spec = grid::pinged_spec();
        spec.crashes.push(CrashEvent {
            switch: SwitchId(0),
            at: 40_000,
            restart_at: grid::NEVER,
        });
        net.attach_faults(&spec, 5);
        net.enable_control_plane();
        let at = kind.name();
        step_until_converged(&mut net, 40_000, &format!("{at} boot"));
        let on = |net: &Network| net.circuit_wiring(vc).map(|w| w.0);
        assert_eq!(on(&net), Some(vec![SwitchId(0)]), "{at} boot");
        while net.slot() < 60_000 {
            net.step(2_000);
        }
        step_until_converged(&mut net, 1_000_000, &format!("{at} post-crash"));
        assert_eq!(on(&net), Some(vec![SwitchId(1)]), "{at} post-crash");
        net.send_packet(vc, Packet::from_bytes(vec![0x3C; 200]))
            .expect("send on the rerouted circuit");
        net.step(30_000);
        assert!(
            net.take_received(dst).iter().any(|(v, _)| *v == vc),
            "{at}: no delivery after the crash"
        );
    }
}
