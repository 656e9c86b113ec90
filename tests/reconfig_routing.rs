//! Integration: the distributed reconfiguration protocol's output feeds
//! up*/down* routing, exactly as in AN1/AN2 — the spanning tree built
//! during reconfiguration (§2) defines the link orientations that make
//! best-effort routing deadlock-free (§5).

use an2_reconfig::harness::ReconfigNet;
use an2_sim::SimRng;
use an2_topology::{generators, updown, SwitchId};

fn converged_net(topo: an2_topology::Topology, seed: u64) -> ReconfigNet {
    let mut net = ReconfigNet::with_defaults(topo, seed);
    net.run_to_quiescence().expect("the protocol quiesces");
    assert!(net.converged());
    net
}

#[test]
fn reconfig_tree_yields_deadlock_free_updown_routes() {
    let mut rng = SimRng::new(404);
    let topologies = vec![
        generators::ring(8),
        generators::torus(3, 4),
        generators::src_installation(10, 0),
        generators::random_connected(20, 15, &mut rng),
    ];
    for topo in topologies {
        let net = converged_net(topo, 5);
        let tree = net.spanning_tree(SwitchId(0));
        // The propagation-order tree, used for up*/down*, must make every
        // all-pairs route set free of dependency cycles.
        assert!(
            updown::all_pairs_updown_deadlock_free(net.topology(), &tree),
            "reconfiguration tree produced a deadlock-prone orientation"
        );
        // And every pair must be routable.
        for s in net.topology().switches() {
            for t in net.topology().switches() {
                let r = updown::route(net.topology(), &tree, s, t)
                    .expect("connected topology must route");
                assert!(updown::is_legal_path(&tree, &r));
            }
        }
    }
}

#[test]
fn updown_routes_recomputed_after_failure() {
    let mut net = converged_net(generators::src_installation(8, 0), 6);
    // Fail a backbone link, reconverge, rebuild the tree and routes.
    let link = net.topology().links_between(SwitchId(2), SwitchId(3))[0];
    net.kill_link(link);
    net.run_to_quiescence().expect("the protocol quiesces");
    assert!(net.converged());
    let tree = net.spanning_tree(SwitchId(0));
    for s in net.topology().switches() {
        assert!(tree.contains(s), "{s} missing after reconfiguration");
    }
    assert!(updown::all_pairs_updown_deadlock_free(
        net.topology(),
        &tree
    ));
    // Routes avoid the dead link: every hop must be a working adjacency.
    for s in net.topology().switches() {
        for t in net.topology().switches() {
            let r = updown::route(net.topology(), &tree, s, t).unwrap();
            for w in r.windows(2) {
                assert!(
                    !net.topology().links_between(w[0], w[1]).is_empty(),
                    "route uses dead adjacency {w:?}"
                );
            }
        }
    }
}

#[test]
fn propagation_tree_root_is_highest_tag_initiator() {
    // With simultaneous initiators, the surviving configuration's root is
    // its initiator, and all switches agree on it.
    let net = converged_net(generators::mesh(3, 3), 7);
    let tree0 = net.spanning_tree(SwitchId(0));
    let tree8 = net.spanning_tree(SwitchId(8));
    assert_eq!(tree0.root(), tree8.root());
    assert_eq!(tree0, tree8, "all switches reconstruct the same tree");
}

#[test]
fn updown_inflation_is_modest_on_realistic_installations() {
    // §5: "Up*/down* routing may eliminate some potential routes and thus
    // have a negative effect on performance. The impact depends on both
    // the topology and the workload." On a well-connected installation the
    // mean inflation stays small.
    let net = converged_net(generators::src_installation(12, 0), 8);
    let tree = net.spanning_tree(SwitchId(0));
    let inflation = updown::path_inflation(net.topology(), &tree).unwrap();
    assert!(
        inflation < 1.5,
        "mean up*/down* inflation {inflation:.3} is suspiciously high"
    );
    assert!(inflation >= 1.0);
}
