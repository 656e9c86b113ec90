//! Pins the ideal-transport harness: message counts, initiations, the last
//! completion instant and an FNV digest over every switch's view, for six
//! topologies × five scripts. The values were captured at the last commit
//! whose `ReconfigNet` ran on the generic actor engine; the harness's
//! `(deliver_at, send_seq)` heap of protocol inputs must reproduce them
//! exactly. This is the only suite that notices a changed equal-time
//! tie-break: every other test asserts convergence, not the order that
//! led to it.

use an2_reconfig::harness::ReconfigNet;
use an2_sim::{Fnv, SimRng};
use an2_topology::{generators, LinkId, SwitchId, Topology};

/// Digest of every switch's view in switch order: tag, completion instant,
/// sorted edges, and the spanning tree's `(child, parent)` pairs in the
/// order collection assembled them (itself a function of delivery order).
fn view_digest(net: &ReconfigNet) -> u64 {
    let mut h = Fnv::new();
    for s in net.topology().switches() {
        let Some(view) = net.view_of(s) else {
            h.add(u64::MAX);
            continue;
        };
        h.add(view.tag.epoch);
        h.add(u64::from(view.tag.initiator.0));
        h.add(view.completed_at.as_nanos());
        // The edges as the view holds them: normalised, strictly
        // increasing (so already what a sort and dedup would give).
        let edges = &view.edges;
        assert!(
            edges.iter().all(|&(a, b)| a <= b) && edges.windows(2).all(|w| w[0] < w[1]),
            "{s}'s view edges are not normalised and strictly increasing: {edges:?}"
        );
        h.add(edges.len() as u64);
        for &(a, b) in edges {
            h.add(u64::from(a.0) << 16 | u64::from(b.0));
        }
        h.add(view.parents.len() as u64);
        for &(child, parent) in &view.parents {
            h.add(u64::from(child.0) << 16 | u64::from(parent.0));
        }
    }
    h.finish()
}

fn row(name: &str, script: &str, net: &ReconfigNet) -> String {
    let done = net
        .last_completion(SwitchId(0))
        .map_or(u64::MAX, |t| t.as_nanos());
    format!(
        "{name}/{script} msgs={} init={} done={done} fnv={:016x}\n",
        net.total_messages(),
        net.total_initiated(),
        view_digest(net),
    )
}

type Inject<'a> = &'a dyn Fn(&mut ReconfigNet);

fn rows(name: &str, topo: &Topology, seed: u64) -> String {
    let links: Vec<LinkId> = topo.switch_links().map(|(l, _, _)| l).collect();
    let (first, last) = (links[0], links[links.len() - 1]);
    let victim = SwitchId(topo.switch_count() as u16 - 1);
    let booted = || {
        let mut net = ReconfigNet::with_defaults(topo.clone(), seed);
        net.run_to_quiescence().expect("the protocol quiesces");
        net
    };
    let mut out = row(name, "boot", &booted());
    let scripts: [(&str, Inject); 4] = [
        ("kill_link", &|net| net.kill_link(first)),
        ("kill_switch", &|net| net.kill_switch(victim)),
        ("kill_link_delta", &|net| net.kill_link_delta(first)),
        // The second failure lands while the first reconfiguration's
        // invitations are still in flight: overlapping epochs.
        ("kill_link+kill_switch", &|net| {
            net.kill_link(last);
            net.kill_switch(SwitchId(0));
        }),
    ];
    for (script, inject) in scripts {
        let mut net = booted();
        inject(&mut net);
        net.run_to_quiescence().expect("the protocol quiesces");
        out += &row(name, script, &net);
    }
    out
}

const PINS: &str = "\
line5/boot msgs=33 init=8 done=909000 fnv=6bff7a44d73e7d1f\n\
line5/kill_link msgs=45 init=10 done=909000 fnv=d5ff935c6a6d1bfe\n\
line5/kill_switch msgs=45 init=9 done=1818000 fnv=7c5cd19799f79e7a\n\
line5/kill_link_delta msgs=39 init=8 done=909000 fnv=c7bbc322465799cd\n\
line5/kill_link+kill_switch msgs=42 init=11 done=909000 fnv=a618ee77ae9ff62f\n\
ring8/boot msgs=78 init=16 done=1414000 fnv=9d908f26b09f8379\n\
ring8/kill_link msgs=113 init=18 done=3535000 fnv=859162400e32226f\n\
ring8/kill_switch msgs=107 init=18 done=3232000 fnv=c17d32f7f2a730cd\n\
ring8/kill_link_delta msgs=106 init=16 done=1414000 fnv=66b2e52283230c01\n\
ring8/kill_link+kill_switch msgs=108 init=19 done=1111000 fnv=81241f4034b1f671\n\
torus3x3/boot msgs=216 init=36 done=808000 fnv=0df5e46c7b880f6f\n\
torus3x3/kill_link msgs=311 init=38 done=1616000 fnv=00cd567a969a3e94\n\
torus3x3/kill_switch msgs=300 init=40 done=1616000 fnv=3669c323fbdd05eb\n\
torus3x3/kill_link_delta msgs=284 init=36 done=808000 fnv=abc69a69c853403d\n\
torus3x3/kill_link+kill_switch msgs=325 init=42 done=808000 fnv=14a6667a357fa2ca\n\
src4x24/boot msgs=51 init=12 done=505000 fnv=bef6257aa626970a\n\
src4x24/kill_link msgs=79 init=14 done=1313000 fnv=1cf98d41db48de2c\n\
src4x24/kill_switch msgs=67 init=15 done=1010000 fnv=923b576073adc191\n\
src4x24/kill_link_delta msgs=71 init=12 done=505000 fnv=bd5930abaee7124a\n\
src4x24/kill_link+kill_switch msgs=76 init=17 done=505000 fnv=93e8bf33292b15a3\n\
random16-5/boot msgs=327 init=54 done=909000 fnv=e55abafe6e7808ba\n\
random16-5/kill_link msgs=436 init=56 done=2020000 fnv=f15b6be0b26b87a7\n\
random16-5/kill_switch msgs=431 init=55 done=2323000 fnv=b6872be07d2211ae\n\
random16-5/kill_link_delta msgs=431 init=54 done=909000 fnv=311b3385298b40ba\n\
random16-5/kill_link+kill_switch msgs=495 init=58 done=808000 fnv=b353d540fa1df007\n\
random16-6/boot msgs=405 init=54 done=909000 fnv=05162329f1ecc3df\n\
random16-6/kill_link msgs=521 init=56 done=2020000 fnv=a3f1c7817ea8c16f\n\
random16-6/kill_switch msgs=541 init=57 done=2020000 fnv=f9684c26c508eac5\n\
random16-6/kill_link_delta msgs=509 init=54 done=909000 fnv=15102c96896c319f\n\
random16-6/kill_link+kill_switch msgs=573 init=63 done=707000 fnv=ff68595f624bac67\n\
";

#[test]
fn harness_runs_are_pinned() {
    let mut actual = String::new();
    actual += &rows("line5", &generators::line(5), 1);
    actual += &rows("ring8", &generators::ring(8), 2);
    actual += &rows("torus3x3", &generators::torus(3, 3), 3);
    actual += &rows("src4x24", &generators::src_installation(4, 24), 4);
    for seed in [5, 6] {
        let topo = generators::random_connected(16, 12, &mut SimRng::new(seed));
        actual += &rows(&format!("random16-{seed}"), &topo, seed);
    }
    assert!(
        actual == PINS,
        "harness behaviour changed; actual rows:\n{actual}"
    );
}
