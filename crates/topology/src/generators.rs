//! Topology builders for experiments and tests.
//!
//! The paper's demo installation (Figure 1) has hosts with links to two
//! different switches and multiple switch-to-switch paths, so that a single
//! failure never partitions the network. [`src_installation`] reproduces
//! that style; the remaining generators cover the standard graph families
//! used when measuring reconfiguration and up\*/down\* behaviour.

use crate::graph::{SwitchId, Topology};
use an2_sim::SimRng;

/// A path of `n` switches: `0 - 1 - ... - n-1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize) -> Topology {
    assert!(n > 0, "line needs at least one switch");
    let mut t = Topology::new();
    let sw: Vec<_> = (0..n).map(|_| t.add_switch()).collect();
    for w in sw.windows(2) {
        t.link_switches(w[0], w[1]).expect("line link");
    }
    t
}

/// A cycle of `n >= 3` switches.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "ring needs at least three switches");
    let mut t = line(n);
    t.link_switches(SwitchId((n - 1) as u16), SwitchId(0))
        .expect("ring closure");
    t
}

/// A single wide-radix switch with `hosts` directly-attached hosts — the
/// smallest topology that exercises the multi-word port sets (> 64 ports)
/// in the crossbar schedulers.
///
/// # Panics
///
/// Panics if `hosts` is 0 or exceeds the 255-port topology limit.
pub fn wide_hub(hosts: usize) -> Topology {
    assert!(
        (1..=u8::MAX as usize).contains(&hosts),
        "wide_hub takes 1..=255 hosts"
    );
    let mut t = Topology::new();
    let hub = t.add_switch_with_ports(hosts as u8);
    for _ in 0..hosts {
        let h = t.add_host();
        t.attach_host(h, hub).expect("hub host attach");
    }
    t
}

/// A hub (`sw0`) with `leaves` spokes.
///
/// # Panics
///
/// Panics if `leaves` exceeds the hub's 16 ports.
pub fn star(leaves: usize) -> Topology {
    let mut t = Topology::new();
    let hub = t.add_switch();
    for _ in 0..leaves {
        let leaf = t.add_switch();
        t.link_switches(hub, leaf).expect("star spoke");
    }
    t
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = just a root).
///
/// # Panics
///
/// Panics if `arity` is 0 or exceeds available ports.
pub fn tree(arity: usize, depth: usize) -> Topology {
    assert!(arity > 0, "tree arity must be positive");
    let mut t = Topology::new();
    let root = t.add_switch();
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &parent in &frontier {
            for _ in 0..arity {
                let child = t.add_switch();
                t.link_switches(parent, child).expect("tree edge");
                next.push(child);
            }
        }
        frontier = next;
    }
    t
}

/// A `w × h` grid (no wraparound). Switch `(x, y)` has id `y*w + x`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn mesh(w: usize, h: usize) -> Topology {
    assert!(w > 0 && h > 0, "mesh dimensions must be positive");
    let mut t = Topology::new();
    let ids: Vec<Vec<SwitchId>> = (0..h)
        .map(|_| (0..w).map(|_| t.add_switch()).collect())
        .collect();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                t.link_switches(ids[y][x], ids[y][x + 1]).expect("mesh h");
            }
            if y + 1 < h {
                t.link_switches(ids[y][x], ids[y + 1][x]).expect("mesh v");
            }
        }
    }
    t
}

/// A `w × h` torus (grid with wraparound links). Needs `w, h >= 3` to avoid
/// parallel wrap edges colliding with grid edges.
///
/// # Panics
///
/// Panics if either dimension is below 3.
pub fn torus(w: usize, h: usize) -> Topology {
    assert!(w >= 3 && h >= 3, "torus dimensions must be at least 3");
    let mut t = mesh(w, h);
    for y in 0..h {
        t.link_switches(SwitchId((y * w + w - 1) as u16), SwitchId((y * w) as u16))
            .expect("torus wrap h");
    }
    for x in 0..w {
        t.link_switches(SwitchId(((h - 1) * w + x) as u16), SwitchId(x as u16))
            .expect("torus wrap v");
    }
    t
}

/// A connected random graph: a random spanning tree plus `extra_links`
/// additional random links (parallel links avoided; self-loops impossible).
/// With `extra_links >= n/2` these graphs are usually 2-edge-connected —
/// verify with [`Topology::survives_any_single_link_failure`] when the
/// experiment depends on it.
pub fn random_connected(n: usize, extra_links: usize, rng: &mut SimRng) -> Topology {
    assert!(n > 0, "need at least one switch");
    let mut t = Topology::new();
    let sw: Vec<_> = (0..n).map(|_| t.add_switch()).collect();
    // Random spanning tree: attach each new switch to a random earlier one.
    for i in 1..n {
        let j = rng.gen_range(i);
        t.link_switches(sw[i], sw[j]).expect("tree link");
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_links && attempts < extra_links * 20 {
        attempts += 1;
        let a = rng.gen_range(n);
        let b = rng.gen_range(n);
        if a == b || !t.links_between(sw[a], sw[b]).is_empty() {
            continue;
        }
        if t.link_switches(sw[a], sw[b]).is_ok() {
            added += 1;
        }
    }
    t
}

/// A `k`-ary `n`-tree fat-tree: `n` levels of `k^(n-1)` switches each
/// (`n · k^(n-1)` total), butterfly-wired between adjacent levels, with
/// `k^n` hosts attached `k` per level-0 switch. Switch `(level, w)` has id
/// `level · k^(n-1) + w`; it links up to the `k` switches at `level + 1`
/// whose radix-`k` index differs from `w` only in digit `level`. Every
/// switch uses at most `2k` ports, so `k ≤ 8` fits the 16-port AN2 switch.
/// This is the scale topology of `benchmark/`'s `tree_sat`, `tree_sat_s2`
/// and `tree_sparse` workloads: `fat_tree(2, 8)` is the 1024-switch,
/// 256-host instance.
///
/// # Panics
///
/// Panics if `k < 2`, `k > 8`, `n < 2`, or the switch count overflows ids.
pub fn fat_tree(k: usize, n: usize) -> Topology {
    assert!((2..=8).contains(&k), "fat_tree arity must be in 2..=8");
    assert!(n >= 2, "fat_tree needs at least two levels");
    let radix: usize = k.pow((n - 1) as u32);
    let switches = n * radix;
    assert!(switches <= u16::MAX as usize, "fat_tree too large for ids");
    let mut t = Topology::new();
    let sw: Vec<_> = (0..switches).map(|_| t.add_switch()).collect();
    // `digit_stride[l] = k^l`: the place value of digit `l` of a
    // switch-in-level index.
    for level in 0..n - 1 {
        let stride = k.pow(level as u32);
        for w in 0..radix {
            let base = w - ((w / stride) % k) * stride; // digit `level` zeroed
            for d in 0..k {
                let up = base + d * stride;
                t.link_switches(sw[level * radix + w], sw[(level + 1) * radix + up])
                    .expect("fat-tree butterfly link");
            }
        }
    }
    for &edge in sw.iter().take(radix) {
        for _ in 0..k {
            let h = t.add_host();
            t.attach_host(h, edge).expect("fat-tree host link");
        }
    }
    t
}

/// An installation in the style of the paper's Figure 1:
///
/// * a redundant switch backbone (ring plus skip-chords, so no single link or
///   switch failure partitions it), and
/// * `hosts` workstations, each with an active link to one switch and an
///   alternate link to a *different* switch.
///
/// # Panics
///
/// Panics if `switches < 4`.
pub fn src_installation(switches: usize, hosts: usize) -> Topology {
    assert!(switches >= 4, "installation needs at least four switches");
    let mut t = Topology::new();
    let sw: Vec<_> = (0..switches).map(|_| t.add_switch()).collect();
    // Backbone ring.
    for i in 0..switches {
        t.link_switches(sw[i], sw[(i + 1) % switches])
            .expect("backbone ring");
    }
    // Skip-2 chords for switch-failure tolerance.
    for i in 0..switches {
        let j = (i + 2) % switches;
        if t.links_between(sw[i], sw[j]).is_empty() {
            let _ = t.link_switches(sw[i], sw[j]);
        }
    }
    // Dual-homed hosts, spread round-robin over adjacent switch pairs.
    for k in 0..hosts {
        let h = t.add_host();
        let primary = k % switches;
        let alternate = (primary + 1) % switches;
        t.attach_host(h, sw[primary]).expect("primary host link");
        t.attach_host(h, sw[alternate])
            .expect("alternate host link");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkState;

    #[test]
    fn line_shape() {
        let t = line(4);
        assert_eq!(t.switch_count(), 4);
        assert_eq!(t.link_count(), 3);
        assert!(t.switches_connected());
        assert!(!t.survives_any_single_link_failure());
    }

    #[test]
    fn ring_shape() {
        let t = ring(5);
        assert_eq!(t.link_count(), 5);
        assert!(t.survives_any_single_link_failure());
        assert_eq!(
            t.switch_neighbors(SwitchId(0)),
            vec![SwitchId(1), SwitchId(4)]
        );
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn ring_too_small() {
        ring(2);
    }

    #[test]
    fn star_shape() {
        let t = star(6);
        assert_eq!(t.switch_count(), 7);
        assert_eq!(t.switch_neighbors(SwitchId(0)).len(), 6);
        assert_eq!(t.switch_neighbors(SwitchId(3)), vec![SwitchId(0)]);
    }

    #[test]
    fn tree_shape() {
        let t = tree(2, 3); // 1 + 2 + 4 + 8
        assert_eq!(t.switch_count(), 15);
        assert_eq!(t.link_count(), 14);
        assert!(t.switches_connected());
    }

    #[test]
    fn mesh_and_torus_shape() {
        let m = mesh(3, 4);
        assert_eq!(m.switch_count(), 12);
        assert_eq!(m.link_count(), 3 * 3 + 2 * 4); // v + h edges: (w-1)*h + w*(h-1) = 2*4+3*3=17
        let t = torus(4, 4);
        assert_eq!(t.switch_count(), 16);
        assert_eq!(t.link_count(), 2 * 16);
        assert!(t.survives_any_single_link_failure());
        // Every torus switch has degree 4.
        for s in t.switches() {
            assert_eq!(t.switch_neighbors(s).len(), 4);
        }
    }

    #[test]
    fn fat_tree_shape() {
        let t = fat_tree(2, 3); // 3 levels × 4 switches
        assert_eq!(t.switch_count(), 12);
        assert_eq!(t.host_count(), 8);
        assert_eq!(t.link_count(), 2 * 4 * 2 + 8); // butterfly + host links
        assert!(t.switches_connected());
        // Interior switches: k down + k up; top level: k down only.
        assert_eq!(t.switch_neighbors(SwitchId(4)).len(), 4);
        assert_eq!(t.switch_neighbors(SwitchId(8)).len(), 2);
        // The `tree_sat` instance dimensions hold without building it here.
        assert_eq!(8 * 2usize.pow(7), 1024);
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = an2_sim::SimRng::new(1234);
        for n in [1, 2, 5, 20, 50] {
            let t = random_connected(n, n / 2, &mut rng);
            assert_eq!(t.switch_count(), n);
            assert!(t.switches_connected(), "n={n}");
        }
    }

    #[test]
    fn random_connected_deterministic_per_seed() {
        let a = random_connected(20, 10, &mut an2_sim::SimRng::new(7));
        let b = random_connected(20, 10, &mut an2_sim::SimRng::new(7));
        assert_eq!(a.link_count(), b.link_count());
        for (la, lb) in a.links().zip(b.links()) {
            assert_eq!(a.endpoints(la), b.endpoints(lb));
        }
    }

    #[test]
    fn src_installation_is_figure1_like() {
        let t = src_installation(6, 12);
        assert_eq!(t.switch_count(), 6);
        assert_eq!(t.host_count(), 12);
        // Dual homing: every host attaches to exactly two distinct switches.
        for h in t.hosts() {
            let att = t.host_attachments(h);
            assert_eq!(att.len(), 2);
            assert_ne!(att[0].1, att[1].1);
        }
        assert!(t.survives_any_single_link_failure());
        assert!(t.survives_any_single_switch_failure());
    }

    #[test]
    fn src_installation_survives_the_favorite_demo() {
        // "Pulling the plug on an arbitrary switch" (§1): kill each switch in
        // turn; remaining switches stay connected and hosts stay attached.
        let t = src_installation(8, 24);
        for victim in t.switches() {
            let mut probe = t.clone();
            probe.kill_switch(victim);
            let parts = probe.switch_partitions();
            let nonsingleton: Vec<_> = parts
                .iter()
                .filter(|p| !(p.len() == 1 && p[0] == victim))
                .collect();
            assert_eq!(nonsingleton.len(), 1, "killing {victim} partitioned");
            for h in probe.hosts() {
                assert!(!probe.host_attachments(h).is_empty());
            }
        }
    }

    #[test]
    fn generators_leave_links_working() {
        let t = src_installation(5, 5);
        assert!(t.links().all(|l| t.link_state(l) == LinkState::Working));
    }
}
