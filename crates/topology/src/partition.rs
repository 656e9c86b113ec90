//! Balanced, connected partitions of the switch graph.
//!
//! Splits the switches into `k` regions of equal size (within one switch)
//! with few links between regions. Exact min-cut balanced partitioning is
//! NP-hard; this is the classic greedy region-growing heuristic: seed each
//! region at the lowest-numbered unassigned switch, then repeatedly absorb
//! the frontier switch with the most links into the region (ties to the
//! lowest id), lowest unassigned id as a fallback when the frontier is
//! empty (disconnected graphs). Deterministic by construction — no
//! randomness, no hash iteration.
//!
//! The fabric's shard plan no longer comes from here: its cross-switch
//! traffic all passes through one agenda, so cut links cost it nothing, and
//! contiguous id blocks measured faster (DESIGN.md §11).

use crate::{SwitchId, Topology};

/// Assigns each switch a shard in `0..shards`, balancing region sizes to
/// within one switch and greedily minimising the number of cut links.
/// `shards` is clamped to `1..=switch_count` (an empty topology yields an
/// empty plan). The result is deterministic for a given topology.
pub fn partition_switches(topo: &Topology, shards: usize) -> Vec<u32> {
    let n = topo.switch_count();
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, n);
    let mut plan = vec![u32::MAX; n];
    // Region size quotas: the first `n % shards` regions get one extra.
    let base = n / shards;
    let extra = n % shards;
    let mut assigned = 0usize;
    for shard in 0..shards {
        let quota = base + usize::from(shard < extra);
        if quota == 0 {
            continue;
        }
        // Seed at the lowest unassigned switch.
        let seed = (0..n)
            .find(|&i| plan[i] == u32::MAX)
            .expect("quotas sum to n");
        // Links from the region into each still-unassigned switch, kept
        // incrementally: absorbing a switch only adds its own neighbours.
        let mut frontier = vec![0usize; n];
        let absorb = |plan: &mut [u32], frontier: &mut [usize], pick: usize| {
            plan[pick] = shard as u32;
            for nb in topo.switch_neighbors(SwitchId(pick as u16)) {
                frontier[nb.0 as usize] += 1;
            }
        };
        absorb(&mut plan, &mut frontier, seed);
        assigned += 1;
        for _ in 1..quota {
            // The unassigned switch with the most links into the region,
            // ties to the lowest id (`max_by_key` keeps the last maximum, so
            // scan from the highest id down).
            let pick = (0..n)
                .rev()
                .filter(|&i| plan[i] == u32::MAX && frontier[i] > 0)
                .max_by_key(|&i| frontier[i])
                // Disconnected frontier: fall back to the lowest unassigned
                // switch anywhere.
                .or_else(|| (0..n).find(|&i| plan[i] == u32::MAX))
                .expect("quota left");
            absorb(&mut plan, &mut frontier, pick);
            assigned += 1;
        }
    }
    debug_assert_eq!(assigned, n);
    debug_assert!(plan.iter().all(|&s| (s as usize) < shards));
    plan
}

/// The number of links whose endpoints land in different shards.
pub fn cut_links(topo: &Topology, plan: &[u32]) -> usize {
    use crate::Node;
    topo.links()
        .filter(|&l| {
            let (a, b) = topo.endpoints(l);
            match (a.node, b.node) {
                (Node::Switch(x), Node::Switch(y)) => plan[x.0 as usize] != plan[y.0 as usize],
                _ => false,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn covers_every_switch_with_balanced_regions() {
        let topo = generators::torus(6, 6);
        for shards in [1, 2, 3, 4, 7] {
            let plan = partition_switches(&topo, shards);
            assert_eq!(plan.len(), 36);
            let mut sizes = vec![0usize; shards];
            for &s in &plan {
                sizes[s as usize] += 1;
            }
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced {shards}-way plan: {sizes:?}");
        }
    }

    #[test]
    fn one_shard_is_trivial_and_oversharding_clamps() {
        let topo = generators::line(3);
        assert_eq!(partition_switches(&topo, 1), vec![0, 0, 0]);
        let plan = partition_switches(&topo, 64);
        assert_eq!(plan.len(), 3);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn regions_prefer_connected_growth() {
        // A line cut in half should split at one edge: exactly one cut link.
        let topo = generators::line(8);
        let plan = partition_switches(&topo, 2);
        assert_eq!(cut_links(&topo, &plan), 1, "plan {plan:?}");
    }

    /// The pre-incremental algorithm, verbatim: recounts the whole frontier
    /// for every absorbed switch. Kept only to pin the plan.
    fn partition_recounting(topo: &Topology, shards: usize) -> Vec<u32> {
        let n = topo.switch_count();
        let shards = shards.clamp(1, n);
        let mut plan = vec![u32::MAX; n];
        let (base, extra) = (n / shards, n % shards);
        for shard in 0..shards {
            let quota = base + usize::from(shard < extra);
            let seed = (0..n).find(|&i| plan[i] == u32::MAX).unwrap();
            plan[seed] = shard as u32;
            let mut region = vec![SwitchId(seed as u16)];
            for _ in 1..quota {
                let mut best: Option<(usize, usize)> = None; // (links_in, idx)
                let mut counted = vec![0usize; n];
                for &r in &region {
                    for nb in topo.switch_neighbors(r) {
                        if plan[nb.0 as usize] == u32::MAX {
                            counted[nb.0 as usize] += 1;
                        }
                    }
                }
                for (i, &c) in counted.iter().enumerate() {
                    if c > 0 && best.is_none_or(|(bc, bi)| c > bc || (c == bc && i < bi)) {
                        best = Some((c, i));
                    }
                }
                let pick = match best {
                    Some((_, i)) => i,
                    None => (0..n).find(|&i| plan[i] == u32::MAX).unwrap(),
                };
                plan[pick] = shard as u32;
                region.push(SwitchId(pick as u16));
            }
        }
        plan
    }

    #[test]
    fn incremental_frontier_reproduces_the_recounting_plan() {
        let mut disconnected = generators::line(5);
        for _ in 0..4 {
            disconnected.add_switch();
        }
        for (name, topo) in [
            ("torus", generators::torus(6, 6)),
            ("fat_tree", generators::fat_tree(2, 5)),
            ("installation", generators::src_installation(12, 24)),
            ("disconnected", disconnected),
        ] {
            for shards in [1, 2, 3, 4, 7, 64] {
                assert_eq!(
                    partition_switches(&topo, shards),
                    partition_recounting(&topo, shards),
                    "{name} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let topo = generators::torus(4, 4);
        assert_eq!(partition_switches(&topo, 4), partition_switches(&topo, 4));
    }
}
