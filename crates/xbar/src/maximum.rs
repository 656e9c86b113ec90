//! Maximum bipartite matching via Hopcroft–Karp — the baseline the paper
//! rejects.
//!
//! "Why not implement a maximum matching algorithm instead? The simplest
//! answer is that we don't know of a fast enough algorithm for maximum
//! matching. Besides, maximum matching can lead to starvation." (§3)
//!
//! This implementation is deliberately deterministic: when several maximum
//! matchings exist it prefers lower-numbered pairs, which is what makes the
//! paper's starvation example reproducible (experiment E6). A real hardware
//! maximum matcher would exhibit the same pathology whenever its tie-break
//! is any fixed rule.

use crate::matching::{DemandMatrix, Matching};
use crate::scratch::Scratch;
use crate::CrossbarScheduler;
use an2_sim::SimRng;
use std::collections::VecDeque;

/// Maximum-cardinality matching (Hopcroft–Karp), deterministic tie-breaks.
#[derive(Debug, Clone, Default)]
pub struct MaximumMatching;

impl MaximumMatching {
    /// Creates the scheduler.
    pub fn new() -> Self {
        MaximumMatching
    }

    /// Computes a maximum matching for `demand` (no randomness involved).
    pub fn solve(demand: &DemandMatrix) -> Matching {
        let mut m = Matching::empty(demand.size());
        Self::solve_into(demand, &mut m);
        m
    }

    /// Like [`solve`](MaximumMatching::solve), writing into `out` (reset
    /// first). Hopcroft–Karp's layer structures are still allocated per
    /// call — this scheduler is the rejected baseline, not the hot path.
    pub(crate) fn solve_into(demand: &DemandMatrix, out: &mut Matching) {
        let n = demand.size();
        const NIL: usize = usize::MAX;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| demand.requests_of(i)).collect();
        let mut pair_u = vec![NIL; n]; // input -> output
        let mut pair_v = vec![NIL; n]; // output -> input
        let mut dist = vec![0u32; n];

        // BFS layering over free inputs.
        fn bfs(adj: &[Vec<usize>], pair_u: &[usize], pair_v: &[usize], dist: &mut [u32]) -> bool {
            const NIL: usize = usize::MAX;
            let mut q = VecDeque::new();
            let inf = u32::MAX;
            for u in 0..adj.len() {
                if pair_u[u] == NIL {
                    dist[u] = 0;
                    q.push_back(u);
                } else {
                    dist[u] = inf;
                }
            }
            let mut found = false;
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    let w = pair_v[v];
                    if w == NIL {
                        found = true;
                    } else if dist[w] == inf {
                        dist[w] = dist[u] + 1;
                        q.push_back(w);
                    }
                }
            }
            found
        }

        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            pair_u: &mut [usize],
            pair_v: &mut [usize],
            dist: &mut [u32],
        ) -> bool {
            const NIL: usize = usize::MAX;
            for &v in &adj[u] {
                let w = pair_v[v];
                if w == NIL || (dist[w] == dist[u] + 1 && dfs(w, adj, pair_u, pair_v, dist)) {
                    pair_u[u] = v;
                    pair_v[v] = u;
                    return true;
                }
            }
            dist[u] = u32::MAX - 1; // dead end this phase
            false
        }

        while bfs(&adj, &pair_u, &pair_v, &mut dist) {
            for u in 0..n {
                if pair_u[u] == NIL {
                    dfs(u, &adj, &mut pair_u, &mut pair_v, &mut dist);
                }
            }
        }

        out.reset(n);
        for (u, &v) in pair_u.iter().enumerate() {
            if v != NIL {
                out.set(u, v);
            }
        }
    }
}

impl CrossbarScheduler for MaximumMatching {
    fn name(&self) -> &'static str {
        "maximum (Hopcroft-Karp)"
    }

    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        _rng: &mut SimRng,
        _scratch: &mut Scratch,
        out: &mut Matching,
    ) {
        Self::solve_into(demand, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::Pim;

    #[test]
    fn maximum_on_simple_cases() {
        // Perfect matching available: diagonal demand.
        let mut d = DemandMatrix::new(4);
        for i in 0..4 {
            d.add(i, (i + 1) % 4, 1);
        }
        let m = MaximumMatching::solve(&d);
        assert_eq!(m.len(), 4);
        assert!(m.is_legal(&d));
    }

    #[test]
    fn maximum_beats_or_equals_maximal() {
        let mut rng = SimRng::new(31);
        for _ in 0..100 {
            let mut d = DemandMatrix::new(10);
            for i in 0..10 {
                for o in 0..10 {
                    if rng.gen_bool(0.25) {
                        d.add(i, o, 1);
                    }
                }
            }
            let max = MaximumMatching::solve(&d).len();
            let pim = Pim::run_to_maximal(&d, &mut rng).matching.len();
            assert!(max >= pim, "maximum {max} < maximal {pim}");
            // A maximal matching is at least half the maximum.
            assert!(pim * 2 >= max, "maximal {pim} below half of maximum {max}");
        }
    }

    #[test]
    fn paper_starvation_example() {
        // §3: "input 1 consistently has cells for outputs 2 and 3, and input
        // 4 consistently has cells for output 3. The maximum match always
        // pairs input 1 with output 2 and input 4 with output 3, and the
        // virtual circuit between input 1 and output 2..." (the paper means
        // the 1->3 pairing is starved). With 0-based ids: input 0 wants
        // outputs 1 and 2; input 3 wants output 2.
        let mut d = DemandMatrix::new(4);
        d.add(0, 1, 1);
        d.add(0, 2, 1);
        d.add(3, 2, 1);
        let mut rng = SimRng::new(1);
        let mut sched = MaximumMatching::new();
        for _ in 0..100 {
            let m = sched.schedule(&d, &mut rng);
            assert_eq!(m.len(), 2, "maximum is 2 pairs");
            assert_eq!(m.output_of(0), Some(1), "deterministic: 0->1 always");
            assert_eq!(m.output_of(3), Some(2));
            // 0->2 never happens: that virtual circuit is starved.
        }
    }

    #[test]
    fn known_maximum_smaller_than_perfect() {
        // Two inputs want only output 0: maximum is 1.
        let mut d = DemandMatrix::new(3);
        d.add(0, 0, 1);
        d.add(1, 0, 1);
        let m = MaximumMatching::solve(&d);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn augmenting_path_case() {
        // Greedy 0->0 would block; maximum must find the augmenting path
        // 0->1, 1->0.
        let mut d = DemandMatrix::new(2);
        d.add(0, 0, 1);
        d.add(0, 1, 1);
        d.add(1, 0, 1);
        let m = MaximumMatching::solve(&d);
        assert_eq!(m.len(), 2);
        assert_eq!(m.output_of(0), Some(1));
        assert_eq!(m.output_of(1), Some(0));
    }

    #[test]
    fn empty_demand() {
        let m = MaximumMatching::solve(&DemandMatrix::new(5));
        assert!(m.is_empty());
        assert_eq!(MaximumMatching::new().name(), "maximum (Hopcroft-Karp)");
    }
}
