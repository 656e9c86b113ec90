//! Up\*/down\* routing and deadlock analysis (§5).
//!
//! "The rules for route restriction are based on the spanning tree formed
//! during reconfiguration. Each link in the network is assigned an
//! orientation, with up being toward the root of the tree. (If the two ends
//! of the link are at the same level in the tree, then up is toward the
//! higher-numbered switch.) Messages are only routed on up\*/down\* paths,
//! i.e. paths in which no traversal down a link is followed by an upward
//! traversal. This restriction is sufficient to prevent cycle formation and
//! thus to prevent deadlock."
//!
//! This module implements the orientation rule, shortest legal-route search,
//! the channel-dependency-graph acyclicity check that proves (or refutes)
//! deadlock freedom for a route set, and the path-inflation metric for the
//! paper's observation that the restriction "may eliminate some potential
//! routes and thus have a negative effect on performance".

use crate::graph::{SwitchId, Topology};
use crate::paths;
use crate::spanning::SpanningTree;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Whether traversing the link `from -> to` goes *up* under the tree's
/// orientation: toward smaller depth, with ties toward the higher-numbered
/// switch (§5).
///
/// # Panics
///
/// Panics if either switch is outside the spanning tree.
pub(crate) fn is_up(tree: &SpanningTree, from: SwitchId, to: SwitchId) -> bool {
    let df = tree.depth(from).expect("from outside spanning tree");
    let dt = tree.depth(to).expect("to outside spanning tree");
    match dt.cmp(&df) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => to > from,
    }
}

/// Whether a switch path obeys the up\*/down\* rule: once a hop goes down,
/// no later hop may go up.
pub fn is_legal_path(tree: &SpanningTree, path: &[SwitchId]) -> bool {
    let mut descended = false;
    for w in path.windows(2) {
        let up = is_up(tree, w[0], w[1]);
        if up && descended {
            return false;
        }
        if !up {
            descended = true;
        }
    }
    true
}

/// The shortest up\*/down\*-legal path from `src` to `dst` over working
/// links, or `None` if unreachable. BFS over `(switch, descended)` states;
/// deterministic tie-breaking by switch id.
///
/// A legal path always exists between tree members in a connected topology
/// (up to the root, then down), so `None` only occurs across partitions.
pub fn route(
    topo: &Topology,
    tree: &SpanningTree,
    src: SwitchId,
    dst: SwitchId,
) -> Option<Vec<SwitchId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let n = topo.switch_count();
    // State: switch index * 2 + descended(0/1).
    let state = |s: SwitchId, descended: bool| (s.0 as usize) * 2 + usize::from(descended);
    let mut prev: Vec<Option<usize>> = vec![None; n * 2];
    let mut seen = vec![false; n * 2];
    let start = state(src, false);
    seen[start] = true;
    let mut q = VecDeque::new();
    q.push_back(start);
    while let Some(cur) = q.pop_front() {
        let s = SwitchId((cur / 2) as u16);
        let descended = cur % 2 == 1;
        for t in topo.switch_neighbors(s) {
            if !tree.contains(t) {
                continue;
            }
            let up = is_up(tree, s, t);
            if up && descended {
                continue; // illegal: up after down
            }
            let next = state(t, descended || !up);
            if seen[next] {
                continue;
            }
            seen[next] = true;
            prev[next] = Some(cur);
            if t == dst {
                // Reconstruct.
                let mut path = vec![t];
                let mut at = next;
                while let Some(p) = prev[at] {
                    path.push(SwitchId((p / 2) as u16));
                    at = p;
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(next);
        }
    }
    None
}

/// Mean hop-count inflation of up\*/down\* routes relative to unrestricted
/// shortest paths, over all ordered switch pairs: `1.0` means no penalty.
/// Returns `None` for disconnected or trivial topologies.
pub fn path_inflation(topo: &Topology, tree: &SpanningTree) -> Option<f64> {
    let mut total_ratio = 0.0;
    let mut pairs = 0u64;
    for s in topo.switches() {
        for t in topo.switches() {
            if s == t {
                continue;
            }
            let free = paths::shortest_path(topo, s, t)?.len() as f64 - 1.0;
            let legal = route(topo, tree, s, t)?.len() as f64 - 1.0;
            total_ratio += legal / free;
            pairs += 1;
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total_ratio / pairs as f64)
    }
}

/// A directed channel: the use of a link in one direction by a route.
pub type Channel = (SwitchId, SwitchId);

/// Builds the channel-dependency graph of a route set: there is an edge from
/// channel `c1` to channel `c2` whenever some route uses `c2` immediately
/// after `c1` (a packet can hold a buffer on `c1` while waiting for one on
/// `c2`). Deadlock is possible in FIFO (wormhole-style) forwarding exactly
/// when this graph has a cycle.
pub fn channel_dependencies(routes: &[Vec<SwitchId>]) -> HashMap<Channel, HashSet<Channel>> {
    let mut deps: HashMap<Channel, HashSet<Channel>> = HashMap::new();
    for route in routes {
        for w in route.windows(3) {
            let c1 = (w[0], w[1]);
            let c2 = (w[1], w[2]);
            deps.entry(c1).or_default().insert(c2);
            deps.entry(c2).or_default();
        }
        if let [a, b] = route[..] {
            deps.entry((a, b)).or_default();
        }
    }
    deps
}

/// Whether a channel-dependency graph is acyclic (⇒ deadlock-free FIFO
/// forwarding for the route set that produced it).
pub fn dependency_graph_acyclic(deps: &HashMap<Channel, HashSet<Channel>>) -> bool {
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<Channel, Color> = deps.keys().map(|&c| (c, Color::White)).collect();
    for &start in deps.keys() {
        if color[&start] != Color::White {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                color.insert(node, Color::Black);
                continue;
            }
            match color[&node] {
                Color::Black => continue,
                Color::Grey => continue,
                Color::White => {}
            }
            color.insert(node, Color::Grey);
            stack.push((node, true));
            if let Some(nexts) = deps.get(&node) {
                for &nxt in nexts {
                    match color.get(&nxt) {
                        Some(Color::Grey) => return false, // back edge: cycle
                        Some(Color::White) => stack.push((nxt, false)),
                        _ => {}
                    }
                }
            }
        }
    }
    true
}

/// Builds the *canonical* spanning forest of an agreed edge set: one BFS
/// tree per connected component, rooted at the component's highest-numbered
/// switch, with neighbours explored in ascending id order.
///
/// This is a pure function of `(live, edges)` — unlike the propagation tree
/// the reconfiguration protocol happens to build (which depends on message
/// race timing), two parties that agree on the surviving topology compute
/// byte-identical trees, and therefore byte-identical up\*/down\* routes.
/// The embedded control plane installs routes from this forest, and the
/// standalone harness oracle recomputes the same forest from its converged
/// view for comparison.
///
/// `live` lists the switches that exist (crashed switches are excluded);
/// isolated live switches become singleton trees. Edges with an endpoint
/// outside `live` are ignored. The forest is sorted by root id.
pub fn canonical_forest(
    switch_count: usize,
    live: &[SwitchId],
    edges: &[(SwitchId, SwitchId)],
) -> Vec<SpanningTree> {
    let live_set: BTreeSet<SwitchId> = live.iter().copied().collect();
    let mut adj: BTreeMap<SwitchId, BTreeSet<SwitchId>> =
        live_set.iter().map(|&s| (s, BTreeSet::new())).collect();
    for &(a, b) in edges {
        if a != b && live_set.contains(&a) && live_set.contains(&b) {
            adj.get_mut(&a).unwrap().insert(b);
            adj.get_mut(&b).unwrap().insert(a);
        }
    }
    // Component discovery: peel the highest unvisited switch, flood from it.
    let mut unvisited = live_set;
    let mut forest = Vec::new();
    while let Some(&seed) = unvisited.iter().next_back() {
        // Find the component containing `seed`.
        let mut component = BTreeSet::new();
        let mut q = VecDeque::new();
        component.insert(seed);
        q.push_back(seed);
        while let Some(s) = q.pop_front() {
            for &t in &adj[&s] {
                if component.insert(t) {
                    q.push_back(t);
                }
            }
        }
        // Canonical tree: BFS from the highest id, ascending neighbour order
        // (BTreeSet iteration), first visit assigns the parent.
        let root = *component.iter().next_back().expect("non-empty component");
        let mut parents = Vec::new();
        let mut seen: BTreeSet<SwitchId> = BTreeSet::new();
        seen.insert(root);
        q.push_back(root);
        while let Some(s) = q.pop_front() {
            for &t in &adj[&s] {
                if seen.insert(t) {
                    parents.push((t, s));
                    q.push_back(t);
                }
            }
        }
        forest.push(SpanningTree::from_parents(root, switch_count, parents));
        for s in &component {
            unvisited.remove(s);
        }
    }
    forest.sort_by_key(|t| t.root());
    forest
}

/// A memoizing wrapper around [`route`] keyed on a [`canonical_forest`],
/// supporting the incremental invalidation the embedded control plane needs:
/// when a link dies but the canonical forest is unchanged (the dead edge was
/// a cross edge — common on the dual-homed SRC topology), only the cached
/// routes that actually traversed that adjacency are dropped.
///
/// Dropping an edge never shortens a path and never reorders the BFS
/// tie-break among surviving candidates, so a retained cache entry is
/// byte-identical to what a fresh [`route`] call would return — callers may
/// compare cached routes against recomputation. Edge *additions* can shorten
/// paths, so [`RouteCache::set_forest`] with a changed forest, or an
/// explicit [`RouteCache::invalidate_all`], must follow any revival.
#[derive(Debug, Default)]
pub struct RouteCache {
    forest: Vec<SpanningTree>,
    routes: HashMap<(SwitchId, SwitchId), Option<Vec<SwitchId>>>,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// An empty cache with no forest (every lookup returns `None` until
    /// [`RouteCache::set_forest`] is called).
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Installs the forest routes are computed against. Clears the memo only
    /// if the forest actually changed.
    pub fn set_forest(&mut self, forest: Vec<SpanningTree>) {
        if self.forest != forest {
            self.forest = forest;
            self.routes.clear();
        }
    }

    /// The installed forest.
    pub fn forest(&self) -> &[SpanningTree] {
        &self.forest
    }

    /// The memoized up\*/down\* route from `src` to `dst` over `topo`'s
    /// working links, or `None` if they are in different partitions (also
    /// memoized). `topo` must be consistent with the installed forest.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>> {
        if let Some(cached) = self.routes.get(&(src, dst)) {
            self.hits += 1;
            return cached.clone();
        }
        self.misses += 1;
        let computed = self
            .forest
            .iter()
            .find(|t| t.contains(src) && t.contains(dst))
            .and_then(|tree| route(topo, tree, src, dst));
        self.routes.insert((src, dst), computed.clone());
        computed
    }

    /// Drops every cached route that traverses the adjacency `a — b` (in
    /// either direction). Memoized misses are kept: a dead edge can newly
    /// partition pairs but never reconnect them, so `None` stays `None` and
    /// `Some` entries avoiding the edge stay valid.
    pub fn invalidate_edge(&mut self, a: SwitchId, b: SwitchId) {
        self.routes.retain(|_, r| match r {
            None => true,
            Some(path) => !path
                .windows(2)
                .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a)),
        });
    }

    /// Drops every memoized route (use after a link revival).
    pub fn invalidate_all(&mut self) {
        self.routes.clear();
    }

    /// `(hits, misses)` counters for the memo.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Convenience: computes up\*/down\* routes for every ordered switch pair and
/// checks that their channel-dependency graph is acyclic. This is the §5
/// deadlock-freedom theorem, checked constructively.
pub fn all_pairs_updown_deadlock_free(topo: &Topology, tree: &SpanningTree) -> bool {
    let mut routes = Vec::new();
    for s in topo.switches() {
        for t in topo.switches() {
            if s == t {
                continue;
            }
            if let Some(r) = route(topo, tree, s, t) {
                routes.push(r);
            }
        }
    }
    dependency_graph_acyclic(&channel_dependencies(&routes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn ring_with_tree(n: usize) -> (Topology, SpanningTree) {
        let topo = generators::ring(n);
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        (topo, tree)
    }

    #[test]
    fn orientation_depth_rule() {
        let (_, tree) = ring_with_tree(6);
        // sw1 (depth 1) -> sw0 (root) is up; reverse is down.
        assert!(is_up(&tree, SwitchId(1), SwitchId(0)));
        assert!(!is_up(&tree, SwitchId(0), SwitchId(1)));
    }

    #[test]
    fn orientation_tie_breaks_to_higher_id() {
        // In a 4-ring rooted at 0: sw1 and sw3 are depth 1; sw2 depth 2.
        // Check the equal-depth rule on a square with a diagonal.
        let mut topo = generators::ring(4);
        topo.link_switches(SwitchId(1), SwitchId(3)).unwrap();
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        assert_eq!(tree.depth(SwitchId(1)), tree.depth(SwitchId(3)));
        assert!(is_up(&tree, SwitchId(1), SwitchId(3)), "toward higher id");
        assert!(!is_up(&tree, SwitchId(3), SwitchId(1)));
    }

    #[test]
    fn legal_path_rule() {
        let (_, tree) = ring_with_tree(6);
        // up then down: 2 -> 1 -> 0 -> 5 is legal (up, up, down).
        assert!(is_legal_path(
            &tree,
            &[SwitchId(2), SwitchId(1), SwitchId(0), SwitchId(5)]
        ));
        // down then up: 0 -> 1 -> 0 style violation.
        assert!(!is_legal_path(
            &tree,
            &[SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(1)]
        ));
        // single node and single hop are always legal.
        assert!(is_legal_path(&tree, &[SwitchId(3)]));
        assert!(is_legal_path(&tree, &[SwitchId(3), SwitchId(2)]));
    }

    #[test]
    fn route_finds_legal_shortest() {
        let (topo, tree) = ring_with_tree(6);
        for s in topo.switches() {
            for t in topo.switches() {
                let r = route(&topo, &tree, s, t).expect("connected");
                assert_eq!(r.first(), Some(&s));
                assert_eq!(r.last(), Some(&t));
                assert!(is_legal_path(&tree, &r), "route {r:?} must be legal");
            }
        }
    }

    #[test]
    fn route_may_be_longer_than_shortest() {
        // In a 6-ring rooted at 0, going 3 -> 4 -> 5 would be down-up at some
        // point; verify inflation exists for some pair.
        let (topo, tree) = ring_with_tree(6);
        let mut inflated = 0;
        for s in topo.switches() {
            for t in topo.switches() {
                if s == t {
                    continue;
                }
                let free = paths::shortest_path(&topo, s, t).unwrap().len();
                let legal = route(&topo, &tree, s, t).unwrap().len();
                assert!(legal >= free);
                if legal > free {
                    inflated += 1;
                }
            }
        }
        assert!(inflated > 0, "a ring must show some up*/down* inflation");
    }

    #[test]
    fn inflation_is_one_on_trees() {
        let topo = generators::tree(2, 3);
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        let inf = path_inflation(&topo, &tree).unwrap();
        assert!(
            (inf - 1.0).abs() < 1e-12,
            "tree topologies have unique paths"
        );
    }

    #[test]
    fn inflation_above_one_on_ring() {
        let (topo, tree) = ring_with_tree(8);
        let inf = path_inflation(&topo, &tree).unwrap();
        assert!(inf > 1.0);
    }

    #[test]
    fn updown_routes_deadlock_free_on_many_topologies() {
        let mut rng = an2_sim::SimRng::new(99);
        let cases: Vec<Topology> = vec![
            generators::ring(8),
            generators::torus(4, 4),
            generators::mesh(3, 5),
            generators::src_installation(8, 0),
            generators::random_connected(24, 20, &mut rng),
        ];
        for topo in cases {
            let tree = SpanningTree::bfs(&topo, SwitchId(0));
            assert!(
                all_pairs_updown_deadlock_free(&topo, &tree),
                "up*/down* produced a dependency cycle"
            );
        }
    }

    #[test]
    fn unrestricted_ring_routing_has_dependency_cycle() {
        // Force every route clockwise around a ring: the canonical deadlock.
        let n = 4;
        let routes: Vec<Vec<SwitchId>> = (0..n)
            .map(|i| vec![SwitchId(i), SwitchId((i + 1) % n), SwitchId((i + 2) % n)])
            .collect();
        let deps = channel_dependencies(&routes);
        assert!(!dependency_graph_acyclic(&deps), "cycle must be detected");
    }

    #[test]
    fn two_hop_routes_alone_cannot_deadlock() {
        let routes = vec![
            vec![SwitchId(0), SwitchId(1)],
            vec![SwitchId(1), SwitchId(0)],
        ];
        let deps = channel_dependencies(&routes);
        assert_eq!(deps.len(), 2);
        assert!(dependency_graph_acyclic(&deps));
    }

    #[test]
    fn route_same_switch() {
        let (topo, tree) = ring_with_tree(4);
        assert_eq!(
            route(&topo, &tree, SwitchId(2), SwitchId(2)),
            Some(vec![SwitchId(2)])
        );
    }

    #[test]
    fn route_across_partition_is_none() {
        let mut topo = generators::ring(4);
        let lonely = topo.add_switch();
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        assert_eq!(route(&topo, &tree, SwitchId(0), lonely), None);
    }

    /// Brute force: enumerate every simple path up to length n and keep the
    /// shortest legal one.
    fn brute_force_legal_shortest(
        topo: &Topology,
        tree: &SpanningTree,
        src: SwitchId,
        dst: SwitchId,
    ) -> Option<usize> {
        fn dfs(
            topo: &Topology,
            tree: &SpanningTree,
            dst: SwitchId,
            path: &mut Vec<SwitchId>,
            best: &mut Option<usize>,
        ) {
            let cur = *path.last().unwrap();
            if cur == dst {
                let len = path.len();
                if best.is_none() || len < best.unwrap() {
                    *best = Some(len);
                }
                return;
            }
            if best.is_some_and(|b| path.len() >= b) {
                return; // cannot improve
            }
            for t in topo.switch_neighbors(cur) {
                if path.contains(&t) {
                    continue;
                }
                path.push(t);
                if is_legal_path(tree, path) {
                    dfs(topo, tree, dst, path, best);
                }
                path.pop();
            }
        }
        let mut best = None;
        let mut path = vec![src];
        dfs(topo, tree, dst, &mut path, &mut best);
        best
    }

    #[test]
    fn canonical_forest_roots_and_determinism() {
        let topo = generators::ring(6);
        let live: Vec<SwitchId> = topo.switches().collect();
        let edges: Vec<(SwitchId, SwitchId)> = (0..6u16)
            .map(|i| {
                let j = (i + 1) % 6;
                (SwitchId(i.min(j)), SwitchId(i.max(j)))
            })
            .collect();
        let f1 = canonical_forest(6, &live, &edges);
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].root(), SwitchId(5), "root = highest id in component");
        // Shuffled edge order yields the identical forest.
        let mut shuffled = edges.clone();
        shuffled.reverse();
        assert_eq!(f1, canonical_forest(6, &live, &shuffled));
    }

    #[test]
    fn canonical_forest_partitions_and_isolated() {
        // Two components {0,1} and {3,4}, plus isolated live switch 2, plus
        // a dead switch 5 (not in `live`) with a dangling edge.
        let live = [
            SwitchId(0),
            SwitchId(1),
            SwitchId(2),
            SwitchId(3),
            SwitchId(4),
        ];
        let edges = [
            (SwitchId(0), SwitchId(1)),
            (SwitchId(3), SwitchId(4)),
            (SwitchId(4), SwitchId(5)), // endpoint not live: ignored
        ];
        let forest = canonical_forest(6, &live, &edges);
        let roots: Vec<SwitchId> = forest.iter().map(|t| t.root()).collect();
        assert_eq!(roots, vec![SwitchId(1), SwitchId(2), SwitchId(4)]);
        assert_eq!(forest[1].len(), 1, "isolated switch is a singleton tree");
        assert!(!forest.iter().any(|t| t.contains(SwitchId(5))));
    }

    #[test]
    fn route_cache_matches_fresh_compute() {
        let topo = generators::src_installation(4, 0);
        let live: Vec<SwitchId> = topo.switches().collect();
        let edges: Vec<(SwitchId, SwitchId)> = topo
            .links()
            .filter_map(|l| {
                let (a, b) = topo.endpoints(l);
                match (a.node, b.node) {
                    (crate::Node::Switch(x), crate::Node::Switch(y)) => {
                        Some((SwitchId(x.0.min(y.0)), SwitchId(x.0.max(y.0))))
                    }
                    _ => None,
                }
            })
            .collect();
        let forest = canonical_forest(4, &live, &edges);
        let mut cache = RouteCache::new();
        cache.set_forest(forest.clone());
        for s in topo.switches() {
            for t in topo.switches() {
                let tree = forest.iter().find(|tr| tr.contains(s)).unwrap();
                let fresh = route(&topo, tree, s, t);
                assert_eq!(cache.route(&topo, s, t), fresh);
                // Second lookup is a hit with the same answer.
                assert_eq!(cache.route(&topo, s, t), fresh);
            }
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits, misses, "every pair looked up exactly twice");
    }

    #[test]
    fn route_cache_incremental_invalidation_is_exact() {
        // Kill a cross edge (forest unchanged), invalidate just that edge,
        // and check every surviving cache entry equals a fresh recompute.
        let mut topo = generators::ring(6);
        let live: Vec<SwitchId> = topo.switches().collect();
        let edges: Vec<(SwitchId, SwitchId)> = (0..6u16)
            .map(|i| {
                let j = (i + 1) % 6;
                (SwitchId(i.min(j)), SwitchId(i.max(j)))
            })
            .collect();
        let forest = canonical_forest(6, &live, &edges);
        let mut cache = RouteCache::new();
        cache.set_forest(forest);
        for s in topo.switches() {
            for t in topo.switches() {
                cache.route(&topo, s, t);
            }
        }
        // The 2—3 ring edge: both endpoints keep other links, and BFS from
        // root 5 never uses it as a tree edge check is not required — the
        // forest over the surviving edge set must simply stay equal.
        let dead = (SwitchId(2), SwitchId(3));
        let surviving: Vec<(SwitchId, SwitchId)> =
            edges.iter().copied().filter(|&e| e != dead).collect();
        let new_forest = canonical_forest(6, &live, &surviving);
        let link = topo
            .links_between(dead.0, dead.1)
            .first()
            .copied()
            .expect("ring edge exists");
        topo.set_link_state(link, crate::LinkState::Dead);
        cache.set_forest(new_forest.clone());
        cache.invalidate_edge(dead.0, dead.1);
        for s in topo.switches() {
            for t in topo.switches() {
                let fresh = new_forest
                    .iter()
                    .find(|tr| tr.contains(s) && tr.contains(t))
                    .and_then(|tree| route(&topo, tree, s, t));
                assert_eq!(cache.route(&topo, s, t), fresh, "{s} -> {t}");
            }
        }
    }

    #[test]
    fn route_is_shortest_among_legal_paths() {
        // Exhaustive check against brute force on several small graphs.
        let mut rng = an2_sim::SimRng::new(777);
        let mut cases = vec![
            generators::ring(6),
            generators::mesh(3, 3),
            generators::src_installation(6, 0),
        ];
        for _ in 0..3 {
            cases.push(generators::random_connected(7, 5, &mut rng));
        }
        for topo in cases {
            let tree = SpanningTree::bfs(&topo, SwitchId(0));
            for s in topo.switches() {
                for t in topo.switches() {
                    let got = route(&topo, &tree, s, t).unwrap().len();
                    let want = brute_force_legal_shortest(&topo, &tree, s, t)
                        .expect("legal path exists in connected graphs");
                    assert_eq!(got, want, "{s} -> {t}");
                }
            }
        }
    }
}
