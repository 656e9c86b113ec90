//! Rooted spanning trees over the switch subgraph.
//!
//! The reconfiguration algorithm's propagation phase "builds a spanning tree"
//! whose root is the initiating switch (§2); the finished tree then defines
//! the up\*/down\* link orientations used for deadlock-free routing (§5).
//! This module is the shared representation of such trees, whichever
//! algorithm produced them.

use crate::graph::{SwitchId, Topology};
use std::collections::VecDeque;

/// A rooted spanning tree (or forest fragment) of the switch subgraph.
///
/// ```
/// use an2_topology::{Topology, SpanningTree};
/// let mut t = Topology::new();
/// let a = t.add_switch();
/// let b = t.add_switch();
/// let c = t.add_switch();
/// t.link_switches(a, b).unwrap();
/// t.link_switches(b, c).unwrap();
/// let tree = SpanningTree::bfs(&t, a);
/// assert_eq!(tree.depth(c), Some(2));
/// assert_eq!(tree.parent(c), Some(b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    root: SwitchId,
    /// Parent of each switch (dense by switch id); `None` for the root and
    /// for switches outside the tree.
    parent: Vec<Option<SwitchId>>,
    /// Depth of each switch; `None` for switches outside the tree.
    depth: Vec<Option<u32>>,
}

impl SpanningTree {
    /// Builds a breadth-first spanning tree of the working switch subgraph
    /// rooted at `root`. Unreachable switches are left out of the tree.
    pub fn bfs(topo: &Topology, root: SwitchId) -> Self {
        let n = topo.switch_count();
        let mut parent = vec![None; n];
        let mut depth = vec![None; n];
        depth[root.0 as usize] = Some(0);
        let mut q = VecDeque::new();
        q.push_back(root);
        while let Some(s) = q.pop_front() {
            let d = depth[s.0 as usize].unwrap();
            for t in topo.switch_neighbors(s) {
                if depth[t.0 as usize].is_none() {
                    depth[t.0 as usize] = Some(d + 1);
                    parent[t.0 as usize] = Some(s);
                    q.push_back(t);
                }
            }
        }
        SpanningTree {
            root,
            parent,
            depth,
        }
    }

    /// Reconstructs a tree from explicit parent pointers, as the distributed
    /// reconfiguration protocol reports them.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers contain a cycle or if a listed parent is
    /// itself outside the tree — either indicates a protocol bug.
    pub fn from_parents(
        root: SwitchId,
        switch_count: usize,
        parents: impl IntoIterator<Item = (SwitchId, SwitchId)>,
    ) -> Self {
        let mut parent = vec![None; switch_count];
        for (child, par) in parents {
            parent[child.0 as usize] = Some(par);
        }
        let mut depth = vec![None; switch_count];
        depth[root.0 as usize] = Some(0);
        // Resolve depths iteratively; bounded by n passes.
        for _ in 0..switch_count {
            let mut progressed = false;
            for i in 0..switch_count {
                if depth[i].is_some() {
                    continue;
                }
                if let Some(p) = parent[i] {
                    if let Some(pd) = depth[p.0 as usize] {
                        depth[i] = Some(pd + 1);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for i in 0..switch_count {
            assert!(
                parent[i].is_none() || depth[i].is_some(),
                "sw{i}: parent chain does not reach the root (cycle or dangling parent)"
            );
        }
        SpanningTree {
            root,
            parent,
            depth,
        }
    }

    /// The tree's root switch.
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// Parent of `s` in the tree (`None` for the root or non-members).
    pub fn parent(&self, s: SwitchId) -> Option<SwitchId> {
        self.parent[s.0 as usize]
    }

    /// Depth of `s` (`Some(0)` for the root, `None` for non-members).
    pub fn depth(&self, s: SwitchId) -> Option<u32> {
        self.depth[s.0 as usize]
    }

    /// Whether `s` belongs to the tree.
    pub fn contains(&self, s: SwitchId) -> bool {
        self.depth[s.0 as usize].is_some()
    }

    /// Number of switches in the tree.
    pub fn len(&self) -> usize {
        self.depth.iter().filter(|d| d.is_some()).count()
    }

    /// `true` when the tree is empty (cannot normally happen: the root is
    /// always a member).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Children of `s`, in id order.
    pub fn children(&self, s: SwitchId) -> Vec<SwitchId> {
        (0..self.parent.len() as u16)
            .map(SwitchId)
            .filter(|c| self.parent[c.0 as usize] == Some(s))
            .collect()
    }

    /// The path from `s` up to the root, inclusive of both.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not in the tree.
    pub fn path_to_root(&self, s: SwitchId) -> Vec<SwitchId> {
        assert!(self.contains(s), "{s} is not in the spanning tree");
        let mut path = vec![s];
        let mut cur = s;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The maximum depth of any member switch.
    pub fn height(&self) -> u32 {
        self.depth.iter().flatten().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_tree_on_ring() {
        let topo = generators::ring(6);
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        assert_eq!(tree.root(), SwitchId(0));
        assert_eq!(tree.len(), 6);
        assert_eq!(tree.depth(SwitchId(0)), Some(0));
        assert_eq!(tree.depth(SwitchId(3)), Some(3)); // opposite side
        assert_eq!(tree.height(), 3);
        assert!(tree.contains(SwitchId(5)));
        assert!(!tree.is_empty());
    }

    #[test]
    fn bfs_tree_excludes_unreachable() {
        let mut topo = generators::line(3);
        let lonely = topo.add_switch();
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        assert!(!tree.contains(lonely));
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn children_and_path_to_root() {
        let topo = generators::star(4); // sw0 hub, sw1..4 leaves
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        assert_eq!(
            tree.children(SwitchId(0)),
            vec![SwitchId(1), SwitchId(2), SwitchId(3), SwitchId(4)]
        );
        assert_eq!(
            tree.path_to_root(SwitchId(3)),
            vec![SwitchId(3), SwitchId(0)]
        );
    }

    #[test]
    #[should_panic(expected = "not in the spanning tree")]
    fn path_to_root_outside_tree_panics() {
        let mut topo = generators::line(2);
        let lonely = topo.add_switch();
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        tree.path_to_root(lonely);
    }

    #[test]
    fn from_parents_reconstructs_depths() {
        let tree = SpanningTree::from_parents(
            SwitchId(2),
            4,
            vec![
                (SwitchId(0), SwitchId(1)),
                (SwitchId(1), SwitchId(2)),
                (SwitchId(3), SwitchId(2)),
            ],
        );
        assert_eq!(tree.depth(SwitchId(2)), Some(0));
        assert_eq!(tree.depth(SwitchId(1)), Some(1));
        assert_eq!(tree.depth(SwitchId(0)), Some(2));
        assert_eq!(tree.depth(SwitchId(3)), Some(1));
        assert_eq!(tree.parent(SwitchId(2)), None);
    }

    #[test]
    #[should_panic(expected = "cycle or dangling")]
    fn from_parents_rejects_cycle() {
        SpanningTree::from_parents(
            SwitchId(0),
            3,
            vec![(SwitchId(1), SwitchId(2)), (SwitchId(2), SwitchId(1))],
        );
    }

    #[test]
    fn bfs_is_shortest_depth() {
        let topo = generators::torus(4, 4);
        let tree = SpanningTree::bfs(&topo, SwitchId(0));
        // In a 4x4 torus the farthest node is 4 hops away (2+2).
        assert_eq!(tree.height(), 4);
    }
}
