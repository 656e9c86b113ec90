//! The shared quiescence / convergence detector.
//!
//! Every consumer of a distributed control protocol asks the same two
//! questions: *which switches are alive together* (the live partitions of
//! the surviving topology) and *do they agree* (uniform tags and views
//! within each partition). Before this module the answers were duplicated
//! across the embedded control plane, the harness oracle, and the chaos
//! oracle, each with its own "zero control cells in flight + uniform
//! views" spelling. They now all build a [`LiveView`] and run the same
//! partition walk.
//!
//! The detector is protocol-agnostic: callers supply per-switch closures
//! for the tag and the view check, so the up\*/down\* agent, the
//! spanning-tree rival, and the path-vector rival all report convergence
//! through the same machinery (each with its own notion of "view").

use crate::Tag;
use an2_topology::{SwitchId, Topology};

/// An undirected switch adjacency, lower id first.
pub type Edge = (SwitchId, SwitchId);

fn norm(a: SwitchId, b: SwitchId) -> Edge {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The surviving topology as a convergence check sees it: the physical
/// link graph plus which switches are crashed. Partitions are computed
/// over *working links*; crashed switches are then filtered out of each
/// partition (a crashed line card neither runs the protocol nor counts
/// toward agreement).
pub struct LiveView<'a> {
    /// The physical topology, including failed links.
    pub topo: &'a Topology,
    /// `crashed[s]` = switch `s`'s line card is down. May be shorter than
    /// the switch count; missing entries read as "not crashed".
    pub crashed: &'a [bool],
}

impl<'a> LiveView<'a> {
    /// A view over `topo` with no crashed switches.
    pub(crate) fn all_live(topo: &'a Topology) -> Self {
        LiveView { topo, crashed: &[] }
    }

    /// Whether switch `s` is crashed.
    pub(crate) fn is_crashed(&self, s: SwitchId) -> bool {
        self.crashed.get(s.0 as usize).copied().unwrap_or(false)
    }

    /// The live (non-crashed) members of every partition of the working
    /// link graph, in the topology's canonical partition order. Partitions
    /// whose members all crashed are omitted.
    pub(crate) fn live_partitions(&self) -> Vec<Vec<SwitchId>> {
        self.topo
            .switch_partitions()
            .into_iter()
            .map(|part| {
                part.into_iter()
                    .filter(|&s| !self.is_crashed(s))
                    .collect::<Vec<_>>()
            })
            .filter(|live| !live.is_empty())
            .collect()
    }

    /// The live members of the partition containing `reference`, or
    /// `None` if `reference` is crashed or unknown.
    pub(crate) fn live_partition_of(&self, reference: SwitchId) -> Option<Vec<SwitchId>> {
        if self.is_crashed(reference) {
            return None;
        }
        self.topo
            .switch_partitions()
            .into_iter()
            .find(|p| p.contains(&reference))
            .map(|part| part.into_iter().filter(|&s| !self.is_crashed(s)).collect())
    }

    /// The adjacency set among `live` members over working links:
    /// normalized, sorted, deduplicated — what every member's converged
    /// view must equal.
    pub(crate) fn expected_edges(&self, live: &[SwitchId]) -> Vec<Edge> {
        let mut expected: Vec<Edge> = Vec::new();
        for &a in live {
            for b in self.topo.switch_neighbors(a) {
                if b > a && live.contains(&b) {
                    expected.push(norm(a, b));
                }
            }
        }
        expected.sort_unstable();
        expected.dedup();
        expected
    }
}

/// Checks one partition for agreement: every live member's tag equals the
/// first member's, and every member's view passes `view_matches` against
/// the partition's expected edge set. `Ok` carries the agreed tag, `Err`
/// the partition's lowest live switch (the stall-retry candidate).
pub(crate) fn partition_uniform(
    lv: &LiveView<'_>,
    live: &[SwitchId],
    tag_of: &mut dyn FnMut(SwitchId) -> Tag,
    view_matches: &mut dyn FnMut(SwitchId, Tag, &[Edge]) -> bool,
) -> Result<Tag, SwitchId> {
    let Some(&lowest) = live.first() else {
        return Ok(Tag::ZERO);
    };
    let expected = lv.expected_edges(live);
    let mut tags = live.iter().map(|&s| tag_of(s));
    let first = tags.next().expect("non-empty partition");
    if !tags.all(|t| t == first) {
        return Err(lowest);
    }
    for &s in live {
        if !view_matches(s, first, &expected) {
            return Err(lowest);
        }
    }
    Ok(first)
}

/// The full quiescence predicate over every live partition: all partitions
/// uniform ⇒ `Ok` with the largest agreed tag; otherwise `Err` with the
/// lowest live switch of the *first* partition still in disagreement.
pub(crate) fn uniform_views(
    lv: &LiveView<'_>,
    tag_of: &mut dyn FnMut(SwitchId) -> Tag,
    view_matches: &mut dyn FnMut(SwitchId, Tag, &[Edge]) -> bool,
) -> Result<Tag, SwitchId> {
    let mut best = Tag::ZERO;
    for live in lv.live_partitions() {
        best = best.max(partition_uniform(lv, &live, tag_of, view_matches)?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_topology::{generators, LinkState};

    #[test]
    fn expected_edges_follow_working_links() {
        let mut topo = generators::line(3); // 0-1-2
        let lv = LiveView::all_live(&topo);
        let live: Vec<SwitchId> = topo.switches().collect();
        assert_eq!(
            lv.expected_edges(&live),
            vec![(SwitchId(0), SwitchId(1)), (SwitchId(1), SwitchId(2))]
        );
        let l = topo.links_between(SwitchId(0), SwitchId(1))[0];
        topo.set_link_state(l, LinkState::Dead);
        let lv = LiveView::all_live(&topo);
        assert_eq!(lv.expected_edges(&live), vec![(SwitchId(1), SwitchId(2))]);
    }

    #[test]
    fn crashed_members_are_filtered_from_partitions() {
        let topo = generators::ring(4);
        let crashed = vec![false, true, false, false];
        let lv = LiveView {
            topo: &topo,
            crashed: &crashed,
        };
        let parts = lv.live_partitions();
        assert_eq!(parts.len(), 1);
        assert!(!parts[0].contains(&SwitchId(1)));
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn disagreement_names_the_lowest_live_switch() {
        let topo = generators::line(3);
        let lv = LiveView::all_live(&topo);
        let agreed = Tag {
            epoch: 2,
            initiator: SwitchId(0),
        };
        // Switch 2 lags one epoch behind: the partition's lowest member is
        // the retry candidate.
        let r = uniform_views(
            &lv,
            &mut |s| {
                if s == SwitchId(2) {
                    Tag {
                        epoch: 1,
                        initiator: SwitchId(0),
                    }
                } else {
                    agreed
                }
            },
            &mut |_, _, _| true,
        );
        assert_eq!(r, Err(SwitchId(0)));
        // All agreeing: the shared tag comes back.
        let r = uniform_views(&lv, &mut |_| agreed, &mut |_, _, _| true);
        assert_eq!(r, Ok(agreed));
    }
}
