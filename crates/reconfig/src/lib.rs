//! # an2-reconfig — distributed reconfiguration, link monitoring and the
//! skeptic (§2)
//!
//! "The first stage in generating routing tables is topology acquisition. A
//! distributed reconfiguration algorithm is run to detect the current
//! topology and communicate it to each switch. Reconfiguration is triggered
//! when a switch is booted, or when any switch detects a change in the state
//! of its inter-switch connections."
//!
//! The three phases, implemented in [`agent`] as a message-driven state
//! machine per switch:
//!
//! 1. **Propagation** — the initiator becomes root of a spanning tree and
//!    invites its neighbours; a switch accepts the first invitation it
//!    receives and forwards invitations to its other neighbours.
//! 2. **Collection** — topology information flows up the tree to the root.
//! 3. **Distribution** — the root sends the complete topology down the tree.
//!
//! Overlapping reconfigurations are ordered by **epoch tags**
//! ([`Tag`]): a switch participates only in the configuration with the
//! largest `(epoch, initiator)` tag it has seen and abandons all others.
//!
//! The [`harness`] module runs switch agents over an
//! [`an2_topology::Topology`] on an ideal transport (one heap of timed
//! messages) and drives failures; the [`monitor`]
//! and [`skeptic`] modules implement the link-error watchdog that feeds the
//! reconfiguration trigger while damping flapping links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod harness;
pub mod monitor;
pub mod pathvector;
pub mod protocol;
pub mod quiesce;
pub mod skeptic;
pub mod stp;

use an2_sim::SimTime;
use an2_topology::{LinkId, SwitchId};
use std::fmt;

/// A reconfiguration tag: epoch number, then initiating switch id. Total
/// order; higher tags supersede lower ones (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    /// The epoch number (larger = newer).
    pub epoch: u64,
    /// The switch that initiated the reconfiguration (tie-break).
    pub initiator: SwitchId,
}

impl Tag {
    /// The smallest tag: used as the initial "nothing seen yet" value.
    pub const ZERO: Tag = Tag {
        epoch: 0,
        initiator: SwitchId(0),
    };

    /// The tag a switch uses to start a new reconfiguration, given the
    /// largest tag it has stored.
    pub fn successor(self, initiator: SwitchId) -> Tag {
        Tag {
            epoch: self.epoch + 1,
            initiator,
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {} by {}", self.epoch, self.initiator)
    }
}

/// One entry in the network's typed reconfiguration log.
///
/// Every variant carries the fabric `slot` it was recorded in and the
/// corresponding virtual time `at`, so experiments can measure per-phase
/// latencies (detect → propose → quiesce → routes installed) without
/// reverse-engineering tuple logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigEvent {
    /// A [`monitor::LinkMonitor`] declared `link` dead (detect).
    LinkDead {
        /// Fabric slot of the verdict.
        slot: u64,
        /// Virtual time of the verdict.
        at: SimTime,
        /// The link declared dead.
        link: LinkId,
    },
    /// A [`monitor::LinkMonitor`] declared `link` working again after the
    /// skeptic's probation.
    LinkWorking {
        /// Fabric slot of the verdict.
        slot: u64,
        /// Virtual time of the verdict.
        at: SimTime,
        /// The link declared working.
        link: LinkId,
    },
    /// An embedded agent opened a new reconfiguration epoch (propose): the
    /// largest tag observed across agents increased to `tag`.
    EpochStarted {
        /// Fabric slot the new tag was first observed in.
        slot: u64,
        /// Virtual time of the observation.
        at: SimTime,
        /// The new largest tag.
        tag: Tag,
    },
    /// The protocol quiesced: no control cells in flight and every live
    /// agent's view agrees with its partition's surviving topology.
    Quiesced {
        /// Fabric slot quiescence was detected in.
        slot: u64,
        /// Virtual time of quiescence.
        at: SimTime,
        /// The agreed tag of the largest partition's view.
        tag: Tag,
        /// Total protocol messages sent by all agents so far.
        messages: u64,
    },
    /// The skeptic's quarantine around `link` opened or closed: while
    /// quarantined the link's pings look healthy but recovery (and the
    /// reconfiguration it would trigger) is held back by the exponential
    /// holddown (§2's damping of intermittent faults).
    LinkQuarantined {
        /// Fabric slot of the boundary.
        slot: u64,
        /// Virtual time of the boundary.
        at: SimTime,
        /// The quarantined link.
        link: LinkId,
        /// `true` = entered quarantine, `false` = left it.
        entered: bool,
        /// The skeptic's escalation level at the boundary.
        level: u32,
    },
    /// The new epoch's up*/down* routes were installed switch-by-switch.
    RoutesInstalled {
        /// Fabric slot installation finished in.
        slot: u64,
        /// Virtual time of installation.
        at: SimTime,
        /// The epoch whose routes were installed.
        tag: Tag,
        /// Circuits torn down and re-established on a changed path.
        rerouted: u64,
        /// Circuits whose paths survived unchanged.
        kept: u64,
        /// Circuits left broken (no route in the surviving topology).
        unroutable: u64,
    },
}

impl ReconfigEvent {
    /// The fabric slot the event was recorded in.
    pub fn slot(&self) -> u64 {
        match *self {
            ReconfigEvent::LinkDead { slot, .. }
            | ReconfigEvent::LinkWorking { slot, .. }
            | ReconfigEvent::EpochStarted { slot, .. }
            | ReconfigEvent::Quiesced { slot, .. }
            | ReconfigEvent::LinkQuarantined { slot, .. }
            | ReconfigEvent::RoutesInstalled { slot, .. } => slot,
        }
    }

    /// The virtual time the event was recorded at.
    pub fn at(&self) -> SimTime {
        match *self {
            ReconfigEvent::LinkDead { at, .. }
            | ReconfigEvent::LinkWorking { at, .. }
            | ReconfigEvent::EpochStarted { at, .. }
            | ReconfigEvent::Quiesced { at, .. }
            | ReconfigEvent::LinkQuarantined { at, .. }
            | ReconfigEvent::RoutesInstalled { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_ordering_epoch_then_initiator() {
        let a = Tag {
            epoch: 1,
            initiator: SwitchId(9),
        };
        let b = Tag {
            epoch: 2,
            initiator: SwitchId(0),
        };
        assert!(b > a, "epoch dominates");
        let c = Tag {
            epoch: 2,
            initiator: SwitchId(3),
        };
        assert!(c > b, "initiator id breaks ties");
        assert!(Tag::ZERO < a);
    }

    #[test]
    fn successor_bumps_epoch() {
        let t = Tag {
            epoch: 7,
            initiator: SwitchId(2),
        };
        let s = t.successor(SwitchId(5));
        assert_eq!(s.epoch, 8);
        assert_eq!(s.initiator, SwitchId(5));
        assert!(s > t);
    }

    #[test]
    fn display() {
        assert_eq!(
            Tag {
                epoch: 3,
                initiator: SwitchId(1)
            }
            .to_string(),
            "epoch 3 by sw1"
        );
    }
}
