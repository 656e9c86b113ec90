//! # an2-topology — network graphs for AN1/AN2
//!
//! "The switches can be connected in an arbitrary topology; network software
//! detects the connection pattern and determines the paths to be used in
//! routing data between hosts." (paper, §1)
//!
//! This crate models that world:
//!
//! * [`Topology`] — switches with numbered ports, hosts with controllers,
//!   full-duplex links in arbitrary patterns, and per-link working/dead state.
//! * [`generators`] — topology builders: lines, rings, stars, trees, meshes,
//!   tori, random regular graphs, and [`generators::src_installation`], a
//!   replica of the Figure 1 installation style (dual-homed hosts, redundant
//!   inter-switch links).
//! * [`SpanningTree`] — rooted spanning trees: the artifact the
//!   reconfiguration algorithm computes (§2) and the basis of up\*/down\*
//!   routing (§5).
//! * [`updown`] — up\*/down\* link orientation, legal-route search, deadlock
//!   (waiting-graph) analysis, and path-inflation measurement.
//! * [`paths`] — unrestricted shortest paths, for comparison and for AN2's
//!   per-VC routing where up\*/down\* is not required.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod graph;
pub mod paths;
mod spanning;
pub mod updown;

pub use graph::{
    Endpoint, HostId, LinkId, LinkState, Node, Port, SwitchId, Topology, TopologyError,
};
pub use spanning::SpanningTree;
