//! # an2 — the AN2 local area network as a library
//!
//! This is the top of the reproduction of Owicki's *"A Perspective on AN2:
//! Local Area Network as Distributed System"* (PODC 1993): a complete,
//! runnable model of the network the paper describes. Hosts present
//! variable-length packets; controllers segment them into 53-byte ATM cells;
//! cells traverse switches over virtual circuits chosen from the discovered
//! topology; guaranteed circuits reserve cells-per-frame through *bandwidth
//! central* and ride a Slepian–Duguid frame schedule; best-effort circuits
//! are scheduled by parallel iterative matching and flow-controlled by
//! credits; failures trigger rerouting.
//!
//! ```
//! use an2::{Network, TrafficClass};
//! use an2_cells::Packet;
//!
//! # fn main() -> Result<(), an2::NetError> {
//! let mut net = Network::builder()
//!     .src_installation(6, 4)
//!     .seed(7)
//!     .build();
//! let hosts: Vec<_> = net.hosts().collect();
//! let vc = net.open_best_effort(hosts[0], hosts[1])?;
//! net.send_packet(vc, Packet::from_bytes(vec![42; 1000]))?;
//! net.step(2_000);
//! let got = net.take_received(hosts[1]);
//! assert_eq!(got.len(), 1);
//! assert_eq!(got[0].1.as_bytes()[0], 42);
//! # Ok(())
//! # }
//! ```
//!
//! Layering (one crate per subsystem, bottom-up): `an2-sim` (event kernel),
//! `an2-cells` (ATM data plane), `an2-topology` (graphs, spanning trees,
//! up\*/down\*), `an2-xbar` (PIM and rivals), `an2-schedule`
//! (Slepian–Duguid), `an2-flow` (credits), `an2-reconfig` (distributed
//! reconfiguration), `an2-switch` (the switch), and this crate (the
//! network).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod central;
mod error;
mod fabric;
mod network;
mod shard;

pub use central::BandwidthCentral;
pub use error::NetError;
pub use fabric::{
    CtrlCounters, Fabric, FabricConfig, FaultCounters, PhaseProfile, VcStats,
    SIGNAL_PROCESSING_SLOTS,
};
pub use network::{Network, NetworkBuilder};

pub use an2_cells::signal::TrafficClass;
pub use an2_cells::{Packet, VcId};
pub use an2_faults::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel};
pub use an2_reconfig::monitor::{MonitorConfig, QuarantineEdge};
pub use an2_reconfig::protocol::ProtocolKind;
pub use an2_reconfig::skeptic::SkepticConfig;
pub use an2_reconfig::{ReconfigEvent, Tag};
pub use an2_topology::{HostId, LinkId, SwitchId};
pub use an2_trace::{
    sink, DropReason, Entity, FaultOutcome, Hop, MetricsRegistry, Phase, PhaseEdge, ProtocolTag,
    TraceConfig, TraceEvent, TraceRecord, Tracer,
};
