//! # an2-cells — the ATM data plane of AN2
//!
//! AN2 is compatible with the ATM Forum standard: the network traffics in
//! 53-byte cells (48 bytes of payload, 5 bytes of header), and hosts present
//! variable-length packets to their controllers, which segment them into
//! cells and reassemble them at the receiving side (paper, §1).
//!
//! This crate implements that data plane:
//!
//! * [`Cell`] / [`CellHeader`] — the 53-byte cell with VPI/VCI addressing,
//!   payload-type bits, cell-loss priority and a real CRC-8 header checksum
//!   (the ATM HEC polynomial, x⁸+x²+x+1).
//! * [`VcId`] — virtual-circuit identifiers as switches see them.
//! * [`Packet`], [`Segmenter`], [`Reassembler`] — AAL5-style segmentation and
//!   reassembly: packets carry a length + CRC-32 trailer and the final cell of
//!   a packet is marked in the payload-type field. [`PartialPacket`] is one
//!   circuit's reassembly state, for terminators that keep it with the
//!   circuit; [`VcIndex`] interns circuit ids into dense slot numbers.
//! * [`signal`] — the encoding of the signaling cells used for virtual
//!   circuit setup (§2) and bandwidth reservation (§4).
//! * [`CellPool`] / [`CellQueue`] — a shared slab of cell nodes with
//!   intrusive FIFO handles, so per-VC queues in the switch and fabric cost
//!   no allocation in steady state.
//! * [`LinkRate`] — the 155 Mb/s and 622 Mb/s link speeds of AN2 (plus the
//!   1 Gb/s rate the paper uses for its frame-latency arithmetic), with the
//!   derived cell-slot durations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod packet;
mod pool;
mod rate;
pub mod signal;
mod vcindex;

pub use cell::{
    Cell, CellHeader, CellKind, HecError, VcId, CELL_BYTES, HEADER_BYTES, PAYLOAD_BYTES,
};
pub use packet::{Packet, PartialPacket, Reassembler, ReassemblyError, Segmenter};
pub use pool::{CellPool, CellQueue, CellQueueIter};
pub use rate::LinkRate;
pub use vcindex::VcIndex;
