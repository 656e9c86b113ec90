//! Deterministic fault injection for the AN2 fabric.
//!
//! The paper's robustness story (§2, §5) rests on three mechanisms — the
//! monitor/skeptic that declares links working or dead, the credit resync
//! that recovers flow-control state after loss, and the reconfiguration that
//! routes around failures. Exercising them needs *adversity*: cells and
//! credits lost on working links, bits flipped in flight, links that flap,
//! line cards that crash and restart. This crate provides that adversity as
//! a pure, deterministic layer:
//!
//! * a serializable [`FaultSpec`] describes per-link loss (independent or
//!   Gilbert–Elliott bursty), bit corruption, latency jitter, scheduled
//!   link flaps and switch crash/restart events;
//! * a [`FaultInjector`] turns the spec plus a seed into per-transmission
//!   fates, with one independent RNG stream per link so any run replays
//!   byte-identically from `(seed, spec)`.
//!
//! The injector never touches the data plane itself; the fabric asks it
//! "what happens to this transmission?" and applies the answer. With no
//! injector attached, the fabric takes exactly its fault-free code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod inject;
mod spec;

pub use inject::{Fate, FaultInjector, SlotFaults};
pub use spec::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel};

/// Bits in one ATM cell on the wire: 5-byte header + 48-byte payload.
pub const CELL_BITS: u16 = 424;
/// Bits of the header; corruption below this index is caught by the HEC and
/// the whole cell is discarded at the receiving port.
pub const HEADER_BITS: u16 = 40;
