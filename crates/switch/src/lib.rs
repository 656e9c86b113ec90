//! # an2-switch — the AN2 switch data plane
//!
//! One AN2 switch: up to 16 line cards around a 16×16 crossbar, with
//!
//! * a **routing table** mapping virtual-circuit ids to output ports (§2),
//! * **random-access input buffers** — per-circuit queues at each input, so
//!   a blocked circuit never blocks others (§3, §5),
//! * a **frame schedule** granting guaranteed circuits their reserved slots
//!   (§4), with unused reserved slots donated to best-effort traffic,
//! * **parallel iterative matching** filling every remaining slot with
//!   best-effort cells (§3), reading its requests from an index kept per
//!   (input, output) pair — the circuits queued there, oldest head cell
//!   first — so a step visits one head per requesting pair, not every
//!   queued circuit, and
//! * a **cut-through pipeline** of ~2 µs: "In the absence of contention, the
//!   first bit of a packet leaves the switch 2 microseconds after it
//!   arrives" (§1).
//!
//! The switch is slot-synchronous: [`Switch::step`] advances one cell slot,
//! consuming queued cells and producing departures. Credit-based flow
//! control between switches lives one level up (the fabric in the `an2`
//! crate), which gates cell admission using [`Switch::backlog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod scratch;
mod switch;

pub use scratch::StepScratch;
pub use switch::{Departure, Switch, SwitchConfig, SwitchError, PIM_ITERATIONS, PIPELINE_SLOTS};
