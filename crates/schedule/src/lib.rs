//! # an2-schedule — guaranteed-traffic frame scheduling (§4)
//!
//! "With guaranteed traffic, the requirements of each virtual circuit are
//! specified when the circuit is set up. Using this information, the switch
//! creates a schedule for moving guaranteed traffic across the crossbar,
//! giving the required bandwidth to each virtual circuit."
//!
//! * [`ReservationMatrix`] — cells-per-frame reservations between each
//!   (input, output) pair, with the feasibility rule: no row or column may
//!   exceed the frame size (no link over-committed).
//! * [`FrameSchedule`] — the slot-by-slot crossbar timetable (Figure 2).
//! * [`FrameSchedule::insert`] — the Slepian–Duguid incremental insertion
//!   algorithm (Figure 3): adding one cell takes at most N displacement
//!   swaps for an N×N switch, *independent of frame size*.
//! * [`packing`] — schedule-arrangement heuristics from the paper's future
//!   work: packing reserved cells into few slots versus spreading them, and
//!   the effect on best-effort traffic.
//! * [`nested`] — the nested-frame extension ("allocation could be based on
//!   1024-slot frames, with cell re-ordering restricted to 128-slot units")
//!   which trades allocation granularity against jitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
pub mod nested;
pub mod packing;
mod reservation;

pub use frame::{FrameSchedule, InsertError, InsertTrace, Move};
pub use reservation::{ReservationError, ReservationMatrix};
