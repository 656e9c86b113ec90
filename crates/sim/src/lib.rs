//! # an2-sim — virtual time, seeded randomness and measurement
//!
//! The AN2 paper describes a local area network whose switches cooperate as a
//! distributed system: they exchange asynchronous messages, race against each
//! other during reconfiguration, and schedule hardware on a common cell-slot
//! clock. This crate holds what every simulator in the reproduction shares:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`SimRng`] — a seedable, splittable generator: one seed replays a run.
//! * [`metrics`] — [`metrics::Histogram`] (exact or log-bucketed samples with
//!   percentiles), used by every experiment harness.
//! * [`Fnv`] — the hasher under every replay digest and pinned constant.
//! * [`ddmin`] / [`assert_sequence`] — a failing sequence's 1-minimal part.
//! * [`json`] — the one JSON value type ([`json::JVal`]) with its parser,
//!   and the streaming writers every trace, metrics and corpus export
//!   writes through.
//!
//! There is no event engine here. The two event loops in the reproduction
//! each live next to the transport they model: the slot-synchronous fabric
//! in `an2`, and the ideal-transport reconfiguration harness in
//! `an2_reconfig::harness` (one `(deliver_at, send_seq)` heap). Both are
//! single-threaded in virtual time and deterministic, which is what lets the
//! test-suite assert exact latencies (e.g. the paper's "2 microseconds
//! through an uncontended switch") and replay any failure from its seed.
//!
//! ## Example
//!
//! ```
//! use an2_sim::{metrics::Histogram, SimDuration, SimRng, SimTime};
//!
//! let mut rng = SimRng::new(42);
//! let mut latency = Histogram::new();
//! let mut now = SimTime::ZERO;
//! for _ in 0..100 {
//!     let hop = SimDuration::from_nanos(500 + rng.gen_range(1_000) as u64);
//!     now += hop;
//!     latency.record(hop.as_nanos());
//! }
//! assert_eq!(latency.count(), 100);
//! assert!(now >= SimTime::from_nanos(50_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
pub mod json;
pub mod metrics;
mod rng;
mod shrink;
mod time;

pub use fnv::Fnv;
pub use rng::SimRng;
pub use shrink::{assert_sequence, ddmin};
pub use time::{SimDuration, SimTime};
