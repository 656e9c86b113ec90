//! # an2-flow — credit-based flow control for best-effort traffic (§5)
//!
//! "Buffers for each best-effort virtual circuit traversing the link are
//! allocated at the downstream switch. The upstream switch maintains a
//! credit balance for buffers in the downstream switch; this is the number
//! of buffers known to be empty. Whenever the upstream switch sends a cell,
//! it decrements the balance for the corresponding virtual circuit. Whenever
//! a cell buffer is freed in the downstream switch [...] a credit is
//! transmitted back to the upstream switch [...] Cells are only transmitted
//! for circuits with non-zero credit balances."
//!
//! There is one model of a credit link, the fabric's (`an2::Fabric`): its
//! switches hold the gates and buffers, and experiments F4 and E10 measure
//! it. This crate states the protocol those gates follow:
//!
//! * [`CreditSender`] / [`CreditReceiver`] — the per-circuit state machines
//!   at the two ends of a link (Figure 4), for the property tests and the
//!   benchmark's credit replay.
//! * [`resync`] — the credit resynchronization protocol the paper leaves as
//!   "an interesting problem in distributed computing": absolute counters
//!   plus credit epochs (see DESIGN.md §4). The fabric runs its marker rule
//!   and balance recovery.
//! * [`round_trip_credits`] — buffer sizing: full link rate requires credits
//!   covering one link round-trip.
//! * [`sharing`] — the paper's dynamic-buffer-allocation extension: one
//!   link's circuits drawing downstream buffers from a shared pool. Its
//!   simulator is a side model, since the fabric has no shared pool (X1c).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod credit;
pub mod resync;
pub mod sharing;

pub use credit::{CreditReceiver, CreditSender, Overflow};

use an2_cells::LinkRate;
use an2_sim::SimDuration;

/// The number of credits (downstream buffers) a circuit needs to sustain the
/// full link rate: enough to cover cells in flight for one round-trip, plus
/// the cell being transmitted.
///
/// "To guarantee that it never [runs out of credits], it must start with
/// enough credits to cover a roundtrip on the link; this allows time for the
/// cell to reach the downstream switch and a credit to be returned." (§5)
///
/// ```
/// use an2_flow::round_trip_credits;
/// use an2_cells::LinkRate;
/// use an2_sim::SimDuration;
/// // 10 km of fibre ≈ 50 µs one way; at 622 Mb/s a slot is ~681 ns.
/// let credits = round_trip_credits(LinkRate::Mbps622, SimDuration::from_micros(50));
/// assert!(credits >= 140 && credits <= 160);
/// ```
pub fn round_trip_credits(rate: LinkRate, one_way_latency: SimDuration) -> u32 {
    let slot = rate.slot_duration().as_nanos().max(1);
    let round_trip = 2 * one_way_latency.as_nanos();
    (round_trip.div_ceil(slot) + 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_credits_scale_with_latency() {
        let short = round_trip_credits(LinkRate::Mbps622, SimDuration::from_micros(1));
        let long = round_trip_credits(LinkRate::Mbps622, SimDuration::from_micros(50));
        assert!(short < long);
        assert_eq!(short, 4); // 2us round trip / 681ns + 1
    }

    #[test]
    fn round_trip_credits_minimum_one() {
        assert!(round_trip_credits(LinkRate::Gbps1, SimDuration::ZERO) >= 1);
    }

    #[test]
    fn paper_memory_arithmetic_is_modest() {
        // §5: 1000 virtual circuits per link, 10 km maximum link length —
        // "the required memory costs much less than the opto-electronics".
        // 10 km ≈ 50 µs one-way at 2/3 c.
        let per_vc = round_trip_credits(LinkRate::Mbps622, SimDuration::from_micros(50));
        let total_cells = per_vc as u64 * 1000;
        let bytes = total_cells * 53;
        assert!(
            bytes < 16 * 1024 * 1024,
            "buffer memory {bytes} bytes should be well under 16 MiB"
        );
    }
}
