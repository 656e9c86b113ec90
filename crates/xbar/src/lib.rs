//! # an2-xbar — crossbar scheduling for the AN2 switch (§3)
//!
//! Every cell slot, an AN2 switch must pair inputs with outputs across its
//! 16×16 crossbar: "some pairing of inputs and outputs must be determined
//! such that each input is paired with at most one output, and vice versa,
//! considering only those pairs with a queued cell to transmit between them.
//! This bi-partite matching problem must be solved every time slot, in the
//! half microsecond required to transmit a cell."
//!
//! The paper's answer is **parallel iterative matching** ([`Pim`]): a
//! distributed request/grant/accept protocol run by the line cards, using
//! randomness for fairness and iteration to fill in the gaps. This crate
//! implements PIM together with every baseline the paper discusses:
//!
//! * FIFO input queues with head-of-line blocking, whose throughput
//!   saturates at ≈58% (Karol et al., cited §3) — see [`simulate`];
//! * output queueing with internal speedup *k* — the "maximum attainable"
//!   yardstick the paper compares PIM against — see [`simulate`];
//! * [`GreedyMaximal`] — a centralized sequential maximal matcher;
//! * [`MaximumMatching`] — a true maximum matcher (Hopcroft–Karp), which the
//!   paper rejects both for speed and because it "can lead to starvation";
//! * [`Islip`] — the round-robin descendant of PIM, included as an
//!   extension baseline.
//!
//! The [`simulate`] module provides the slot-level switch simulator used by
//! the experiments to measure throughput and latency under configurable
//! arrival patterns, reproducing the §3 claims (E3, E4, E5, E6 in
//! EXPERIMENTS.md).
//!
//! ## The bitmask fast path
//!
//! Port sets — "which inputs request output `o`", "which outputs are still
//! free" — are represented as packed bitmasks throughout ([`DemandMatrix`]
//! keeps per-row and per-column request masks alongside the queue-length
//! table, [`Matching`] keeps matched-port masks, and [`PortSet`] is the
//! public face of the representation). Scheduler inner loops walk set bits
//! instead of scanning `0..n`, and all per-slot working state lives in a
//! caller-supplied [`Scratch`], so a multi-thousand-slot simulation performs
//! no per-slot heap allocation. Switches of up to 64 ports — every
//! configuration in the paper — pack each port set into a single `u64` and
//! take specialized fast paths that compile to the original one-word code;
//! wider switches (up to [`MAX_PORTS`] = 1024 ports) spread each set over
//! `⌈n/64⌉` words and run the same algorithms one loop level deeper, with
//! identical RNG-stream behaviour.
//!
//! The matchings each scheduler returns from a seeded RNG stream are pinned
//! as the pre-bitmask scan-and-`Vec` schedulers answered them: at widths
//! 1–8 (`tests/proptests.rs`), and at the AN2's 16 ports and across the
//! word boundaries up to 139 ports (`wide_equiv`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod greedy;
mod islip;
mod matching;
mod maximum;
mod pim;
mod scratch;
pub mod simulate;

pub use greedy::GreedyMaximal;
pub use islip::Islip;
pub use matching::{outputs_unique, DemandMatrix, Matching, PortSet, MAX_PORTS};
pub use maximum::MaximumMatching;
pub use pim::{Pim, PimOutcome};
pub use scratch::Scratch;

use an2_sim::SimRng;

/// A crossbar scheduler: given the queued demand at each (input, output)
/// pair, produce a legal matching for this cell slot.
///
/// Implementations may keep state across slots (e.g. iSLIP's round-robin
/// pointers), which is why scheduling takes `&mut self`.
///
/// Implementors provide [`schedule_into`](CrossbarScheduler::schedule_into),
/// the allocation-free entry point used by the slot-level simulator; the
/// convenience wrapper [`schedule`](CrossbarScheduler::schedule) allocates a
/// fresh matching per call and is fine anywhere off the hot path.
pub trait CrossbarScheduler {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Computes the matching for one slot into `out`, reusing `scratch` for
    /// working state. `out` is reset to an empty matching of the demand's
    /// size first; callers need not clear it between slots.
    ///
    /// The resulting matching must be *legal*: each input paired with at
    /// most one output and vice versa, and only pairs with queued demand
    /// matched.
    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        rng: &mut SimRng,
        scratch: &mut Scratch,
        out: &mut Matching,
    );

    /// Computes the matching for one slot, allocating the result.
    ///
    /// Equivalent to [`schedule_into`](CrossbarScheduler::schedule_into) with
    /// throwaway buffers — identical output, per-call allocations.
    fn schedule(&mut self, demand: &DemandMatrix, rng: &mut SimRng) -> Matching {
        let mut scratch = Scratch::new();
        let mut out = Matching::empty(demand.size());
        self.schedule_into(demand, rng, &mut scratch, &mut out);
        out
    }
}
