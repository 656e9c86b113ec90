//! Parallel iterative matching — the AN2 crossbar scheduler (§3).
//!
//! "The algorithm operates by repeating the following three steps (initially,
//! all inputs and outputs are unmatched):
//!
//! 1. Each unmatched input sends a request to *every* output for which it has
//!    a buffered cell.
//! 2. If an unmatched output receives any requests, it chooses one *randomly*
//!    to grant. The output notifies each input whether its request was
//!    granted.
//! 3. If an input receives any grants, it chooses one to accept and notifies
//!    that output."
//!
//! Iteration retains earlier matches and "fills in the gaps". The hardware
//! runs exactly three iterations; repeated until no new match forms, the
//! result is a maximal matching, in an expected `log₂ N + 4/3` iterations.
//!
//! The implementation mirrors the message structure of the hardware — each
//! iteration computes all requests, then all grants, then all accepts, with
//! no ordering between ports inside a phase — so the distributed character
//! of the algorithm is preserved even though it runs in one address space.
//!
//! The request sets themselves are `u64` bitmasks: an output's requesters
//! are `demand.col_mask(output) & matching.free_inputs()` — one AND, where
//! the original implementation scanned all N inputs into a `Vec`. Random
//! selection picks a uniform rank and extracts that set bit, which chooses
//! the same port indexing the sorted `Vec` did, so the RNG stream and the
//! matchings are the original's (pinned by `wide_equiv` and
//! `tests/proptests.rs`).

use crate::matching::{count_set, nth_set, nth_set_bit, DemandMatrix, Matching};
use crate::scratch::Scratch;
use crate::CrossbarScheduler;
use an2_sim::SimRng;

/// The parallel iterative matching scheduler.
///
/// ```
/// use an2_xbar::{Pim, DemandMatrix, CrossbarScheduler};
/// use an2_sim::SimRng;
/// let mut pim = Pim::new(3); // AN2 uses three iterations (§3)
/// let mut d = DemandMatrix::new(4);
/// d.add(0, 1, 5);
/// d.add(2, 1, 1);
/// d.add(2, 3, 1);
/// let m = pim.schedule(&d, &mut SimRng::new(1));
/// assert!(m.is_legal(&d));
/// assert!(m.is_maximal(&d)); // 3 iterations always suffice at this size
/// ```
#[derive(Debug, Clone)]
pub struct Pim {
    iterations: usize,
}

/// The result of running PIM until quiescence, with convergence statistics
/// for experiment E4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimOutcome {
    /// The matching produced.
    pub matching: Matching,
    /// Iterations that produced at least one new match, i.e. how many
    /// iterations were *needed* to reach this matching.
    pub productive_iterations: usize,
}

impl Pim {
    /// A PIM scheduler running a fixed number of iterations per slot.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(iterations: usize) -> Self {
        assert!(iterations > 0, "PIM needs at least one iteration");
        Pim { iterations }
    }

    /// The AN2 hardware configuration: three iterations (§3).
    pub fn an2() -> Self {
        Pim::new(3)
    }

    /// Iterations per slot.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// One request/grant/accept round, extending `matching` in place.
    /// Returns the number of new pairs formed. Dispatches to the
    /// single-word fast path (every AN2-sized switch) or the multi-word
    /// generalization; both visit free outputs then granted inputs in
    /// ascending port order, so they draw from the RNG stream exactly as
    /// the original scheduler's sorted-`Vec` indexing did.
    fn iterate(
        demand: &DemandMatrix,
        matching: &mut Matching,
        rng: &mut SimRng,
        scratch: &mut Scratch,
    ) -> usize {
        if demand.word_count() == 1 {
            Self::iterate_narrow(demand, matching, rng, &mut scratch.masks)
        } else {
            Self::iterate_wide(demand, matching, rng, scratch)
        }
    }

    /// The ≤ 64-port round: every port set is one `u64`.
    /// `grant_masks[i]` accumulates the outputs granting input `i` this
    /// round.
    fn iterate_narrow(
        demand: &DemandMatrix,
        matching: &mut Matching,
        rng: &mut SimRng,
        grant_masks: &mut [u64],
    ) -> usize {
        let n = demand.size();
        grant_masks[..n].fill(0);
        // Phase 1 — requests: every unmatched input requests every output it
        // has a cell for. (Unmatched outputs consider only unmatched inputs;
        // matched pairs from earlier iterations are retained.) The request
        // set of an output is one AND of its demand column with the free
        // inputs.
        // Phase 2 — grants: each unmatched output picks one requester
        // uniformly at random.
        let free_in = matching.free_inputs();
        let mut free_out = matching.free_outputs();
        while free_out != 0 {
            let output = free_out.trailing_zeros() as usize;
            free_out &= free_out - 1;
            let requesters = demand.col_mask(output) & free_in;
            if requesters != 0 {
                let rank = rng.gen_range(requesters.count_ones() as usize);
                let winner = nth_set_bit(requesters, rank);
                grant_masks[winner] |= 1 << output;
            }
        }
        // Phase 3 — accepts: each input that received grants picks one.
        // The paper does not fix the choice rule; hardware uses the random
        // tie-break, which we follow.
        let mut new_pairs = 0;
        for (input, &grants) in grant_masks[..n].iter().enumerate() {
            if grants != 0 {
                let rank = rng.gen_range(grants.count_ones() as usize);
                let output = nth_set_bit(grants, rank);
                matching.set(input, output);
                new_pairs += 1;
            }
        }
        new_pairs
    }

    /// The > 64-port round: port sets span `words` words, grant masks live
    /// at `scratch.masks[input * words ..]`, and the free/requester sets use
    /// the scratch word temporaries. Same phase structure and same
    /// ascending-port visit order as the narrow path.
    fn iterate_wide(
        demand: &DemandMatrix,
        matching: &mut Matching,
        rng: &mut SimRng,
        scratch: &mut Scratch,
    ) -> usize {
        let n = demand.size();
        let w = demand.word_count();
        scratch.masks[..n * w].fill(0);
        matching.write_free_inputs(&mut scratch.wa[..w]);
        matching.write_free_outputs(&mut scratch.wb[..w]);
        // Phases 1+2 — grants. Free sets don't change during the grant
        // phase, so each word of the free-output set can be walked by value.
        for wi in 0..w {
            let mut out_bits = scratch.wb[wi];
            while out_bits != 0 {
                let output = wi * 64 + out_bits.trailing_zeros() as usize;
                out_bits &= out_bits - 1;
                let col = demand.col(output);
                let mut count = 0usize;
                for ((wc, &c), &free) in scratch.wc[..w].iter_mut().zip(col).zip(&scratch.wa[..w]) {
                    let req = c & free;
                    *wc = req;
                    count += req.count_ones() as usize;
                }
                if count != 0 {
                    let rank = rng.gen_range(count);
                    let winner = nth_set(&scratch.wc[..w], rank);
                    scratch.masks[winner * w + output / 64] |= 1 << (output % 64);
                }
            }
        }
        // Phase 3 — accepts.
        let mut new_pairs = 0;
        for input in 0..n {
            let grants = &scratch.masks[input * w..(input + 1) * w];
            let count = count_set(grants);
            if count != 0 {
                let rank = rng.gen_range(count);
                let output = nth_set(grants, rank);
                matching.set(input, output);
                new_pairs += 1;
            }
        }
        new_pairs
    }

    /// Runs request/grant/accept rounds until no new match forms, returning
    /// the matching (always maximal) and how many productive iterations it
    /// took — the quantity bounded by `log₂ N + 4/3` in expectation (§3).
    pub fn run_to_maximal(demand: &DemandMatrix, rng: &mut SimRng) -> PimOutcome {
        let mut matching = Matching::empty(demand.size());
        let mut scratch = Scratch::new();
        scratch.ensure(demand.size(), demand.word_count());
        let mut productive = 0;
        loop {
            let new_pairs = Self::iterate(demand, &mut matching, rng, &mut scratch);
            if new_pairs == 0 {
                break;
            }
            productive += 1;
        }
        debug_assert!(matching.is_maximal(demand));
        PimOutcome {
            matching,
            productive_iterations: productive,
        }
    }
}

impl CrossbarScheduler for Pim {
    fn name(&self) -> &'static str {
        "PIM"
    }

    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        rng: &mut SimRng,
        scratch: &mut Scratch,
        out: &mut Matching,
    ) {
        let n = demand.size();
        out.reset(n);
        scratch.ensure(n, demand.word_count());
        for _ in 0..self.iterations {
            if Self::iterate(demand, out, rng, scratch) == 0 {
                break; // already maximal; further iterations are no-ops
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_demand(n: usize) -> DemandMatrix {
        let mut d = DemandMatrix::new(n);
        for i in 0..n {
            for o in 0..n {
                d.add(i, o, 1);
            }
        }
        d
    }

    #[test]
    fn single_iteration_is_legal() {
        let mut rng = SimRng::new(42);
        let mut pim = Pim::new(1);
        for trial in 0..50 {
            let mut d = DemandMatrix::new(8);
            for i in 0..8 {
                for o in 0..8 {
                    if rng.gen_bool(0.4) {
                        d.add(i, o, 1 + trial % 3);
                    }
                }
            }
            let m = pim.schedule(&d, &mut rng);
            assert!(m.is_legal(&d));
        }
    }

    #[test]
    fn converges_to_maximal() {
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            let mut d = DemandMatrix::new(16);
            for i in 0..16 {
                for o in 0..16 {
                    if rng.gen_bool(0.3) {
                        d.add(i, o, 1);
                    }
                }
            }
            let out = Pim::run_to_maximal(&d, &mut rng);
            assert!(out.matching.is_legal(&d));
            assert!(out.matching.is_maximal(&d));
        }
    }

    #[test]
    fn full_demand_matches_everyone() {
        // With demand everywhere, a maximal matching is a perfect matching.
        let d = full_demand(16);
        let mut rng = SimRng::new(3);
        let out = Pim::run_to_maximal(&d, &mut rng);
        assert_eq!(out.matching.len(), 16);
    }

    #[test]
    fn an2_three_iterations_usually_maximal() {
        // §3: "simulations show that a maximal match is found within 4
        // iterations more than 98% of the time" — 3 comes very close; check
        // a weaker bound here and leave the exact figure to experiment E4.
        let mut rng = SimRng::new(11);
        let mut pim = Pim::an2();
        let trials = 500;
        let mut maximal = 0;
        for _ in 0..trials {
            let mut d = DemandMatrix::new(16);
            for i in 0..16 {
                for o in 0..16 {
                    if rng.gen_bool(0.5) {
                        d.add(i, o, 1);
                    }
                }
            }
            if pim.schedule(&d, &mut rng).is_maximal(&d) {
                maximal += 1;
            }
        }
        assert!(
            maximal as f64 / trials as f64 > 0.85,
            "only {maximal}/{trials} maximal after 3 iterations"
        );
    }

    #[test]
    fn expected_iterations_bound_holds() {
        // E[iterations to maximal] <= log2(N) + 4/3 (§3). For N=16: 5.33.
        let n = 16;
        let mut rng = SimRng::new(2026);
        let trials = 2_000;
        let mut total = 0usize;
        for _ in 0..trials {
            let d = full_demand(n); // worst-case contention
            let out = Pim::run_to_maximal(&d, &mut rng);
            total += out.productive_iterations;
        }
        let mean = total as f64 / trials as f64;
        let bound = (n as f64).log2() + 4.0 / 3.0;
        assert!(
            mean <= bound,
            "mean iterations {mean:.3} exceeds paper bound {bound:.3}"
        );
    }

    #[test]
    fn no_demand_no_matching() {
        let d = DemandMatrix::new(4);
        let mut rng = SimRng::new(1);
        let out = Pim::run_to_maximal(&d, &mut rng);
        assert!(out.matching.is_empty());
        assert_eq!(out.productive_iterations, 0);
        let m = Pim::an2().schedule(&d, &mut rng);
        assert!(m.is_empty());
    }

    #[test]
    fn randomness_prevents_starvation() {
        // The paper's example (§3): input 0 always has cells for outputs 1
        // and 2; input 1 always has cells for output 2. Under PIM, the
        // (0 -> 2) pairing must win sometimes, and (0 -> 1, 1 -> 2) other
        // times — nobody starves.
        let mut d = DemandMatrix::new(3);
        d.add(0, 1, 1);
        d.add(0, 2, 1);
        d.add(1, 2, 1);
        let mut rng = SimRng::new(5);
        let mut pim = Pim::an2();
        let mut zero_to_two = 0;
        let mut zero_to_one = 0;
        for _ in 0..1_000 {
            let m = pim.schedule(&d, &mut rng);
            match m.output_of(0) {
                Some(2) => zero_to_two += 1,
                Some(1) => zero_to_one += 1,
                _ => {}
            }
        }
        assert!(zero_to_two > 100, "0->2 starved: {zero_to_two}");
        assert!(zero_to_one > 100, "0->1 starved: {zero_to_one}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = full_demand(8);
        let a = Pim::run_to_maximal(&d, &mut SimRng::new(9));
        let b = Pim::run_to_maximal(&d, &mut SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_into_reuses_buffers_across_sizes() {
        let mut pim = Pim::an2();
        let mut scratch = Scratch::new();
        let mut out = Matching::empty(1);
        let mut rng = SimRng::new(4);
        for &n in &[4usize, 16, 8, 64] {
            let d = full_demand(n);
            pim.schedule_into(&d, &mut rng, &mut scratch, &mut out);
            assert_eq!(out.size(), n);
            assert!(out.is_legal(&d));
            assert!(!out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        Pim::new(0);
    }

    #[test]
    fn accessors() {
        assert_eq!(Pim::an2().iterations(), 3);
        assert_eq!(Pim::an2().name(), "PIM");
    }
}
