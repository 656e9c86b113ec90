//! Pre-refactor scheduler implementations, preserved as oracles.
//!
//! These are the original scan-and-`Vec` schedulers from before the bitmask
//! fast path: candidate sets built by filtering `0..n` into freshly
//! allocated `Vec`s, one allocation (or several) per port per iteration.
//! They are kept as the correctness oracle. The bitmask schedulers were
//! written to consume the RNG stream identically — an output's requester
//! list was always materialised in ascending port order, so "pick element
//! `k` of the sorted `Vec`" and "pick the `k`-th set bit of the mask" choose
//! the same port. Property tests (`tests/proptests.rs`, `wide_equiv`) drive
//! both from the same seed and assert bit-identical matchings.
//!
//! Nothing else should use this module; it is `#[doc(hidden)]` from the
//! crate root's perspective but public so those suites can reach it.

use crate::matching::{DemandMatrix, Matching};
use crate::scratch::Scratch;
use crate::CrossbarScheduler;
use an2_sim::SimRng;

/// The original PIM implementation (per-iteration `Vec` allocation, `0..n`
/// scans).
#[derive(Debug, Clone)]
pub struct ReferencePim {
    iterations: usize,
}

impl ReferencePim {
    /// A reference PIM running a fixed number of iterations per slot.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(iterations: usize) -> Self {
        assert!(iterations > 0, "PIM needs at least one iteration");
        ReferencePim { iterations }
    }

    /// The AN2 hardware configuration: three iterations.
    pub fn an2() -> Self {
        ReferencePim::new(3)
    }

    /// One request/grant/accept round, exactly as originally written.
    // Indexed loops mirror the per-port hardware phases.
    #[allow(clippy::needless_range_loop)]
    fn iterate(demand: &DemandMatrix, matching: &mut Matching, rng: &mut SimRng) -> usize {
        let n = demand.size();
        let mut grants: Vec<Option<usize>> = vec![None; n]; // per input: granted output
        let mut grant_lists: Vec<Vec<usize>> = vec![Vec::new(); n]; // per input: all grants
        for output in 0..n {
            if !matching.output_free(output) {
                continue;
            }
            let requesters: Vec<usize> = (0..n)
                .filter(|&i| matching.input_free(i) && demand.wants(i, output))
                .collect();
            if let Some(&winner) = rng.choose(&requesters) {
                grant_lists[winner].push(output);
            }
        }
        for input in 0..n {
            if let Some(&choice) = rng.choose(&grant_lists[input]) {
                grants[input] = Some(choice);
            }
        }
        let mut new_pairs = 0;
        for input in 0..n {
            if let Some(output) = grants[input] {
                matching.set(input, output);
                new_pairs += 1;
            }
        }
        new_pairs
    }

    /// Runs rounds until no new match forms (the original `run_to_maximal`),
    /// returning the matching and the productive iteration count.
    pub fn run_to_maximal(demand: &DemandMatrix, rng: &mut SimRng) -> (Matching, usize) {
        let mut matching = Matching::empty(demand.size());
        let mut productive = 0;
        loop {
            let new_pairs = Self::iterate(demand, &mut matching, rng);
            if new_pairs == 0 {
                break;
            }
            productive += 1;
        }
        (matching, productive)
    }
}

impl CrossbarScheduler for ReferencePim {
    fn name(&self) -> &'static str {
        "PIM (reference)"
    }

    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        rng: &mut SimRng,
        _scratch: &mut Scratch,
        out: &mut Matching,
    ) {
        out.reset(demand.size());
        for _ in 0..self.iterations {
            if Self::iterate(demand, out, rng) == 0 {
                break;
            }
        }
    }
}

/// The original sequential random-order greedy matcher.
#[derive(Debug, Clone, Default)]
pub struct ReferenceGreedy;

impl ReferenceGreedy {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ReferenceGreedy
    }
}

impl CrossbarScheduler for ReferenceGreedy {
    fn name(&self) -> &'static str {
        "greedy-maximal (reference)"
    }

    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        rng: &mut SimRng,
        _scratch: &mut Scratch,
        out: &mut Matching,
    ) {
        let n = demand.size();
        out.reset(n);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &input in &order {
            let wanted: Vec<usize> = (0..n)
                .filter(|&o| out.output_free(o) && demand.wants(input, o))
                .collect();
            if let Some(&output) = rng.choose(&wanted) {
                out.set(input, output);
            }
        }
    }
}

/// The original iSLIP with boolean-`Vec` candidate sets.
#[derive(Debug, Clone)]
pub struct ReferenceIslip {
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl ReferenceIslip {
    /// A reference iSLIP for an `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0` or `n == 0`.
    pub fn new(n: usize, iterations: usize) -> Self {
        assert!(n > 0, "switch size must be positive");
        assert!(iterations > 0, "iSLIP needs at least one iteration");
        ReferenceIslip {
            iterations,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
        }
    }

    fn round_robin_pick(candidates: &[bool], ptr: usize) -> Option<usize> {
        let n = candidates.len();
        (0..n).map(|k| (ptr + k) % n).find(|&i| candidates[i])
    }
}

impl CrossbarScheduler for ReferenceIslip {
    fn name(&self) -> &'static str {
        "iSLIP (reference)"
    }

    // Indexed loops mirror the per-port hardware phases.
    #[allow(clippy::needless_range_loop)]
    fn schedule_into(
        &mut self,
        demand: &DemandMatrix,
        _rng: &mut SimRng,
        _scratch: &mut Scratch,
        out: &mut Matching,
    ) {
        let n = demand.size();
        assert_eq!(
            n,
            self.grant_ptr.len(),
            "scheduler sized for another switch"
        );
        out.reset(n);
        for iter in 0..self.iterations {
            let mut granted_to: Vec<Vec<usize>> = vec![Vec::new(); n];
            for output in 0..n {
                if !out.output_free(output) {
                    continue;
                }
                let candidates: Vec<bool> = (0..n)
                    .map(|i| out.input_free(i) && demand.wants(i, output))
                    .collect();
                if let Some(input) = Self::round_robin_pick(&candidates, self.grant_ptr[output]) {
                    granted_to[input].push(output);
                }
            }
            let mut progressed = false;
            for input in 0..n {
                if granted_to[input].is_empty() {
                    continue;
                }
                let candidates: Vec<bool> = {
                    let mut c = vec![false; n];
                    for &o in &granted_to[input] {
                        c[o] = true;
                    }
                    c
                };
                if let Some(output) = Self::round_robin_pick(&candidates, self.accept_ptr[input]) {
                    out.set(input, output);
                    progressed = true;
                    if iter == 0 {
                        self.grant_ptr[output] = (input + 1) % n;
                        self.accept_ptr[input] = (output + 1) % n;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyMaximal, Islip, Pim};

    fn random_demand(n: usize, density: f64, rng: &mut SimRng) -> DemandMatrix {
        let mut d = DemandMatrix::new(n);
        for i in 0..n {
            for o in 0..n {
                if rng.gen_bool(density) {
                    d.add(i, o, 1 + rng.gen_range(3) as u64);
                }
            }
        }
        d
    }

    #[test]
    fn pim_bitmask_matches_reference() {
        let mut seeder = SimRng::new(99);
        for trial in 0..200u64 {
            let d = random_demand(16, 0.3, &mut seeder);
            let mut fast = Pim::an2();
            let mut slow = ReferencePim::an2();
            let a = fast.schedule(&d, &mut SimRng::new(trial));
            let b = slow.schedule(&d, &mut SimRng::new(trial));
            assert_eq!(a, b, "trial {trial}: bitmask PIM diverged");
        }
    }

    #[test]
    fn pim_run_to_maximal_matches_reference() {
        let mut seeder = SimRng::new(17);
        for trial in 0..100u64 {
            let d = random_demand(16, 0.5, &mut seeder);
            let fast = Pim::run_to_maximal(&d, &mut SimRng::new(trial));
            let (matching, productive) = ReferencePim::run_to_maximal(&d, &mut SimRng::new(trial));
            assert_eq!(fast.matching, matching);
            assert_eq!(fast.productive_iterations, productive);
        }
    }

    #[test]
    fn greedy_bitmask_matches_reference() {
        let mut seeder = SimRng::new(7);
        for trial in 0..200u64 {
            let d = random_demand(16, 0.3, &mut seeder);
            let a = GreedyMaximal::new().schedule(&d, &mut SimRng::new(trial));
            let b = ReferenceGreedy::new().schedule(&d, &mut SimRng::new(trial));
            assert_eq!(a, b, "trial {trial}: bitmask greedy diverged");
        }
    }

    #[test]
    fn islip_bitmask_matches_reference_across_slots() {
        // iSLIP is stateful: drive both for many slots so pointer updates
        // must track too.
        let mut seeder = SimRng::new(5);
        let mut fast = Islip::new(16, 3);
        let mut slow = ReferenceIslip::new(16, 3);
        let mut rng_a = SimRng::new(1);
        let mut rng_b = SimRng::new(1);
        for slot in 0..300 {
            let d = random_demand(16, 0.25, &mut seeder);
            let a = fast.schedule(&d, &mut rng_a);
            let b = slow.schedule(&d, &mut rng_b);
            assert_eq!(a, b, "slot {slot}: bitmask iSLIP diverged");
        }
    }

    #[test]
    fn names_distinguish_reference() {
        assert_eq!(ReferencePim::an2().name(), "PIM (reference)");
        assert_eq!(ReferenceGreedy::new().name(), "greedy-maximal (reference)");
        assert_eq!(ReferenceIslip::new(4, 1).name(), "iSLIP (reference)");
    }
}
