//! The tables a switch step builds and throws away.
//!
//! Demand matrix, the two matchings, the crossbar scheduler's working
//! memory and the oldest-candidate cache are dead between steps, so they
//! belong to whoever does the stepping, not to the switch: a fabric lane
//! steps a thousand switches through one [`StepScratch`] that stays in L1,
//! where a private copy per switch is a cold miss on every table.

use an2_xbar::{DemandMatrix, Matching, Scratch};

/// One step's oldest-eligible dequeue candidate for an (input, output) pair.
/// Valid only while `tag` equals the scratch's current step number.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OldestCand {
    pub tag: u64,
    pub stamp: u64,
    pub si: u32,
}

const STALE_CAND: OldestCand = OldestCand {
    tag: u64::MAX,
    stamp: 0,
    si: 0,
};

/// Working memory for [`Switch::step_with`](crate::Switch::step_with):
/// everything a step computes that the next step does not read. One scratch
/// serves any number of switches of any widths, stepped in any order — a
/// step re-dimensions it to the switch's port count on entry, and once it
/// has served its widest switch no step allocates. Contents are unspecified
/// between steps.
#[derive(Debug)]
pub struct StepScratch {
    /// Best-effort demand behind free outputs (phase 2's input to PIM).
    pub(crate) demand: DemandMatrix,
    /// PIM's result.
    pub(crate) matching: Matching,
    /// Every pair the crossbar carries this step, both phases.
    pub(crate) crossbar: Matching,
    /// The crossbar scheduler's own working memory.
    pub(crate) xbar: Scratch,
    /// Per (input, output) at `input * ports + output`: the oldest eligible
    /// best-effort candidate found while building this step's demand,
    /// replicating `take_oldest`'s min-stamp / lowest-VC-id tie-break so
    /// dequeues on matched pairs are O(1) lookups instead of rescans.
    pub(crate) oldest: Vec<OldestCand>,
    /// Steps begun on this scratch: the tag that marks an `oldest` entry as
    /// this step's. It must name the step, not the slot — two switches
    /// sharing the scratch step within one slot, and the first one's
    /// candidate must not win a pair of the second.
    step: u64,
}

impl Default for StepScratch {
    fn default() -> Self {
        StepScratch {
            demand: DemandMatrix::new(1),
            matching: Matching::empty(0),
            crossbar: Matching::empty(0),
            xbar: Scratch::new(),
            oldest: Vec::new(),
            step: 0,
        }
    }
}

impl StepScratch {
    /// An empty scratch; tables are allocated by the steps that use them.
    pub fn new() -> Self {
        StepScratch::default()
    }

    /// Opens a step of an `n`-port switch: empty demand and crossbar at
    /// that width, and a fresh tag — returned — that orphans every cached
    /// candidate.
    pub(crate) fn begin(&mut self, n: usize) -> u64 {
        self.step += 1;
        self.demand.reset(n);
        self.crossbar.reset(n);
        if self.oldest.len() < n * n {
            self.oldest.resize(n * n, STALE_CAND);
        }
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Departure, Switch, SwitchConfig};
    use an2_cells::signal::TrafficClass;
    use an2_cells::{Cell, VcId};
    use an2_sim::SimRng;

    /// A `ports`-wide switch with two ungated best-effort circuits on each
    /// of the pairs (0, 1) and (1, 0) — the pairs every width has — so each
    /// pair's dequeue goes through the oldest-candidate cache with a real
    /// choice to make. `rotate` shifts the install order and with it the
    /// slab slot of every circuit: a candidate leaking from one switch to a
    /// differently rotated one names a queue of the wrong pair.
    fn contended(ports: usize, rotate: u32) -> Switch {
        let mut sw = Switch::new(SwitchConfig {
            ports,
            ..SwitchConfig::default()
        });
        for k in (0..4).map(|k| (k + rotate) % 4) {
            let output = (k as usize + 1) % 2;
            sw.install_route(VcId::new(1 + k), output, TrafficClass::BestEffort)
                .expect("fresh route on a cabled port");
        }
        sw
    }

    /// The same arrivals for every switch: which circuits get a cell
    /// depends on the slot only, so all switches hold eligible cells on the
    /// same pairs, with the same stamps, in the same slots.
    fn feed(sw: &mut Switch, slot: u64) {
        for k in 0..4u32 {
            if !(slot + k as u64).is_multiple_of(3) {
                sw.enqueue(k as usize % 2, Cell::blank(VcId::new(1 + k)))
                    .expect("valid port");
            }
        }
    }

    #[test]
    fn one_scratch_serves_switches_of_any_width_in_one_slot() {
        const WIDTHS: [usize; 3] = [4, 2, 16];
        let build = || -> Vec<Switch> {
            WIDTHS
                .iter()
                .zip(0..)
                .map(|(&w, rotate)| contended(w, rotate))
                .collect()
        };
        let (mut shared, mut alone) = (build(), build());
        let mut rngs_shared = SimRng::new(9).fork_n(3);
        let mut rngs_alone = SimRng::new(9).fork_n(3);
        let mut scratch = StepScratch::new();
        let mut via_shared: Vec<Departure> = Vec::new();
        let mut total = 0;
        for slot in 0..1_000u64 {
            for i in 0..3 {
                feed(&mut shared[i], slot);
                feed(&mut alone[i], slot);
                via_shared.clear();
                shared[i].step_with(&mut rngs_shared[i], &mut scratch, &mut via_shared);
                let own = alone[i].step(&mut rngs_alone[i]);
                assert_eq!(via_shared, own, "slot {slot}, width {}", WIDTHS[i]);
                total += own.len();
            }
        }
        assert!(total > 5_000, "the pairs were busy: {total} departures");
        for i in 0..3 {
            assert_eq!(shared[i].total_backlog(), alone[i].total_backlog());
            assert_eq!(rngs_shared[i].next_u64(), rngs_alone[i].next_u64());
        }
    }

    #[test]
    fn settles_at_the_widest_switch_it_served() {
        let mut s = StepScratch::new();
        s.begin(16);
        let cap = s.oldest.capacity();
        for n in [4, 2, 16, 4] {
            s.begin(n);
            assert_eq!(s.demand.size(), n);
            assert_eq!(s.crossbar.size(), n);
        }
        assert_eq!(s.oldest.capacity(), cap);
    }

    /// Layout tripwire. A `Switch` is what a fabric keeps a thousand of, so
    /// its header is what the slot loop misses cache on: per-step tables
    /// (demand, matchings, scheduler scratch, the oldest-candidate cache —
    /// 392 B of `Vec` headers in front of ≈ 10 KB of 16 × 16 tables before
    /// they moved here) must not move back in.
    #[test]
    fn switch_header_stays_small() {
        assert!(
            std::mem::size_of::<Switch>() <= 360,
            "Switch grew to {} B",
            std::mem::size_of::<Switch>()
        );
    }
}
