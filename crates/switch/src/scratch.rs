//! The tables a switch step builds and throws away.
//!
//! The demand matrix, the two matchings and the crossbar scheduler's
//! working memory are dead between steps, so they belong to whoever does
//! the stepping, not to the switch: a fabric lane steps a thousand switches
//! through one [`StepScratch`] that stays in L1, where a private copy per
//! switch is a cold miss on every table.

use an2_xbar::{DemandMatrix, Matching, Scratch};

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
}

impl Default for StepScratch {
    fn default() -> Self {
        StepScratch {
            demand: DemandMatrix::new(1),
            matching: Matching::empty(0),
            crossbar: Matching::empty(0),
            xbar: Scratch::new(),
        }
    }
}

impl StepScratch {
    /// An empty scratch; tables are allocated by the steps that use them.
    pub fn new() -> Self {
        StepScratch::default()
    }

    /// Opens a step of an `n`-port switch: empty demand and crossbar at
    /// that width.
    pub(crate) fn begin(&mut self, n: usize) {
        self.demand.reset(n);
        self.crossbar.reset(n);
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
    /// matched pair's dequeue has a real choice to make. `rotate` shifts the
    /// install order and with it the slab slot of every circuit: anything a
    /// step left in the scratch that named a circuit of one switch would
    /// name a queue of the wrong pair in a differently rotated one.
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

    /// Whatever the last step left behind — demand and crossbar pairs of a
    /// wider or a narrower switch — `begin` opens the next one on tables
    /// equal to a fresh scratch's at the new width: re-dimensioned in place,
    /// with nothing a later step could read.
    #[test]
    fn settles_at_the_widest_switch_it_served() {
        let mut s = StepScratch::new();
        for n in [16, 4, 2, 16, 4] {
            s.begin(n);
            assert_eq!(s.demand, DemandMatrix::new(n), "demand at width {n}");
            assert_eq!(s.crossbar, Matching::empty(n), "crossbar at width {n}");
            // Leave a step's worth of state on the widest ports.
            s.demand.add(n - 1, 0, 3);
            s.crossbar.set(0, n - 1);
        }
    }

    /// Layout tripwire. A `Switch` is what a fabric keeps a thousand of, so
    /// its header is what the slot loop misses cache on: per-step tables
    /// (demand, matchings, scheduler scratch — dead between steps, and
    /// ≈ 10 KB at 16 × 16 when a switch carried them) must not move back in.
    #[test]
    fn switch_header_stays_small() {
        assert!(
            std::mem::size_of::<Switch>() <= 360,
            "Switch grew to {} B",
            std::mem::size_of::<Switch>()
        );
    }
}
