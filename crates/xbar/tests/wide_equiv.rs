//! Wide-radix equivalence: schedulers on >64-port switches must produce
//! bit-identical matchings to the pre-refactor oracle implementations.
//!
//! The multi-word `PortSet` path (switches wider than one `u64`) runs the
//! same request/grant/accept algorithms one loop level deeper than the
//! single-word fast path. These tests drive the bitmask schedulers and the
//! scan-and-`Vec` oracles from [`an2_xbar::reference`] with the same seeded
//! RNG streams at 65, 96, and 128 ports — one word plus one bit, a ragged
//! mid-word width, and an exact two-word width — and assert the matchings
//! agree exactly. A grid walks the width range across the
//! one-word/two-word/three-word boundaries, narrowest first.

use an2_sim::SimRng;
use an2_xbar::reference::{ReferenceGreedy, ReferenceIslip, ReferencePim};
use an2_xbar::{outputs_unique, CrossbarScheduler, DemandMatrix, GreedyMaximal, Islip, Pim};

/// A random demand matrix: each (input, output) pair requests with
/// probability `density`, with a small random queue depth.
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

/// The widths under test: one word + 1 bit, ragged mid-word, exactly two
/// words.
const WIDE: [usize; 3] = [65, 96, 128];

#[test]
fn wide_pim_matches_reference() {
    for n in WIDE {
        for seed in [11u64, 12, 13] {
            let mut seeder = SimRng::new(seed);
            for trial in 0..40u64 {
                let d = random_demand(n, 0.08, &mut seeder);
                let a = Pim::an2().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                let b = ReferencePim::an2().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                assert_eq!(a, b, "n={n} seed={seed} trial={trial}: PIM diverged");
                assert!(outputs_unique(&a), "n={n}: illegal matching");
            }
        }
    }
}

#[test]
fn wide_greedy_matches_reference() {
    for n in WIDE {
        for seed in [21u64, 22, 23] {
            let mut seeder = SimRng::new(seed);
            for trial in 0..40u64 {
                let d = random_demand(n, 0.08, &mut seeder);
                let a = GreedyMaximal::new().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                let b = ReferenceGreedy::new().schedule(&d, &mut SimRng::new(seed * 1000 + trial));
                assert_eq!(a, b, "n={n} seed={seed} trial={trial}: greedy diverged");
            }
        }
    }
}

#[test]
fn wide_islip_matches_reference_across_slots() {
    // iSLIP is stateful: the round-robin pointers must track across slots
    // on the wide path too.
    for n in WIDE {
        for seed in [31u64, 32, 33] {
            let mut seeder = SimRng::new(seed);
            let mut fast = Islip::new(n, 3);
            let mut slow = ReferenceIslip::new(n, 3);
            let mut rng_a = SimRng::new(seed);
            let mut rng_b = SimRng::new(seed);
            for slot in 0..80 {
                let d = random_demand(n, 0.06, &mut seeder);
                let a = fast.schedule(&d, &mut rng_a);
                let b = slow.schedule(&d, &mut rng_b);
                assert_eq!(a, b, "n={n} seed={seed} slot={slot}: iSLIP diverged");
            }
        }
    }
}

/// Sweeping the width across the single-word boundary (63/64/65), the
/// two-word one (127/128/129) and beyond, sparse to dense: every scheduler
/// agrees with its oracle on any width.
#[test]
fn any_width_matches_reference() {
    const WIDTHS: [usize; 17] = [
        2, 3, 7, 8, 31, 32, 33, 63, 64, 65, 66, 95, 96, 127, 128, 129, 139,
    ];
    for n in WIDTHS {
        for density_pct in [1u64, 8, 19] {
            let seed = n as u64 * 100 + density_pct;
            let at = format!("n={n} density={density_pct}% seed={seed}");
            let d = random_demand(n, density_pct as f64 / 100.0, &mut SimRng::new(seed));

            let a = Pim::an2().schedule(&d, &mut SimRng::new(seed));
            let b = ReferencePim::an2().schedule(&d, &mut SimRng::new(seed));
            assert_eq!(&a, &b, "{at}: PIM diverged");

            let a = GreedyMaximal::new().schedule(&d, &mut SimRng::new(seed));
            let b = ReferenceGreedy::new().schedule(&d, &mut SimRng::new(seed));
            assert_eq!(&a, &b, "{at}: greedy diverged");

            let a = Islip::new(n, 3).schedule(&d, &mut SimRng::new(seed));
            let b = ReferenceIslip::new(n, 3).schedule(&d, &mut SimRng::new(seed));
            assert_eq!(&a, &b, "{at}: iSLIP diverged");
        }
    }
}
