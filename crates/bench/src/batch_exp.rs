//! Experiment N7: watermark-driven batching at 1k/10k/100k circuits.
//!
//! PR 7 makes slot-by-slot stepping the slow path: every switch carries a
//! *next-event watermark* (the earliest slot at which stepping it could
//! change anything), the fabric skips `step` for switches whose watermark
//! lies in the future, and whole quiet stretches are jumped when every
//! switch and the agenda agree. N7 extends the N2 circuit-count push to
//! 1k/10k/100k circuits on the 1024-switch fat-tree and measures the
//! batched engine against the unbatched (pre-PR-7) one.
//!
//! The workload keeps the busy working set *constant* while the run
//! stretches with circuit count: every host talks to its leaf neighbour
//! (128 busy edge switches out of 1024), plus one long cross-tree circuit
//! per host whose constant trickle wakes the spine only occasionally. As
//! circuits grow, the injection window grows linearly but the set of
//! switches with work does not. The speedup curve this produces is
//! *monotone non-increasing*: a nearly-quiet fabric (1k circuits — mostly
//! credit-paced drain) is where skipping wins most, and as load thickens
//! the ratio settles onto the structural floor — the busy fraction of the
//! fabric (~1/8 of 1024 switches) — which it never drops below. The
//! *absolute* work saved moves the other way: skipped switch-steps grow
//! strictly with circuit count, which is what lets the engine reach 100k
//! circuits at all. Both facts are asserted.
//!
//! Two speedups per point:
//!
//! * **model speedup** — executed switch-steps, unbatched / batched, from
//!   the deterministic [`an2::PhaseProfile`] counters. Independent of the
//!   harness machine; this is what the acceptance gate checks for
//!   monotonicity.
//! * **wall speedup** — end-to-end wall clock, recorded as the honest
//!   headline together with delivered cells per second per core (the
//!   batched run is single-shard, i.e. one core).
//!
//! Results must be byte-identical: the per-circuit stats digest of every
//! batched run is asserted equal to its unbatched twin, and the
//! `watermark_equiv` suite proves the same over random workloads, faults
//! and live control planes.

use crate::scenario::Scenario;
use std::fmt::Write;
use std::time::Instant;

/// A loaded single-shard fabric with profiling on (untimed setup).
fn prepare(scenario: &Scenario, batched: bool) -> an2::Fabric {
    scenario.fabric(7, |f| {
        f.set_batching(batched);
        f.enable_profiling();
    })
}

/// One point on the N7 batching curve.
#[derive(Debug, Clone)]
pub struct BatchScaling {
    /// Open circuits in the run.
    pub circuits: usize,
    /// Simulated slots (injection window + drain margin).
    pub slots: u64,
    /// Wall time of the unbatched (pre-PR-7) engine, ms (fastest of 2).
    pub unbatched_ms: f64,
    /// Wall time of the batched engine, ms (fastest of 2).
    pub batched_ms: f64,
    /// `unbatched_ms / batched_ms` — machine-dependent headline.
    pub wall_speedup: f64,
    /// Executed switch-steps, unbatched / batched — deterministic; the
    /// monotonicity gate runs on this.
    pub model_speedup: f64,
    /// Switch-steps the watermark skipped in the batched run.
    pub skipped_switch_steps: u64,
    /// Switch-steps the batched run executed.
    pub stepped_switch_steps: u64,
    /// Whole fabric slots the batched run fast-forwarded over.
    pub skipped_slots: u64,
    /// Cells delivered — byte-identical across engines.
    pub delivered_cells: u64,
    /// Delivered cells per wall-clock second on the batched single-shard
    /// (one-core) run.
    pub cells_per_sec_core: f64,
}

fn run_point(scenario: &Scenario, slots: u64, circuits: usize) -> BatchScaling {
    let mut walls = [f64::MAX; 2]; // [unbatched, batched]
    let mut digests = [(0u64, 0u64); 2];
    let mut stepped = [0u64; 2];
    let mut skipped = 0u64;
    let mut skipped_slots = 0u64;
    for rep in 0..2 {
        for (k, batched) in [(0usize, false), (1usize, true)] {
            let mut f = prepare(scenario, batched);
            let t = Instant::now();
            f.step(slots);
            walls[k] = walls[k].min(t.elapsed().as_secs_f64() * 1e3);
            let p = f.profile().expect("profiling enabled").clone();
            if rep == 0 {
                digests[k] = scenario.stats_digest(&f);
                stepped[k] = p.stepped_switch_steps;
                if batched {
                    skipped = p.skipped_switch_steps;
                    skipped_slots = p.skipped_slots;
                }
            }
        }
    }
    assert_eq!(
        digests[0], digests[1],
        "batched run diverged from the unbatched digest at {circuits} circuits"
    );
    assert!(
        digests[1].1 > 0,
        "no traffic delivered at {circuits} circuits"
    );
    BatchScaling {
        circuits,
        slots,
        unbatched_ms: walls[0],
        batched_ms: walls[1],
        wall_speedup: walls[0] / walls[1],
        model_speedup: stepped[0] as f64 / stepped[1].max(1) as f64,
        skipped_switch_steps: skipped,
        stepped_switch_steps: stepped[1],
        skipped_slots,
        delivered_cells: digests[1].1,
        cells_per_sec_core: digests[1].1 as f64 / (walls[1] / 1e3),
    }
}

/// N7 — batched vs unbatched data plane at 1k/10k/100k circuits on the
/// 1024-switch fat-tree. Asserts digest equality at every point, a
/// monotone model-speedup curve settling from above onto the structural
/// floor, and strictly increasing absolute saved switch-steps; returns the
/// rows and the report (including the cells/sec/core headline from the
/// largest point).
pub fn n7_batched_dataplane() -> (Vec<BatchScaling>, String) {
    let (arity, levels) = (2, 8); // 1024 switches, 256 hosts
    let mut rows = Vec::new();
    for circuits in [1_000usize, 10_000, 100_000] {
        let (scenario, slots) = Scenario::tree_sparse(arity, levels, circuits);
        rows.push(run_point(&scenario, slots, circuits));
    }
    // The acceptance gate, two monotone curves (both deterministic —
    // counted switch-steps, not wall clock):
    //
    //  1. The relative model speedup is monotone non-increasing in circuit
    //     count: it is largest on the nearly-quiet 1k run (credit-paced
    //     drain, most slots skippable) and settles from above onto the
    //     structural floor — the busy fraction of the fabric (~1/8 of the
    //     1024 switches) — as the injection window thickens. It must never
    //     dip below that floor.
    //  2. The absolute saved work (skipped switch-steps) is strictly
    //     increasing in circuit count — the gain that actually makes the
    //     100k-circuit run tractable.
    for pair in rows.windows(2) {
        assert!(
            pair[1].model_speedup <= pair[0].model_speedup,
            "model speedup curve is not monotone toward its asymptote: \
             {} circuits ({:.2}) -> {} ({:.2})",
            pair[0].circuits,
            pair[0].model_speedup,
            pair[1].circuits,
            pair[1].model_speedup
        );
        assert!(
            pair[1].skipped_switch_steps > pair[0].skipped_switch_steps,
            "absolute saved switch-steps shrank from {} circuits ({}) to {} ({})",
            pair[0].circuits,
            pair[0].skipped_switch_steps,
            pair[1].circuits,
            pair[1].skipped_switch_steps
        );
    }
    for r in &rows {
        assert!(
            r.model_speedup > 6.0,
            "model speedup fell below the structural floor at {} circuits: {:.2}",
            r.circuits,
            r.model_speedup
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "N7  batched data plane: 1024 switches (2-ary 8-level fat-tree), \
         watermark skips vs slot-by-slot stepping, single shard"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>10} {:>10} {:>9} {:>9} {:>13} {:>11} {:>13}",
        "circuits",
        "slots",
        "unbat ms",
        "batch ms",
        "wall x",
        "model x",
        "skipped steps",
        "delivered",
        "Mcells/s/core"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>10.1} {:>10.1} {:>8.1}x {:>8.1}x {:>13} {:>11} {:>13.2}",
            r.circuits,
            r.slots,
            r.unbatched_ms,
            r.batched_ms,
            r.wall_speedup,
            r.model_speedup,
            r.skipped_switch_steps,
            r.delivered_cells,
            r.cells_per_sec_core / 1e6
        );
    }
    let last = rows.last().expect("three points");
    let _ = writeln!(
        out,
        "identical stats digests batched vs unbatched at every point; \
         model speedup = executed switch-steps unbatched/batched \
         (deterministic, machine-independent); headline: {:.2} Mcells/s/core \
         at {} circuits",
        last.cells_per_sec_core / 1e6,
        last.circuits
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batched_run_matches_unbatched() {
        // A 32-switch, 200-circuit instance of the N7 workload: batched and
        // unbatched engines must agree byte-for-byte; the full-size curve
        // runs in release via the experiments binary.
        let (scenario, slots) = Scenario::tree_sparse(2, 4, 200);
        let mut digests = Vec::new();
        for batched in [false, true] {
            let mut f = prepare(&scenario, batched);
            f.step(slots);
            digests.push(scenario.stats_digest(&f));
        }
        assert!(digests[0].1 > 0, "no traffic delivered");
        assert_eq!(digests[0], digests[1], "batched diverged from unbatched");
    }

    #[test]
    fn batching_skips_most_switch_steps() {
        let (scenario, slots) = Scenario::tree_sparse(2, 4, 200);
        let mut f = prepare(&scenario, true);
        f.step(slots);
        let p = f.profile().expect("profiling enabled");
        assert!(
            p.skipped_switch_steps > p.stepped_switch_steps,
            "expected the majority of switch-steps skipped: {p:?}"
        );
    }
}
