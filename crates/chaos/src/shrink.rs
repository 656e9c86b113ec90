//! Delta-debugging: minimize a failing [`Schedule`] to the smallest
//! `(spec, seed)` repro that still violates the oracle.
//!
//! The core is Zeller's classic [`ddmin`] over event lists (flaps, then
//! crashes), followed by greedy structural reductions: drop the loss
//! models, halve the circuit count, halve the traffic window, shrink the
//! packets. Every candidate is judged by a full [`crate::oracle`] run, so
//! shrinking is bounded by an explicit run budget.

use crate::gen::Schedule;
use crate::oracle::{run_schedule, RunReport};
use an2_sim::ddmin;

/// Outcome of shrinking one failing schedule.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal schedule that still fails the oracle.
    pub schedule: Schedule,
    /// Oracle runs spent (including the initial failure confirmation).
    pub runs: u32,
    /// The minimal schedule's violations (from its last oracle run).
    pub violations: Vec<String>,
}

struct Judge {
    runs: u32,
    max_runs: u32,
    last_failing: Option<RunReport>,
}

impl Judge {
    /// True when `s` still violates the oracle, spending one run of the
    /// budget. Out of budget ⇒ `false` (the candidate is not accepted).
    fn fails(&mut self, s: &Schedule) -> bool {
        if self.runs >= self.max_runs {
            return false;
        }
        self.runs += 1;
        let report = run_schedule(s);
        let failing = !report.violations.is_empty();
        if failing {
            self.last_failing = Some(report);
        }
        failing
    }
}

/// Shrinks a failing schedule to a minimal repro within `max_runs` oracle
/// runs. Returns `None` if `original` does not actually fail (nothing to
/// shrink). The drain tail is kept from the original — it is an upper
/// bound, so every candidate run stays fair.
pub fn shrink(original: &Schedule, max_runs: u32) -> Option<ShrinkResult> {
    let mut judge = Judge {
        runs: 0,
        max_runs: max_runs.max(1),
        last_failing: None,
    };
    if !judge.fails(original) {
        return None;
    }
    let mut best = original.clone();

    // 1. ddmin the flap list.
    if best.fault.flaps.len() > 1 {
        let flaps = ddmin(&best.fault.flaps, |subset| {
            let mut cand = best.clone();
            cand.fault.flaps = subset.to_vec();
            judge.fails(&cand)
        });
        best.fault.flaps = flaps;
    }
    // 2. ddmin the crash list (it may even empty out).
    if !best.fault.crashes.is_empty() {
        let mut cand = best.clone();
        cand.fault.crashes.clear();
        if judge.fails(&cand) {
            best.fault.crashes.clear();
        } else if best.fault.crashes.len() > 1 {
            let crashes = ddmin(&best.fault.crashes, |subset| {
                let mut cand = best.clone();
                cand.fault.crashes = subset.to_vec();
                judge.fails(&cand)
            });
            best.fault.crashes = crashes;
        }
    }
    // 3. Drop the loss models entirely if the violation survives.
    if !best.fault.default_link.is_inert() || !best.fault.per_link.is_empty() {
        let mut cand = best.clone();
        cand.fault.default_link = Default::default();
        cand.fault.per_link.clear();
        if judge.fails(&cand) {
            best = cand;
        }
    }
    // 4. Halve the circuit count while the violation survives.
    while best.circuits > 1 {
        let mut cand = best.clone();
        cand.circuits = best.circuits / 2;
        if judge.fails(&cand) {
            best = cand;
        } else {
            break;
        }
    }
    // 5. Halve the traffic window, dropping events that would spill out.
    while best.run_slots > 40_000 {
        let mut cand = best.clone();
        cand.run_slots = best.run_slots / 2;
        cand.fault.flaps.retain(|f| f.up_at < cand.run_slots);
        cand.fault.crashes.retain(|c| c.at < cand.run_slots);
        if judge.fails(&cand) {
            best = cand;
        } else {
            break;
        }
    }
    // 6. Small packets, if the violation is not about payload volume.
    if best.packet_bytes > 64 {
        let mut cand = best.clone();
        cand.packet_bytes = 64;
        if judge.fails(&cand) {
            best = cand;
        }
    }
    let violations = judge
        .last_failing
        .as_ref()
        .map(|r| r.violations.iter().map(|v| v.to_string()).collect())
        .unwrap_or_default();
    Some(ShrinkResult {
        schedule: best,
        runs: judge.runs,
        violations,
    })
}
