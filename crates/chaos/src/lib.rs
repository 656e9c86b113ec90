//! # an2-chaos — adversarial chaos campaigns with shrinking repros
//!
//! The AN2 paper's §2 argument is that the network *self-stabilizes*:
//! whatever sequence of link failures, recoveries and line-card crashes
//! occurs, once faults stop the reconfiguration protocol converges to the
//! canonical routes of the surviving topology. This crate attacks that
//! claim mechanically:
//!
//! 1. [`spec::CampaignSpec`] names a topology family and a fault scenario
//!    (flap storms, crashes timed mid-reconfiguration, correlated
//!    multi-link failures, Gilbert–Elliott loss under churn).
//! 2. [`gen::generate`] expands `(spec, seed)` into a concrete, replayable
//!    [`gen::Schedule`] — randomized but fully deterministic.
//! 3. [`oracle::run_schedule`] drives the schedule through a real
//!    [`an2::Network`] (fault layer + embedded control plane) and checks
//!    the strengthened oracle: zero invariant violations, post-quiescence
//!    agent views byte-equal to the harness oracle, a deadlock-free
//!    canonical forest, circuits on canonical, legal up*/down* paths, no
//!    stuck circuits, credits whole, and a delivery
//!    floor on surviving paths. Violations are *collected*, not panicked.
//! 4. On violation, [`shrink::shrink`] delta-debugs the schedule to a
//!    minimal `(spec, seed)` repro and [`corpus`] persists it as plain
//!    JSON in `tests/chaos_corpus/`, replayed forever as a regression.
//!
//! The live-network half of the robustness story — the §2 *skeptic*
//! quarantining flapping links behind an exponentially growing holddown —
//! lives in `an2-reconfig` and is tuned through the fault spec's
//! `monitor.skeptic`; campaigns here measure its
//! effect (suppressed recoveries, reconfiguration counts) through the
//! typed log and the new quarantine trace events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use an2_sim::json::JVal;
pub use corpus::{load_dir, load_repro, replay_twice, save_repro};
pub use gen::{generate, Schedule, NEVER};
pub use oracle::{run_schedule, run_schedule_observed, RunReport, Violation};
pub use shrink::{shrink, ShrinkResult};
pub use spec::{CampaignSpec, Scenario, TopologyKind};

use std::path::Path;

/// One campaign cell's outcome: the schedule that ran, its report, and —
/// if it violated the oracle — the minimal shrunken repro.
#[derive(Debug)]
pub struct CellOutcome {
    /// The schedule as generated.
    pub schedule: Schedule,
    /// The oracle's report for the full schedule.
    pub report: RunReport,
    /// Present when the run violated: the minimized repro.
    pub shrunk: Option<ShrinkResult>,
}

/// Runs one `(spec, seed)` cell: generate, run the oracle, and on
/// violation shrink to a minimal repro (optionally persisting it under
/// `corpus_dir`). `shrink_budget` caps the oracle runs spent minimizing.
pub fn run_cell(
    spec: &CampaignSpec,
    seed: u64,
    shrink_budget: u32,
    corpus_dir: Option<&Path>,
) -> CellOutcome {
    let schedule = generate(spec, seed);
    let report = run_schedule(&schedule);
    let shrunk = if report.violations.is_empty() {
        None
    } else {
        let result = shrink::shrink(&schedule, shrink_budget);
        if let (Some(res), Some(dir)) = (result.as_ref(), corpus_dir) {
            let _ = corpus::save_repro(dir, &res.schedule, &res.violations);
        }
        result
    };
    CellOutcome {
        schedule,
        report,
        shrunk,
    }
}
