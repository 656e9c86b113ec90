//! # an2-bench — the experiment harness
//!
//! One module per experiment family; every function both *returns* its key
//! measurements (so tests can assert the paper's claims) and can render a
//! paper-style report. The `experiments` binary
//! (`cargo run -p an2-bench --bin experiments --release -- all`) prints
//! every table; EXPERIMENTS.md records the outputs next to the paper's
//! statements.
//!
//! Experiment index (see DESIGN.md §3): figures F1–F4, claims E1–E12, and
//! the extension studies X1a–X1c.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena_exp;
pub mod batch_exp;
pub mod chaos_exp;
pub mod control_exp;
pub mod extensions_exp;
pub mod fabric_exp;
pub mod faults_exp;
pub mod figures;
pub mod flow_exp;
pub mod network_exp;
pub mod observe_exp;
pub mod parallel;
pub mod parallel_exp;
pub mod reconfig_exp;
pub mod scenario;
pub mod schedule_exp;
pub mod xbar_exp;

/// Formats a fraction as a percent with one decimal.
///
/// ```
/// assert_eq!(an2_bench::pct(0.985), "98.5%");
/// ```
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
