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
pub mod chaos_exp;
pub mod control_exp;
pub mod extensions_exp;
pub mod faults_exp;
pub mod figures;
pub mod flow_exp;
pub mod network_exp;
pub mod observe_exp;
pub mod parallel;
pub mod reconfig_exp;
pub mod schedule_exp;
pub mod xbar_exp;

use an2::{FaultSpec, Network, ReconfigEvent};
use an2_sim::SimDuration;

/// Far-future slot: a flap that never recovers, a crash that never
/// restarts, within any experiment's horizon.
pub(crate) const NEVER: u64 = 1_000_000_000;

/// A fault layer that injects nothing, with the invariant checker on and
/// the monitor pinging every millisecond: what N4 and N9 script onto.
pub(crate) fn quiet_spec() -> FaultSpec {
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec
}

/// What N3 and N4 compare two runs on: [`Network::digest`] and, beside
/// it, the reconfiguration log whole. The walk reads each event's slot and
/// payload; its instant, its initiator and the tags of `Quiesced` and
/// `RoutesInstalled` are compared here, and said here only.
#[derive(PartialEq)]
pub(crate) struct Replay {
    pub digest: u64,
    pub log: Vec<ReconfigEvent>,
}

impl Replay {
    pub(crate) fn of(net: &Network) -> Self {
        Replay {
            digest: net.digest(),
            log: net.reconfig_log().to_vec(),
        }
    }
}

/// Formats a fraction as a percent with one decimal.
///
/// ```
/// assert_eq!(an2_bench::pct(0.985), "98.5%");
/// ```
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
