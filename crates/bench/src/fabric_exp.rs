//! Experiment N2: wall-clock cost of the fabric data plane — the slab
//! fabric ([`an2::Fabric`]: interned VC ids, pooled cells, calendar agenda)
//! against the map-based reference ([`an2::reference::Fabric`]) on the same
//! seeded workload. The two produce identical cell-level results (enforced
//! by property tests and re-asserted here); only the wall clock differs.
//!
//! The workload ([`Scenario::src_dense`]: routes and pre-segmented packets)
//! is built once, and circuit setup plus outbox preload happen in
//! [`Scenario::fabric`]/[`Scenario::reference_fabric`] — all outside the
//! timed region, so the comparison measures the fabrics' per-slot data-plane
//! work rather than the control plane or the AAL5 segmenter (shared code
//! that would dilute the ratio equally on both sides).

use crate::scenario::Scenario;
use an2::{TraceConfig, Tracer};
use std::fmt::Write;
use std::time::Instant;

/// A loaded slab fabric in its default configuration (untimed setup).
fn prepare_slab(scenario: &Scenario, seed: u64) -> an2::Fabric {
    scenario.fabric(seed, |_| {})
}

/// The timed region: steps a prepared slab fabric and returns delivered
/// cells.
fn run_slab(f: &mut an2::Fabric, scenario: &Scenario, slots: u64) -> u64 {
    f.step(slots);
    scenario.delivered(|vc| f.stats(vc))
}

/// The timed region: steps a prepared reference fabric and returns
/// delivered cells.
fn run_reference(f: &mut an2::reference::Fabric, scenario: &Scenario, slots: u64) -> u64 {
    f.step(slots);
    scenario.delivered(|vc| f.stats(vc))
}

/// One slab-vs-reference wall-clock comparison.
#[derive(Debug, Clone)]
pub struct FabricPerf {
    /// Best-effort circuits in flight.
    pub circuits: u32,
    /// Simulated slots.
    pub slots: u64,
    /// Reference fabric wall time, milliseconds.
    pub reference_ms: f64,
    /// Slab fabric wall time, milliseconds.
    pub slab_ms: f64,
    /// `reference_ms / slab_ms`.
    pub speedup: f64,
    /// Cells delivered (identical for both fabrics by construction).
    pub delivered_cells: u64,
}

/// N2 — the fabric data-plane speedup: both implementations on the
/// 4-switch installation, 10k slots, at two circuit counts. Each side runs
/// five times interleaved; the fastest run counts (the usual
/// min-of-samples guard against scheduler noise).
pub fn n2_fabric_dataplane() -> (Vec<FabricPerf>, String) {
    let mut rows = Vec::new();
    for &circuits in &[64u32, 128] {
        let slots = 10_000u64;
        let scenario = Scenario::src_dense(circuits);
        let mut reference_ms = f64::MAX;
        let mut slab_ms = f64::MAX;
        let mut ref_delivered = 0;
        let mut slab_delivered = 0;
        for _ in 0..5 {
            let mut f = scenario.reference_fabric(7);
            let t = Instant::now();
            ref_delivered = run_reference(&mut f, &scenario, slots);
            reference_ms = reference_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let mut f = prepare_slab(&scenario, 7);
            let t = Instant::now();
            slab_delivered = run_slab(&mut f, &scenario, slots);
            slab_ms = slab_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        assert_eq!(
            slab_delivered, ref_delivered,
            "fabrics diverged at {circuits} circuits"
        );
        rows.push(FabricPerf {
            circuits,
            slots,
            reference_ms,
            slab_ms,
            speedup: reference_ms / slab_ms,
            delivered_cells: slab_delivered,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N2  fabric data plane: slab (interned VCs, pooled cells, calendar \
         agenda) vs map-based reference, 4 switches / 24 hosts"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>13} {:>10} {:>9} {:>11}",
        "circuits", "slots", "reference ms", "slab ms", "speedup", "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>13.1} {:>10.1} {:>8.1}x {:>11}",
            r.circuits, r.slots, r.reference_ms, r.slab_ms, r.speedup, r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical delivered-cell counts (the property tests additionally \
         check per-circuit stats and latency samples); the speedup is pure \
         data-structure work removed from the per-slot path"
    );
    (rows, out)
}

/// One tracing-overhead measurement: the identical slab workload with the
/// flight recorder off and on.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Best-effort circuits in flight.
    pub circuits: u32,
    /// Simulated slots.
    pub slots: u64,
    /// Untraced slab wall time, milliseconds (the tracer-disabled path —
    /// directly comparable to `slab_ms` in the N2 baseline rows).
    pub untraced_ms: f64,
    /// Wall time with the flight recorder + registry attached.
    pub traced_ms: f64,
    /// `traced_ms / untraced_ms`.
    pub overhead: f64,
    /// Trace events recorded during the traced run.
    pub events: u64,
    /// Cells delivered (identical for both runs by construction).
    pub delivered_cells: u64,
}

/// The most leaving the flight recorder on may cost on the N5 rows,
/// min-of-5 traced over min-of-5 untraced. Measured 1.1–1.3× since the
/// hot emitters moved to trace lanes (2.1–2.3× before); the margin is for
/// shared CI hosts.
pub const N5_MAX_OVERHEAD: f64 = 1.5;

/// N5 — what tracing costs: the N2 slab workload untraced vs with a
/// [`Tracer`] attached (flight recorder, registry counters, histogram,
/// 1-in-64 path sampling). Five interleaved runs each, fastest counts.
/// Delivered cells must match exactly — the recorder observes, never
/// steers — every repetition must record the same number of events, and
/// the overhead must stay under [`N5_MAX_OVERHEAD`]. The untraced leg *is*
/// the tracer-disabled path (`Option` gate not taken), so comparing it
/// against the N2 baseline shows the disabled cost is in the noise.
///
/// # Panics
///
/// Panics when any of the three claims fails.
pub fn n5_trace_overhead() -> (Vec<TraceOverhead>, String) {
    let mut rows = Vec::new();
    for &circuits in &[64u32, 128] {
        let slots = 10_000u64;
        let scenario = Scenario::src_dense(circuits);
        let mut untraced_ms = f64::MAX;
        let mut traced_ms = f64::MAX;
        let mut plain_delivered = 0;
        let mut traced_delivered = 0;
        let mut events = None;
        for _ in 0..5 {
            let mut f = prepare_slab(&scenario, 7);
            let t = Instant::now();
            plain_delivered = run_slab(&mut f, &scenario, slots);
            untraced_ms = untraced_ms.min(t.elapsed().as_secs_f64() * 1e3);

            let mut f = prepare_slab(&scenario, 7);
            let tracer = Tracer::new(TraceConfig {
                ring_capacity: 1 << 16,
                ..TraceConfig::default()
            });
            f.attach_tracer(tracer.clone());
            let t = Instant::now();
            traced_delivered = run_slab(&mut f, &scenario, slots);
            traced_ms = traced_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let seen = tracer.events_seen();
            assert_eq!(
                *events.get_or_insert(seen),
                seen,
                "repetitions recorded different event counts at {circuits} circuits"
            );
        }
        assert_eq!(
            traced_delivered, plain_delivered,
            "tracing changed delivery at {circuits} circuits"
        );
        let overhead = traced_ms / untraced_ms;
        assert!(
            overhead <= N5_MAX_OVERHEAD,
            "flight recorder costs {overhead:.2}x at {circuits} circuits \
             (budget {N5_MAX_OVERHEAD}x): {traced_ms:.1} ms traced vs {untraced_ms:.1} ms"
        );
        rows.push(TraceOverhead {
            circuits,
            slots,
            untraced_ms,
            traced_ms,
            overhead,
            events: events.expect("five repetitions ran"),
            delivered_cells: traced_delivered,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N5  tracing overhead: the N2 slab workload untraced vs with the \
         flight recorder, registry, and 1-in-64 path sampling attached"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>12} {:>10} {:>9} {:>10} {:>11}",
        "circuits", "slots", "untraced ms", "traced ms", "overhead", "events", "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>12.1} {:>10.1} {:>8.2}x {:>10} {:>11}",
            r.circuits,
            r.slots,
            r.untraced_ms,
            r.traced_ms,
            r.overhead,
            r.events,
            r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical delivered-cell counts traced and untraced, identical event \
         counts across repetitions, overhead within the {N5_MAX_OVERHEAD}x gate; the \
         untraced leg is the tracer-disabled path, so its delta against the N2 \
         slab baseline is the disabled cost (an untaken Option branch)"
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_and_reference_deliver_identically() {
        // Small instance: the full-size wall-clock rows are exercised by
        // the experiments binary in release mode.
        let scenario = Scenario::src_dense(16);
        for seed in [1u64, 7, 23] {
            let mut slab = prepare_slab(&scenario, seed);
            let mut reference = scenario.reference_fabric(seed);
            assert_eq!(
                run_slab(&mut slab, &scenario, 2_000),
                run_reference(&mut reference, &scenario, 2_000)
            );
        }
    }

    #[test]
    fn tracing_does_not_change_delivery() {
        let scenario = Scenario::src_dense(16);
        let mut plain = prepare_slab(&scenario, 7);
        let mut traced = prepare_slab(&scenario, 7);
        let tracer = Tracer::new(TraceConfig::default());
        traced.attach_tracer(tracer.clone());
        assert_eq!(
            run_slab(&mut traced, &scenario, 2_000),
            run_slab(&mut plain, &scenario, 2_000)
        );
        assert!(tracer.events_seen() > 0, "recorder saw nothing");
    }

    #[test]
    fn scenario_moves_traffic() {
        let scenario = Scenario::src_dense(64);
        let mut f = prepare_slab(&scenario, 7);
        assert!(
            run_slab(&mut f, &scenario, 10_000) > 30_000,
            "scenario must keep the fabric under load"
        );
    }
}
