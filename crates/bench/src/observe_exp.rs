//! N10 — the telemetry observatory scored against ground truth.
//!
//! The paper's health machinery (monitors, the Skeptic, the 200 ms
//! reconfiguration budget) is all *detection* — and because our chaos
//! schedules are deterministic `(spec, seed)` expansions, we know the
//! exact slot every fault was injected. That makes a measurement real
//! networks can never make: per-detector **time-to-detect** against exact
//! labels, and a **false-positive rate** against a fault-free control leg
//! that is fault-free by construction.
//!
//! Three legs per grid point, all through `an2-chaos` against the real
//! [`an2::Network`]:
//!
//! 1. **Plain**: the schedule runs unobserved — its oracle digest is the
//!    baseline.
//! 2. **Observed**: the same schedule with the observatory scraping 1 ms
//!    interval snapshots and the SLO watchdog live. The digest must be
//!    **byte-identical** to the plain leg (scraping is read-only), every
//!    injected link failure must be caught by at least one detector, and
//!    the pooled median time-to-detect must beat the paper's 200 ms
//!    reconfiguration budget.
//! 3. **Control**: a fault-free twin of the schedule (same topology,
//!    workload and horizon; no flaps, crashes or loss) runs observed —
//!    any raised alert on it is a false positive, and there must be none.

use an2::ProtocolKind;
use an2_cells::LinkRate;
use an2_chaos::gen::slots_per_ms;
use an2_chaos::{generate, run_schedule, run_schedule_observed, CampaignSpec, Scenario};
use an2_trace::{score_detections, DetectorKind, ObservatoryConfig};

/// One grid point's detection scorecard.
#[derive(Debug, Clone)]
pub struct ObserveRow {
    /// Cell name (`scenario@seed`).
    pub cell: String,
    /// Ground-truth link failures injected (flap events).
    pub labels: u64,
    /// Labels caught by at least one detector.
    pub detected: u64,
    /// Median time-to-detect across this point's labels, ms virtual time.
    pub median_ttd_ms: f64,
    /// Worst time-to-detect, ms virtual time.
    pub max_ttd_ms: f64,
    /// Raised alerts attributable to no label window (faulted leg).
    pub false_positives: u64,
    /// Total raised alerts on the faulted leg.
    pub raised_alerts: u64,
    /// Raised alerts on the fault-free control leg (must be 0).
    pub control_alerts: u64,
    /// Observed digest == plain digest.
    pub digest_match: bool,
    /// Interval snapshots scraped on the observed leg.
    pub intervals: u64,
}

/// Per-detector totals pooled across the grid.
#[derive(Debug, Clone)]
pub struct DetectorRow {
    /// Detector name.
    pub detector: String,
    /// Raised alerts across all faulted legs.
    pub raised: u64,
    /// Labels this detector caught (alone or alongside others).
    pub detections: u64,
    /// Raised alerts outside every label window.
    pub false_positives: u64,
}

/// Runs N10: the observatory grid with ground-truth scoring.
pub fn n10_observatory() -> (Vec<ObserveRow>, Vec<DetectorRow>, String) {
    let slot_ns = LinkRate::Mbps622.slot_duration().as_nanos().max(1);
    let ping = slots_per_ms();
    // Attribution window past recovery: the monitor's readmission streak,
    // the worst skeptic holddown (20 ms · 2³ at the defaults), and the
    // reconfiguration that follows. Alerts fired while the system is
    // still digesting a failure stay attributable to it.
    let clear_margin = 6 * ping + 160 * ping + 90_000;

    let grid = [
        (
            Scenario::FlapStorm {
                links: 2,
                flaps_per_link: 3,
            },
            vec![1u64, 2],
        ),
        (
            Scenario::CorrelatedFailure {
                groups: 2,
                width: 2,
            },
            vec![1u64, 2],
        ),
    ];

    let mut rows = Vec::new();
    let mut pooled_ttd: Vec<f64> = Vec::new();
    let mut per_detector: Vec<DetectorRow> = DetectorKind::ALL
        .iter()
        .map(|d| DetectorRow {
            detector: d.name().to_string(),
            raised: 0,
            detections: 0,
            false_positives: 0,
        })
        .collect();

    for (scenario, seeds) in grid {
        for &seed in &seeds {
            let spec = CampaignSpec::defaults(scenario.name(), scenario);
            let sched = generate(&spec, seed);
            let cell = format!("{}@{seed}", spec.name);

            // Leg 1: plain.
            let plain = run_schedule(&sched);
            assert!(
                plain.violations.is_empty(),
                "{cell} plain leg violated the oracle: {:?}",
                plain.violations
            );

            // Leg 2: observed — byte-identical digest, every label caught.
            let (observed, tracer) =
                run_schedule_observed(&sched, ProtocolKind::UpDown, ObservatoryConfig::default());
            assert_eq!(
                plain.digest, observed.digest,
                "{cell}: scrape-enabled run diverged from scrape-disabled"
            );
            let labels = sched.fault_labels(clear_margin);
            let health = tracer.health_events();
            let score = score_detections(&health, &labels, slot_ns, None);
            assert!(
                score.all_detected(),
                "{cell}: only {}/{} injected link failures detected (ttd {:?})",
                score.detected,
                score.labels,
                score.ttd_ms
            );
            pooled_ttd.extend_from_slice(&score.ttd_ms);
            for (d, row) in DetectorKind::ALL.iter().zip(per_detector.iter_mut()) {
                let ds = score_detections(&health, &labels, slot_ns, Some(*d));
                row.raised += ds.raised_alerts as u64;
                row.detections += ds.detected as u64;
                row.false_positives += ds.false_positives as u64;
            }

            // Leg 3: the fault-free control — zero false positives.
            let twin = sched.fault_free_twin();
            let (control, control_tracer) =
                run_schedule_observed(&twin, ProtocolKind::UpDown, ObservatoryConfig::default());
            assert!(
                control.violations.is_empty(),
                "{cell} control leg violated the oracle: {:?}",
                control.violations
            );
            let control_alerts = control_tracer
                .health_events()
                .iter()
                .filter(|e| e.raised)
                .count() as u64;
            assert_eq!(
                control_alerts,
                0,
                "{cell}: watchdog raised on the fault-free control leg: {:?}",
                control_tracer
                    .health_events()
                    .iter()
                    .filter(|e| e.raised)
                    .collect::<Vec<_>>()
            );

            rows.push(ObserveRow {
                cell,
                labels: score.labels as u64,
                detected: score.detected as u64,
                median_ttd_ms: score.median_ttd_ms().unwrap_or(0.0),
                max_ttd_ms: score.max_ttd_ms().unwrap_or(0.0),
                false_positives: score.false_positives as u64,
                raised_alerts: score.raised_alerts as u64,
                control_alerts,
                digest_match: plain.digest == observed.digest,
                intervals: tracer.intervals_seen(),
            });
        }
    }

    // The paper's reconfiguration budget, applied to detection: the pooled
    // median time-to-detect must come in under 200 ms of virtual time.
    pooled_ttd.sort_by(|a, b| a.total_cmp(b));
    let pooled_median = pooled_ttd[pooled_ttd.len() / 2];
    assert!(
        pooled_median < 200.0,
        "median time-to-detect {pooled_median:.2} ms blows the 200 ms budget"
    );

    let mut text = String::new();
    text.push_str(&format!(
        "{:<22} {:>6} {:>9} {:>9} {:>5} {:>6} {:>5} {:>6}\n",
        "cell", "found", "med_ttd", "max_ttd", "fp", "ctrl", "match", "ivals"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<22} {:>3}/{:<2} {:>7.2}ms {:>7.2}ms {:>5} {:>6} {:>5} {:>6}\n",
            r.cell,
            r.detected,
            r.labels,
            r.median_ttd_ms,
            r.max_ttd_ms,
            r.false_positives,
            r.control_alerts,
            r.digest_match,
            r.intervals,
        ));
    }
    text.push_str(&format!(
        "\npooled median time-to-detect: {pooled_median:.2} ms over {} link failures (budget 200 ms)\n",
        pooled_ttd.len()
    ));
    text.push_str(&format!(
        "{:<16} {:>7} {:>11} {:>6}\n",
        "detector", "raised", "detections", "fp"
    ));
    for d in &per_detector {
        text.push_str(&format!(
            "{:<16} {:>7} {:>11} {:>6}\n",
            d.detector, d.raised, d.detections, d.false_positives
        ));
    }
    text.push_str(
        "\nevery injected link failure detected; zero alerts on fault-free control legs;\n\
         observed digests byte-identical to unobserved (scraping is read-only)\n",
    );
    (rows, per_detector, text)
}
