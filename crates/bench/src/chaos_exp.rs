//! N8 — adversarial chaos campaigns and the live-network skeptic.
//!
//! Four legs, all through `an2-chaos` against the real [`an2::Network`]:
//!
//! 1. **Grid**: a fixed-seed campaign grid across all four scenarios
//!    (flap storms, mid-reconfiguration crashes, correlated multi-link
//!    failures, Gilbert–Elliott loss under churn) — every cell must
//!    survive the strengthened oracle with zero violations.
//! 2. **Storm**: the same flap storm with the skeptic on (a holddown long
//!    enough to straddle the storm) and off. The paper's §2 claim is that
//!    the skeptic damps reconfiguration storms; we require at least **5×
//!    fewer** verdict transitions (each one triggers a reconfiguration)
//!    with the skeptic on.
//! 3. **Churn soak**: a long sustained-degradation run (bursty loss on
//!    every link plus background flapping) that must deliver at least 90%
//!    of packets on circuits that survive to the end.
//! 4. **Replay**: the soak schedule rerun from scratch must digest
//!    byte-identically.
//!
//! The skeptic runs at `CampaignSpec`'s defaults (20 ms base wait, level
//! cap 3) in the grid and soak cells and at a 400 ms flat holddown in the
//! storm-on cell.

use crate::pct;
use an2_chaos::{generate, replay_twice, run_schedule, CampaignSpec, RunReport, Scenario};

/// One campaign cell's headline numbers.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Cell name (`scenario@seed` or a named leg).
    pub cell: String,
    /// Oracle violations that survived the run (must be 0).
    pub violations: u64,
    /// Delivered / sent packets across circuits that survived.
    pub delivery: f64,
    /// Reconfiguration epochs opened.
    pub epochs: u64,
    /// Link verdict transitions (each triggers a reconfiguration).
    pub transitions: u64,
    /// Times a link entered skeptic quarantine.
    pub quarantines: u64,
    /// Recoveries the skeptic suppressed.
    pub suppressed: u64,
    /// Circuits torn down by faults vs. still open at the end.
    pub broken: u64,
    /// Circuits still open at the end.
    pub surviving: u64,
}

fn row(cell: String, r: &RunReport) -> CampaignRow {
    CampaignRow {
        cell,
        violations: r.violations.len() as u64,
        delivery: r.delivery_ratio,
        epochs: r.epochs,
        transitions: r.verdict_transitions,
        quarantines: r.quarantine_entries,
        suppressed: r.suppressed_recoveries,
        broken: r.broken_circuits,
        surviving: r.surviving_circuits,
    }
}

/// The storm spec shared by the skeptic-on and skeptic-off cells: two
/// backbone links, eight flaps each, with a run window long enough that no
/// flap is clipped — the contrast is entirely in the skeptic knobs.
fn storm_spec(base_wait_ms: u64, max_level: u32) -> CampaignSpec {
    let mut spec = CampaignSpec::defaults(
        "n8_storm",
        Scenario::FlapStorm {
            links: 2,
            flaps_per_link: 8,
        },
    );
    spec.run_slots = 420_000;
    spec.skeptic_base_wait_ms = base_wait_ms;
    spec.skeptic_max_level = max_level;
    spec
}

/// Runs N8.
pub fn n8_chaos_campaigns() -> (Vec<CampaignRow>, String) {
    let mut rows = Vec::new();
    let mut text = String::new();

    // Leg 1: the campaign grid.
    let scenarios = [
        Scenario::FlapStorm {
            links: 2,
            flaps_per_link: 3,
        },
        Scenario::MidReconfigCrash {
            flaps: 1,
            crashes: 1,
        },
        Scenario::CorrelatedFailure {
            groups: 2,
            width: 2,
        },
        Scenario::ChurnLoss {
            flapping_links: 2,
            flaps_per_link: 2,
        },
    ];
    for scenario in scenarios {
        for seed in [1u64, 2] {
            let spec = CampaignSpec::defaults(scenario.name(), scenario);
            let report = run_schedule(&generate(&spec, seed));
            assert!(
                report.violations.is_empty(),
                "{} seed={seed} violated the oracle: {:?}",
                spec.name,
                report.violations
            );
            rows.push(row(format!("{}@{seed}", spec.name), &report));
        }
    }

    // Leg 2: the storm, skeptic on vs. off. The on-cell's flat 400 ms
    // holddown (level cap 0) straddles the whole storm: the first death
    // freezes the verdict Dead until the flapping has stopped for good, so
    // each link contributes one death and one (delayed) recovery. Off, every
    // flap is a death plus a recovery.
    let on = run_schedule(&generate(&storm_spec(400, 0), 7));
    let off = run_schedule(&generate(&storm_spec(0, 0), 7));
    for (name, r) in [("storm_skeptic_on", &on), ("storm_skeptic_off", &off)] {
        assert!(
            r.violations.is_empty(),
            "{name} violated the oracle: {:?}",
            r.violations
        );
        rows.push(row(name.to_string(), r));
    }
    let damping = off.verdict_transitions as f64 / on.verdict_transitions.max(1) as f64;
    assert!(
        off.verdict_transitions >= 5 * on.verdict_transitions,
        "skeptic damped the storm only {damping:.1}x ({} vs {} transitions)",
        off.verdict_transitions,
        on.verdict_transitions,
    );
    assert!(
        on.suppressed_recoveries > 0 && on.quarantine_entries > 0,
        "the storm never exercised quarantine"
    );

    // Leg 3: the sustained churn soak — double-length Gilbert–Elliott loss
    // on every link with background flapping, ≥90% delivery on survivors.
    let mut soak_spec = CampaignSpec::defaults(
        "n8_churn_soak",
        Scenario::ChurnLoss {
            flapping_links: 2,
            flaps_per_link: 3,
        },
    );
    soak_spec.run_slots = 480_000;
    let soak_schedule = generate(&soak_spec, 11);
    let soak = run_schedule(&soak_schedule);
    assert!(
        soak.violations.is_empty(),
        "churn soak violated the oracle: {:?}",
        soak.violations
    );
    assert!(
        soak.delivery_ratio >= soak_spec.delivery_floor,
        "churn soak delivered only {} (floor {})",
        pct(soak.delivery_ratio),
        pct(soak_spec.delivery_floor)
    );
    rows.push(row("churn_soak".to_string(), &soak));

    // Leg 4: the replay contract on the soak schedule.
    let (a, b) = replay_twice(&soak_schedule);
    let replay_ok = a.digest == b.digest && a.violations == b.violations;
    assert!(replay_ok, "soak replay diverged");

    text.push_str(&format!(
        "{:<22} {:>5} {:>9} {:>7} {:>6} {:>6} {:>6} {:>7}\n",
        "cell", "viol", "delivery", "epochs", "trans", "quar", "suppr", "broken"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<22} {:>5} {:>9} {:>7} {:>6} {:>6} {:>6} {:>3}/{}\n",
            r.cell,
            r.violations,
            pct(r.delivery),
            r.epochs,
            r.transitions,
            r.quarantines,
            r.suppressed,
            r.broken,
            r.broken + r.surviving,
        ));
    }
    text.push_str(&format!(
        "\nstorm damping: {} transitions without the skeptic vs {} with it — {damping:.1}x fewer\n",
        off.verdict_transitions, on.verdict_transitions,
    ));
    text.push_str(&format!(
        "churn soak: {} delivered on surviving paths (floor {}), {} suppressed recoveries\n",
        pct(soak.delivery_ratio),
        pct(soak_spec.delivery_floor),
        soak.suppressed_recoveries,
    ));
    text.push_str(&format!(
        "replay: byte-identical = {replay_ok} (digest {:#018x})\n",
        a.digest
    ));
    (rows, text)
}
