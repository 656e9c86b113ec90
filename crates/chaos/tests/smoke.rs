//! Bounded chaos smoke: a fixed-seed campaign grid across all four
//! scenarios, two topology families and a skeptic-off variant — every
//! cell must survive the strengthened oracle with zero violations under
//! each of the three control protocols — plus
//! the shrinking pipeline end to end and the replay contract.

use an2::ProtocolKind;
use an2_chaos::oracle::run_schedule_with;
use an2_chaos::{
    generate, load_repro, run_cell, run_schedule, save_repro, shrink, CampaignSpec, Scenario,
    TopologyKind,
};
use std::path::PathBuf;

fn grid() -> Vec<(CampaignSpec, u64)> {
    let scenarios = [
        (
            "flap_storm",
            Scenario::FlapStorm {
                links: 2,
                flaps_per_link: 3,
            },
        ),
        (
            "mid_reconfig_crash",
            Scenario::MidReconfigCrash {
                flaps: 1,
                crashes: 1,
            },
        ),
        (
            "correlated",
            Scenario::CorrelatedFailure {
                groups: 2,
                width: 2,
            },
        ),
        (
            "churn_loss",
            Scenario::ChurnLoss {
                flapping_links: 2,
                flaps_per_link: 2,
            },
        ),
    ];
    let mut cells = Vec::new();
    for (name, scenario) in scenarios {
        for seed in 1..=5u64 {
            let mut spec = CampaignSpec::defaults(name, scenario);
            // Seed 4 swaps in the ring topology; seed 5 turns the skeptic
            // off entirely — the oracle must hold either way.
            if seed == 4 {
                spec.topology = TopologyKind::Ring {
                    switches: 5,
                    hosts: 10,
                };
            }
            if seed == 5 {
                spec.skeptic_base_wait_ms = 0;
                spec.skeptic_max_level = 0;
            }
            cells.push((spec, seed));
        }
    }
    // A handful of hotter cells: wider storms and bigger bursts.
    cells.push((
        CampaignSpec::defaults(
            "flap_storm_wide",
            Scenario::FlapStorm {
                links: 3,
                flaps_per_link: 4,
            },
        ),
        9,
    ));
    cells.push((
        CampaignSpec::defaults(
            "correlated_wide",
            Scenario::CorrelatedFailure {
                groups: 2,
                width: 3,
            },
        ),
        9,
    ));
    cells.push((
        CampaignSpec::defaults(
            "crash_double",
            Scenario::MidReconfigCrash {
                flaps: 2,
                crashes: 1,
            },
        ),
        9,
    ));
    let mut big = CampaignSpec::defaults(
        "flap_storm_6x6",
        Scenario::FlapStorm {
            links: 2,
            flaps_per_link: 3,
        },
    );
    big.topology = TopologyKind::SrcInstallation {
        switches: 6,
        hosts: 12,
    };
    cells.push((big, 9));
    let mut ring_churn = CampaignSpec::defaults(
        "churn_ring",
        Scenario::ChurnLoss {
            flapping_links: 1,
            flaps_per_link: 2,
        },
    );
    ring_churn.topology = TopologyKind::Ring {
        switches: 5,
        hosts: 10,
    };
    cells.push((ring_churn, 9));
    cells
}

/// The campaign grid: 25 fixed-seed schedules under each of the three
/// control protocols, zero surviving violations.
#[test]
fn campaign_grid_survives_with_zero_violations() {
    let cells = grid();
    assert_eq!(cells.len(), 25, "the smoke grid is pinned at 25 schedules");
    let mut failures = Vec::new();
    for (spec, seed) in &cells {
        let schedule = generate(spec, *seed);
        for kind in [
            ProtocolKind::UpDown,
            ProtocolKind::SpanningTree,
            ProtocolKind::PathVector,
        ] {
            let report = run_schedule_with(&schedule, kind);
            if !report.violations.is_empty() {
                failures.push(format!(
                    "{} seed={} under {}: {:?}",
                    spec.name,
                    seed,
                    kind.name(),
                    report.violations
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "campaign cells violated the oracle:\n{}",
        failures.join("\n")
    );
}

/// The replay contract: the same schedule digests byte-identically.
#[test]
fn campaign_replay_is_byte_identical() {
    for (spec, seed) in [
        (
            CampaignSpec::defaults(
                "replay_storm",
                Scenario::FlapStorm {
                    links: 2,
                    flaps_per_link: 3,
                },
            ),
            2,
        ),
        (
            CampaignSpec::defaults(
                "replay_churn",
                Scenario::ChurnLoss {
                    flapping_links: 2,
                    flaps_per_link: 2,
                },
            ),
            2,
        ),
    ] {
        let s = generate(&spec, seed);
        let (a, b) = an2_chaos::replay_twice(&s);
        assert_eq!(a.digest, b.digest, "{}: replay diverged", spec.name);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.sent_packets, b.sent_packets);
        assert_eq!(a.delivered_packets, b.delivered_packets);
    }
}

/// The full pipeline on an induced failure: an artificially strict
/// delivery floor makes the churn cell violate; the shrinker must produce
/// a smaller schedule that still fails, and the persisted repro must
/// round-trip through the corpus format and still fail after reload.
#[test]
fn induced_violation_shrinks_to_minimal_persisted_repro() {
    let mut spec = CampaignSpec::defaults(
        "strict_floor",
        Scenario::ChurnLoss {
            flapping_links: 2,
            flaps_per_link: 2,
        },
    );
    spec.delivery_floor = 0.999; // bursty loss alone must break this
    let dir = std::env::temp_dir().join(format!("an2_chaos_shrink_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run_cell(&spec, 3, 40, Some(&dir));
    assert!(
        !outcome.report.violations.is_empty(),
        "the strict floor must trip"
    );
    let shrunk = outcome.shrunk.expect("violating cell must shrink");
    assert!(!shrunk.violations.is_empty());
    let orig_events = outcome.schedule.fault.flaps.len() + outcome.schedule.fault.crashes.len();
    let min_events = shrunk.schedule.fault.flaps.len() + shrunk.schedule.fault.crashes.len();
    assert!(
        min_events < orig_events || shrunk.schedule.run_slots < outcome.schedule.run_slots,
        "shrinking made no progress"
    );
    // The repro file exists, reloads, and still fails.
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(files.len(), 1, "exactly one repro persisted");
    let reloaded = load_repro(&files[0]).unwrap();
    let replayed = run_schedule(&reloaded);
    assert!(
        !replayed.violations.is_empty(),
        "reloaded repro no longer fails"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A surviving cell must not write anything into the corpus.
#[test]
fn surviving_cell_persists_nothing() {
    let spec = CampaignSpec::defaults(
        "quiet",
        Scenario::CorrelatedFailure {
            groups: 1,
            width: 2,
        },
    );
    let dir = std::env::temp_dir().join(format!("an2_chaos_quiet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run_cell(&spec, 1, 10, Some(&dir));
    assert!(outcome.report.violations.is_empty());
    assert!(outcome.shrunk.is_none());
    assert!(!dir.exists(), "no corpus dir should appear for a clean run");
}

/// Corpus save/load round-trips the exact schedule used by the oracle.
#[test]
fn corpus_round_trip_preserves_replay_digest() {
    let spec = CampaignSpec::defaults(
        "digest_pin",
        Scenario::FlapStorm {
            links: 1,
            flaps_per_link: 2,
        },
    );
    let s = generate(&spec, 7);
    let dir = std::env::temp_dir().join(format!("an2_chaos_digest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = save_repro(&dir, &s, &[]).unwrap();
    let back = load_repro(&path).unwrap();
    let direct = run_schedule(&s);
    let loaded = run_schedule(&back);
    assert_eq!(
        direct.digest, loaded.digest,
        "serialization changed the run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shrinking respects its run budget.
#[test]
fn shrink_budget_is_respected() {
    let mut spec = CampaignSpec::defaults(
        "budget",
        Scenario::ChurnLoss {
            flapping_links: 2,
            flaps_per_link: 2,
        },
    );
    spec.delivery_floor = 0.999;
    let s = generate(&spec, 3);
    let res = shrink(&s, 5).expect("fails");
    assert!(res.runs <= 5, "budget exceeded: {} runs", res.runs);
}
