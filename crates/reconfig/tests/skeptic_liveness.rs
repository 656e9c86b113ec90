//! Liveness properties for the skeptic (§2): damping must never turn into
//! permanent exile. Across random flap patterns and monitor/skeptic
//! configuration grids, a link that heals for good is always readmitted
//! within the computable worst-case bound (the capped holddown plus one
//! recovery streak), its escalation level decays back to zero under
//! sustained good behaviour, and quarantine — the state where pings look
//! healthy but the skeptic still says no — always ends.
//!
//! Each property walks an explicit grid of settings (ping interval
//! outermost, skeptic level innermost), then its sequence length, then a
//! seed. A flap pattern that breaks readmission is reported cut down to a
//! 1-minimal one by [`assert_sequence`].

use an2_reconfig::monitor::{LinkMonitor, LinkVerdict, MonitorConfig};
use an2_reconfig::skeptic::SkepticConfig;
use an2_sim::{assert_sequence, SimDuration, SimRng, SimTime};

/// Every combination of the given settings, ping interval outermost and
/// skeptic level innermost, each named for assertion messages. The
/// skeptic forgives a level after `decay_ms`, or by default after
/// `base_ms * 64 + 1 s`.
fn grid(
    ping_ms: &[u64],
    fail: &[u32],
    recover: &[u32],
    base_ms: &[u64],
    max_level: &[u32],
    decay_ms: Option<u64>,
) -> Vec<(String, MonitorConfig)> {
    let mut out = Vec::new();
    for &p in ping_ms {
        for &f in fail {
            for &r in recover {
                for &b in base_ms {
                    for &l in max_level {
                        let cfg = MonitorConfig {
                            ping_interval: SimDuration::from_millis(p),
                            fail_threshold: f,
                            recover_threshold: r,
                            skeptic: SkepticConfig {
                                base_wait: SimDuration::from_millis(b),
                                max_level: l,
                                decay_after: SimDuration::from_millis(
                                    decay_ms.unwrap_or(b * 64 + 1_000),
                                ),
                            },
                        };
                        let at =
                            format!("ping={p}ms fail={f} recover={r} base={b}ms max_level={l}");
                        out.push((at, cfg));
                    }
                }
            }
        }
    }
    out
}

/// Feeds the monitor a random alternating down/up burst pattern and
/// returns the simulated clock afterwards.
fn apply_bursts(m: &mut LinkMonitor, bursts: &[(u32, u32)], interval: SimDuration) -> SimTime {
    let mut now = SimTime::ZERO;
    for &(down, up) in bursts {
        for _ in 0..down {
            now += interval;
            m.on_ping(false, now);
        }
        for _ in 0..up {
            now += interval;
            m.on_ping(true, now);
        }
    }
    now
}

/// Worst-case clean pings until readmission from any reachable state: the
/// capped holddown, a full success streak, and discretization slack.
fn readmission_bound(cfg: &MonitorConfig) -> u64 {
    let worst_wait = cfg.skeptic.base_wait * (1u64 << cfg.skeptic.max_level.min(62));
    worst_wait.as_nanos() / cfg.ping_interval.as_nanos() + cfg.recover_threshold as u64 + 4
}

/// Flaps a link through `bursts` of (down, up) pings, then heals it for
/// good: it must be readmitted within the worst-case bound, and out of
/// quarantine.
fn readmitted_after(cfg: MonitorConfig, bursts: &[(u32, u32)]) -> Result<(), String> {
    let interval = cfg.ping_interval;
    let mut m = LinkMonitor::new(cfg);
    let mut now = apply_bursts(&mut m, bursts, interval);
    let bound = readmission_bound(&cfg);
    let mut readmitted = m.verdict() == LinkVerdict::Working;
    for _ in 0..bound {
        if readmitted {
            break;
        }
        now += interval;
        if let Some(t) = m.on_ping(true, now) {
            if t.to != LinkVerdict::Working {
                return Err(format!("a clean ping made the link {:?}", t.to));
            }
            readmitted = true;
        }
    }
    if !readmitted {
        return Err(format!(
            "link never readmitted within {bound} clean pings (skeptic level {})",
            m.skeptic_level()
        ));
    }
    if m.in_quarantine() {
        return Err("readmission must clear quarantine".to_string());
    }
    Ok(())
}

/// However a link flapped, once it heals for good it is readmitted
/// within the worst-case bound — and readmission clears quarantine.
#[test]
fn healed_link_is_always_readmitted() {
    for (at, cfg) in grid(&[1, 5, 14], &[1, 4], &[1, 9], &[1, 149], &[0, 3, 6], None) {
        for len in [1usize, 4, 11] {
            for seed in 0..2u64 {
                let mut rng = SimRng::new(seed);
                let bursts: Vec<(u32, u32)> = (0..len)
                    .map(|_| (1 + rng.gen_range(39) as u32, rng.gen_range(60) as u32))
                    .collect();
                assert_sequence(format!("{at} bursts={len} seed={seed}"), &bursts, |b| {
                    readmitted_after(cfg, b)
                });
            }
        }
    }
}

/// Quarantine is never permanent: from the moment the monitor reports
/// the link quarantined, continued clean operation ends it within the
/// worst-case bound (by readmission — a healthy link cannot be exiled).
#[test]
fn quarantine_always_ends() {
    for (at, cfg) in grid(&[1, 5, 14], &[1, 4], &[1, 7], &[20, 199], &[1, 6], None) {
        for repeat_deaths in [1u32, 4] {
            let at = format!("{at} deaths={repeat_deaths}");
            let interval = cfg.ping_interval;
            let mut m = LinkMonitor::new(cfg);
            let mut now = SimTime::ZERO;
            // Kill the link repeatedly to escalate the level, healing
            // between deaths just long enough to recover.
            for _ in 0..repeat_deaths {
                for _ in 0..cfg.fail_threshold {
                    now += interval;
                    m.on_ping(false, now);
                }
                let mut pings = 0;
                while m.verdict() == LinkVerdict::Dead && pings < readmission_bound(&cfg) {
                    now += interval;
                    m.on_ping(true, now);
                    pings += 1;
                }
            }
            // One final death, then immediate health: the success streak
            // beats the escalated holddown, so the monitor quarantines.
            for _ in 0..cfg.fail_threshold {
                now += interval;
                m.on_ping(false, now);
            }
            let mut quarantined = false;
            let mut pings_in_quarantine = 0u64;
            let bound = readmission_bound(&cfg);
            for _ in 0..bound {
                now += interval;
                m.on_ping(true, now);
                if m.in_quarantine() {
                    quarantined = true;
                    pings_in_quarantine += 1;
                    assert!(
                        pings_in_quarantine <= bound,
                        "{at}: quarantine outlived the worst-case holddown"
                    );
                } else if quarantined {
                    break; // entered and left: the property holds
                }
            }
            // Low levels with slow pings may readmit before the streak
            // completes — fine, but the link must then be working.
            assert!(
                !m.in_quarantine(),
                "{at}: still quarantined after {bound} clean pings (level {})",
                m.skeptic_level()
            );
            assert_eq!(m.verdict(), LinkVerdict::Working, "{at}");
        }
    }
}

/// Sustained good behaviour forgives: after readmission, the
/// escalation level decays all the way back to zero.
#[test]
fn level_decays_to_zero_under_sustained_good_behaviour() {
    let decay_ms = 200u64;
    for (at, cfg) in grid(
        &[1, 4, 9],
        &[1, 3],
        &[1, 5],
        &[1, 49],
        &[1, 5],
        Some(decay_ms),
    ) {
        for deaths in [2u32, 5] {
            let at = format!("{at} deaths={deaths}");
            let interval = cfg.ping_interval;
            let mut m = LinkMonitor::new(cfg);
            let mut now = SimTime::ZERO;
            for _ in 0..deaths {
                for _ in 0..cfg.fail_threshold {
                    now += interval;
                    m.on_ping(false, now);
                }
                let mut pings = 0;
                while m.verdict() == LinkVerdict::Dead && pings < readmission_bound(&cfg) {
                    now += interval;
                    m.on_ping(true, now);
                    pings += 1;
                }
                assert_eq!(m.verdict(), LinkVerdict::Working, "{at}");
            }
            let level = m.skeptic_level();
            assert!(level > 0, "{at}: repeated deaths must escalate");
            // One decay_after of clean recovered operation forgives one
            // level; allow a ping of discretization slack per period.
            let per_level = decay_ms * 1_000_000 / interval.as_nanos() + 2;
            for _ in 0..(level as u64 + 1) * per_level {
                now += interval;
                m.on_ping(true, now);
                if m.skeptic_level() == 0 {
                    break;
                }
            }
            assert_eq!(
                m.skeptic_level(),
                0,
                "{at}: level failed to decay under sustained good behaviour"
            );
            assert_eq!(m.verdict(), LinkVerdict::Working, "{at}");
        }
    }
}
