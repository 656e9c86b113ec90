//! The link monitor (§2).
//!
//! "Switch software monitors the links by regularly pinging each neighbor
//! and checking that a correct acknowledgment is received. If this test
//! fails too frequently, a working link is changed to the dead state.
//! Likewise, a dead link's state makes the transition to working if its
//! error rate is acceptably low for a long enough time."
//!
//! The monitor is a pure state machine over ping outcomes; the skeptic
//! gates the dead → working transition.

use crate::skeptic::{Skeptic, SkepticConfig};
use an2_sim::{SimDuration, SimTime};

/// The monitor's verdict on a link — the clean abstraction handed to the
/// reconfiguration algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// The link may carry traffic.
    Working,
    /// The link is declared dead.
    Dead,
}

/// A state transition that must trigger a reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The new verdict.
    pub to: LinkVerdict,
    /// When the monitor decided.
    pub at: SimTime,
}

/// A quarantine boundary: the skeptic began (or stopped) holding back a
/// link whose pings look healthy again. While quarantined, every recovery
/// the raw thresholds would have granted is *suppressed* — the damping
/// that prevents a flapping link from triggering a reconfiguration storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEdge {
    /// `true` when the link entered quarantine, `false` when it left
    /// (either readmitted, or its pings started failing again).
    pub entered: bool,
    /// The skeptic's escalation level at the edge.
    pub level: u32,
    /// When the edge occurred.
    pub at: SimTime,
}

/// Tunables for a [`LinkMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Interval between pings.
    pub ping_interval: SimDuration,
    /// Consecutive ping failures that kill a working link.
    pub fail_threshold: u32,
    /// Consecutive ping successes required (in addition to the skeptic's
    /// wait) before a dead link may recover.
    pub recover_threshold: u32,
    /// Skeptic parameters.
    pub skeptic: SkepticConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            ping_interval: SimDuration::from_millis(10),
            fail_threshold: 3,
            recover_threshold: 10,
            skeptic: SkepticConfig::default(),
        }
    }
}

/// Per-link monitor state machine. Feed it ping outcomes; it reports
/// verdict transitions.
#[derive(Debug, Clone)]
pub struct LinkMonitor {
    cfg: MonitorConfig,
    verdict: LinkVerdict,
    consecutive_failures: u32,
    consecutive_successes: u32,
    skeptic: Skeptic,
    /// The link looks healthy (success streak reached the threshold) but
    /// the skeptic is still holding it down.
    quarantined: bool,
    /// Recoveries the thresholds would have granted but the skeptic
    /// suppressed — each one is a reconfiguration that did not happen.
    suppressed_recoveries: u64,
    /// The most recent quarantine boundary, drained by the caller.
    pending_edge: Option<QuarantineEdge>,
}

impl LinkMonitor {
    /// A monitor for a link that starts in the working state.
    pub fn new(cfg: MonitorConfig) -> Self {
        LinkMonitor {
            skeptic: Skeptic::new(cfg.skeptic),
            cfg,
            verdict: LinkVerdict::Working,
            consecutive_failures: 0,
            consecutive_successes: 0,
            quarantined: false,
            suppressed_recoveries: 0,
            pending_edge: None,
        }
    }

    /// The current verdict.
    pub fn verdict(&self) -> LinkVerdict {
        self.verdict
    }

    /// The skeptic's current escalation level (for diagnostics).
    pub fn skeptic_level(&self) -> u32 {
        self.skeptic.level()
    }

    /// Whether the link is currently quarantined: dead by verdict, healthy
    /// by pings, held down by the skeptic.
    pub fn in_quarantine(&self) -> bool {
        self.quarantined
    }

    /// Total recoveries the skeptic has suppressed so far.
    pub fn suppressed_recoveries(&self) -> u64 {
        self.suppressed_recoveries
    }

    /// Takes the most recent quarantine boundary, if one occurred since the
    /// last call — the caller turns these into trace events and log
    /// entries.
    pub fn take_quarantine_edge(&mut self) -> Option<QuarantineEdge> {
        self.pending_edge.take()
    }

    /// Processes one ping outcome at `now`. Returns a [`Transition`] when
    /// the verdict changed (the caller triggers a reconfiguration).
    ///
    /// Quarantine boundaries crossed along the way are reported through
    /// [`LinkMonitor::take_quarantine_edge`].
    pub fn on_ping(&mut self, ok: bool, now: SimTime) -> Option<Transition> {
        self.skeptic.decay(now);
        if ok {
            self.consecutive_failures = 0;
            self.consecutive_successes += 1;
        } else {
            self.consecutive_successes = 0;
            self.consecutive_failures += 1;
        }
        match self.verdict {
            LinkVerdict::Working => {
                if self.consecutive_failures >= self.cfg.fail_threshold {
                    self.verdict = LinkVerdict::Dead;
                    self.skeptic.on_failure(now);
                    Some(Transition {
                        to: LinkVerdict::Dead,
                        at: now,
                    })
                } else {
                    None
                }
            }
            LinkVerdict::Dead => {
                if self.consecutive_successes >= self.cfg.recover_threshold {
                    if self.skeptic.may_recover(now) {
                        self.verdict = LinkVerdict::Working;
                        self.skeptic.on_recovery(now);
                        if self.quarantined {
                            self.quarantined = false;
                            self.pending_edge = Some(QuarantineEdge {
                                entered: false,
                                level: self.skeptic.level(),
                                at: now,
                            });
                        }
                        Some(Transition {
                            to: LinkVerdict::Working,
                            at: now,
                        })
                    } else {
                        // Healthy pings, but the skeptic's holddown has not
                        // elapsed: the recovery (and the reconfiguration it
                        // would trigger) is suppressed.
                        self.suppressed_recoveries += 1;
                        if !self.quarantined {
                            self.quarantined = true;
                            self.pending_edge = Some(QuarantineEdge {
                                entered: true,
                                level: self.skeptic.level(),
                                at: now,
                            });
                        }
                        None
                    }
                } else {
                    if self.quarantined && !ok {
                        // The link was being held for good behaviour but
                        // genuinely failed again: quarantine is moot.
                        self.quarantined = false;
                        self.pending_edge = Some(QuarantineEdge {
                            entered: false,
                            level: self.skeptic.level(),
                            at: now,
                        });
                    }
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            ping_interval: SimDuration::from_millis(10),
            fail_threshold: 3,
            recover_threshold: 5,
            skeptic: SkepticConfig {
                base_wait: SimDuration::from_millis(100),
                max_level: 8,
                decay_after: SimDuration::from_secs(60),
            },
        }
    }

    fn tick(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(10) * n
    }

    #[test]
    fn healthy_link_stays_working() {
        let mut m = LinkMonitor::new(cfg());
        for k in 0..100 {
            assert_eq!(m.on_ping(true, tick(k)), None);
        }
        assert_eq!(m.verdict(), LinkVerdict::Working);
    }

    #[test]
    fn sporadic_failures_tolerated() {
        // Single misses never reach the threshold of 3 consecutive.
        let mut m = LinkMonitor::new(cfg());
        for k in 0..300 {
            let ok = k % 3 != 0; // one miss in three, never consecutive
            assert_eq!(m.on_ping(ok, tick(k)), None);
        }
        assert_eq!(m.verdict(), LinkVerdict::Working);
    }

    #[test]
    fn consecutive_failures_kill_link() {
        let mut m = LinkMonitor::new(cfg());
        assert_eq!(m.on_ping(false, tick(0)), None);
        assert_eq!(m.on_ping(false, tick(1)), None);
        let t = m.on_ping(false, tick(2)).expect("third failure kills");
        assert_eq!(t.to, LinkVerdict::Dead);
        assert_eq!(m.verdict(), LinkVerdict::Dead);
    }

    #[test]
    fn recovery_needs_successes_and_skeptic_wait() {
        let mut m = LinkMonitor::new(cfg());
        for k in 0..3 {
            m.on_ping(false, tick(k));
        }
        assert_eq!(m.verdict(), LinkVerdict::Dead);
        // 5 successes arrive quickly, but the skeptic's 100 ms wait (10
        // ticks) isn't over: no recovery at tick 7.
        for k in 3..8 {
            assert_eq!(m.on_ping(true, tick(k)), None, "tick {k}");
        }
        // Keep pinging; once 100 ms since the failure have passed, recover.
        let mut recovered_at = None;
        for k in 8..30 {
            if let Some(t) = m.on_ping(true, tick(k)) {
                recovered_at = Some((k, t));
                break;
            }
        }
        let (k, t) = recovered_at.expect("link eventually recovers");
        assert_eq!(t.to, LinkVerdict::Working);
        assert!(tick(k).duration_since(tick(2)) >= SimDuration::from_millis(100));
    }

    #[test]
    fn flapping_produces_fewer_transitions_over_time() {
        // Worst-case flapper: the link fails whenever it is declared
        // working, and behaves whenever it is declared dead. The skeptic
        // doubles each dead period, so transitions thin out: the second
        // half of a long run sees far fewer than the first.
        let mut skcfg = cfg();
        skcfg.skeptic.max_level = 16;
        let mut m = LinkMonitor::new(skcfg);
        let half = 40_000u64;
        let mut transitions_first = 0;
        let mut transitions_second = 0;
        for k in 0..(2 * half) {
            let ok = m.verdict() == LinkVerdict::Dead;
            if m.on_ping(ok, tick(k)).is_some() {
                if k < half {
                    transitions_first += 1;
                } else {
                    transitions_second += 1;
                }
            }
        }
        assert!(
            transitions_second * 2 < transitions_first,
            "damping failed: {transitions_first} then {transitions_second}"
        );
        assert!(m.skeptic_level() > 0);
    }

    #[test]
    fn quarantine_edges_bracket_suppressed_recoveries() {
        let mut m = LinkMonitor::new(cfg());
        // Kill the link (skeptic arms at level 0: 100 ms holddown).
        for k in 0..3 {
            m.on_ping(false, tick(k));
        }
        assert!(
            m.take_quarantine_edge().is_none(),
            "death is not quarantine"
        );
        // 5 quick successes: thresholds satisfied at tick 7, but only
        // 50 ms since the failure — quarantine begins.
        for k in 3..8 {
            m.on_ping(true, tick(k));
        }
        let edge = m.take_quarantine_edge().expect("entered quarantine");
        assert!(edge.entered);
        assert!(m.in_quarantine());
        assert_eq!(m.verdict(), LinkVerdict::Dead);
        assert!(m.suppressed_recoveries() >= 1);
        // Keep succeeding: once the 100 ms holddown elapses the link is
        // readmitted and the quarantine exit edge is reported.
        let mut recovered = false;
        for k in 8..30 {
            if m.on_ping(true, tick(k)).is_some() {
                recovered = true;
                break;
            }
        }
        assert!(recovered);
        let exit = m.take_quarantine_edge().expect("left quarantine");
        assert!(!exit.entered);
        assert!(!m.in_quarantine());
    }

    #[test]
    fn renewed_failure_cancels_quarantine() {
        let mut m = LinkMonitor::new(cfg());
        for k in 0..3 {
            m.on_ping(false, tick(k));
        }
        for k in 3..8 {
            m.on_ping(true, tick(k));
        }
        assert!(m.take_quarantine_edge().expect("entered").entered);
        // The link dies for real again: quarantine is moot, edge reported.
        m.on_ping(false, tick(8));
        let exit = m.take_quarantine_edge().expect("cancelled");
        assert!(!exit.entered);
        assert!(!m.in_quarantine());
        assert_eq!(m.verdict(), LinkVerdict::Dead);
    }

    #[test]
    fn failures_then_sustained_success_transition_twice() {
        let mut m = LinkMonitor::new(cfg());
        // 3 failures (1 transition to dead), then sustained success long
        // enough for the skeptic: one transition back.
        let outcomes = std::iter::repeat_n(false, 3).chain(std::iter::repeat_n(true, 50));
        let mut now = SimTime::ZERO;
        let mut n = 0;
        for ok in outcomes {
            now += SimDuration::from_millis(10);
            n += u32::from(m.on_ping(ok, now).is_some());
        }
        assert_eq!(n, 2);
        assert_eq!(m.verdict(), LinkVerdict::Working);
    }
}
