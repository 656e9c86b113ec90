//! The skeptic: damping for flapping links (§2).
//!
//! "Care must be taken that an intermittent fault does not cause a link to
//! make frequent transitions between the two states, for each transition
//! would trigger a reconfiguration [...] To prevent this, a skeptic module
//! in the software monitor retains a history of a link's failures and
//! recoveries. If failures recur, the skeptic requires an increasingly long
//! period of correct operation before the link is considered to be
//! recovered."
//!
//! The wait grows exponentially with the failure level and the level decays
//! after sustained good behaviour, following Rodeheffer & Schroeder's AN1
//! design.

use an2_sim::{SimDuration, SimTime};

/// Tunables for a [`Skeptic`].
#[derive(Debug, Clone, Copy)]
pub struct SkepticConfig {
    /// Wait required after the first failure.
    pub base_wait: SimDuration,
    /// Cap on the exponential level (wait = base · 2^level).
    pub max_level: u32,
    /// Clean operation needed (while recovered) to drop one level.
    pub decay_after: SimDuration,
}

impl Default for SkepticConfig {
    fn default() -> Self {
        SkepticConfig {
            base_wait: SimDuration::from_millis(100),
            max_level: 10,
            decay_after: SimDuration::from_secs(60),
        }
    }
}

/// Per-link skeptic state.
///
/// ```
/// use an2_reconfig::skeptic::{Skeptic, SkepticConfig};
/// use an2_sim::{SimTime, SimDuration};
/// let mut sk = Skeptic::new(SkepticConfig::default());
/// let t0 = SimTime::ZERO;
/// sk.on_failure(t0);
/// assert!(!sk.may_recover(t0 + SimDuration::from_millis(50)));
/// assert!(sk.may_recover(t0 + SimDuration::from_millis(100)));
/// ```
#[derive(Debug, Clone)]
pub struct Skeptic {
    cfg: SkepticConfig,
    level: u32,
    last_failure: Option<SimTime>,
    clean_since: Option<SimTime>,
}

impl Skeptic {
    /// A fresh skeptic (no failure history).
    pub fn new(cfg: SkepticConfig) -> Self {
        Skeptic {
            cfg,
            level: 0,
            last_failure: None,
            clean_since: None,
        }
    }

    /// Current escalation level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The clean-operation period currently required before recovery.
    pub fn required_wait(&self) -> SimDuration {
        let exp = self.level.min(self.cfg.max_level).min(62);
        self.cfg.base_wait * (1u64 << exp)
    }

    /// Records a link failure at `now`: escalates the level and restarts
    /// the recovery clock.
    pub fn on_failure(&mut self, now: SimTime) {
        // Escalate only if this failure comes after a recovery (a recurring
        // fault); the very first failure starts at level 0.
        if self.last_failure.is_some() {
            self.level = (self.level + 1).min(self.cfg.max_level);
        }
        self.last_failure = Some(now);
        self.clean_since = None;
    }

    /// Whether the link, failure-free since the last failure, may be
    /// declared recovered at `now`.
    pub fn may_recover(&self, now: SimTime) -> bool {
        match self.last_failure {
            None => true,
            Some(t) => now.saturating_duration_since(t) >= self.required_wait(),
        }
    }

    /// Records that the link was declared recovered at `now`; starts the
    /// decay clock.
    pub fn on_recovery(&mut self, now: SimTime) {
        self.clean_since = Some(now);
    }

    /// Periodic maintenance: after `decay_after` of clean recovered
    /// operation, forgive one level. Call from the monitor's timer.
    pub fn decay(&mut self, now: SimTime) {
        if let Some(since) = self.clean_since {
            if now.saturating_duration_since(since) >= self.cfg.decay_after && self.level > 0 {
                self.level -= 1;
                self.clean_since = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SkepticConfig {
        SkepticConfig {
            base_wait: SimDuration::from_millis(100),
            max_level: 6,
            decay_after: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn first_failure_waits_base() {
        let mut sk = Skeptic::new(cfg());
        assert!(sk.may_recover(SimTime::ZERO), "no history: immediately ok");
        sk.on_failure(SimTime::from_nanos(0));
        assert_eq!(sk.required_wait(), SimDuration::from_millis(100));
        assert!(!sk.may_recover(SimTime::ZERO + SimDuration::from_millis(99)));
        assert!(sk.may_recover(SimTime::ZERO + SimDuration::from_millis(100)));
    }

    #[test]
    fn recurring_failures_escalate_exponentially() {
        let mut sk = Skeptic::new(cfg());
        let mut now = SimTime::ZERO;
        let mut waits = Vec::new();
        for _ in 0..4 {
            sk.on_failure(now);
            waits.push(sk.required_wait());
            now += sk.required_wait();
            sk.on_recovery(now);
        }
        assert_eq!(
            waits,
            vec![
                SimDuration::from_millis(100),
                SimDuration::from_millis(200),
                SimDuration::from_millis(400),
                SimDuration::from_millis(800),
            ]
        );
    }

    #[test]
    fn level_caps_at_max() {
        let mut sk = Skeptic::new(cfg());
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            sk.on_failure(now);
            now += SimDuration::from_secs(1);
        }
        assert_eq!(sk.level(), 6);
        assert_eq!(sk.required_wait(), SimDuration::from_millis(100) * 64);
    }

    #[test]
    fn decay_forgives_slowly() {
        let mut sk = Skeptic::new(cfg());
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            sk.on_failure(now);
            now += SimDuration::from_secs(1);
        }
        assert_eq!(sk.level(), 2);
        sk.on_recovery(now);
        // Not enough clean time: no decay.
        sk.decay(now + SimDuration::from_secs(5));
        assert_eq!(sk.level(), 2);
        // 10 s clean: one level.
        sk.decay(now + SimDuration::from_secs(10));
        assert_eq!(sk.level(), 1);
        // Another 10 s: another level.
        sk.decay(now + SimDuration::from_secs(20));
        assert_eq!(sk.level(), 0);
        sk.decay(now + SimDuration::from_secs(40));
        assert_eq!(sk.level(), 0, "level never goes negative");
    }

    #[test]
    fn flapping_link_transitions_decelerate() {
        // A link that fails immediately after every recovery: the interval
        // between recoveries doubles each time, so transitions become rare —
        // exactly the damping the paper wants.
        let mut sk = Skeptic::new(cfg());
        let mut now = SimTime::ZERO;
        let mut recovery_times = Vec::new();
        for _ in 0..5 {
            sk.on_failure(now);
            // Earliest possible recovery:
            while !sk.may_recover(now) {
                now += SimDuration::from_millis(10);
            }
            sk.on_recovery(now);
            recovery_times.push(now);
        }
        let gaps: Vec<u64> = recovery_times
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_millis())
            .collect();
        for pair in gaps.windows(2) {
            assert!(
                pair[1] >= pair[0] * 2,
                "gaps must at least double: {gaps:?}"
            );
        }
    }
}
