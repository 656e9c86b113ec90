//! The fault specification.
//!
//! A spec plus a 64-bit seed fully determines a fault run; replaying the
//! same pair yields byte-identical simulations. Specs are plain data, so
//! the chaos corpus can write them out and read them back.

use an2_reconfig::monitor::MonitorConfig;
use an2_topology::{LinkId, SwitchId};

/// Per-link loss process applied independently to each transmission
/// direction's cell and control traffic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss.
    #[default]
    None,
    /// Each transmission is lost independently with probability `p`.
    Independent {
        /// Loss probability per transmission.
        p: f64,
    },
    /// Two-state Gilbert–Elliott chain: the link alternates between a good
    /// and a bad state (advanced once per slot), with a separate loss
    /// probability in each. Models the bursty errors the skeptic exists
    /// to damp.
    GilbertElliott {
        /// Per-slot probability of entering the bad state.
        p_good_to_bad: f64,
        /// Per-slot probability of leaving the bad state.
        p_bad_to_good: f64,
        /// Loss probability per transmission while in the good state.
        loss_good: f64,
        /// Loss probability per transmission while in the bad state.
        loss_bad: f64,
    },
}

/// Everything that can go wrong on one link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaultModel {
    /// Loss process for cells and control messages.
    pub loss: LossModel,
    /// Probability that a delivered cell has one of its 424 bits flipped.
    /// Header hits (40 of 424) are HEC-detected and dropped at the port;
    /// payload hits get through and must be caught end-to-end.
    pub corrupt_per_cell: f64,
    /// Maximum extra delivery delay in slots, drawn uniformly from
    /// `0..=jitter_slots`. FIFO order per link direction is preserved.
    pub jitter_slots: u64,
}

impl LinkFaultModel {
    /// True when this model can never alter a transmission.
    pub fn is_inert(&self) -> bool {
        self.loss == LossModel::None && self.corrupt_per_cell == 0.0 && self.jitter_slots == 0
    }
}

/// A scheduled link flap: physically down at `down_at`, back up at `up_at`
/// (both in slots). While down, every transmission on the link is lost and
/// pings fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapEvent {
    /// The link that flaps.
    pub link: LinkId,
    /// Slot at which the link goes down.
    pub down_at: u64,
    /// Slot at which it comes back up (must be `> down_at`).
    pub up_at: u64,
}

/// A scheduled line-card (switch) crash: the switch loses all buffered
/// cells at `at` and ignores arriving traffic until `restart_at`. Its
/// routing table survives (it lives in the hardware map, reloaded on boot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The switch that crashes.
    pub switch: SwitchId,
    /// Slot of the crash.
    pub at: u64,
    /// Slot at which the switch resumes operation (must be `> at`).
    pub restart_at: u64,
}

/// The complete fault scenario for one run. The default spec is inert:
/// no loss, no events, resync off. (The fabric checks its credit
/// invariants whenever a fault layer is attached; no spec turns that off.)
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Fault model applied to every link not listed in `per_link`.
    pub default_link: LinkFaultModel,
    /// Per-link overrides.
    pub per_link: Vec<(LinkId, LinkFaultModel)>,
    /// Scheduled link flaps.
    pub flaps: Vec<FlapEvent>,
    /// Scheduled switch crashes.
    pub crashes: Vec<CrashEvent>,
    /// Emit credit-resync markers on every credit-gated hop each this many
    /// slots; `0` disables resync entirely.
    pub resync_interval_slots: u64,
    /// Monitor/skeptic tuning for the ping loop that watches inter-switch
    /// links.
    pub monitor: MonitorConfig,
}

impl FaultSpec {
    /// The model in force on `link`.
    pub fn model_for(&self, link: LinkId) -> LinkFaultModel {
        self.per_link
            .iter()
            .find(|(l, _)| *l == link)
            .map(|&(_, m)| m)
            .unwrap_or(self.default_link)
    }

    /// True when the spec can never perturb the run: no loss, corruption,
    /// jitter, flaps or crashes anywhere. (Resync markers may still be
    /// active — they are observers, not perturbations.)
    pub fn is_inert(&self) -> bool {
        self.default_link.is_inert()
            && self.per_link.iter().all(|(_, m)| m.is_inert())
            && self.flaps.is_empty()
            && self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_inert() {
        let spec = FaultSpec::default();
        assert!(spec.is_inert());
        assert!(spec.default_link.is_inert());
    }

    #[test]
    fn per_link_override_wins() {
        let lossy = LinkFaultModel {
            loss: LossModel::Independent { p: 0.5 },
            ..Default::default()
        };
        let spec = FaultSpec {
            per_link: vec![(LinkId(3), lossy)],
            ..Default::default()
        };
        assert_eq!(spec.model_for(LinkId(3)), lossy);
        assert_eq!(spec.model_for(LinkId(4)), LinkFaultModel::default());
        assert!(!spec.is_inert());
    }

    #[test]
    fn scheduled_events_make_a_spec_non_inert() {
        let flapper = FaultSpec {
            flaps: vec![FlapEvent {
                link: LinkId(1),
                down_at: 100,
                up_at: 200,
            }],
            ..Default::default()
        };
        assert!(!flapper.is_inert());
        let crasher = FaultSpec {
            crashes: vec![CrashEvent {
                switch: SwitchId(0),
                at: 50,
                restart_at: 80,
            }],
            ..Default::default()
        };
        assert!(!crasher.is_inert());
        // An observer alone (resync) leaves the spec inert.
        let observer = FaultSpec {
            resync_interval_slots: 512,
            ..Default::default()
        };
        assert!(observer.is_inert());
    }
}
