//! Campaign specifications: the *shape* of an adversarial fault campaign.
//!
//! A [`CampaignSpec`] names a topology family, a fault scenario, workload
//! knobs and the oracle's delivery floor. It deliberately contains no
//! concrete fault events: [`crate::gen::generate`] expands a
//! `(CampaignSpec, seed)` pair into a fully concrete, replayable
//! [`crate::gen::Schedule`].

use an2_topology::{generators, SwitchId, Topology};

/// A topology family the campaign can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's SRC installation: `switches` dual-homed into a redundant
    /// backbone, `hosts` spread across them.
    SrcInstallation {
        /// Number of switches.
        switches: u16,
        /// Number of hosts.
        hosts: u16,
    },
    /// A switch ring with `hosts` singly-attached hosts spread round-robin.
    Ring {
        /// Number of switches.
        switches: u16,
        /// Number of hosts.
        hosts: u16,
    },
}

impl TopologyKind {
    /// Instantiates the topology.
    pub fn build(&self) -> Topology {
        match *self {
            TopologyKind::SrcInstallation { switches, hosts } => {
                generators::src_installation(switches as usize, hosts as usize)
            }
            TopologyKind::Ring { switches, hosts } => {
                let mut t = generators::ring(switches as usize);
                for k in 0..hosts {
                    let h = t.add_host();
                    t.attach_host(h, SwitchId(k % switches)).unwrap();
                }
                t
            }
        }
    }
}

/// What kind of adversity the generator should synthesize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Repeated down/up flaps on a few backbone links — the §2
    /// reconfiguration-storm driver the skeptic exists to damp.
    FlapStorm {
        /// Distinct backbone links that flap.
        links: u32,
        /// Flaps per chosen link.
        flaps_per_link: u32,
    },
    /// A link failure whose reconfiguration epoch is still converging when
    /// a line card crashes (crash timed a few ping rounds after the flap).
    MidReconfigCrash {
        /// Links that fail (first one times the crash).
        flaps: u32,
        /// Switches that crash permanently.
        crashes: u32,
    },
    /// Correlated bursts: groups of `width` links fail in the same slot
    /// (conduit cut, power domain), then recover together.
    CorrelatedFailure {
        /// Number of simultaneous-failure bursts.
        groups: u32,
        /// Links per burst.
        width: u32,
    },
    /// Gilbert–Elliott bursty loss on every link plus background flap
    /// churn — sustained degraded operation, not clean failures.
    ChurnLoss {
        /// Links that also flap under the loss.
        flapping_links: u32,
        /// Flaps per flapping link.
        flaps_per_link: u32,
    },
}

impl Scenario {
    /// Short stable name, used for corpus file names and report rows.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::FlapStorm { .. } => "flap_storm",
            Scenario::MidReconfigCrash { .. } => "mid_reconfig_crash",
            Scenario::CorrelatedFailure { .. } => "correlated",
            Scenario::ChurnLoss { .. } => "churn_loss",
        }
    }
}

/// A complete campaign shape. `(CampaignSpec, seed)` fully determines a
/// run; see [`crate::gen::generate`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (report rows, corpus file names).
    pub name: String,
    /// Topology family to instantiate.
    pub topology: TopologyKind,
    /// Fault scenario to synthesize.
    pub scenario: Scenario,
    /// Slots of adversarial traffic (the drain tail is computed on top).
    pub run_slots: u64,
    /// Best-effort circuits to open (consecutive host pairs, capped by the
    /// topology's host count).
    pub circuits: u32,
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// Send one packet per circuit every this many slots.
    pub send_every: u64,
    /// Skeptic holddown after the first failure, in milliseconds.
    /// `0` (with `skeptic_max_level` 0) disables the skeptic entirely.
    pub skeptic_base_wait_ms: u64,
    /// Cap on the skeptic's exponential escalation level.
    pub skeptic_max_level: u32,
    /// Minimum fraction of packets that must arrive on circuits that
    /// survive to the end of the run.
    pub delivery_floor: f64,
}

impl CampaignSpec {
    /// A conservative default shape on the 4-switch SRC installation with
    /// a 90% delivery floor. The churn scenario runs longer with smaller,
    /// denser packets: under ~1% bursty cell loss a 10-cell packet is
    /// lost ~10% of the time, so the sustained-soak cell uses 5-cell
    /// packets to keep the floor about the network, not the framing.
    pub fn defaults(name: &str, scenario: Scenario) -> CampaignSpec {
        let churn = matches!(scenario, Scenario::ChurnLoss { .. });
        CampaignSpec {
            name: name.to_string(),
            topology: TopologyKind::SrcInstallation {
                switches: 4,
                hosts: 8,
            },
            scenario,
            run_slots: if churn { 240_000 } else { 160_000 },
            circuits: 4,
            packet_bytes: if churn { 240 } else { 480 },
            send_every: if churn { 2_000 } else { 4_000 },
            skeptic_base_wait_ms: 20,
            skeptic_max_level: 3,
            delivery_floor: 0.90,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_build() {
        let t = TopologyKind::SrcInstallation {
            switches: 4,
            hosts: 8,
        }
        .build();
        assert_eq!(t.switch_count(), 4);
        let r = TopologyKind::Ring {
            switches: 5,
            hosts: 10,
        }
        .build();
        assert_eq!(r.switch_count(), 5);
    }

    #[test]
    fn scenario_names_are_stable() {
        assert_eq!(
            Scenario::FlapStorm {
                links: 1,
                flaps_per_link: 1
            }
            .name(),
            "flap_storm"
        );
        assert_eq!(
            Scenario::ChurnLoss {
                flapping_links: 0,
                flaps_per_link: 0
            }
            .name(),
            "churn_loss"
        );
    }
}
