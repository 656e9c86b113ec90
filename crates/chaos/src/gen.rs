//! Deterministic schedule generation: `(CampaignSpec, seed)` → concrete
//! [`Schedule`].
//!
//! All randomness flows from one [`SimRng`] forked per concern, so the same
//! pair always yields the byte-identical schedule — and because the fault
//! layer itself is seeded from the schedule, the byte-identical *run*.
//! Every generated event lands inside the run window and the drain tail is
//! sized from the worst-case skeptic holddown, so the oracle's
//! post-quiescence checks are always fair.

use crate::spec::{CampaignSpec, Scenario, TopologyKind};
use an2_cells::LinkRate;
use an2_faults::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel};
use an2_reconfig::skeptic::SkepticConfig;
use an2_sim::{SimDuration, SimRng};
use an2_topology::{LinkId, Node, SwitchId, Topology};

/// A slot far beyond any campaign horizon: a flap that never recovers or a
/// crash that never restarts.
pub const NEVER: u64 = 1 << 40;

/// Slots the boot reconfiguration gets to itself before the first fault.
const BOOT_MARGIN: u64 = 60_000;

/// Convergence margin appended to the computed drain tail.
const CONVERGE_MARGIN: u64 = 90_000;

/// Slots per simulated millisecond at the fabric's 622 Mb/s line rate.
pub fn slots_per_ms() -> u64 {
    let slot_ns = LinkRate::Mbps622.slot_duration().as_nanos().max(1);
    1_000_000 / slot_ns + 1
}

/// A fully concrete, replayable chaos run: topology + workload + fault
/// schedule + seed. Running the same schedule twice is byte-identical.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Campaign name this schedule was generated from.
    pub name: String,
    /// The generation (and fault-layer) seed.
    pub seed: u64,
    /// Topology to instantiate.
    pub topology: TopologyKind,
    /// Best-effort circuits to open.
    pub circuits: u32,
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// Send cadence in slots.
    pub send_every: u64,
    /// Slots of adversarial traffic.
    pub run_slots: u64,
    /// Quiet tail: long enough for every skeptic holddown to expire and
    /// the final reconfiguration to converge.
    pub drain_slots: u64,
    /// Delivery floor on circuits that survive to the end.
    pub delivery_floor: f64,
    /// The concrete fault scenario (loss models, flaps, crashes, monitor
    /// and skeptic tuning).
    pub fault: FaultSpec,
}

impl Schedule {
    /// The schedule's link-failure ground truth as watchdog scoring
    /// labels: one [`an2_trace::FaultLabel`] per flap, windowed
    /// `[down_at, up_at + clear_margin_slots]`. The margin should cover
    /// the monitor's readmission streak, the worst skeptic holddown and
    /// the reconfiguration that follows, so alerts fired while the system
    /// is still digesting the failure stay attributable to it.
    pub fn fault_labels(&self, clear_margin_slots: u64) -> Vec<an2_trace::FaultLabel> {
        self.fault
            .flaps
            .iter()
            .map(|f| an2_trace::FaultLabel {
                link: f.link.0,
                down_slot: f.down_at,
                up_slot: f.up_at,
                clear_slot: f.up_at.saturating_add(clear_margin_slots),
            })
            .collect()
    }

    /// A fault-free twin of this schedule: same topology, workload and
    /// horizon, but no flaps, no crashes and no loss. The control leg for
    /// false-positive measurement — any watchdog alert on it is a false
    /// positive by construction.
    pub fn fault_free_twin(&self) -> Schedule {
        let mut twin = self.clone();
        twin.name = format!("{}-fault-free", self.name);
        twin.fault.flaps.clear();
        twin.fault.crashes.clear();
        twin.fault.default_link = LinkFaultModel::default();
        twin.fault.per_link.clear();
        twin
    }
}

/// Inter-switch links of `topo`, in id order.
fn backbone_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&l| {
            let (a, b) = topo.endpoints(l);
            matches!(a.node, Node::Switch(_)) && matches!(b.node, Node::Switch(_))
        })
        .collect()
}

/// Picks `n` distinct elements of `pool` (all of them if `n` is larger).
fn pick_distinct(rng: &mut SimRng, pool: &[LinkId], n: usize) -> Vec<LinkId> {
    let mut shuffled = pool.to_vec();
    rng.shuffle(&mut shuffled);
    shuffled.truncate(n.min(pool.len()));
    shuffled.sort_unstable();
    shuffled
}

/// The bursty ~1% Gilbert–Elliott loss the churn scenario runs under: the
/// chain spends ~2% of slots in the bad state, losing half the cells there.
fn churn_loss() -> LinkFaultModel {
    LinkFaultModel {
        loss: LossModel::GilbertElliott {
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.1,
            loss_good: 0.0,
            loss_bad: 0.5,
        },
        ..Default::default()
    }
}

/// Monitor-derived timing margins shared by every flap train in a run.
#[derive(Clone, Copy)]
struct FlapTiming {
    /// Slots for the monitor to notice a dead link (fail streak of pings).
    detect: u64,
    /// Slots for the success streak that readmits a healthy link.
    readmit: u64,
    /// Events that would spill past this slot are dropped — the generator
    /// never schedules outside the run.
    run_slots: u64,
}

/// Appends up to `count` flaps on `link`, starting at `cursor`, each with a
/// randomized down window (long enough for the monitor to notice) and up
/// gap (long enough for the success streak).
fn flap_train(
    rng: &mut SimRng,
    flaps: &mut Vec<FlapEvent>,
    link: LinkId,
    mut cursor: u64,
    count: u32,
    timing: FlapTiming,
) {
    for _ in 0..count {
        let down_for = timing.detect + 1_500 + rng.gen_range(6_000) as u64;
        let up_for = timing.readmit + 4_000 + rng.gen_range(14_000) as u64;
        let up_at = cursor + down_for;
        if up_at >= timing.run_slots {
            break;
        }
        flaps.push(FlapEvent {
            link,
            down_at: cursor,
            up_at,
        });
        cursor = up_at + up_for;
    }
}

/// Drain tail long enough that every skeptic holddown armed during the
/// run has expired, the success streak has accumulated, and the final
/// reconfiguration has converged — so post-drain oracle checks are fair.
fn drain_for(fault: &FaultSpec, readmit: u64) -> u64 {
    let slot_ns = LinkRate::Mbps622.slot_duration().as_nanos().max(1);
    let mut flap_counts: Vec<(LinkId, u32)> = Vec::new();
    for f in &fault.flaps {
        match flap_counts.iter_mut().find(|(l, _)| *l == f.link) {
            Some((_, c)) => *c += 1,
            None => flap_counts.push((f.link, 1)),
        }
    }
    let sk = fault.monitor.skeptic;
    let base_ns = sk.base_wait.as_nanos();
    let mut worst_wait_ns = 0u64;
    for (_, deaths) in flap_counts {
        // A link with `d` verdict deaths escalates to at most level d-1.
        let level = deaths.saturating_sub(1).min(sk.max_level).min(20);
        worst_wait_ns = worst_wait_ns.max(base_ns.saturating_mul(1 << level));
    }
    let wait_slots = worst_wait_ns / slot_ns + 1;
    (wait_slots + readmit + CONVERGE_MARGIN).min(800_000)
}

/// Expands `(spec, seed)` into a concrete [`Schedule`].
pub fn generate(spec: &CampaignSpec, seed: u64) -> Schedule {
    let topo = spec.topology.build();
    let pool = backbone_links(&topo);
    let mut root = SimRng::new(seed);
    let mut pick_rng = root.fork(1);
    let mut time_rng = root.fork(2);

    let mut fault = FaultSpec {
        resync_interval_slots: 2_048,
        ..Default::default()
    };
    fault.monitor.ping_interval = SimDuration::from_millis(1);
    fault.monitor.fail_threshold = 3;
    fault.monitor.recover_threshold = 5;
    fault.monitor.skeptic = SkepticConfig {
        base_wait: SimDuration::from_millis(spec.skeptic_base_wait_ms),
        max_level: spec.skeptic_max_level,
        decay_after: SimDuration::from_millis(500),
    };

    let ping = slots_per_ms(); // 1 ms ping interval, in slots
    let detect = fault.monitor.fail_threshold as u64 * ping + ping;
    let readmit = fault.monitor.recover_threshold as u64 * ping + ping;
    let timing = FlapTiming {
        detect,
        readmit,
        run_slots: spec.run_slots,
    };

    match spec.scenario {
        Scenario::FlapStorm {
            links,
            flaps_per_link,
        } => {
            for link in pick_distinct(&mut pick_rng, &pool, links as usize) {
                let start = BOOT_MARGIN + time_rng.gen_range(10_000) as u64;
                flap_train(
                    &mut time_rng,
                    &mut fault.flaps,
                    link,
                    start,
                    flaps_per_link,
                    timing,
                );
            }
        }
        Scenario::MidReconfigCrash { flaps, crashes } => {
            let victims = pick_distinct(&mut pick_rng, &pool, flaps.max(1) as usize);
            let mut first_down = None;
            for (i, &link) in victims.iter().enumerate() {
                let down_at = BOOT_MARGIN + i as u64 * 30_000 + time_rng.gen_range(4_000) as u64;
                if first_down.is_none() {
                    first_down = Some(down_at);
                }
                let up_at = (down_at + detect + 30_000).min(spec.run_slots.saturating_sub(1));
                if up_at > down_at {
                    fault.flaps.push(FlapEvent {
                        link,
                        down_at,
                        up_at,
                    });
                }
            }
            // The crash lands a couple of ping rounds after the first
            // flap's detection: squarely inside that epoch's convergence.
            let base = first_down.unwrap_or(BOOT_MARGIN) + detect;
            let mut sw: Vec<SwitchId> = topo.switches().collect();
            pick_rng.shuffle(&mut sw);
            // Keep at least two switches alive so the network survives.
            sw.truncate((crashes as usize).min(sw.len().saturating_sub(2)));
            sw.sort_unstable();
            for (i, &s) in sw.iter().enumerate() {
                let at = base + 1_000 + i as u64 * 15_000 + time_rng.gen_range(2_000) as u64;
                if at < spec.run_slots {
                    fault.crashes.push(CrashEvent {
                        switch: s,
                        at,
                        restart_at: NEVER,
                    });
                }
            }
        }
        Scenario::CorrelatedFailure { groups, width } => {
            for g in 0..groups as u64 {
                let at = BOOT_MARGIN + g * 55_000 + time_rng.gen_range(5_000) as u64;
                let up = at + detect + 20_000 + time_rng.gen_range(10_000) as u64;
                if up >= spec.run_slots {
                    break;
                }
                for link in pick_distinct(&mut pick_rng, &pool, width as usize) {
                    fault.flaps.push(FlapEvent {
                        link,
                        down_at: at,
                        up_at: up,
                    });
                }
            }
        }
        Scenario::ChurnLoss {
            flapping_links,
            flaps_per_link,
        } => {
            fault.default_link = churn_loss();
            for link in pick_distinct(&mut pick_rng, &pool, flapping_links as usize) {
                let start = BOOT_MARGIN + time_rng.gen_range(12_000) as u64;
                flap_train(
                    &mut time_rng,
                    &mut fault.flaps,
                    link,
                    start,
                    flaps_per_link,
                    timing,
                );
            }
        }
    }
    fault.flaps.sort_by_key(|f| (f.down_at, f.link.0));
    fault.crashes.sort_by_key(|c| (c.at, c.switch.0));

    let drain_slots = drain_for(&fault, readmit);
    Schedule {
        name: spec.name.clone(),
        seed,
        topology: spec.topology,
        circuits: spec.circuits,
        packet_bytes: spec.packet_bytes,
        send_every: spec.send_every.max(1),
        run_slots: spec.run_slots,
        drain_slots,
        delivery_floor: spec.delivery_floor,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    #[test]
    fn generation_is_deterministic() {
        let spec = CampaignSpec::defaults(
            "det",
            Scenario::FlapStorm {
                links: 2,
                flaps_per_link: 4,
            },
        );
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a.fault.flaps, b.fault.flaps);
        assert_eq!(a.fault.crashes, b.fault.crashes);
        assert_eq!(a.drain_slots, b.drain_slots);
        let c = generate(&spec, 43);
        assert_ne!(a.fault.flaps, c.fault.flaps, "different seeds must diverge");
    }

    #[test]
    fn events_land_inside_the_run() {
        for seed in 0..20 {
            let spec = CampaignSpec::defaults(
                "bounds",
                Scenario::ChurnLoss {
                    flapping_links: 3,
                    flaps_per_link: 5,
                },
            );
            let s = generate(&spec, seed);
            for f in &s.fault.flaps {
                assert!(f.down_at >= BOOT_MARGIN);
                assert!(f.up_at < s.run_slots, "flap spills past the run");
                assert!(f.up_at > f.down_at);
            }
        }
    }

    #[test]
    fn crash_is_timed_mid_reconfiguration() {
        let spec = CampaignSpec::defaults(
            "crash",
            Scenario::MidReconfigCrash {
                flaps: 1,
                crashes: 1,
            },
        );
        let s = generate(&spec, 7);
        assert_eq!(s.fault.crashes.len(), 1);
        let flap = s.fault.flaps[0];
        let crash = s.fault.crashes[0];
        // After detection could have begun, before the flap resolves.
        assert!(crash.at > flap.down_at);
        assert!(crash.at < flap.up_at + 30_000);
        assert_eq!(crash.restart_at, NEVER);
    }

    #[test]
    fn drain_covers_worst_holddown() {
        let spec = CampaignSpec::defaults(
            "drain",
            Scenario::FlapStorm {
                links: 1,
                flaps_per_link: 6,
            },
        );
        let s = generate(&spec, 3);
        // 6 deaths → level ≤ 3 (capped) → 20 ms · 2³ = 160 ms.
        let worst_slots = 160 * slots_per_ms();
        assert!(s.drain_slots > worst_slots);
    }
}
