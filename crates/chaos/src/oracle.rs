//! The strengthened oracle: runs one [`Schedule`] through a full
//! [`an2::Network`] (fault layer + embedded control plane) and checks every
//! robustness claim, *collecting* violations instead of panicking so the
//! shrinker can minimize failing schedules.
//!
//! Checks, in order:
//!
//! 1. **Per-slot invariants** — the fault layer's credit/buffer checkers
//!    must count zero violations.
//! 2. **Convergence** — after the drain tail (sized for the worst skeptic
//!    holddown) the control plane must be quiescent and no link may still
//!    sit in quarantine.
//! 3. **Views** — every live agent's topology view must equal the
//!    ideal-transport `an2-reconfig` harness's view for the same
//!    surviving topology (partitions handled per the harness); a harness
//!    that spends its delivery budget is a violation of its own.
//! 4. **Canonical paths** — every open circuit must sit on the
//!    byte-identical canonical up*/down* path recomputed independently;
//!    broken circuits must be exactly those with no canonical route.
//! 5. **No stuck circuits** — a post-convergence probe on every surviving
//!    circuit must be delivered.
//! 6. **Credits whole** — after forced resync retries, every surviving
//!    hop holds its full credit allocation.
//! 7. **Delivery floor** — aggregate packet delivery on circuits that
//!    survive to the end must meet the schedule's floor.
//!
//! The report also carries [`Network::digest`], so a replay of the same
//! schedule can be checked byte-for-byte.

use crate::gen::Schedule;
use an2::{HostId, Network, ProtocolKind, ReconfigEvent, SwitchId, VcId};
use an2_cells::Packet;
use an2_reconfig::harness::ReconfigNet;
use an2_reconfig::quiesce::{edge, Edge};
use an2_topology::{updown, LinkState};
use std::fmt;

/// One oracle violation, with enough detail to read the repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The per-slot invariant checkers counted violations.
    Invariants {
        /// Number of violations counted.
        count: u64,
    },
    /// The control plane (or a quarantine) failed to settle inside the
    /// drain tail plus the retry budget.
    NotConverged,
    /// A live agent's topology view diverges from the harness oracle.
    ViewMismatch {
        /// The switch whose view diverged.
        switch: SwitchId,
    },
    /// A tree of the canonical up*/down* forest admits a
    /// channel-dependency cycle among its all-pairs routes.
    TreeNotDeadlockFree {
        /// The tree's root.
        root: SwitchId,
    },
    /// A circuit is not on (or wrongly off) its canonical up*/down* path,
    /// or its path breaks the up*/down* rule.
    PathNotCanonical {
        /// The circuit's raw VC id.
        vc: u32,
        /// What was wrong.
        detail: String,
    },
    /// The ideal-transport harness behind the view reference spent its
    /// delivery budget without quiescing.
    HarnessStorm {
        /// Inputs the harness delivered.
        delivered: u64,
        /// Inputs still in flight when it gave up.
        in_flight: usize,
    },
    /// A surviving circuit failed to deliver a post-convergence probe.
    StuckCircuit {
        /// The circuit's raw VC id.
        vc: u32,
    },
    /// A surviving circuit's credits never returned to full allocation.
    CreditsNotWhole {
        /// The circuit's raw VC id.
        vc: u32,
    },
    /// Aggregate delivery on surviving circuits fell below the floor.
    DeliveryBelowFloor {
        /// Packets delivered on surviving circuits.
        delivered: u64,
        /// Packets sent on surviving circuits.
        sent: u64,
        /// The floor, in thousandths.
        floor_milli: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Invariants { count } => write!(f, "{count} invariant violations"),
            Violation::NotConverged => write!(f, "control plane failed to converge after drain"),
            Violation::ViewMismatch { switch } => {
                write!(f, "{switch} view diverges from the harness oracle")
            }
            Violation::TreeNotDeadlockFree { root } => {
                write!(
                    f,
                    "canonical tree rooted at {root} admits a channel-dependency cycle"
                )
            }
            Violation::PathNotCanonical { vc, detail } => {
                write!(f, "vc{vc} not canonical: {detail}")
            }
            Violation::HarnessStorm {
                delivered,
                in_flight,
            } => write!(
                f,
                "harness stormed: {delivered} inputs delivered, {in_flight} in flight"
            ),
            Violation::StuckCircuit { vc } => {
                write!(f, "vc{vc} stuck: post-convergence probe undelivered")
            }
            Violation::CreditsNotWhole { vc } => {
                write!(f, "vc{vc} credits not restored after forced resync")
            }
            Violation::DeliveryBelowFloor {
                delivered,
                sent,
                floor_milli,
            } => write!(
                f,
                "delivery {delivered}/{sent} below floor {}.{:03}",
                floor_milli / 1000,
                floor_milli % 1000
            ),
        }
    }
}

/// Everything observable about one finished chaos run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Oracle violations, in check order. Empty = the run survived.
    pub violations: Vec<Violation>,
    /// [`Network::digest`] at the end of the run — the replay contract.
    pub digest: u64,
    /// Packets accepted for sending on circuits that survived to the end.
    pub sent_packets: u64,
    /// Packets delivered on those circuits (before the probe phase).
    pub delivered_packets: u64,
    /// `delivered_packets / sent_packets` (1.0 when nothing was sent).
    pub delivery_ratio: f64,
    /// Reconfiguration epochs opened (`EpochStarted` events).
    pub epochs: u64,
    /// Monitor verdict transitions (`LinkDead` + `LinkWorking` events).
    pub verdict_transitions: u64,
    /// Quarantine entries (`LinkQuarantined { entered: true }` events).
    pub quarantine_entries: u64,
    /// Recoveries the skeptic suppressed across all links.
    pub suppressed_recoveries: u64,
    /// Circuits broken (partitioned) at the end of the run.
    pub broken_circuits: u64,
    /// Circuits still open at the end of the run.
    pub surviving_circuits: u64,
    /// The fabric slot the run finished at.
    pub final_slot: u64,
}

/// Switches permanently crashed over the schedule's horizon.
fn crashed_switches(s: &Schedule) -> Vec<SwitchId> {
    let horizon = s.run_slots + s.drain_slots;
    s.fault
        .crashes
        .iter()
        .filter(|c| c.at <= horizon && c.restart_at > horizon + 1_000_000)
        .map(|c| c.switch)
        .collect()
}

/// The view reference: every live agent's topology view must equal the
/// view the ideal-transport `an2-reconfig` harness reaches on the same
/// surviving topology (`crashed` switches pulled), with the harness's
/// partition converged. A switch with no working links never boots in
/// the harness; its embedded view must then be empty. Returns one
/// [`Violation::ViewMismatch`] per switch that fails, or the one
/// [`Violation::HarnessStorm`] when the harness does not quiesce.
pub fn check_views(net: &Network, crashed: &[SwitchId]) -> Vec<Violation> {
    let mut oracle = ReconfigNet::with_defaults(net.topology().clone(), 0);
    for &sw in crashed {
        oracle.kill_switch(sw);
    }
    if let Err(storm) = oracle.run_to_quiescence() {
        return vec![Violation::HarnessStorm {
            delivered: storm.delivered,
            in_flight: storm.in_flight,
        }];
    }
    net.topology()
        .switches()
        .filter(|sw| !crashed.contains(sw))
        .filter(|&sw| {
            let Some(embedded) = net.agent_view_edges(sw) else {
                return true;
            };
            match oracle.view_edges_of(sw) {
                Some(view) => !oracle.partition_converged(sw) || embedded != view,
                None => !embedded.is_empty(),
            }
        })
        .map(|switch| Violation::ViewMismatch { switch })
        .collect()
}

/// The path reference: recompute the canonical up\*/down\* forest over
/// the surviving adjacency (`crashed` switches excluded), demand that each
/// of its trees routes all pairs deadlock-free (§5), and that every open
/// circuit sits on the byte-identical canonical path — host attachments in
/// link-id order, the first pair the forest routes — which obeys the
/// up\*/down\* rule, and that the broken circuits are exactly those with
/// no canonical route. Returns one [`Violation::TreeNotDeadlockFree`] per
/// tree and one [`Violation::PathNotCanonical`] per circuit that fails.
pub fn check_paths(
    net: &Network,
    circuits: &[(VcId, HostId, HostId)],
    crashed: &[SwitchId],
) -> Vec<Violation> {
    let topo = net.topology();
    let live: Vec<SwitchId> = topo.switches().filter(|s| !crashed.contains(s)).collect();
    let mut edges: Vec<Edge> = topo
        .switch_links()
        .filter(|&(l, x, y)| {
            topo.link_state(l) == LinkState::Working
                && !crashed.contains(&x)
                && !crashed.contains(&y)
        })
        .map(|(_, x, y)| edge(x, y))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let forest = updown::canonical_forest(topo.switch_count(), &live, &edges);
    let mut out: Vec<Violation> = forest
        .iter()
        .filter(|tree| !updown::all_pairs_updown_deadlock_free(topo, tree))
        .map(|tree| Violation::TreeNotDeadlockFree { root: tree.root() })
        .collect();
    for &(vc, src, dst) in circuits {
        let mut expected: Option<Vec<SwitchId>> = None;
        'pairs: for (_, ss) in topo.host_attachments(src) {
            for (_, ds) in topo.host_attachments(dst) {
                let Some(tree) = forest.iter().find(|t| t.contains(ss) && t.contains(ds)) else {
                    continue;
                };
                if let Some(path) = updown::route(topo, tree, ss, ds) {
                    expected = Some(path);
                    break 'pairs;
                }
            }
        }
        let detail = match (net.circuit_wiring(vc), expected) {
            (Some((switches, _, _, _)), Some(path)) if switches != path => {
                format!("on {switches:?}, canonical {path:?}")
            }
            (Some((switches, _, _, _)), Some(_))
                if !forest
                    .iter()
                    .find(|t| t.contains(switches[0]))
                    .is_some_and(|t| updown::is_legal_path(t, &switches)) =>
            {
                format!("{switches:?} violates the up*/down* rule")
            }
            (Some(_), None) => "open but no canonical route exists".into(),
            (None, Some(p)) => format!("broken despite canonical route {p:?}"),
            // On its canonical path, or correctly broken: endpoints
            // partitioned.
            _ => continue,
        };
        out.push(Violation::PathNotCanonical {
            vc: vc.raw(),
            detail,
        });
    }
    out
}

/// Runs one schedule end to end under the paper's up*/down* protocol with
/// the full oracle. Deterministic: the same schedule always returns the
/// same report.
pub fn run_schedule(s: &Schedule) -> RunReport {
    run_schedule_with(s, ProtocolKind::UpDown)
}

/// Runs one schedule under the selected control protocol.
///
/// Up*/down* gets the full oracle — its external references (the harness
/// view oracle, the canonical-path recomputation) only exist for the
/// paper's protocol. The arena rivals keep the same run phases (drain,
/// credit resync, probes) so their digests are comparable run-to-run, but
/// only the protocol-agnostic legs are *recorded* as violations: per-slot
/// invariants and the delivery floor. The floor itself is derated to 90%
/// of the schedule's value for rivals: corpus floors are calibrated
/// against up*/down*'s reconvergence speed, and the rivals' extra loss
/// during reconvergence is a measured arena quantity, not a defect.
pub fn run_schedule_with(s: &Schedule, kind: ProtocolKind) -> RunReport {
    run_schedule_inner(s, kind, None).0
}

/// Runs one schedule with the telemetry observatory attached: identical
/// run phases (and — the determinism contract — an identical digest) to
/// [`run_schedule_with`], but with a tracer scraping interval snapshots
/// and running the SLO watchdog throughout. Returns the report plus the
/// tracer, whose health log can be scored against the schedule's
/// [`Schedule::fault_labels`] ground truth.
pub fn run_schedule_observed(
    s: &Schedule,
    kind: ProtocolKind,
    cfg: an2_trace::ObservatoryConfig,
) -> (RunReport, an2_trace::Tracer) {
    let (report, tracer) = run_schedule_inner(s, kind, Some(cfg));
    (report, tracer.expect("observed run always has a tracer"))
}

fn run_schedule_inner(
    s: &Schedule,
    kind: ProtocolKind,
    observe: Option<an2_trace::ObservatoryConfig>,
) -> (RunReport, Option<an2_trace::Tracer>) {
    let full_oracle = kind == ProtocolKind::UpDown;
    let topo = s.topology.build();
    let mut net = Network::builder()
        .topology(topo)
        .seed(s.seed)
        .protocol(kind)
        .build();
    let hosts: Vec<HostId> = net.hosts().collect();
    let mut circuits: Vec<(VcId, HostId, HostId)> = Vec::new();
    let half = (hosts.len() / 2).max(1);
    for i in 0..(s.circuits as usize).min(half) {
        // Offset pairing crosses the backbone like the N3 soak.
        let (a, b) = (hosts[i], hosts[(i + half) % hosts.len()]);
        if let Ok(vc) = net.open_best_effort(a, b) {
            circuits.push((vc, a, b));
        }
    }
    net.attach_faults(&s.fault, s.seed);
    net.enable_control_plane();
    let tracer = observe.map(|cfg| net.attach_observatory(an2_trace::TraceConfig::default(), cfg));

    // Adversarial phase: steady traffic under the fault schedule.
    let mut sent_pkts: Vec<u64> = vec![0; circuits.len()];
    let mut tag = 0u8;
    let mut t = 0u64;
    while t < s.run_slots {
        for (k, &(vc, _, _)) in circuits.iter().enumerate() {
            if !net.is_broken(vc)
                && net
                    .send_packet(vc, Packet::from_bytes(vec![tag; s.packet_bytes]))
                    .is_ok()
            {
                sent_pkts[k] += 1;
            }
        }
        tag = tag.wrapping_add(1);
        net.step(s.send_every);
        t += s.send_every;
    }

    // Drain tail: every skeptic holddown expires, the last epoch
    // converges. Then a bounded retry loop for stragglers.
    net.step(s.drain_slots);
    let mut retries = 0u32;
    while (!net.control_converged() || !net.quarantined_links().is_empty()) && retries < 15 {
        net.step(20_000);
        retries += 1;
    }

    let mut violations = Vec::new();
    if full_oracle && (!net.control_converged() || !net.quarantined_links().is_empty()) {
        violations.push(Violation::NotConverged);
    }

    // Credit resync: force markers until every surviving hop is whole.
    for _ in 0..60 {
        let whole = circuits
            .iter()
            .all(|&(vc, _, _)| net.is_broken(vc) || net.credits_fully_restored(vc));
        if whole {
            break;
        }
        for &(vc, _, _) in &circuits {
            if !net.is_broken(vc) && !net.credits_fully_restored(vc) {
                let _ = net.force_resync(vc);
            }
        }
        net.step(3_000);
    }

    // Delivery floor over surviving circuits, before the probe phase.
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut broken_circuits = 0u64;
    for (k, &(vc, _, _)) in circuits.iter().enumerate() {
        if net.is_broken(vc) {
            broken_circuits += 1;
            continue;
        }
        sent += sent_pkts[k];
        delivered += net.stats(vc).packets_delivered;
        if full_oracle && !net.credits_fully_restored(vc) {
            violations.push(Violation::CreditsNotWhole { vc: vc.raw() });
        }
    }
    let delivery_ratio = if sent == 0 {
        1.0
    } else {
        delivered as f64 / sent as f64
    };
    let floor = if full_oracle {
        s.delivery_floor
    } else {
        s.delivery_floor * 0.9
    };
    if delivery_ratio < floor {
        violations.push(Violation::DeliveryBelowFloor {
            delivered,
            sent,
            floor_milli: (floor * 1000.0) as u32,
        });
    }

    if full_oracle
        && violations
            .iter()
            .all(|v| !matches!(v, Violation::NotConverged))
    {
        let crashed = crashed_switches(s);
        violations.extend(check_views(&net, &crashed));
        violations.extend(check_paths(&net, &circuits, &crashed));
    }

    // Stuck-circuit probe: every surviving circuit must deliver a probe.
    // Retried a few times because a lossy link may legitimately eat an
    // individual probe — only a circuit that delivers *nothing* across
    // all rounds is stuck.
    let probe_base: Vec<u64> = circuits
        .iter()
        .map(|&(vc, _, _)| {
            if net.is_broken(vc) {
                u64::MAX
            } else {
                net.stats(vc).packets_delivered
            }
        })
        .collect();
    for _ in 0..5 {
        let unsatisfied: Vec<usize> = circuits
            .iter()
            .enumerate()
            .filter(|(k, &(vc, _, _))| {
                probe_base[*k] != u64::MAX && net.stats(vc).packets_delivered <= probe_base[*k]
            })
            .map(|(k, _)| k)
            .collect();
        if unsatisfied.is_empty() {
            break;
        }
        for &k in &unsatisfied {
            let _ = net.send_packet(circuits[k].0, Packet::from_bytes(vec![0xA5; 64]));
        }
        net.step(40_000);
    }
    if full_oracle {
        for (k, &(vc, _, _)) in circuits.iter().enumerate() {
            if probe_base[k] != u64::MAX && net.stats(vc).packets_delivered <= probe_base[k] {
                violations.push(Violation::StuckCircuit { vc: vc.raw() });
            }
        }
    }

    if let Some(c) = net.fault_counters() {
        if c.invariant_violations > 0 {
            violations.insert(
                0,
                Violation::Invariants {
                    count: c.invariant_violations,
                },
            );
        }
    }

    let count = |pick: fn(&ReconfigEvent) -> bool| {
        net.reconfig_log().iter().filter(|e| pick(e)).count() as u64
    };
    let report = RunReport {
        violations,
        digest: net.digest(),
        sent_packets: sent,
        delivered_packets: delivered,
        delivery_ratio,
        epochs: count(|e| matches!(e, ReconfigEvent::EpochStarted { .. })),
        verdict_transitions: count(|e| {
            matches!(
                e,
                ReconfigEvent::LinkDead { .. } | ReconfigEvent::LinkWorking { .. }
            )
        }),
        quarantine_entries: count(|e| {
            matches!(e, ReconfigEvent::LinkQuarantined { entered: true, .. })
        }),
        suppressed_recoveries: net.suppressed_recoveries(),
        broken_circuits,
        surviving_circuits: circuits.len() as u64 - broken_circuits,
        final_slot: net.slot(),
    };
    (report, tracer)
}
