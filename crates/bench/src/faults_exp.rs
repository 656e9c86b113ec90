//! Experiment N3: chaos soak — the deterministic fault layer end to end.
//!
//! Five cells, each a claim the robustness work must hold:
//!
//! - **inert**: an attached-but-empty fault spec is free — the run is
//!   byte-identical to one with no fault layer at all.
//! - **loss**: ~1% bursty (Gilbert–Elliott) cell loss degrades throughput
//!   but never wedges it; periodic + forced credit resync (§5) returns
//!   every hop to its full allocation once traffic drains, with zero
//!   invariant violations.
//! - **flap**: a scripted link flap is detected by the per-millisecond
//!   ping monitor and reconfigured around well inside 200 ms of simulated
//!   time; the skeptic readmits the link after the flap ends.
//! - **crash**: a line-card crash eats its buffers, yet the single failure
//!   never partitions the (dual-homed, redundant-backbone) installation,
//!   and delivery resumes after the scripted restart.
//! - **soak**: loss + flap + crash together, invariant checker on every
//!   slot; the run drains clean and replays byte-identically from the
//!   same `(spec, seed)`.

use crate::Replay;
use an2::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel, Network, VcId};
use an2_cells::Packet;
use an2_sim::SimDuration;
use an2_topology::LinkId;
use std::fmt::Write;

/// One cell's measured outcome, for the JSON baseline.
pub struct ChaosRow {
    /// Cell name (inert / loss / flap / crash / soak).
    pub cell: String,
    /// Cells injected by source controllers, summed over circuits.
    pub sent_cells: u64,
    /// Cells delivered to destination controllers.
    pub delivered_cells: u64,
    /// Cells destroyed by injected faults.
    pub lost_cells: u64,
    /// Invariant-checker violations (must be 0).
    pub violations: u64,
    /// Resyncs completed (§5 markers whose reply was applied).
    pub resyncs: u64,
    /// Fault detection latency in simulated milliseconds (flap cell; 0
    /// elsewhere).
    pub detect_ms: f64,
    /// Whether every circuit ended with its full credit allocation.
    pub restored: bool,
    /// Whether a replay from the same `(spec, seed)` was byte-identical.
    pub replay_ok: bool,
}

/// One finished run: the totals the report prints, and what a replay of it
/// is compared on.
struct Outcome {
    sent: u64,
    delivered: u64,
    lost: u64,
    violations: u64,
    resyncs: u64,
    restored: bool,
    replay: Replay,
}

impl Outcome {
    fn row(&self, cell: &str, detect_ms: f64, replay_ok: bool) -> ChaosRow {
        ChaosRow {
            cell: cell.into(),
            sent_cells: self.sent,
            delivered_cells: self.delivered,
            lost_cells: self.lost,
            violations: self.violations,
            resyncs: self.resyncs,
            detect_ms,
            restored: self.restored,
            replay_ok,
        }
    }
}

/// Drives `circuits` best-effort circuits over a 4-switch SRC installation
/// for `slots` slots, sending a small packet per circuit every `gap`
/// slots, then drains and (with a fault layer) forces resyncs until every
/// hop is whole or the retry budget runs out.
fn soak(spec: Option<&FaultSpec>, fault_seed: u64, slots: u64, gap: u64) -> Outcome {
    let mut net = Network::builder().src_installation(4, 12).seed(17).build();
    let hosts: Vec<_> = net.hosts().collect();
    let mut vcs: Vec<VcId> = Vec::new();
    for i in 0..6 {
        // Offset 6 ≡ 2 (mod 4): routes cross the backbone.
        let (src, dst) = (hosts[i], hosts[(i + 6) % hosts.len()]);
        let vc = net.open_best_effort(src, dst).expect("route exists");
        vcs.push(vc);
    }
    if let Some(spec) = spec {
        net.attach_faults(spec, fault_seed);
    }
    // 480-byte packets: 10 cells each, small enough that ~1% cell loss
    // still delivers most packets whole.
    let mut t = 0;
    let mut tag = 0u8;
    while t < slots {
        for &vc in &vcs {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 480]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(gap);
        t += gap;
    }
    net.step(25_000); // drain the pipeline
    if spec.is_some() {
        for _ in 0..60 {
            let whole = vcs
                .iter()
                .all(|&vc| net.is_broken(vc) || net.credits_fully_restored(vc));
            if whole {
                break;
            }
            for &vc in &vcs {
                if !net.is_broken(vc) && !net.credits_fully_restored(vc) {
                    let _ = net.force_resync(vc);
                }
            }
            net.step(3_000);
        }
    }
    let faults = net.fault_counters().unwrap_or_default();
    let mut out = Outcome {
        sent: 0,
        delivered: 0,
        lost: 0,
        violations: faults.invariant_violations,
        resyncs: faults.resyncs_completed,
        restored: true,
        replay: Replay::of(&net),
    };
    for &vc in &vcs {
        let s = net.stats(vc);
        out.sent += s.sent_cells;
        out.delivered += s.delivered_cells;
        out.lost += s.lost_cells;
        if spec.is_some() && !net.is_broken(vc) && !net.credits_fully_restored(vc) {
            out.restored = false;
        }
    }
    out
}

/// ~1% average loss: the GE chain spends ~2% of slots in the bad state
/// (0.002 / (0.002 + 0.1)), losing half the cells it sees there.
fn bursty_percent_loss() -> LinkFaultModel {
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

fn per_ms_monitor(spec: &mut FaultSpec) {
    spec.monitor.ping_interval = SimDuration::from_millis(1);
}

/// Runs all five cells. Panics (failing the harness) on any violated
/// claim, so CI can gate on `experiments n3`.
pub fn n3_chaos_soak() -> (Vec<ChaosRow>, String) {
    let mut rows = Vec::new();
    let mut text = String::new();

    // --- inert: the fault layer must be free when nothing is configured.
    let bare = soak(None, 0, 20_000, 600);
    let inert = soak(Some(&FaultSpec::default()), 9, 20_000, 600);
    // A network without a layer digests zero fault counters and an empty
    // log, which is what the default spec must leave too: its resync
    // interval is 0, so not even a marker is counted (a spec that turns
    // resync on is still `is_inert()`, but its markers show here).
    assert!(bare.replay == inert.replay, "inert fault layer showed");
    assert_eq!((inert.violations, inert.resyncs), (0, 0));
    writeln!(
        text,
        "inert:  {} cells sent, {} delivered — identical with and without \
         the (empty) fault layer attached",
        bare.sent, bare.delivered
    )
    .unwrap();
    rows.push(inert.row("inert", 0.0, true));

    // --- loss: degraded, never broken; resync makes the credits whole.
    let mut loss_spec = FaultSpec {
        default_link: bursty_percent_loss(),
        resync_interval_slots: 2_000,
        ..Default::default()
    };
    per_ms_monitor(&mut loss_spec);
    let lossy = soak(Some(&loss_spec), 41, 30_000, 600);
    let replay = soak(Some(&loss_spec), 41, 30_000, 600);
    let replay_ok = lossy.replay == replay.replay;
    assert!(replay_ok, "same (spec, seed) must replay byte-identically");
    assert!(lossy.lost > 0, "the lossy links never fired");
    assert!(
        lossy.delivered as f64 >= 0.90 * lossy.sent as f64,
        "1% loss should still deliver ≥90% of cells ({} of {})",
        lossy.delivered,
        lossy.sent
    );
    assert_eq!(lossy.violations, 0, "invariant checker fired under loss");
    assert!(lossy.restored, "credits not restored after drain + resync");
    assert!(lossy.resyncs > 0);
    writeln!(
        text,
        "loss:   {} of {} cells delivered under ~1% bursty loss ({} lost, \
         {} resyncs, credits whole again, 0 violations)",
        lossy.delivered, lossy.sent, lossy.lost, lossy.resyncs
    )
    .unwrap();
    rows.push(lossy.row("loss", 0.0, replay_ok));

    // --- flap: monitor detection inside 200 ms, then skeptic recovery.
    // Link 0 is an inter-switch backbone link in src_installation.
    let slot_ns = an2_cells::LinkRate::Mbps622.slot_duration().as_nanos();
    let down_at = 30_000u64;
    let up_at = 300_000u64;
    let mut flap_spec = FaultSpec {
        flaps: vec![FlapEvent {
            link: LinkId(0),
            down_at,
            up_at,
        }],
        ..Default::default()
    };
    per_ms_monitor(&mut flap_spec);
    // One long run (~0.4 s simulated) so the skeptic's 100 ms wait and the
    // ten recovery pings both fit.
    let flap = soak(Some(&flap_spec), 5, 700_000, 5_000);
    let death = flap
        .replay
        .log
        .iter()
        .find_map(|e| match *e {
            an2::ReconfigEvent::LinkDead {
                slot,
                link: LinkId(0),
                ..
            } => Some(slot),
            _ => None,
        })
        .unwrap_or_else(|| {
            panic!(
                "monitor never declared the flap dead; log={:?}",
                flap.replay.log
            )
        });
    let detect_ms = (death - down_at) as f64 * slot_ns as f64 / 1e6;
    assert!(
        detect_ms < 200.0,
        "flap detection took {detect_ms:.1} ms (≥ 200 ms)"
    );
    let revived = flap.replay.log.iter().any(|e| {
        matches!(
            *e,
            an2::ReconfigEvent::LinkWorking { slot, link, .. } if link == LinkId(0) && slot > up_at
        )
    });
    assert!(revived, "skeptic never readmitted the flapped link");
    assert_eq!(flap.violations, 0);
    assert!(
        flap.delivered > 0,
        "traffic must keep flowing around the flap"
    );
    writeln!(
        text,
        "flap:   link0 declared dead {detect_ms:.2} ms after going down \
         (< 200 ms), readmitted after the flap; {} of {} cells delivered",
        flap.delivered, flap.sent
    )
    .unwrap();
    rows.push(flap.row("flap", detect_ms, true));

    // --- crash: one line card dies and restarts; no partition (dual-homed
    // hosts, redundant backbone), delivery resumes.
    let mut crash_spec = FaultSpec {
        crashes: vec![CrashEvent {
            switch: an2_topology::SwitchId(1),
            at: 40_000,
            restart_at: 120_000,
        }],
        resync_interval_slots: 4_000,
        ..Default::default()
    };
    per_ms_monitor(&mut crash_spec);
    let crash = soak(Some(&crash_spec), 13, 600_000, 5_000);
    assert_eq!(crash.violations, 0);
    assert!(
        crash.delivered > crash.sent / 2,
        "a single line-card crash must not halve delivery ({} of {})",
        crash.delivered,
        crash.sent
    );
    writeln!(
        text,
        "crash:  switch1 down for 80k slots; {} of {} cells still \
         delivered, no partition, 0 violations",
        crash.delivered, crash.sent
    )
    .unwrap();
    rows.push(crash.row("crash", 0.0, true));

    // --- soak: everything at once, replayed.
    let mut soak_spec = FaultSpec {
        default_link: bursty_percent_loss(),
        flaps: vec![FlapEvent {
            link: LinkId(0),
            down_at: 50_000,
            up_at: 200_000,
        }],
        crashes: vec![CrashEvent {
            switch: an2_topology::SwitchId(2),
            at: 250_000,
            restart_at: 320_000,
        }],
        resync_interval_slots: 2_000,
        ..Default::default()
    };
    per_ms_monitor(&mut soak_spec);
    let chaos = soak(Some(&soak_spec), 77, 500_000, 5_000);
    let chaos2 = soak(Some(&soak_spec), 77, 500_000, 5_000);
    let chaos_replay_ok = chaos.replay == chaos2.replay;
    assert!(chaos_replay_ok, "chaos soak must replay byte-identically");
    assert_eq!(chaos.violations, 0, "invariant checker fired in the soak");
    assert!(chaos.delivered > 0);
    writeln!(
        text,
        "soak:   loss + flap + crash together: {} of {} cells delivered, \
         {} lost, {} resyncs, 0 violations, byte-identical replay",
        chaos.delivered, chaos.sent, chaos.lost, chaos.resyncs
    )
    .unwrap();
    rows.push(chaos.row("soak", 0.0, chaos_replay_ok));

    (rows, text)
}
