//! Experiment N4: the embedded control plane — distributed reconfiguration
//! as part of the live network, on one event-driven timeline.
//!
//! Four cells, each a claim the tentpole refactor must hold (DESIGN.md §9):
//!
//! - **fail**: a backbone link dies for good under live traffic; the
//!   per-millisecond monitor's verdict feeds the switch-resident agents,
//!   their protocol messages ride real (lossy, fault-injectable) links as
//!   53-byte control cells, and failure → installed canonical up\*/down\*
//!   routes stays under the paper's 200 ms budget. The agents' final views
//!   are byte-identical to the ideal-transport `an2-reconfig` harness run
//!   on the same surviving topology, and every circuit sits on the
//!   byte-identical canonical route.
//! - **flap**: the link comes back; the skeptic readmits it and a second
//!   reconfiguration restores the full topology, again inside 200 ms of
//!   the readmission verdict.
//! - **crash**: a line card crashes for good. The agents converge on the
//!   surviving 3-switch topology (stall retry bridges the window where
//!   invites into the dead switch go unanswered) and dual-homed hosts keep
//!   delivering.
//! - **replay**: the same `(spec, seed)` replays byte-identically — log,
//!   control-transport counters, and per-circuit stats all digest equal.

use crate::{quiet_spec, Replay, NEVER};
use an2::{
    sink, CrashEvent, FaultSpec, FlapEvent, Hop, HostId, LinkId, Network, Phase, ReconfigEvent,
    SwitchId, TraceConfig, TraceEvent, VcId,
};
use an2_cells::Packet;
use an2_chaos::oracle::{check_paths, check_views};
use std::fmt::Write;

/// One cell's measured outcome, for the JSON baseline.
pub struct ControlRow {
    /// Cell name (fail / flap / crash / replay).
    pub cell: String,
    /// Failure (or readmission) → canonical routes installed, in simulated
    /// milliseconds. The worst such latency when a cell reconfigures more
    /// than once; 0 for the replay cell.
    pub converge_ms: f64,
    /// Data cells injected by source controllers, summed over circuits.
    pub sent_cells: u64,
    /// Data cells delivered to destination controllers.
    pub delivered_cells: u64,
    /// Data cells destroyed by the injected fault (in flight on the dead
    /// link, or inside the crashed line card).
    pub lost_cells: u64,
    /// Reconfiguration protocol messages put on real wires.
    pub ctrl_messages: u64,
    /// 53-byte control cells those messages segmented into.
    pub ctrl_cells: u64,
    /// Circuits moved onto new paths by route installs, summed.
    pub rerouted: u64,
    /// Whether every live agent's view matched the harness oracle.
    pub oracle_ok: bool,
    /// Whether a replay from the same `(spec, seed)` was byte-identical.
    pub replay_ok: bool,
}

/// The one reference check, `an2_chaos::oracle`'s: every live agent's
/// view equals the ideal-transport harness's on the same surviving topology,
/// the canonical forest routes deadlock-free, and every circuit sits on its
/// canonical, legal up\*/down\* path. Panics on
/// a violation; returns `true` so the JSON row can record the check ran.
fn oracle_holds(net: &Network, circuits: &[(VcId, HostId, HostId)], crashed: &[SwitchId]) -> bool {
    let mut violations = check_views(net, crashed);
    violations.extend(check_paths(net, circuits, crashed));
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    true
}

/// One finished run: the totals the report prints, and what a replay of it
/// is compared on.
struct Outcome {
    sent: u64,
    delivered: u64,
    lost: u64,
    rerouted: u64,
    ctrl_messages: u64,
    ctrl_cells: u64,
    replay: Replay,
}

impl Outcome {
    fn row(&self, cell: &str, converge_ms: f64, oracle_ok: bool, replay_ok: bool) -> ControlRow {
        ControlRow {
            cell: cell.into(),
            converge_ms,
            sent_cells: self.sent,
            delivered_cells: self.delivered,
            lost_cells: self.lost,
            ctrl_messages: self.ctrl_messages,
            ctrl_cells: self.ctrl_cells,
            rerouted: self.rerouted,
            oracle_ok,
            replay_ok,
        }
    }
}

/// Builds a dual-homed SRC installation with the embedded control plane,
/// keeps one best-effort circuit per consecutive host pair under steady
/// packet load for `slots` slots, and digests the result. With `trace`, a
/// flight recorder rides along — the digest must not notice.
fn drive(
    spec: &FaultSpec,
    seed: u64,
    slots: u64,
    trace: Option<TraceConfig>,
) -> (Network, Vec<(VcId, HostId, HostId)>, Outcome) {
    let mut net = Network::builder()
        .topology(an2_topology::generators::src_installation(4, 8))
        .seed(seed)
        .build();
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            let vc = net.open_best_effort(a, b).expect("open circuit");
            circuits.push((vc, a, b));
        }
    }
    net.attach_faults(spec, seed);
    if let Some(cfg) = trace {
        net.attach_tracer(cfg);
    }
    net.enable_control_plane();
    let mut tag = 0u8;
    while net.slot() < slots {
        for &(vc, _, _) in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(4_000);
    }
    net.step(25_000); // drain the pipeline
    let ctrl = net.ctrl_counters();
    let mut out = Outcome {
        sent: 0,
        delivered: 0,
        lost: 0,
        rerouted: 0,
        ctrl_messages: ctrl.messages_sent,
        ctrl_cells: ctrl.cells_sent,
        replay: Replay::of(&net),
    };
    for e in &out.replay.log {
        if let ReconfigEvent::RoutesInstalled { rerouted, .. } = *e {
            out.rerouted += rerouted;
        }
    }
    for &(vc, _, _) in &circuits {
        if net.is_broken(vc) {
            continue;
        }
        let s = net.stats(vc);
        out.sent += s.sent_cells;
        out.delivered += s.delivered_cells;
        out.lost += s.lost_cells;
    }
    (net, circuits, out)
}

/// The first `RoutesInstalled` at or after `from`, as (slot, latency in
/// simulated ms measured from `origin`).
fn install_after(log: &[ReconfigEvent], from: u64, origin: u64, slot_ns: u64) -> (u64, f64) {
    let slot = log
        .iter()
        .find_map(|e| match *e {
            ReconfigEvent::RoutesInstalled { slot, .. } if slot >= from => Some(slot),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no route install at/after slot {from}; log={log:?}"));
    (slot, (slot - origin) as f64 * slot_ns as f64 / 1e6)
}

/// The slot the monitor declared `link` dead (or working, with `up`) at or
/// after `from`.
fn verdict_slot(log: &[ReconfigEvent], link: LinkId, up: bool, from: u64) -> u64 {
    log.iter()
        .find_map(|e| match *e {
            ReconfigEvent::LinkDead { slot, link: l, .. } if !up && l == link && slot >= from => {
                Some(slot)
            }
            ReconfigEvent::LinkWorking { slot, link: l, .. } if up && l == link && slot >= from => {
                Some(slot)
            }
            _ => None,
        })
        .unwrap_or_else(|| {
            panic!(
                "monitor never declared {link:?} {}; log={log:?}",
                if up { "working" } else { "dead" }
            )
        })
}

/// Runs all four cells. Panics (failing the harness) on any violated
/// claim, so CI can gate on `experiments n4`.
pub fn n4_control_plane() -> (Vec<ControlRow>, String) {
    let mut rows = Vec::new();
    let mut text = String::new();
    let slot_ns = an2_cells::LinkRate::Mbps622.slot_duration().as_nanos();
    let topo = an2_topology::generators::src_installation(4, 8);
    let backbone: Vec<_> = topo.switch_links().collect();
    let victim = backbone[0].0;
    let down_at = 40_000u64;

    // --- fail: permanent backbone link failure under live traffic.
    let mut fail_spec = quiet_spec();
    fail_spec.flaps.push(FlapEvent {
        link: victim,
        down_at,
        up_at: NEVER,
    });
    let (net, circuits, out) = drive(&fail_spec, 7, 500_000, None);
    assert!(net.control_converged(), "fail cell never converged");
    let dead = verdict_slot(&out.replay.log, victim, false, down_at);
    let (_, ms) = install_after(&out.replay.log, dead, down_at, slot_ns);
    assert!(ms < 200.0, "failure → routes took {ms:.1} ms (≥ 200 ms)");
    let oracle_ok = oracle_holds(&net, &circuits, &[]);
    assert!(out.delivered > 0, "no delivery across the failure");
    writeln!(
        text,
        "fail:   backbone link dead → canonical routes installed {ms:.2} ms \
         after failure (< 200 ms); {} of {} data cells delivered, {} lost \
         in flight; {} control messages ({} cells) on real wires; views \
         byte-identical to the harness oracle",
        out.delivered, out.sent, out.lost, out.ctrl_messages, out.ctrl_cells
    )
    .unwrap();
    rows.push(out.row("fail", ms, oracle_ok, true));

    // --- flap: down, then readmitted by the skeptic; both reconfigurations
    // land inside the budget.
    let up_at = 150_000u64;
    let mut flap_spec = quiet_spec();
    flap_spec.flaps.push(FlapEvent {
        link: victim,
        down_at,
        up_at,
    });
    let (net, circuits, out) = drive(&flap_spec, 11, 700_000, None);
    assert!(net.control_converged(), "flap cell never converged");
    let dead = verdict_slot(&out.replay.log, victim, false, down_at);
    let (down_install, down_ms) = install_after(&out.replay.log, dead, down_at, slot_ns);
    assert!(down_ms < 200.0, "flap-down reconfig took {down_ms:.1} ms");
    let readmit = verdict_slot(&out.replay.log, victim, true, up_at);
    let (_, up_ms) = install_after(
        &out.replay.log,
        readmit.max(down_install + 1),
        readmit,
        slot_ns,
    );
    assert!(up_ms < 200.0, "flap-up reconfig took {up_ms:.1} ms");
    let oracle_ok = oracle_holds(&net, &circuits, &[]);
    let worst = down_ms.max(up_ms);
    writeln!(
        text,
        "flap:   down reconfig {down_ms:.2} ms, readmission reconfig \
         {up_ms:.2} ms after the skeptic's verdict (both < 200 ms); full \
         topology restored, {} of {} data cells delivered",
        out.delivered, out.sent
    )
    .unwrap();
    rows.push(out.row("flap", worst, oracle_ok, true));

    // --- crash: a line card dies for good; agents converge on the
    // surviving topology and dual-homed hosts keep delivering.
    let crash_victim = SwitchId(1);
    let mut crash_spec = quiet_spec();
    crash_spec.crashes.push(CrashEvent {
        switch: crash_victim,
        at: down_at,
        restart_at: NEVER,
    });
    let (net, circuits, out) = drive(&crash_spec, 13, 800_000, None);
    assert!(net.control_converged(), "crash cell never converged");
    // The monitors kill the victim's links one ping round at a time; the
    // reconfiguration that matters starts at the *last* dead verdict.
    let last_dead = out
        .replay
        .log
        .iter()
        .filter_map(|e| match *e {
            ReconfigEvent::LinkDead { slot, .. } => Some(slot),
            _ => None,
        })
        .max()
        .expect("monitor never declared any of the crashed switch's links dead");
    let (_, crash_ms) = install_after(&out.replay.log, last_dead, last_dead, slot_ns);
    assert!(
        crash_ms < 200.0,
        "last verdict → converged routes took {crash_ms:.1} ms (≥ 200 ms)"
    );
    let oracle_ok = oracle_holds(&net, &circuits, &[crash_victim]);
    assert!(
        out.delivered > out.sent / 2,
        "a single line-card crash must not halve delivery ({} of {})",
        out.delivered,
        out.sent
    );
    writeln!(
        text,
        "crash:  switch1 dead for good; agents converge on the 3-switch \
         survivor {crash_ms:.2} ms after the last dead verdict, {} circuits \
         rerouted, {} of {} data cells delivered via dual-homing",
        out.rerouted, out.delivered, out.sent
    )
    .unwrap();
    rows.push(out.row("crash", crash_ms, oracle_ok, true));

    // --- replay: same (spec, seed) → byte-identical log, transport
    // counters, and per-circuit stats.
    let mut replay_spec = quiet_spec();
    replay_spec.flaps.push(FlapEvent {
        link: backbone[2].0,
        down_at,
        up_at,
    });
    let (_, _, first) = drive(&replay_spec, 21, 400_000, None);
    let (_, _, second) = drive(&replay_spec, 21, 400_000, None);
    let replay_ok = first.replay == second.replay;
    assert!(replay_ok, "same (spec, seed) must replay byte-identically");
    writeln!(
        text,
        "replay: two runs from the same (spec, seed) digest equal — log \
         ({} events), {} control messages, per-circuit stats all identical",
        first.replay.log.len(),
        first.ctrl_messages
    )
    .unwrap();
    rows.push(first.row("replay", 0.0, true, replay_ok));

    (rows, text)
}

/// What the `--trace n4` run measured, for the JSON baseline.
pub struct TraceRow {
    /// Events ever recorded (including ones evicted off the ring).
    pub events_seen: u64,
    /// Events evicted off the back of the flight recorder.
    pub events_evicted: u64,
    /// Distinct sampled cells with hop-by-hop journeys in the retained
    /// window.
    pub sampled_cells: usize,
    /// Recorded converge-begin → install-end span for the post-failure
    /// reconfiguration, in simulated milliseconds.
    pub reconfig_ms: f64,
    /// Minimum recorded per-switch residence of a sampled cell
    /// (dequeue-after-enqueue), in slots — the cut-through floor.
    pub min_queued_slots: u64,
    /// Whether the traced run digested byte-identical to the untraced one.
    pub identical_to_untraced: bool,
}

/// The fail cell re-run with the flight recorder attached. Writes the
/// recording to `out_dir` as Chrome trace-event JSON (drag into
/// ui.perfetto.dev), JSONL, and the metrics registry in JSON + Prometheus
/// text; asserts the *recorded* failure reconfiguration span stays under
/// the paper's 200 ms budget; and proves the traced run byte-identical to
/// the untraced one from the same `(spec, seed)`.
pub fn n4_trace(out_dir: &str) -> (TraceRow, String) {
    let slot_ns = an2_cells::LinkRate::Mbps622.slot_duration().as_nanos();
    let topo = an2_topology::generators::src_installation(4, 8);
    let (victim, _, _) = topo.switch_links().next().expect("a backbone link");
    let down_at = 40_000u64;
    let mut spec = quiet_spec();
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at,
        up_at: NEVER,
    });

    // Big ring so the whole run is retained; denser path sampling than the
    // default since this recording exists to be looked at.
    let cfg = TraceConfig {
        ring_capacity: 1 << 20,
        sample_every: 128,
        ..TraceConfig::default()
    };
    let (net, _, traced) = drive(&spec, 7, 500_000, Some(cfg));
    let (_, _, plain) = drive(&spec, 7, 500_000, None);
    let identical = traced.replay == plain.replay;
    assert!(
        identical,
        "tracing perturbed the run: traced and untraced digests differ"
    );

    let tracer = net.tracer().expect("drive attached a tracer").clone();
    let records = tracer.records();
    assert!(!records.is_empty(), "flight recorder captured nothing");

    // The paper's claim, read straight off the recording: from the converge
    // that opened after the failure to the install that closed it.
    let spans = sink::reconfig_spans(&records);
    let fail_ns = down_at * slot_ns;
    let (_, _, conv_begin, _) = *spans
        .iter()
        .find(|&&(p, _, begin, _)| p == Phase::Converge && begin >= fail_ns)
        .expect("no converge span recorded after the failure");
    let (_, _, _, inst_end) = *spans
        .iter()
        .find(|&&(p, _, _, end)| p == Phase::Install && end >= conv_begin)
        .expect("no install span recorded after the failure");
    let reconfig_ms = (inst_end - conv_begin) as f64 / 1e6;
    assert!(
        reconfig_ms < 200.0,
        "recorded reconfiguration span {reconfig_ms:.1} ms (≥ 200 ms)"
    );

    // Sampled cell journeys: distinct trace ids, and the cut-through floor
    // (a cell that never waits crosses a switch in the pipeline minimum).
    let mut sampled = std::collections::BTreeSet::new();
    let mut min_queued = u64::MAX;
    for r in &records {
        match r.event {
            TraceEvent::CellInject { trace_id, .. } | TraceEvent::CellDeliver { trace_id, .. }
                if trace_id != 0 =>
            {
                sampled.insert(trace_id);
            }
            TraceEvent::CellHop {
                trace_id,
                hop: Hop::SwitchOut { queued_slots, .. },
                ..
            } if trace_id != 0 => {
                sampled.insert(trace_id);
                min_queued = min_queued.min(queued_slots);
            }
            _ => {}
        }
    }
    assert!(!sampled.is_empty(), "no sampled cell journeys recorded");
    let min_queued = if min_queued == u64::MAX {
        0
    } else {
        min_queued
    };

    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("creating {out_dir}: {e}"));
    let chrome = sink::chrome_trace(&records);
    assert!(
        chrome.starts_with("{\"traceEvents\":[") && chrome.ends_with("]}"),
        "Chrome trace export is malformed"
    );
    let chrome_path = format!("{out_dir}/n4_fail.trace.json");
    std::fs::write(&chrome_path, &chrome).unwrap_or_else(|e| panic!("writing {chrome_path}: {e}"));
    let jsonl_path = format!("{out_dir}/n4_fail.jsonl");
    std::fs::write(&jsonl_path, sink::jsonl(&records))
        .unwrap_or_else(|e| panic!("writing {jsonl_path}: {e}"));
    let metrics_path = format!("{out_dir}/n4_fail.metrics.json");
    std::fs::write(&metrics_path, tracer.metrics_json())
        .unwrap_or_else(|e| panic!("writing {metrics_path}: {e}"));
    let prom_path = format!("{out_dir}/n4_fail.metrics.prom");
    std::fs::write(&prom_path, tracer.metrics_prometheus())
        .unwrap_or_else(|e| panic!("writing {prom_path}: {e}"));

    let row = TraceRow {
        events_seen: tracer.events_seen(),
        events_evicted: tracer.events_dropped(),
        sampled_cells: sampled.len(),
        reconfig_ms,
        min_queued_slots: min_queued,
        identical_to_untraced: identical,
    };
    let mut text = String::new();
    writeln!(
        text,
        "traced fail cell: {} events recorded ({} evicted off the ring), \
         digest byte-identical to the untraced run",
        row.events_seen, row.events_evicted
    )
    .unwrap();
    writeln!(
        text,
        "recorded reconfiguration: converge begin → routes installed in \
         {reconfig_ms:.2} ms of virtual time (< 200 ms, read off the trace)"
    )
    .unwrap();
    writeln!(
        text,
        "{} sampled cell journeys; fastest switch transit {} slots \
         ({:.2} us) — the cut-through floor",
        row.sampled_cells,
        min_queued,
        min_queued as f64 * slot_ns as f64 / 1e3
    )
    .unwrap();
    writeln!(
        text,
        "registry: {} cells injected, {} delivered, {} credits returned, \
         {} control cells, {} resyncs completed",
        tracer.counter_total("fabric.cells_injected"),
        tracer.counter_total("fabric.cells_delivered"),
        tracer.counter_total("fabric.credits_sent"),
        tracer.counter_total("ctrl.cells_sent"),
        tracer.counter_total("flow.resyncs_completed"),
    )
    .unwrap();
    writeln!(
        text,
        "wrote {chrome_path} (open in ui.perfetto.dev), {jsonl_path}, \
         {metrics_path}, {prom_path}"
    )
    .unwrap();
    (row, text)
}
