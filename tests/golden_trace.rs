//! Golden-trace test: replay the N4 failure scenario with the flight
//! recorder attached and assert the *recording* tells the paper's story —
//! the monitor's dead verdict, then the reconfiguration phase transitions
//! in golden order, the whole span under the 200 ms budget, and sampled
//! cells whose hop-by-hop journeys reconstruct end to end.

use an2::{
    sink, FaultSpec, FlapEvent, Network, Phase, PhaseEdge, SkepticConfig, TraceConfig, TraceEvent,
    Tracer,
};
use an2_cells::{LinkRate, Packet};
use an2_sim::json::JVal;
use an2_sim::SimDuration;
use an2_topology::LinkId;
use an2_trace::ObservatoryConfig;

/// 200 ms, in nanoseconds of virtual time.
const BUDGET_NS: u64 = 200_000_000;

/// The first inter-switch link of the topology — the N4 victim.
fn backbone_link(net: &Network) -> LinkId {
    let (link, _, _) = net.topology().switch_links().next().expect("a backbone");
    link
}

/// The N4 fail cell, traced: a backbone link dies for good at slot 40 000
/// under steady best-effort load, and the run continues until the embedded
/// control plane has converged on the survivor topology.
fn drive_failure() -> (Network, Tracer, LinkId, u64) {
    let mut net = Network::builder().src_installation(4, 8).seed(7).build();
    let victim = backbone_link(&net);
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            circuits.push(net.open_best_effort(a, b).expect("open circuit"));
        }
    }
    let down_at = 40_000u64;
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at,
        up_at: 1_000_000_000, // never within the horizon
    });
    net.attach_faults(&spec, 7);
    let tracer = net.attach_tracer(TraceConfig {
        ring_capacity: 1 << 18,
        ..TraceConfig::default()
    });
    net.enable_control_plane();
    let mut tag = 0u8;
    while net.slot() < 160_000 {
        for &vc in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(4_000);
    }
    net.step(25_000);
    assert!(net.control_converged(), "control plane never converged");
    (net, tracer, victim, down_at)
}

#[test]
fn n4_failure_leaves_a_golden_reconfig_trace() {
    let slot_ns = LinkRate::Mbps622.slot_duration().as_nanos();
    let (_net, tracer, victim, down_at) = drive_failure();
    let records = tracer.records();
    assert_eq!(
        tracer.events_dropped(),
        0,
        "ring evicted records; the golden comparison needs the whole run"
    );
    let fail_ns = down_at * slot_ns;

    // Time never runs backwards in the recording, whoever emitted.
    if let Some(w) = records.windows(2).find(|w| w[0].slot > w[1].slot) {
        panic!("records step back in time: {:?} then {:?}", w[0], w[1]);
    }

    // The recording opens with the boot reconfiguration.
    let first_phase = records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::ReconfigPhase { phase, edge, .. } => Some((phase, edge)),
            _ => None,
        })
        .expect("no reconfiguration phases recorded");
    assert_eq!(first_phase, (Phase::Converge, PhaseEdge::Begin));

    // The monitor's dead verdict for the victim is on the record, after
    // the flap fired.
    let verdict_ns = records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::MonitorVerdict { link, up: false } if link == victim.0 => Some(r.at_ns),
            _ => None,
        })
        .expect("no dead verdict recorded for the victim link");
    assert!(
        verdict_ns >= fail_ns,
        "verdict at {verdict_ns} ns precedes the failure at {fail_ns} ns"
    );

    // Golden phase sequence for the post-failure epoch: exactly
    // converge-begin, converge-end, install-begin, install-end, in order.
    let phases: Vec<(Phase, PhaseEdge, u64, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::ReconfigPhase {
                phase, edge, epoch, ..
            } => Some((phase, edge, epoch, r.at_ns)),
            _ => None,
        })
        .collect();
    let post_epoch = phases
        .iter()
        .find(|&&(p, e, _, ns)| p == Phase::Converge && e == PhaseEdge::Begin && ns >= fail_ns)
        .expect("no converge began after the failure")
        .2;
    let seq: Vec<(Phase, PhaseEdge)> = phases
        .iter()
        .filter(|&&(_, _, epoch, _)| epoch == post_epoch)
        .map(|&(p, e, _, _)| (p, e))
        .collect();
    assert_eq!(
        seq,
        vec![
            (Phase::Converge, PhaseEdge::Begin),
            (Phase::Converge, PhaseEdge::End),
            (Phase::Install, PhaseEdge::Begin),
            (Phase::Install, PhaseEdge::End),
        ],
        "post-failure epoch {post_epoch} broke the golden phase order"
    );

    // Every completed span beats the budget, and so does the full
    // converge-begin → install-end stretch of the post-failure epoch.
    let spans = sink::reconfig_spans(&records);
    for &(phase, epoch, begin, end) in &spans {
        assert!(
            end - begin < BUDGET_NS,
            "{} span of epoch {epoch} took {} ns (≥ 200 ms)",
            phase.name(),
            end - begin
        );
    }
    let conv_begin = spans
        .iter()
        .find(|&&(p, e, _, _)| p == Phase::Converge && e == post_epoch)
        .expect("post-failure converge span incomplete")
        .2;
    let inst_end = spans
        .iter()
        .find(|&&(p, e, _, _)| p == Phase::Install && e == post_epoch)
        .expect("post-failure install span incomplete")
        .3;
    assert!(inst_end > conv_begin, "install ended before converge began");
    assert!(
        inst_end - conv_begin < BUDGET_NS,
        "failure reconfiguration took {} ns (≥ 200 ms)",
        inst_end - conv_begin
    );

    // At least one sampled cell's journey reconstructs end to end:
    // injection, one or more hops, delivery — all under one trace id.
    let complete_journey = records.iter().any(|r| match r.event {
        TraceEvent::CellDeliver { trace_id, .. } if trace_id != 0 => {
            let injected = records.iter().any(
                |q| matches!(q.event, TraceEvent::CellInject { trace_id: t, .. } if t == trace_id),
            );
            let hopped = records.iter().any(
                |q| matches!(q.event, TraceEvent::CellHop { trace_id: t, .. } if t == trace_id),
            );
            injected && hopped
        }
        _ => false,
    });
    assert!(
        complete_journey,
        "no sampled cell journey reconstructs inject → hops → deliver"
    );

    // The Chrome export of this recording is well-formed and carries the
    // reconfig spans Perfetto will draw.
    let chrome = chrome_events(&sink::chrome_trace(&records));
    assert!(
        chrome.iter().any(|ev| text(ev, "ph") == "X"),
        "no complete spans exported"
    );
}

/// Parses a Chrome export and checks every event by value: a finite `ts`
/// of 0 or more, and a phase the exporter writes.
fn chrome_events(json: &str) -> Vec<JVal> {
    let doc = JVal::parse(json).expect("Chrome export parses");
    let events = doc
        .want("traceEvents")
        .and_then(JVal::as_arr)
        .expect("a traceEvents array");
    for ev in events {
        let ts = ev.want("ts").and_then(JVal::as_f64).expect("numeric ts");
        assert!(ts.is_finite() && ts >= 0.0, "ts {ts} in {ev:?}");
        let ph = text(ev, "ph");
        assert!(
            ["X", "i", "b", "n", "e", "C"].contains(&ph),
            "phase {ph:?} in {ev:?}"
        );
    }
    events.to_vec()
}

/// A string member of a Chrome event.
fn text<'a>(ev: &'a JVal, key: &str) -> &'a str {
    ev.want(key)
        .and_then(JVal::as_str)
        .unwrap_or_else(|e| panic!("{e} in {ev:?}"))
}

/// The N4 flap-with-recovery cell, observed: the victim dies at 40 000,
/// recovers at 80 000, and a 50 ms skeptic holddown (longer than the
/// ~30 ms between the dead verdict and the recovery streak) quarantines
/// the readmission — so the recording carries quarantine edges, and the
/// observatory scrapes the 1 ms interval snapshots the counter tracks
/// render from.
fn drive_flap_with_recovery() -> (Network, Tracer, LinkId) {
    let mut net = Network::builder().src_installation(4, 8).seed(7).build();
    let victim = backbone_link(&net);
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            circuits.push(net.open_best_effort(a, b).expect("open circuit"));
        }
    }
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec.monitor.skeptic = SkepticConfig {
        base_wait: SimDuration::from_millis(50),
        max_level: 3,
        ..SkepticConfig::default()
    };
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at: 40_000,
        up_at: 80_000,
    });
    net.attach_faults(&spec, 7);
    let tracer = net.attach_observatory(
        TraceConfig {
            ring_capacity: 1 << 18,
            ..TraceConfig::default()
        },
        ObservatoryConfig::default(),
    );
    net.enable_control_plane();
    let mut tag = 0u8;
    while net.slot() < 200_000 {
        for &vc in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(4_000);
    }
    net.step(25_000);
    (net, tracer, victim)
}

#[test]
fn counter_tracks_render_and_skeptic_track_steps_at_quarantine_edges() {
    let slot_ns = LinkRate::Mbps622.slot_duration().as_nanos();
    let (_net, tracer, victim) = drive_flap_with_recovery();
    let records = tracer.records();
    let intervals = tracer.intervals();
    assert!(
        intervals.len() >= 100,
        "observatory scraped only {} intervals",
        intervals.len()
    );

    let chrome = chrome_events(&sink::chrome_trace_with_counters(
        &records, &intervals, slot_ns,
    ));
    let counters: Vec<&JVal> = chrome.iter().filter(|ev| text(ev, "ph") == "C").collect();
    assert!(!counters.is_empty(), "no counter samples exported");
    assert!(
        counters
            .iter()
            .any(|ev| text(ev, "name").starts_with("queue_depth switch")),
        "no queue-depth track"
    );
    assert!(
        counters
            .iter()
            .any(|ev| text(ev, "name").starts_with("link_util_permille link")),
        "no link-utilization track"
    );

    // The quarantine edges on the record: at least one entry for the
    // victim, and the skeptic-level counter track must step at *exactly*
    // those timestamps — level on entry, zero on release, one sample per
    // recorded edge, in record order, none invented.
    let edges: Vec<(u64, u32, bool)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SkepticQuarantine {
                link,
                entered,
                level,
            } => {
                assert_eq!(link, victim.0, "quarantine on an unexpected link");
                Some((r.at_ns, level, entered))
            }
            _ => None,
        })
        .collect();
    assert!(
        edges.iter().any(|&(_, _, entered)| entered),
        "the flap recovery never entered quarantine"
    );
    let track = format!("skeptic_level link{}", victim.0);
    let steps: Vec<(f64, u64)> = counters
        .iter()
        .filter(|ev| text(ev, "name").starts_with("skeptic_level link"))
        .map(|ev| {
            assert_eq!(text(ev, "name"), track, "a step on an unexpected link");
            let ts = ev.want("ts").and_then(JVal::as_f64).expect("numeric ts");
            let level = ev
                .want("args")
                .and_then(|a| a.want("level"))
                .and_then(JVal::as_u64)
                .expect("a level");
            (ts, level)
        })
        .collect();
    let expected: Vec<(f64, u64)> = edges
        .iter()
        .map(|&(at_ns, level, entered)| {
            (
                at_ns as f64 / 1000.0,
                if entered { level.into() } else { 0 },
            )
        })
        .collect();
    assert_eq!(
        steps, expected,
        "the skeptic track's (µs, level) samples must be the recorded edges"
    );

    // The time-series dump of the same intervals is one well-formed object
    // per interval and carries the victim's utilization series.
    let jsonl = sink::timeseries_jsonl(&intervals);
    assert_eq!(jsonl.lines().count(), intervals.len());
    let series = format!("link.cells link{}", victim.0);
    let mut victim_intervals = 0;
    for line in jsonl.lines() {
        let interval = JVal::parse(line).expect("time-series line parses");
        let counters = interval.want("counters").expect("a counters object");
        if let Some(cells) = counters.get(&series) {
            cells.as_u64().expect("a cell count");
            victim_intervals += 1;
        }
    }
    assert!(
        victim_intervals > 0,
        "victim link's utilization series missing from the time-series dump"
    );
}
