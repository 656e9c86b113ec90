//! Trace exporters: JSONL for machine diffing, the Chrome trace-event
//! format (spans, flows and counter tracks) so a run opens directly in
//! Perfetto / `chrome://tracing`, and a JSONL time-series dump of the
//! observatory's interval snapshots. Every exporter streams through
//! [`an2_sim::json`]'s writers.

use crate::event::{Entity, Phase, PhaseEdge, TraceEvent};
use crate::observe::IntervalSnapshot;
use crate::recorder::TraceRecord;
use an2_sim::json::{ArrWriter, ObjWriter, Text};

/// A nanosecond stamp as the microsecond `ts` / `dur` value the Chrome
/// trace format expects.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Renders records as JSON Lines: one self-contained object per record,
/// oldest first. Stable field order makes two runs diffable with `diff`.
pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        let mut o = ObjWriter::new(&mut out);
        o.field("slot", r.slot)
            .field("at_ns", r.at_ns)
            .field("kind", r.event.kind());
        r.event.write_fields(&mut o);
        o.end();
        out.push('\n');
    }
    out
}

/// Renders records in the Chrome trace-event format (the JSON object form:
/// `{"traceEvents":[…]}`), loadable in Perfetto or `chrome://tracing`.
///
/// * Most events become instant events (`"ph":"i"`) on a thread named after
///   the event kind, so each event family gets its own track.
/// * [`TraceEvent::ReconfigPhase`] `Begin`/`End` pairs become complete
///   spans (`"ph":"X"`) on the `reconfig` track — the < 200 ms claim is one
///   bar you can measure with a mouse.
/// * Sampled cell journeys ([`TraceEvent::CellInject`] / `CellHop` /
///   `CellDeliver` with a nonzero trace id) become async begin/instant/end
///   events (`"ph":"b"/"n"/"e"`) correlated by `"id"`, so each sampled
///   cell renders as one arrow-connected flow.
///
/// `ts` and `dur` are microseconds.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    chrome_document(records.len(), |events| record_events(events, records))
}

/// `{"traceEvents":[…]}` around whatever `write` appends to the array,
/// sized for about `events` events.
fn chrome_document(events: usize, write: impl FnOnce(&mut ArrWriter<'_>)) -> String {
    let mut out = String::with_capacity(events * 160 + 32);
    let mut doc = ObjWriter::new(&mut out);
    let mut events = doc.arr("traceEvents");
    write(&mut events);
    events.end();
    doc.end();
    out
}

/// The span of one reconfiguration phase, `dur_ns` long from `begin_ns`.
fn span_event(
    events: &mut ArrWriter<'_>,
    name: Text<std::fmt::Arguments<'_>>,
    begin_ns: u64,
    dur_ns: u64,
    epoch: u64,
) {
    events
        .obj()
        .field("name", name)
        .field("cat", "reconfig")
        .field("ph", "X")
        .field("ts", us(begin_ns))
        .field("dur", us(dur_ns))
        .field("pid", 1)
        .field("tid", "reconfig")
        .obj("args")
        .field("epoch", epoch);
}

/// One step of a sampled cell's async flow: `ph` is `b`, `n` or `e`.
fn cell_event<'a>(
    events: &'a mut ArrWriter<'_>,
    ph: &str,
    trace_id: u32,
    at_ns: u64,
) -> ObjWriter<'a> {
    let mut o = events.obj();
    o.field("name", Text(format_args!("cell {trace_id}")))
        .field("cat", "cell_path")
        .field("ph", ph)
        .field("id", trace_id)
        .field("ts", us(at_ns))
        .field("pid", 1)
        .field("tid", "cells");
    o
}

fn record_events(events: &mut ArrWriter<'_>, records: &[TraceRecord]) {
    // Open ReconfigPhase begins waiting for their matching end, keyed by
    // (phase, epoch).
    let mut open_phases: Vec<(Phase, u64, u64)> = Vec::new();

    for r in records {
        match r.event {
            TraceEvent::ReconfigPhase {
                phase, edge, epoch, ..
            } => match edge {
                PhaseEdge::Begin => open_phases.push((phase, epoch, r.at_ns)),
                PhaseEdge::End => {
                    let begin_ns = match open_phases
                        .iter()
                        .rposition(|&(p, e, _)| p == phase && e == epoch)
                    {
                        Some(i) => open_phases.remove(i).2,
                        // End without Begin (ring evicted it): zero-length span.
                        None => r.at_ns,
                    };
                    let name = Text(format_args!("{} epoch {epoch}", phase.name()));
                    span_event(events, name, begin_ns, r.at_ns - begin_ns, epoch);
                }
            },
            TraceEvent::CellInject { vc, host, trace_id } if trace_id != 0 => {
                cell_event(events, "b", trace_id, r.at_ns)
                    .obj("args")
                    .field("vc", vc)
                    .field("host", host);
            }
            TraceEvent::CellHop { trace_id, .. } if trace_id != 0 => {
                let mut o = cell_event(events, "n", trace_id, r.at_ns);
                r.event.write_fields(&mut o.obj("args"));
            }
            TraceEvent::CellDeliver {
                vc,
                host,
                latency_slots,
                trace_id,
            } if trace_id != 0 => {
                cell_event(events, "e", trace_id, r.at_ns)
                    .obj("args")
                    .field("vc", vc)
                    .field("host", host)
                    .field("latency_slots", latency_slots);
            }
            ref event => {
                let kind = event.kind();
                let mut o = events.obj();
                o.field("name", kind)
                    .field("cat", kind)
                    .field("ph", "i")
                    .field("s", "t")
                    .field("ts", us(r.at_ns))
                    .field("pid", 1)
                    .field("tid", kind);
                event.write_fields(&mut o.obj("args"));
            }
        }
    }

    // Begins that never saw an end render as zero-length markers so they
    // are not silently lost.
    for (phase, epoch, begin_ns) in open_phases {
        let name = Text(format_args!("{} epoch {epoch} (open)", phase.name()));
        span_event(events, name, begin_ns, 0, epoch);
    }
}

/// [`chrome_trace`] plus Perfetto **counter tracks** (`"ph":"C"`) sampled
/// from the observatory's interval snapshots and the recorded skeptic
/// edges, appended after the record events:
///
/// * `queue_depth <switch>` — per-switch queue-depth gauge per interval.
/// * `link_util_permille <link>` — per-link utilization (cells crossed per
///   slot, in thousandths) per interval.
/// * `skeptic_level <link>` — steps at each recorded
///   [`TraceEvent::SkepticQuarantine`] edge: the escalation level on
///   entry, back to 0 on release.
///
/// `slot_ns` converts interval boundaries to trace timestamps (use the
/// tracer's configured value so tracks line up with the event tracks).
pub fn chrome_trace_with_counters(
    records: &[TraceRecord],
    intervals: &[IntervalSnapshot],
    slot_ns: u64,
) -> String {
    chrome_document(records.len(), |events| {
        record_events(events, records);
        counter_events(events, records, intervals, slot_ns);
    })
}

/// One counter-track sample: `name` steps to `value` (under `arg`) at `at_ns`.
fn counter_event(
    events: &mut ArrWriter<'_>,
    name: Text<std::fmt::Arguments<'_>>,
    at_ns: u64,
    arg: &str,
    value: impl an2_sim::json::ToJson,
) {
    events
        .obj()
        .field("name", name)
        .field("cat", "observatory")
        .field("ph", "C")
        .field("ts", us(at_ns))
        .field("pid", 1)
        .obj("args")
        .field(arg, value);
}

fn counter_events(
    events: &mut ArrWriter<'_>,
    records: &[TraceRecord],
    intervals: &[IntervalSnapshot],
    slot_ns: u64,
) {
    for snap in intervals {
        let at_ns = snap.end_slot * slot_ns;
        for &(name, entity, v) in &snap.gauges {
            if name == "switch.queue_depth" {
                let name = Text(format_args!("queue_depth {entity}"));
                counter_event(events, name, at_ns, "depth", v);
            }
        }
        for &(name, entity, _) in &snap.counters {
            if let ("link.cells", Entity::Link(l)) = (name, entity) {
                let name = Text(format_args!("link_util_permille {entity}"));
                counter_event(
                    events,
                    name,
                    at_ns,
                    "permille",
                    snap.link_utilization_milli(l),
                );
            }
        }
    }
    for r in records {
        if let TraceEvent::SkepticQuarantine {
            link,
            entered,
            level,
        } = r.event
        {
            let value = if entered { level } else { 0 };
            let name = Text(format_args!("skeptic_level link{link}"));
            counter_event(events, name, r.at_ns, "level", value);
        }
    }
}

/// Renders interval snapshots as JSON Lines: one self-contained object per
/// interval with counter deltas, gauge levels and histogram interval
/// percentiles, keyed `"name entity"`. Stable field order.
pub fn timeseries_jsonl(intervals: &[IntervalSnapshot]) -> String {
    let mut out = String::with_capacity(intervals.len() * 256);
    for s in intervals {
        let mut o = ObjWriter::new(&mut out);
        o.field("index", s.index)
            .field("start_slot", s.start_slot)
            .field("end_slot", s.end_slot);
        let mut counters = o.obj("counters");
        for (name, entity, v) in &s.counters {
            counters.field(Text(format_args!("{name} {entity}")), v);
        }
        counters.end();
        let mut gauges = o.obj("gauges");
        for (name, entity, v) in &s.gauges {
            gauges.field(Text(format_args!("{name} {entity}")), v);
        }
        gauges.end();
        let mut hists = o.obj("hists");
        for (name, entity, h) in &s.hists {
            hists
                .obj(Text(format_args!("{name} {entity}")))
                .field("count", h.count)
                .field("min", h.min)
                .field("p50", h.p50)
                .field("p99", h.p99)
                .field("max", h.max);
        }
        hists.end();
        o.end();
        out.push('\n');
    }
    out
}

/// Pairs [`TraceEvent::ReconfigPhase`] `Begin`/`End` records into completed
/// `(phase, epoch, begin_ns, end_ns)` spans, in completion order. Used by
/// the golden-trace test and the `--trace` experiment to assert the
/// paper's < 200 ms reconfiguration bound straight off the recording.
pub fn reconfig_spans(records: &[TraceRecord]) -> Vec<(Phase, u64, u64, u64)> {
    let mut open: Vec<(Phase, u64, u64)> = Vec::new();
    let mut done = Vec::new();
    for r in records {
        if let TraceEvent::ReconfigPhase {
            phase, edge, epoch, ..
        } = r.event
        {
            match edge {
                PhaseEdge::Begin => open.push((phase, epoch, r.at_ns)),
                PhaseEdge::End => {
                    if let Some(i) = open.iter().rposition(|&(p, e, _)| p == phase && e == epoch) {
                        let (_, _, begin_ns) = open.remove(i);
                        done.push((phase, epoch, begin_ns, r.at_ns));
                    }
                }
            }
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, Entity};
    use crate::tracer::{TraceConfig, Tracer};
    use an2_sim::json::JVal;

    fn rec(slot: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            slot,
            at_ns: slot * 680,
            event,
        }
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_stable_fields() {
        let records = vec![
            rec(10, TraceEvent::MonitorVerdict { link: 2, up: false }),
            rec(
                11,
                TraceEvent::CellDrop {
                    vc: 9,
                    reason: DropReason::LinkDown,
                },
            ),
        ];
        let text = jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"slot\":10,\"at_ns\":6800,\"kind\":\"monitor_verdict\",\"link\":2,\"up\":false}"
        );
        assert!(lines[1].contains("\"reason\":\"link_down\""));
        assert_eq!(jsonl(&records), text, "export must be stable");
    }

    #[test]
    fn chrome_trace_pairs_reconfig_spans() {
        let records = vec![
            rec(
                100,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Converge,
                    edge: PhaseEdge::Begin,
                    epoch: 1,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
            rec(120, TraceEvent::MonitorVerdict { link: 0, up: false }),
            rec(
                300,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Converge,
                    edge: PhaseEdge::End,
                    epoch: 1,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
        ];
        let json = chrome_trace(&records);
        let doc = JVal::parse(&json).expect("Chrome export parses");
        let events = doc.want("traceEvents").and_then(JVal::as_arr).unwrap();
        let field = |ev: &JVal, key: &str| ev.want(key).cloned().unwrap();
        let span = events
            .iter()
            .find(|ev| field(ev, "ph") == JVal::Str("X".into()))
            .expect("a complete span");
        // Begins at slot 100 (68 µs); 200 slots * 680 ns = 136 µs long.
        assert_eq!(field(span, "ts").as_f64().unwrap(), 68.0);
        assert_eq!(field(span, "dur").as_f64().unwrap(), 136.0);
        assert!(events
            .iter()
            .any(|ev| field(ev, "ph") == JVal::Str("i".into())));
    }

    #[test]
    fn chrome_trace_threads_sampled_cells_as_async_flows() {
        let records = vec![
            rec(
                5,
                TraceEvent::CellInject {
                    vc: 300,
                    host: 1,
                    trace_id: 42,
                },
            ),
            rec(
                6,
                TraceEvent::CellHop {
                    trace_id: 42,
                    vc: 300,
                    hop: crate::event::Hop::Wire { link: 3 },
                },
            ),
            rec(
                8,
                TraceEvent::CellDeliver {
                    vc: 300,
                    host: 4,
                    latency_slots: 3,
                    trace_id: 42,
                },
            ),
            // Unsampled injections stay instant events.
            rec(
                9,
                TraceEvent::CellInject {
                    vc: 300,
                    host: 1,
                    trace_id: 0,
                },
            ),
        ];
        let json = chrome_trace(&records);
        assert!(json.contains("\"ph\":\"b\",\"id\":42"));
        assert!(json.contains("\"ph\":\"n\",\"id\":42"));
        assert!(json.contains("\"ph\":\"e\",\"id\":42"));
        assert_eq!(json.matches("\"id\":42").count(), 3);
    }

    #[test]
    fn reconfig_spans_pairs_by_phase_and_epoch() {
        let records = vec![
            rec(
                10,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Converge,
                    edge: PhaseEdge::Begin,
                    epoch: 3,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
            rec(
                50,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Install,
                    edge: PhaseEdge::Begin,
                    epoch: 3,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
            rec(
                60,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Install,
                    edge: PhaseEdge::End,
                    epoch: 3,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
            rec(
                70,
                TraceEvent::ReconfigPhase {
                    phase: Phase::Converge,
                    edge: PhaseEdge::End,
                    epoch: 3,
                    protocol: crate::event::ProtocolTag::UpDown,
                },
            ),
        ];
        let spans = reconfig_spans(&records);
        assert_eq!(
            spans,
            vec![
                (Phase::Install, 3, 50 * 680, 60 * 680),
                (Phase::Converge, 3, 10 * 680, 70 * 680),
            ]
        );
    }

    #[test]
    fn counter_tracks_render_gauges_utilization_and_skeptic_steps() {
        use crate::observe::{HistStat, IntervalSnapshot};
        let intervals = vec![IntervalSnapshot {
            index: 0,
            start_slot: 0,
            end_slot: 1000,
            counters: vec![("link.cells", Entity::Link(3), 500)],
            gauges: vec![("switch.queue_depth", Entity::Switch(1), 7)],
            hists: vec![(
                "fabric.cell_latency_slots",
                Entity::Global,
                HistStat {
                    count: 10,
                    min: 5,
                    p50: 9,
                    p99: 20,
                    max: 21,
                },
            )],
        }];
        let records = vec![
            rec(
                2000,
                TraceEvent::SkepticQuarantine {
                    link: 3,
                    entered: true,
                    level: 2,
                },
            ),
            rec(
                4000,
                TraceEvent::SkepticQuarantine {
                    link: 3,
                    entered: false,
                    level: 2,
                },
            ),
        ];
        let json = chrome_trace_with_counters(&records, &intervals, 680);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"queue_depth switch1\""));
        assert!(json.contains("\"args\":{\"depth\":7}"));
        // 500 cells over 1000 slots = 500 permille.
        assert!(json.contains("\"name\":\"link_util_permille link3\""));
        assert!(json.contains("\"args\":{\"permille\":500}"));
        // Skeptic track steps to the level on entry, back to 0 on release.
        assert!(json.contains("\"name\":\"skeptic_level link3\""));
        assert!(json.contains("\"args\":{\"level\":2}"));
        assert!(json.contains("\"args\":{\"level\":0}"));
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 4);
        // Also valid with no base records at all.
        let only_counters = chrome_trace_with_counters(&[], &intervals, 680);
        assert!(only_counters.starts_with("{\"traceEvents\":[{"));
        assert!(only_counters.ends_with("]}"));
    }

    #[test]
    fn timeseries_dumps_are_stable_and_complete() {
        use crate::observe::{HistStat, IntervalSnapshot};
        let intervals = vec![IntervalSnapshot {
            index: 4,
            start_slot: 4000,
            end_slot: 5000,
            counters: vec![("fabric.cells_injected", Entity::Host(0), 12)],
            gauges: vec![("switch.queue_depth", Entity::Switch(0), 3)],
            hists: vec![(
                "fabric.cell_latency_slots",
                Entity::Global,
                HistStat {
                    count: 12,
                    min: 40,
                    p50: 55,
                    p99: 80,
                    max: 81,
                },
            )],
        }];
        let jl = timeseries_jsonl(&intervals);
        // Every counter, gauge and histogram statistic, one line.
        assert_eq!(
            jl,
            concat!(
                r#"{"index":4,"start_slot":4000,"end_slot":5000,"#,
                r#""counters":{"fabric.cells_injected host0":12},"#,
                r#""gauges":{"switch.queue_depth switch0":3},"#,
                r#""hists":{"fabric.cell_latency_slots global":"#,
                r#"{"count":12,"min":40,"p50":55,"p99":80,"max":81}}}"#,
                "\n"
            )
        );
        assert_eq!(jl, timeseries_jsonl(&intervals), "export must be stable");
    }

    #[test]
    fn end_to_end_through_a_tracer() {
        let t = Tracer::new(TraceConfig::default());
        t.set_slot(1);
        let id = crate::TraceLane::new(t.clone()).sample_cell();
        assert_eq!(id, 1, "first injected cell is always sampled");
        t.emit(TraceEvent::CellInject {
            vc: 100,
            host: 0,
            trace_id: id,
        });
        t.counter_add("cells.injected", Entity::Host(0), 1);
        let records = t.records();
        assert!(chrome_trace(&records).contains("\"ph\":\"b\""));
        assert!(jsonl(&records).contains("\"kind\":\"cell_inject\""));
    }
}
