//! Trace exporters: JSONL for machine diffing, the Chrome trace-event
//! format (spans, flows and counter tracks) so a run opens directly in
//! Perfetto / `chrome://tracing`, and JSONL/CSV time-series dumps of the
//! observatory's interval snapshots.

use crate::event::{Phase, PhaseEdge, TraceEvent};
use crate::observe::IntervalSnapshot;
use crate::recorder::TraceRecord;
use std::fmt::Write;

/// Formats a nanosecond stamp as the microsecond `ts` value the Chrome
/// trace format expects, with deterministic 3-decimal precision (no float
/// formatting in the output path).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders records as JSON Lines: one self-contained object per record,
/// oldest first. Stable field order makes two runs diffable with `diff`.
pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        write!(
            out,
            "{{\"slot\":{},\"at_ns\":{},\"kind\":\"{}\"",
            r.slot,
            r.at_ns,
            r.event.kind()
        )
        .expect("string write");
        let mut fields = String::new();
        r.event.write_fields(&mut fields);
        if !fields.is_empty() {
            out.push(',');
            out.push_str(&fields);
        }
        out.push_str("}\n");
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
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(s);
    };

    // Open ReconfigPhase begins waiting for their matching end, keyed by
    // (phase, epoch).
    let mut open_phases: Vec<(Phase, u64, u64)> = Vec::new();

    for r in records {
        let ts = ts_us(r.at_ns);
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
                    let span = format!(
                        "{{\"name\":\"{} epoch {}\",\"cat\":\"reconfig\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":\"reconfig\",\"args\":{{\"epoch\":{}}}}}",
                        phase.name(),
                        epoch,
                        ts_us(begin_ns),
                        ts_us(r.at_ns - begin_ns),
                        epoch,
                    );
                    emit(&span, &mut out);
                }
            },
            TraceEvent::CellInject { vc, host, trace_id } if trace_id != 0 => {
                let ev = format!(
                    "{{\"name\":\"cell {trace_id}\",\"cat\":\"cell_path\",\"ph\":\"b\",\"id\":{trace_id},\"ts\":{ts},\"pid\":1,\"tid\":\"cells\",\"args\":{{\"vc\":{vc},\"host\":{host}}}}}"
                );
                emit(&ev, &mut out);
            }
            TraceEvent::CellHop { trace_id, vc, hop } if trace_id != 0 => {
                let mut args = String::new();
                TraceEvent::CellHop { trace_id, vc, hop }.write_fields(&mut args);
                let ev = format!(
                    "{{\"name\":\"cell {trace_id}\",\"cat\":\"cell_path\",\"ph\":\"n\",\"id\":{trace_id},\"ts\":{ts},\"pid\":1,\"tid\":\"cells\",\"args\":{{{args}}}}}"
                );
                emit(&ev, &mut out);
            }
            TraceEvent::CellDeliver {
                vc,
                host,
                latency_slots,
                trace_id,
            } if trace_id != 0 => {
                let ev = format!(
                    "{{\"name\":\"cell {trace_id}\",\"cat\":\"cell_path\",\"ph\":\"e\",\"id\":{trace_id},\"ts\":{ts},\"pid\":1,\"tid\":\"cells\",\"args\":{{\"vc\":{vc},\"host\":{host},\"latency_slots\":{latency_slots}}}}}"
                );
                emit(&ev, &mut out);
            }
            ref event => {
                let kind = event.kind();
                let mut args = String::new();
                event.write_fields(&mut args);
                let ev = format!(
                    "{{\"name\":\"{kind}\",\"cat\":\"{kind}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":\"{kind}\",\"args\":{{{args}}}}}"
                );
                emit(&ev, &mut out);
            }
        }
    }

    // Begins that never saw an end render as zero-length markers so they
    // are not silently lost.
    for (phase, epoch, begin_ns) in open_phases {
        let span = format!(
            "{{\"name\":\"{} epoch {} (open)\",\"cat\":\"reconfig\",\"ph\":\"X\",\"ts\":{},\"dur\":0.000,\"pid\":1,\"tid\":\"reconfig\",\"args\":{{\"epoch\":{}}}}}",
            phase.name(),
            epoch,
            ts_us(begin_ns),
            epoch,
        );
        emit(&span, &mut out);
    }

    out.push_str("]}");
    out
}

/// [`chrome_trace`] plus Perfetto **counter tracks** (`"ph":"C"`) sampled
/// from the observatory's interval snapshots and the recorded skeptic
/// edges:
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
    let base = chrome_trace(records);
    let mut extra = String::new();
    let emit = |s: String, extra: &mut String| {
        extra.push(',');
        extra.push_str(&s);
    };
    for snap in intervals {
        let ts = ts_us(snap.end_slot * slot_ns);
        for &(name, entity, v) in &snap.gauges {
            if name == "switch.queue_depth" {
                emit(
                    format!(
                        "{{\"name\":\"queue_depth {entity}\",\"cat\":\"observatory\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"args\":{{\"depth\":{v}}}}}"
                    ),
                    &mut extra,
                );
            }
        }
        for &(name, entity, _) in &snap.counters {
            if name == "link.cells" {
                if let crate::event::Entity::Link(l) = entity {
                    let util = snap.link_utilization_milli(l);
                    emit(
                        format!(
                            "{{\"name\":\"link_util_permille {entity}\",\"cat\":\"observatory\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"args\":{{\"permille\":{util}}}}}"
                        ),
                        &mut extra,
                    );
                }
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
            emit(
                format!(
                    "{{\"name\":\"skeptic_level link{link}\",\"cat\":\"observatory\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"level\":{value}}}}}",
                    ts_us(r.at_ns),
                ),
                &mut extra,
            );
        }
    }
    let body_empty = base.starts_with("{\"traceEvents\":[]");
    if body_empty && !extra.is_empty() {
        // No base events: drop the leading comma.
        extra.remove(0);
    }
    let mut out = base;
    let tail = out.len() - 2; // strip the closing "]}"
    out.truncate(tail);
    out.push_str(&extra);
    out.push_str("]}");
    out
}

/// Renders interval snapshots as JSON Lines: one self-contained object per
/// interval with counter deltas, gauge levels and histogram interval
/// percentiles, keyed `"name entity"`. Stable field order.
pub fn timeseries_jsonl(intervals: &[IntervalSnapshot]) -> String {
    let mut out = String::with_capacity(intervals.len() * 256);
    for s in intervals {
        write!(
            out,
            "{{\"index\":{},\"start_slot\":{},\"end_slot\":{}",
            s.index, s.start_slot, s.end_slot
        )
        .expect("string write");
        out.push_str(",\"counters\":{");
        for (i, (name, entity, v)) in s.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{name} {entity}\":{v}").expect("string write");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, entity, v)) in s.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{name} {entity}\":{v}").expect("string write");
        }
        out.push_str("},\"hists\":{");
        for (i, (name, entity, h)) in s.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{name} {entity}\":{{\"count\":{},\"min\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                h.count, h.min, h.p50, h.p99, h.max
            )
            .expect("string write");
        }
        out.push_str("}}\n");
    }
    out
}

/// Renders interval snapshots as a long-format CSV:
/// `index,start_slot,end_slot,kind,name,entity,value` — one row per datum,
/// histogram summaries one row per statistic (`hist_count`, `hist_min`,
/// `hist_p50`, `hist_p99`, `hist_max`).
pub fn timeseries_csv(intervals: &[IntervalSnapshot]) -> String {
    let mut out = String::from("index,start_slot,end_slot,kind,name,entity,value\n");
    for s in intervals {
        let prefix = |out: &mut String, kind: &str, name: &str, entity: &dyn std::fmt::Display| {
            write!(
                out,
                "{},{},{},{kind},{name},{entity},",
                s.index, s.start_slot, s.end_slot
            )
            .expect("string write");
        };
        for (name, entity, v) in &s.counters {
            prefix(&mut out, "counter", name, entity);
            writeln!(out, "{v}").expect("string write");
        }
        for (name, entity, v) in &s.gauges {
            prefix(&mut out, "gauge", name, entity);
            writeln!(out, "{v}").expect("string write");
        }
        for (name, entity, h) in &s.hists {
            for (stat, v) in [
                ("hist_count", h.count),
                ("hist_min", h.min),
                ("hist_p50", h.p50),
                ("hist_p99", h.p99),
                ("hist_max", h.max),
            ] {
                prefix(&mut out, stat, name, entity);
                writeln!(out, "{v}").expect("string write");
            }
        }
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
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // 200 slots * 680 ns = 136 µs span.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":136.000"));
        assert!(json.contains("\"ts\":68.000"));
        assert!(json.contains("\"ph\":\"i\""));
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
        assert_eq!(jl.lines().count(), 1);
        assert!(jl.contains("\"index\":4"));
        assert!(jl.contains("\"fabric.cells_injected host0\":12"));
        assert!(jl.contains("\"p99\":80"));
        assert_eq!(jl, timeseries_jsonl(&intervals), "export must be stable");
        let csv = timeseries_csv(&intervals);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "index,start_slot,end_slot,kind,name,entity,value");
        // 1 counter + 1 gauge + 5 histogram statistic rows.
        assert_eq!(lines.len(), 8);
        assert!(lines.contains(&"4,4000,5000,counter,fabric.cells_injected,host0,12"));
        assert!(lines.contains(&"4,4000,5000,hist_p50,fabric.cell_latency_slots,global,55"));
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
