//! # an2-trace — flight recorder + unified metrics registry
//!
//! The paper's claims are all *timeline* claims — 2 µs cut-through (§1),
//! < 200 ms reconfiguration (§1, §2), credit-bounded buffer occupancy (§5)
//! — but end-state counters can only say *whether* they held, not *what
//! happened when*. This crate is the observability layer the rest of the
//! reproduction threads through every subsystem:
//!
//! * [`TraceEvent`] — the typed event taxonomy: cell enqueue/dequeue/drop,
//!   crossbar grants, credit sends/consumes and resync epochs, control-cell
//!   tx/rx, monitor verdicts, reconfiguration phase transitions, fault draw
//!   outcomes, invariant violations, and sampled per-cell hops.
//! * [`FlightRecorder`] — a bounded ring buffer of virtual-time-stamped
//!   [`TraceRecord`]s: always-on capture with a hard memory bound; the
//!   oldest records fall off the back under pressure.
//! * [`MetricsRegistry`] — named counters, gauges and (bucketed)
//!   histograms keyed by [`Entity`] (switch / port / link / VC / host),
//!   with JSON and Prometheus-text snapshot export; each series also
//!   carries the mark the observatory's last scrape left on it.
//! * [`Tracer`] — the cheap-to-clone handle every layer holds
//!   `Option`-gated, exactly like the fabric's fault layer: a fabric (or
//!   switch, link simulator, fault injector) with no tracer
//!   attached runs the same instructions it ran before this crate existed,
//!   and a traced run is **byte-identical** to an untraced one — tracing
//!   draws no randomness and perturbs no ordering. The workspace digest
//!   tests prove it.
//! * [`TraceLane`] — the buffered path for the emitters that fire per
//!   cell: an owned buffer of slot-stamped records and writes addressed by
//!   resolved [`MetricId`]s, applied in order under one lock per flush.
//! * [`sink`] — exporters: JSONL for machine diffing, the Chrome
//!   trace-event format (spans, flows, and counter tracks) so a
//!   reconfiguration storm or credit stall renders as a Perfetto
//!   timeline, and a JSONL time-series dump of interval snapshots.
//! * [`observe`] — the streaming telemetry tier: a virtual-clock interval
//!   aggregator ([`Observatory`]), an SLO watchdog with fixed thresholds
//!   (→ [`HealthEvent`]s), and ground-truth time-to-detect
//!   scoring against chaos fault schedules ([`score_detections`]).
//!
//! ```
//! use an2_trace::{Entity, Tracer, TraceConfig, TraceEvent};
//!
//! let tracer = Tracer::new(TraceConfig::default());
//! tracer.set_slot(100);
//! tracer.emit(TraceEvent::MonitorVerdict { link: 3, up: false });
//! tracer.counter_add("monitor.verdicts_dead", Entity::Link(3), 1);
//! let records = tracer.records();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].slot, 100);
//! assert!(an2_trace::sink::chrome_trace(&records).starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod lane;
pub mod observe;
mod recorder;
mod registry;
pub mod sink;
mod tracer;

pub use event::{
    DetectorKind, DropReason, Entity, FaultOutcome, Hop, Phase, PhaseEdge, ProtocolTag, TraceEvent,
};
pub use lane::TraceLane;
pub use observe::{
    score_detections, DetectionScore, FaultLabel, HealthEvent, HistStat, IntervalSnapshot,
    Observatory, ObservatoryConfig,
};
pub use recorder::{FlightRecorder, TraceRecord};
pub use registry::{Metric, MetricId, MetricOp, MetricsRegistry};
pub use tracer::{TraceConfig, TraceSink, Tracer};
