//! The [`Tracer`] handle every instrumented layer holds.

use crate::event::{Entity, TraceEvent};
use crate::observe::{HealthEvent, IntervalSnapshot, Observatory, ObservatoryConfig};
use crate::recorder::{FlightRecorder, TraceRecord};
use crate::registry::{Metric, MetricId, MetricOp, MetricsRegistry};
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration for a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Flight-recorder capacity in records (default `1 << 16`).
    pub ring_capacity: usize,
    /// Sample every Nth injected data cell for hop-by-hop path tracing
    /// (default 64; `0` disables path sampling entirely).
    pub sample_every: u32,
    /// Nanoseconds of virtual time per fabric slot, used to stamp records
    /// (default 680 — one cell slot at 622 Mb/s).
    pub slot_ns: u64,
    /// Sub-bucket resolution for registry histograms (default 5 → ≤ ~3%
    /// relative error); see `an2_sim::metrics::Histogram::bucketed`.
    pub hist_sub_bits: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 16,
            sample_every: 64,
            slot_ns: 680,
            hist_sub_bits: 5,
        }
    }
}

/// The shared state behind a [`Tracer`] handle.
#[derive(Debug)]
struct TraceCore {
    recorder: FlightRecorder,
    registry: MetricsRegistry,
    slot: u64,
    slot_ns: u64,
    sample_every: u32,
    observatory: Option<Observatory>,
}

impl TraceCore {
    /// Runs the observatory over any interval boundaries the virtual clock
    /// has crossed. The observatory scrapes the registry and logs its
    /// alerts; the core mirrors the new ones into the flight recorder.
    /// Everything here is deterministic bookkeeping — no randomness, no
    /// effect on the simulation — so scrape-enabled runs stay
    /// byte-identical.
    fn scrape_if_due(&mut self) {
        let Some(obs) = self.observatory.as_mut().filter(|o| o.due(self.slot)) else {
            return;
        };
        let logged = obs.health_log().len();
        obs.scrape_until(self.slot, self.slot_ns, &mut self.registry);
        for e in &obs.health_log()[logged..] {
            let event = TraceEvent::HealthAlert {
                detector: e.detector,
                entity: e.entity,
                raised: e.raised,
                value_milli: e.value_milli,
                threshold_milli: e.threshold_milli,
            };
            let (slot, at_ns) = (e.slot, e.at_ns);
            self.recorder.push(TraceRecord { slot, at_ns, event });
        }
    }
}

/// The cheap-to-clone tracing handle.
///
/// Layers hold it `Option`-gated exactly like the fault layer: when absent,
/// the instrumented code runs the same instructions it ran before tracing
/// existed. The handle is `Arc<Mutex<…>>` internally so clones held by the
/// network, the control plane, the link simulators and the fault injector
/// all feed one recorder and one registry — and every holder stays `Send`.
/// Its `&self` methods are the *direct path*: one lock per call, right for
/// holders that emit a few times per reconfiguration or ping round. The
/// per-cell emitters (the fabric and its switches) own a
/// [`crate::TraceLane`] instead, which buffers and pays the lock once per
/// flush.
///
/// Determinism contract: no method draws randomness, allocates ids visible
/// to the simulation, or perturbs event ordering. A traced run is
/// byte-identical (same stats, same digests) to an untraced one.
#[derive(Debug, Clone)]
pub struct Tracer {
    core: Arc<Mutex<TraceCore>>,
}

impl Tracer {
    /// A fresh tracer with its own recorder and registry.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            core: Arc::new(Mutex::new(TraceCore {
                recorder: FlightRecorder::new(config.ring_capacity),
                registry: MetricsRegistry::new(config.hist_sub_bits),
                slot: 0,
                slot_ns: config.slot_ns.max(1),
                sample_every: config.sample_every,
                observatory: None,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TraceCore> {
        self.core.lock().expect("tracer lock poisoned")
    }

    /// `(slot_ns, sample_every)`: what a lane copies out once at creation.
    pub(crate) fn lane_config(&self) -> (u64, u32) {
        let core = self.lock();
        (core.slot_ns, core.sample_every)
    }

    /// Takes the lock once for a batch of buffered writes — how lanes
    /// flush. Drop the sink to release it.
    pub fn sink(&self) -> TraceSink<'_> {
        TraceSink { core: self.lock() }
    }

    /// The dense handle for the registry series `name`/`entity`. Resolving
    /// creates nothing visible: the series appears in reads and exports at
    /// its first write.
    pub fn resolve(&self, name: &'static str, entity: Entity) -> MetricId {
        self.lock().registry.resolve(name, entity)
    }

    /// Advances the tracer's notion of the current fabric slot; every
    /// subsequent [`Tracer::emit`] is stamped with it. When an observatory
    /// is enabled, crossing an interval boundary triggers a registry
    /// scrape and a watchdog pass (see [`Tracer::enable_observatory`]).
    pub fn set_slot(&self, slot: u64) {
        let mut core = self.lock();
        core.slot = slot;
        core.scrape_if_due();
    }

    /// The current fabric slot.
    pub fn slot(&self) -> u64 {
        self.lock().slot
    }

    /// Records `event` stamped with the current slot and its virtual time.
    pub fn emit(&self, event: TraceEvent) {
        let mut core = self.lock();
        let slot = core.slot;
        let at_ns = slot * core.slot_ns;
        core.recorder.push(TraceRecord { slot, at_ns, event });
    }

    /// Records `event` at an explicit virtual time (control-plane hooks
    /// know exact nanoseconds, not slots).
    pub fn emit_at_ns(&self, at_ns: u64, event: TraceEvent) {
        let mut core = self.lock();
        let slot = at_ns / core.slot_ns;
        core.recorder.push(TraceRecord { slot, at_ns, event });
    }

    /// Adds `n` to a registry counter.
    pub fn counter_add(&self, name: &'static str, entity: Entity, n: u64) {
        self.lock().registry.counter_add(name, entity, n);
    }

    /// Sets a registry gauge.
    pub fn gauge_set(&self, name: &'static str, entity: Entity, value: i64) {
        self.lock().registry.gauge_set(name, entity, value);
    }

    /// Adds `delta` to a registry gauge.
    pub fn gauge_add(&self, name: &'static str, entity: Entity, delta: i64) {
        self.lock().registry.gauge_add(name, entity, delta);
    }

    /// Records `value` into a registry histogram.
    pub fn hist_record(&self, name: &'static str, entity: Entity, value: u64) {
        self.lock().registry.hist_record(name, entity, value);
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().recorder.to_vec()
    }

    /// Total events ever recorded (including ones evicted off the ring).
    pub fn events_seen(&self) -> u64 {
        self.lock().recorder.seen()
    }

    /// Events evicted off the back of the ring.
    pub fn events_dropped(&self) -> u64 {
        self.lock().recorder.dropped()
    }

    /// Runs `f` against the metrics registry (read-only snapshot access).
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.lock().registry)
    }

    /// The registry counter `name`/`entity` (0 when untouched).
    pub fn counter(&self, name: &'static str, entity: Entity) -> u64 {
        self.lock().registry.counter(name, entity)
    }

    /// Sum of the registry counter `name` over all entities.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.lock().registry.counter_total(name)
    }

    /// The registry metric `name`/`entity`, cloned out.
    pub fn metric(&self, name: &'static str, entity: Entity) -> Option<Metric> {
        self.lock().registry.get(name, entity).cloned()
    }

    /// The registry rendered as JSON.
    pub fn metrics_json(&self) -> String {
        self.lock().registry.to_json()
    }

    /// The registry rendered in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.lock().registry.to_prometheus()
    }

    /// Attaches the streaming telemetry tier: from now on, every interval
    /// boundary the virtual clock crosses scrapes the registry into a
    /// bounded ring of [`IntervalSnapshot`]s and runs the SLO watchdog,
    /// which mirrors its [`HealthEvent`]s into the flight recorder as
    /// [`TraceEvent::HealthAlert`] records. The first interval starts at
    /// the tracer's current slot, and what the registry holds by then
    /// belongs to no interval. Scraping is read-only on the simulation; an
    /// observed run stays byte-identical.
    pub fn enable_observatory(&self, cfg: ObservatoryConfig) {
        let mut core = self.lock();
        let core = &mut *core;
        core.registry.scrape(&mut IntervalSnapshot::default());
        core.observatory = Some(Observatory::new(cfg, core.slot));
    }

    /// Scrapes every interval boundary the tracer's clock has crossed and
    /// no scrape has covered. [`Tracer::set_slot`], the only writer of
    /// that clock, already scrapes each one as it crosses it, so this
    /// finds none and returns without touching the registry. Kept because
    /// `benchmark/` times it as `trace.scrape_us`.
    pub fn scrape_now(&self) {
        self.lock().scrape_if_due();
    }

    /// The observatory's retained interval snapshots, oldest first
    /// (empty when no observatory is attached).
    pub fn intervals(&self) -> Vec<IntervalSnapshot> {
        self.lock()
            .observatory
            .as_ref()
            .map(|o| o.intervals().cloned().collect())
            .unwrap_or_default()
    }

    /// Total intervals scraped (including ones evicted off the ring).
    pub fn intervals_seen(&self) -> u64 {
        self.lock()
            .observatory
            .as_ref()
            .map_or(0, |o| o.intervals_seen())
    }

    /// The watchdog's typed health log, in emission order (empty when no
    /// observatory is attached).
    pub fn health_events(&self) -> Vec<HealthEvent> {
        self.lock()
            .observatory
            .as_ref()
            .map(|o| o.health_log().to_vec())
            .unwrap_or_default()
    }
}

/// The tracer's lock, held for one batch of already-stamped records and
/// resolved registry writes (see [`Tracer::sink`]).
#[derive(Debug)]
pub struct TraceSink<'a> {
    core: MutexGuard<'a, TraceCore>,
}

impl TraceSink<'_> {
    /// Appends `records` to the flight recorder and applies `ops` to the
    /// registry, each in slice order. Records and registry writes live in
    /// separate stores, so their relative order carries no meaning.
    pub fn apply(&mut self, records: &[TraceRecord], ops: &[MetricOp]) {
        let core = &mut *self.core;
        for &record in records {
            core.recorder.push(record);
        }
        for &op in ops {
            core.registry.apply(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    #[test]
    fn emit_stamps_slot_and_virtual_time() {
        let t = Tracer::new(TraceConfig {
            slot_ns: 680,
            ..TraceConfig::default()
        });
        t.set_slot(1000);
        t.emit(TraceEvent::CellDrop {
            vc: 5,
            reason: DropReason::DeadLink,
        });
        let recs = t.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].slot, 1000);
        assert_eq!(recs[0].at_ns, 680_000);
    }

    #[test]
    fn resolved_series_stay_out_of_scrapes_until_written() {
        let t = Tracer::new(TraceConfig::default());
        t.enable_observatory(ObservatoryConfig { every_slots: 10 });
        let cells = t.resolve("link.cells", Entity::Link(9));
        let depth = t.resolve("switch.queue_depth", Entity::Switch(2));
        t.counter_add("link.cells", Entity::Link(1), 3);
        t.set_slot(10);
        let first = &t.intervals()[0];
        assert_eq!(first.counters, vec![("link.cells", Entity::Link(1), 3)]);
        assert!(first.gauges.is_empty() && first.hists.is_empty());
        // Written through their handles, they join the next interval.
        let mut sink = t.sink();
        sink.apply(&[], &[MetricOp::Add(cells, 2), MetricOp::Set(depth, 5)]);
        drop(sink);
        t.set_slot(20);
        let second = &t.intervals()[1];
        assert_eq!(second.counter_delta("link.cells", Entity::Link(9)), 2);
        assert_eq!(
            second.gauge("switch.queue_depth", Entity::Switch(2)),
            Some(5)
        );
    }

    #[test]
    fn an_observatory_enabled_mid_run_starts_its_first_interval_there() {
        let t = Tracer::new(TraceConfig::default());
        t.counter_add("link.cells", Entity::Link(1), 5);
        t.set_slot(10_000);
        t.enable_observatory(ObservatoryConfig { every_slots: 100 });
        t.counter_add("link.cells", Entity::Link(1), 2);
        t.set_slot(10_100);
        let intervals = t.intervals();
        assert_eq!(intervals.len(), 1);
        assert_eq!(
            (intervals[0].start_slot, intervals[0].end_slot),
            (10_000, 10_100)
        );
        // What the registry held before enabling belongs to no interval.
        assert_eq!(
            intervals[0].counters,
            vec![("link.cells", Entity::Link(1), 2)]
        );
    }

    #[test]
    fn health_alerts_are_mirrored_into_the_recorder() {
        let t = Tracer::new(TraceConfig::default());
        t.enable_observatory(ObservatoryConfig { every_slots: 10 });
        for k in 1..=50u64 {
            // One storm interval past the warmup: raised, then re-armed.
            if k == 45 {
                t.counter_add("ctrl.cells_sent", Entity::Switch(0), 500);
            }
            t.set_slot(k * 10);
        }
        let health = t.health_events();
        assert_eq!(health.len(), 2);
        let storm = |raised| TraceEvent::HealthAlert {
            detector: crate::DetectorKind::CtrlStorm,
            entity: Entity::Global,
            raised,
            value_milli: if raised { 500_000 } else { 0 },
            threshold_milli: 40_000,
        };
        let recorded: Vec<(u64, u64, TraceEvent)> = t
            .records()
            .iter()
            .map(|r| (r.slot, r.at_ns, r.event))
            .collect();
        assert_eq!(
            recorded,
            vec![
                (450, 450 * 680, storm(true)),
                (460, 460 * 680, storm(false))
            ]
        );
        assert_eq!((health[0].slot, health[1].at_ns), (450, 460 * 680));
    }

    #[test]
    fn clones_share_one_core() {
        let t = Tracer::new(TraceConfig::default());
        let t2 = t.clone();
        t.set_slot(7);
        t2.emit(TraceEvent::InvariantViolation { count: 1 });
        t2.counter_add("violations", Entity::Global, 1);
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].slot, 7);
        assert_eq!(t.counter("violations", Entity::Global), 1);
    }

    #[test]
    fn emit_at_ns_stamps_the_slot_of_an_explicit_time() {
        let t = Tracer::new(TraceConfig {
            slot_ns: 680,
            ..TraceConfig::default()
        });
        t.emit_at_ns(1360, TraceEvent::InvariantViolation { count: 1 });
        t.emit_at_ns(2040, TraceEvent::InvariantViolation { count: 2 });
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at_ns, 1360);
        assert_eq!(recs[0].slot, 2);
        assert_eq!(recs[1].event, TraceEvent::InvariantViolation { count: 2 });
    }
}
