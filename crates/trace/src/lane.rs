//! [`TraceLane`]: the buffered emission path of the per-cell emitters.

use crate::event::{Entity, TraceEvent};
use crate::recorder::TraceRecord;
use crate::registry::{MetricId, MetricOp};
use crate::tracer::{TraceSink, Tracer};

/// One hot emitter's private share of a [`Tracer`]: an owned buffer of
/// slot-stamped records and resolved registry writes that costs a `Vec`
/// push per emission and one lock per [`TraceLane::flush`].
///
/// The owner (a `Switch`, the `Fabric`) holds the lane by value behind the
/// same `Option` gate it would hold a [`Tracer`] behind, resolves the
/// series it writes once ([`TraceLane::resolve`]), stamps the lane with its
/// clock ([`TraceLane::set_slot`]) and flushes at a point of its choosing.
/// Nothing a lane buffers is visible through the tracer until the flush,
/// and a flush applies records and writes in the order they were pushed —
/// so the record stream depends on who flushes when, never on thread
/// timing. Lanes touch no shared state between flushes, which is what lets
/// shard workers fill their switches' lanes concurrently.
#[derive(Debug)]
pub struct TraceLane {
    tracer: Tracer,
    slot: u64,
    at_ns: u64,
    slot_ns: u64,
    // Path sampling (the lane that injects cells owns the trace-id space).
    sample_every: u32,
    injected_seen: u64,
    next_trace_id: u32,
    records: Vec<TraceRecord>,
    ops: Vec<MetricOp>,
}

impl TraceLane {
    /// An empty lane feeding `tracer`, stamped with slot 0.
    pub fn new(tracer: Tracer) -> Self {
        let (slot_ns, sample_every) = tracer.lane_config();
        TraceLane {
            tracer,
            slot: 0,
            at_ns: 0,
            slot_ns,
            sample_every,
            injected_seen: 0,
            next_trace_id: 0,
            records: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// The tracer this lane flushes into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stamps every subsequent [`TraceLane::emit`] with `slot` (and its
    /// virtual time, `slot × slot_ns`). Already-buffered records keep the
    /// stamp they were emitted under.
    pub fn set_slot(&mut self, slot: u64) {
        self.slot = slot;
        self.at_ns = slot * self.slot_ns;
    }

    /// Buffers `event`, stamped with the lane's slot.
    pub fn emit(&mut self, event: TraceEvent) {
        self.records.push(TraceRecord {
            slot: self.slot,
            at_ns: self.at_ns,
            event,
        });
    }

    /// Buffers an add of `n` to the counter behind `id`.
    pub fn add(&mut self, id: MetricId, n: u64) {
        self.ops.push(MetricOp::Add(id, n));
    }

    /// Buffers a write of `value` to the gauge behind `id`.
    pub fn set(&mut self, id: MetricId, value: i64) {
        self.ops.push(MetricOp::Set(id, value));
    }

    /// Buffers a sample for the histogram behind `id`.
    pub fn record(&mut self, id: MetricId, value: u64) {
        self.ops.push(MetricOp::Record(id, value));
    }

    /// The handle for `name`/`entity` in this lane's tracer (takes the
    /// lock: resolve at attach time, or on paths that are cold anyway).
    pub fn resolve(&self, name: &'static str, entity: Entity) -> MetricId {
        self.tracer.resolve(name, entity)
    }

    /// Decides whether the next injected data cell is path-sampled.
    /// Returns a nonzero trace id for every `sample_every`-th cell
    /// (deterministic counter — no randomness), `0` otherwise. Ids are
    /// unique per lane: one lane per tracer should sample.
    pub fn sample_cell(&mut self) -> u32 {
        if self.sample_every == 0 {
            return 0;
        }
        let n = self.injected_seen;
        self.injected_seen += 1;
        if n.is_multiple_of(self.sample_every as u64) {
            self.next_trace_id += 1;
            self.next_trace_id
        } else {
            0
        }
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.ops.is_empty()
    }

    /// Applies everything buffered, in push order, under one lock. An
    /// empty lane returns without touching the tracer.
    pub fn flush(&mut self) {
        if !self.is_empty() {
            self.tracer.sink().apply(&self.records, &self.ops);
            self.clear();
        }
    }

    /// As [`TraceLane::flush`], through a lock the caller already holds —
    /// for an owner flushing several lanes back to back.
    pub fn flush_into(&mut self, sink: &mut TraceSink<'_>) {
        sink.apply(&self.records, &self.ops);
        self.clear();
    }

    /// Moves everything buffered onto the ends of `records` and `ops`,
    /// unapplied, leaving the lane empty: how a shard worker hands its
    /// switches' output to the thread that will flush it.
    pub fn drain_into(&mut self, records: &mut Vec<TraceRecord>, ops: &mut Vec<MetricOp>) {
        records.append(&mut self.records);
        ops.append(&mut self.ops);
    }

    fn clear(&mut self) {
        self.records.clear();
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;
    use crate::registry::Metric;
    use crate::tracer::TraceConfig;

    fn drop_event(vc: u32) -> TraceEvent {
        TraceEvent::CellDrop {
            vc,
            reason: DropReason::DeadLink,
        }
    }

    #[test]
    fn ops_apply_in_push_order_at_flush() {
        let t = Tracer::new(TraceConfig::default());
        let mut lane = TraceLane::new(t.clone());
        let cells = lane.resolve("cells", Entity::Switch(1));
        let depth = lane.resolve("depth", Entity::Switch(1));
        let lat = lane.resolve("latency", Entity::Global);
        lane.add(cells, 2);
        lane.set(depth, 9);
        lane.add(cells, 3);
        lane.set(depth, 4);
        for v in [10, 20, 30] {
            lane.record(lat, v);
        }
        lane.emit(drop_event(1));
        lane.emit(drop_event(2));
        // Nothing is visible before the flush.
        assert!(!lane.is_empty());
        assert_eq!(t.events_seen(), 0);
        assert!(t.metric("cells", Entity::Switch(1)).is_none());
        lane.flush();
        assert!(lane.is_empty());
        assert_eq!(t.counter("cells", Entity::Switch(1)), 5, "counter sums");
        assert!(
            matches!(t.metric("depth", Entity::Switch(1)), Some(Metric::Gauge(4))),
            "gauge: last write wins"
        );
        match t.metric("latency", Entity::Global) {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 3),
            other => panic!("unexpected {other:?}"),
        }
        let vcs: Vec<TraceEvent> = t.records().iter().map(|r| r.event).collect();
        assert_eq!(vcs, vec![drop_event(1), drop_event(2)]);
    }

    #[test]
    fn events_carry_the_lanes_slot_not_the_tracers() {
        let t = Tracer::new(TraceConfig {
            slot_ns: 680,
            ..TraceConfig::default()
        });
        t.set_slot(5);
        let mut lane = TraceLane::new(t.clone());
        lane.set_slot(1000);
        lane.emit(drop_event(1));
        lane.set_slot(1001);
        lane.emit(drop_event(2));
        lane.flush();
        let recs = t.records();
        assert_eq!((recs[0].slot, recs[0].at_ns), (1000, 680_000));
        assert_eq!((recs[1].slot, recs[1].at_ns), (1001, 680_680));
        assert_eq!(t.slot(), 5, "a lane never moves the tracer's clock");
    }

    #[test]
    fn flushing_an_empty_lane_takes_no_lock() {
        let t = Tracer::new(TraceConfig::default());
        let mut lane = TraceLane::new(t.clone());
        // Hold the tracer's lock: a flush that touched it would deadlock.
        let held = t.sink();
        lane.flush();
        drop(held);
        lane.emit(drop_event(1));
        lane.flush();
        assert_eq!(t.events_seen(), 1);
    }

    #[test]
    fn drained_output_flushes_through_a_shared_sink_in_order() {
        let t = Tracer::new(TraceConfig::default());
        let mut a = TraceLane::new(t.clone());
        let mut b = TraceLane::new(t.clone());
        let n = a.resolve("n", Entity::Global);
        b.emit(drop_event(2));
        b.add(n, 1);
        a.emit(drop_event(1));
        a.add(n, 10);
        let (mut records, mut ops) = (Vec::new(), Vec::new());
        b.drain_into(&mut records, &mut ops);
        assert!(b.is_empty());
        let mut sink = t.sink();
        a.flush_into(&mut sink);
        sink.apply(&records, &ops);
        drop(sink);
        let vcs: Vec<TraceEvent> = t.records().iter().map(|r| r.event).collect();
        assert_eq!(vcs, vec![drop_event(1), drop_event(2)]);
        assert_eq!(t.counter("n", Entity::Global), 11);
    }

    #[test]
    fn sampling_is_a_deterministic_counter() {
        let t = Tracer::new(TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        });
        let mut lane = TraceLane::new(t);
        let ids: Vec<u32> = (0..9).map(|_| lane.sample_cell()).collect();
        assert_eq!(ids, vec![1, 0, 0, 0, 2, 0, 0, 0, 3]);

        let off = Tracer::new(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        let mut lane = TraceLane::new(off);
        assert!((0..10).all(|_| lane.sample_cell() == 0));
    }
}
