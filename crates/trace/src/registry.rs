//! The unified metrics registry: named counters, gauges and bucketed
//! histograms keyed by [`Entity`], with JSON / Prometheus snapshot export,
//! and the interval marks the observatory's scrapes advance.

use crate::event::Entity;
use crate::observe::IntervalSnapshot;
use an2_sim::json::{ObjWriter, Text};
use an2_sim::metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Arbitrary signed level (queue depth, credit balance, …).
    Gauge(i64),
    /// A bucketed distribution (memory bounded by the value range — see
    /// [`Histogram::bucketed`]).
    Histogram(Histogram),
}

/// A resolved handle to one series of one [`MetricsRegistry`]: a dense
/// index, so a write through it is a `Vec` access instead of a keyed map
/// walk. Ids are only meaningful to the registry that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// One buffered registry write, addressed by [`MetricId`] — what a
/// [`crate::TraceLane`] queues instead of taking the tracer's lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricOp {
    /// Add to a counter.
    Add(MetricId, u64),
    /// Set a gauge.
    Set(MetricId, i64),
    /// Record a value into a histogram.
    Record(MetricId, u64),
}

/// One series: its key, once something has been written its value, and
/// what the last [`MetricsRegistry::scrape`] saw of it.
#[derive(Debug, Clone)]
struct Series {
    name: &'static str,
    entity: Entity,
    /// `None` until the first write: a series that was only resolved is
    /// invisible to every reader and export.
    metric: Option<Metric>,
    /// A counter's value, or a histogram's sample count, at the last scrape.
    mark: u64,
    /// A histogram's bucket counts at the last scrape (empty until then,
    /// and for the other kinds).
    buckets: Vec<u64>,
}

/// Named counters / gauges / histograms keyed by entity. Keys are
/// `&'static str` (all call sites are in-tree); values live in a dense
/// `Vec` addressed by [`MetricId`] and a `BTreeMap` keeps the name → index
/// table, so hot writers resolve once and index afterwards while every
/// export stays deterministically ordered — a requirement for the
/// byte-identical trace-diffing workflow. That table is the only index of
/// series: the observatory's per-interval state lives here too, as each
/// series' mark.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<(&'static str, Entity), MetricId>,
    series: Vec<Series>,
    /// Series written at least once (what `len` reports).
    touched: usize,
    hist_sub_bits: u32,
}

impl MetricsRegistry {
    /// An empty registry whose histograms use `1 << hist_sub_bits`
    /// sub-buckets per power of two (`1..=16`, as
    /// `an2_sim::metrics::Histogram::bucketed` takes it).
    pub fn new(hist_sub_bits: u32) -> Self {
        MetricsRegistry {
            index: BTreeMap::new(),
            series: Vec::new(),
            touched: 0,
            hist_sub_bits,
        }
    }

    /// The handle for `name`/`entity`, allocating its slot on first sight.
    /// Resolving writes nothing: the series stays absent from `len`,
    /// `iter`, scrapes and exports until its first write, which also
    /// fixes its kind.
    pub fn resolve(&mut self, name: &'static str, entity: Entity) -> MetricId {
        let series = &mut self.series;
        *self.index.entry((name, entity)).or_insert_with(|| {
            let id = u32::try_from(series.len()).expect("fewer than 2^32 series");
            series.push(Series {
                name,
                entity,
                metric: None,
                mark: 0,
                buckets: Vec::new(),
            });
            MetricId(id)
        })
    }

    /// The value behind `id` plus its key (for panic messages), created by
    /// `init` on the first write.
    fn value(
        &mut self,
        id: MetricId,
        init: impl FnOnce(u32) -> Metric,
    ) -> (&mut Metric, &'static str, Entity) {
        let s = &mut self.series[id.0 as usize];
        if s.metric.is_none() {
            self.touched += 1;
        }
        let metric = s.metric.get_or_insert_with(|| init(self.hist_sub_bits));
        (metric, s.name, s.entity)
    }

    /// Adds `n` to the counter behind `id`, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if the series already holds another kind of metric (as do
    /// the other writers).
    pub(crate) fn counter_add_id(&mut self, id: MetricId, n: u64) {
        match self.value(id, |_| Metric::Counter(0)) {
            (Metric::Counter(c), ..) => *c += n,
            (_, name, entity) => panic!("metric {name}/{entity} is not a counter"),
        }
    }

    /// Sets the gauge behind `id`.
    pub(crate) fn gauge_set_id(&mut self, id: MetricId, value: i64) {
        match self.value(id, |_| Metric::Gauge(0)) {
            (Metric::Gauge(g), ..) => *g = value,
            (_, name, entity) => panic!("metric {name}/{entity} is not a gauge"),
        }
    }

    /// Records `value` into the bucketed histogram behind `id`.
    pub(crate) fn hist_record_id(&mut self, id: MetricId, value: u64) {
        match self.value(id, |bits| Metric::Histogram(Histogram::bucketed(bits))) {
            (Metric::Histogram(h), ..) => h.record(value),
            (_, name, entity) => panic!("metric {name}/{entity} is not a histogram"),
        }
    }

    /// Applies one buffered write.
    pub fn apply(&mut self, op: MetricOp) {
        match op {
            MetricOp::Add(id, n) => self.counter_add_id(id, n),
            MetricOp::Set(id, v) => self.gauge_set_id(id, v),
            MetricOp::Record(id, v) => self.hist_record_id(id, v),
        }
    }

    /// Adds `n` to the counter `name`/`entity`, creating it at zero first.
    pub fn counter_add(&mut self, name: &'static str, entity: Entity, n: u64) {
        let id = self.resolve(name, entity);
        self.counter_add_id(id, n);
    }

    /// Sets the gauge `name`/`entity`.
    pub fn gauge_set(&mut self, name: &'static str, entity: Entity, value: i64) {
        let id = self.resolve(name, entity);
        self.gauge_set_id(id, value);
    }

    /// The metric `name`/`entity`, if anything was ever written to it.
    pub fn get(&self, name: &'static str, entity: Entity) -> Option<&Metric> {
        let id = self.index.get(&(name, entity))?;
        self.series[id.0 as usize].metric.as_ref()
    }

    /// The counter `name`/`entity`, or 0 when never touched.
    pub fn counter(&self, name: &'static str, entity: Entity) -> u64 {
        match self.get(name, entity) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Sum of the counter `name` over every entity.
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Every series written at least once, in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Entity, &Metric)> {
        self.index.iter().filter_map(|(&(n, e), id)| {
            self.series[id.0 as usize]
                .metric
                .as_ref()
                .map(|m| (n, e, m))
        })
    }

    /// Number of series written at least once.
    pub fn len(&self) -> usize {
        self.touched
    }

    /// `true` when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// One interval for the observatory: appends to `snap` every counter
    /// that moved since the previous scrape (by how much), every gauge's
    /// level, and the [`an2_sim::metrics::HistStat`] of every histogram
    /// that gained samples, each in `(name, entity)` order — then advances
    /// every mark to what it saw. An unmoved counter or histogram costs one
    /// comparison: nothing is copied or allocated for it.
    pub(crate) fn scrape(&mut self, snap: &mut IntervalSnapshot) {
        for id in self.index.values() {
            let s = &mut self.series[id.0 as usize];
            match &s.metric {
                Some(Metric::Counter(c)) if *c != s.mark => {
                    snap.counters.push((s.name, s.entity, c - s.mark));
                    s.mark = *c;
                }
                Some(Metric::Gauge(g)) => snap.gauges.push((s.name, s.entity, *g)),
                Some(Metric::Histogram(h)) if h.count() as u64 != s.mark => {
                    let stat = h.delta_since(&mut s.buckets);
                    snap.hists.extend(stat.map(|st| (s.name, s.entity, st)));
                    s.mark = h.count() as u64;
                }
                _ => {}
            }
        }
    }

    /// Renders the whole registry as one JSON object:
    /// `{"metrics":[{"name":…,"entity":…,"type":…,…}]}`. Histograms export
    /// count / mean / min / max / p50 / p99 (`&mut` because percentile
    /// queries walk cumulative buckets on a clone).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let mut doc = ObjWriter::new(&mut out);
        let mut metrics = doc.arr("metrics");
        for (name, entity, m) in self.iter() {
            let mut o = metrics.obj();
            o.field("name", name).field("entity", Text(entity));
            match m {
                Metric::Counter(c) => o.field("type", "counter").field("value", c),
                Metric::Gauge(g) => o.field("type", "gauge").field("value", g),
                Metric::Histogram(h) => {
                    let mut h = h.clone();
                    o.field("type", "histogram")
                        .field("count", h.count())
                        .field("min", h.min().unwrap_or(0))
                        .field("max", h.max().unwrap_or(0))
                        .field("p50", h.percentile(0.5).unwrap_or(0))
                        .field("p99", h.percentile(0.99).unwrap_or(0))
                }
            };
        }
        metrics.end();
        doc.end();
        out
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Metric names have `.` rewritten to `_` and gain an `an2_` prefix;
    /// entities become labels (`an2_cells_delivered{vc="100"} 42`). Every
    /// series gets `# HELP` / `# TYPE` header lines, histograms export
    /// count plus min/max/p50/p99 gauge series, and label values are
    /// escaped per the exposition-format rules. Samples of one series are
    /// grouped under its header, series in deterministic name order.
    pub(crate) fn to_prometheus(&self) -> String {
        // series name -> (prometheus type, source metric name, samples)
        let mut series: BTreeMap<String, (&'static str, &'static str, Vec<String>)> =
            BTreeMap::new();
        let add = |series: &mut BTreeMap<String, (&'static str, &'static str, Vec<String>)>,
                   sname: String,
                   ty: &'static str,
                   source: &'static str,
                   labels: &str,
                   value: String| {
            let entry = series
                .entry(sname)
                .or_insert_with(|| (ty, source, Vec::new()));
            entry.2.push(format!("{labels} {value}"));
        };
        for (name, entity, m) in self.iter() {
            let mut prom = String::with_capacity(name.len() + 4);
            prom.push_str("an2_");
            for ch in name.chars() {
                prom.push(if ch == '.' || ch == '-' { '_' } else { ch });
            }
            let labels = entity.labels();
            let mut label_str = String::new();
            if !labels.is_empty() {
                label_str.push('{');
                for (i, (k, v)) in labels.iter().enumerate() {
                    if i > 0 {
                        label_str.push(',');
                    }
                    write!(label_str, "{k}=\"{}\"", escape_label_value(&v.to_string()))
                        .expect("string write");
                }
                label_str.push('}');
            }
            match m {
                Metric::Counter(c) => {
                    add(
                        &mut series,
                        format!("{prom}_total"),
                        "counter",
                        name,
                        &label_str,
                        c.to_string(),
                    );
                }
                Metric::Gauge(g) => {
                    add(&mut series, prom, "gauge", name, &label_str, g.to_string());
                }
                Metric::Histogram(h) => {
                    let mut h = h.clone();
                    add(
                        &mut series,
                        format!("{prom}_count"),
                        "counter",
                        name,
                        &label_str,
                        h.count().to_string(),
                    );
                    let quantiles = [
                        ("min", h.min().unwrap_or(0)),
                        ("max", h.max().unwrap_or(0)),
                        ("p50", h.percentile(0.5).unwrap_or(0)),
                        ("p99", h.percentile(0.99).unwrap_or(0)),
                    ];
                    for (suffix, v) in quantiles {
                        add(
                            &mut series,
                            format!("{prom}_{suffix}"),
                            "gauge",
                            name,
                            &label_str,
                            v.to_string(),
                        );
                    }
                }
            }
        }
        let mut out = String::new();
        for (sname, (ty, source, samples)) in series {
            writeln!(out, "# HELP {sname} AN2 registry metric {source}").expect("string write");
            writeln!(out, "# TYPE {sname} {ty}").expect("string write");
            for s in samples {
                writeln!(out, "{sname}{s}").expect("string write");
            }
        }
        out
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote and newline must be backslash-escaped.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut r = MetricsRegistry::new(5);
        r.counter_add("cells.delivered", Entity::Vc(100), 3);
        r.counter_add("cells.delivered", Entity::Vc(100), 2);
        r.gauge_set("queue.depth", Entity::Switch(1), 7);
        r.gauge_set("queue.depth", Entity::Switch(1), 5);
        let latency = r.resolve("latency", Entity::Global);
        for v in [10u64, 20, 30] {
            r.hist_record_id(latency, v);
        }
        assert_eq!(r.counter("cells.delivered", Entity::Vc(100)), 5);
        assert_eq!(r.counter("cells.delivered", Entity::Vc(999)), 0);
        match r.get("queue.depth", Entity::Switch(1)) {
            Some(Metric::Gauge(5)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let mut r = MetricsRegistry::new(5);
        r.counter_add("cells.sent", Entity::Vc(7), 9);
        r.gauge_set("credits", Entity::Link(3), 8);
        let latency = r.resolve("latency.slots", Entity::Global);
        r.hist_record_id(latency, 42);
        let json = r.to_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"entity\":\"vc7\""));
        assert!(json.contains("\"type\":\"histogram\""));
        assert_eq!(json, r.to_json(), "export must be stable");
        let prom = r.to_prometheus();
        assert!(prom.contains("an2_cells_sent_total{vc=\"7\"} 9"));
        assert!(prom.contains("an2_credits{link=\"3\"} 8"));
        assert!(prom.contains("an2_latency_slots_count 1"));
    }

    #[test]
    fn prometheus_emits_help_type_and_percentile_gauges() {
        let mut r = MetricsRegistry::new(5);
        r.counter_add("cells.sent", Entity::Vc(7), 9);
        r.gauge_set("credits", Entity::Link(3), 8);
        let latency = r.resolve("latency.slots", Entity::Global);
        for v in 1..=100u64 {
            r.hist_record_id(latency, v * 10);
        }
        let prom = r.to_prometheus();
        // Every series carries HELP and TYPE headers.
        assert!(prom.contains("# HELP an2_cells_sent_total AN2 registry metric cells.sent"));
        assert!(prom.contains("# TYPE an2_cells_sent_total counter"));
        assert!(prom.contains("# TYPE an2_credits gauge"));
        assert!(prom.contains("# TYPE an2_latency_slots_count counter"));
        assert!(prom.contains("# TYPE an2_latency_slots_p50 gauge"));
        assert!(prom.contains("# TYPE an2_latency_slots_p99 gauge"));
        // Histogram percentiles are exported as gauge samples.
        let p50 = prom
            .lines()
            .find(|l| l.starts_with("an2_latency_slots_p50 "))
            .expect("p50 sample");
        let v: u64 = p50.split(' ').nth(1).unwrap().parse().unwrap();
        assert!((450..=550).contains(&v), "p50 sample {v}");
        assert!(prom
            .lines()
            .any(|l| l.starts_with("an2_latency_slots_p99 ")));
        // Each TYPE header precedes its samples and appears exactly once.
        let type_lines = prom
            .lines()
            .filter(|l| l.starts_with("# TYPE an2_latency_slots_p50"))
            .count();
        assert_eq!(type_lines, 1);
        assert_eq!(prom, r.to_prometheus(), "export must be stable");
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(escape_label_value("plain7"), "plain7");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    fn scrape(r: &mut MetricsRegistry) -> IntervalSnapshot {
        let mut snap = IntervalSnapshot::default();
        r.scrape(&mut snap);
        snap
    }

    #[test]
    fn resolved_but_untouched_series_are_invisible() {
        let mut r = MetricsRegistry::new(5);
        r.counter_add("cells", Entity::Link(1), 4);
        let baseline = (r.to_json(), r.to_prometheus());
        assert_eq!(scrape(&mut r).counters, vec![("cells", Entity::Link(1), 4)]);
        // Resolve a handle per kind and write through none of them.
        let ghosts = [
            r.resolve("cells", Entity::Link(2)),
            r.resolve("depth", Entity::Switch(0)),
            r.resolve("latency", Entity::Global),
        ];
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 1);
        assert!(r.get("depth", Entity::Switch(0)).is_none());
        assert_eq!(r.counter("cells", Entity::Link(2)), 0);
        assert_eq!(r.counter_total("cells"), 4);
        let idle = scrape(&mut r);
        assert!(idle.counters.is_empty() && idle.gauges.is_empty() && idle.hists.is_empty());
        assert_eq!((r.to_json(), r.to_prometheus()), baseline);
        // Resolving is idempotent, and the first write makes a series real.
        assert_eq!(r.resolve("depth", Entity::Switch(0)), ghosts[1]);
        r.gauge_set_id(ghosts[1], 3);
        assert_eq!(r.len(), 2);
        let next = scrape(&mut r);
        assert!(next.counters.is_empty() && next.hists.is_empty());
        assert_eq!(next.gauges, vec![("depth", Entity::Switch(0), 3)]);
        assert!(r.to_json().contains("\"name\":\"depth\""));
    }

    #[test]
    fn name_keyed_and_id_keyed_writes_hit_one_series() {
        let mut r = MetricsRegistry::new(5);
        let c = r.resolve("cells", Entity::Host(3));
        r.counter_add("cells", Entity::Host(3), 2);
        r.counter_add_id(c, 5);
        r.apply(MetricOp::Add(c, 1));
        assert_eq!(r.counter("cells", Entity::Host(3)), 8);
        let g = r.resolve("depth", Entity::Switch(1));
        r.gauge_set_id(g, 7);
        r.gauge_set("depth", Entity::Switch(1), 5);
        assert!(matches!(
            r.get("depth", Entity::Switch(1)),
            Some(Metric::Gauge(5))
        ));
        let h = r.resolve("latency", Entity::Global);
        r.hist_record_id(h, 10);
        r.apply(MetricOp::Record(h, 20));
        match r.get("latency", Entity::Global) {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    #[should_panic(expected = "metric queue.depth/switch4 is not a counter")]
    fn kind_mismatch_by_id_names_the_series() {
        let mut r = MetricsRegistry::new(5);
        let id = r.resolve("queue.depth", Entity::Switch(4));
        r.gauge_set_id(id, 1);
        r.counter_add_id(id, 1);
    }

    #[test]
    fn counter_total_sums_across_entities() {
        let mut r = MetricsRegistry::new(5);
        r.counter_add("x", Entity::Switch(0), 1);
        r.counter_add("x", Entity::Switch(1), 2);
        r.counter_add("y", Entity::Global, 10);
        assert_eq!(r.counter_total("x"), 3);
    }
}
