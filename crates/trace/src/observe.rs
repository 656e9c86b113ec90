//! The telemetry observatory: streaming interval aggregation over the
//! metrics registry, an SLO watchdog with typed health alerts, and
//! ground-truth detection scoring against known fault-injection times.
//!
//! The paper's thesis is that a LAN must watch itself like a distributed
//! system — the Skeptic, the link monitors and the 200 ms reconfiguration
//! budget are all *health judgments made from telemetry*. The flight
//! recorder and registry (PR 5) are post-mortem artifacts; this module is
//! the during-the-run tier on top of them:
//!
//! * An [`Observatory`] scrapes the registry every `every_slots` of
//!   virtual time into a bounded ring of [`IntervalSnapshot`]s — counter
//!   deltas (per-link utilization and loss, ctrl-cell rate), gauge levels
//!   (per-switch queue depth, link state) and per-interval histogram
//!   percentiles. What the previous scrape saw is each registry series'
//!   mark, kept beside its value in [`MetricsRegistry`]; the observatory
//!   keeps no copy.
//! * A set of streaming detectors (see [`crate::DetectorKind`]) judges
//!   each interval against fixed service-level objectives (the constants
//!   below) and emits virtual-time-stamped [`HealthEvent`]s into the typed
//!   log and the flight recorder ([`crate::TraceEvent::HealthAlert`]).
//! * Because chaos schedules are deterministic `(spec, seed)` expansions,
//!   [`score_detections`] can measure per-detector time-to-detect and
//!   false-positive rates against *exact* ground truth ([`FaultLabel`]s) —
//!   a measurement real networks can never make.
//!
//! Everything here is read-only on the simulation: a scrape draws no
//! randomness and advances the registry's marks and nothing else, so an
//! observed run stays byte-identical to an unobserved one.

use crate::event::{DetectorKind, Entity};
use crate::registry::MetricsRegistry;
pub use an2_sim::metrics::HistStat;
use std::collections::{BTreeMap, VecDeque};

/// EWMA smoothing factor shared by every streaming detector baseline.
const EWMA_ALPHA: f64 = 0.2;

/// Observations a baseline needs before its z-score is trusted.
const MIN_BASELINE_OBS: u64 = 8;

/// Floor on the baseline standard deviation, so an all-zero history does
/// not make every first loss an infinite-sigma outlier.
const SIGMA_FLOOR: f64 = 0.5;

/// Interval snapshots retained (≈ 4 s at the default cadence); older ones
/// fall off the front of the ring.
const RING_CAPACITY: usize = 4_096;

// The service-level objectives every interval is judged against.

/// Intervals after enabling during which no detector raises (baselines
/// still learn): covers the boot reconfiguration.
const WARMUP_INTERVALS: u64 = 40;

/// Delivery floor in thousandths: interval `delivered/injected` under this
/// (while injection is active) raises [`DetectorKind::DeliveryFloor`].
const DELIVERY_FLOOR_MILLI: i64 = 500;

/// Injected cells an interval needs before ratio detectors judge it —
/// gates out boot, drain and probe phases where ratios are noise.
const MIN_INTERVAL_INJECTED: u64 = 20;

/// Interval p99 end-to-end latency budget, in slots
/// ([`DetectorKind::LatencyBudget`]).
const P99_LATENCY_BUDGET_SLOTS: u64 = 15_000;

/// Delivered-cell samples an interval needs before its p99 is judged.
const MIN_LATENCY_SAMPLES: u64 = 10;

/// Control cells per interval above this raise [`DetectorKind::CtrlStorm`]
/// — a reconfiguration storm in progress.
const MAX_CTRL_CELLS_PER_INTERVAL: u64 = 40;

/// Consecutive zero-traffic, zero-credit intervals on a recently active
/// link before [`DetectorKind::CreditStall`] raises.
const CREDIT_STALL_INTERVALS: u32 = 3;

/// z-score threshold (4σ) for [`DetectorKind::LossSpike`].
const Z_THRESHOLD: f64 = 4.0;

/// Absolute floor on windowed loss events before a spike can raise.
const MIN_LOSS_EVENTS: u64 = 3;

/// Sliding window (in intervals) the loss detector sums over — three 1 ms
/// intervals mirror the monitor's own fail streak, so even a quiesced link
/// betrays itself through failed pings alone.
const LOSS_WINDOW_INTERVALS: usize = 3;

/// Configuration for [`crate::Tracer::enable_observatory`].
#[derive(Debug, Clone, Copy)]
pub struct ObservatoryConfig {
    /// Scrape cadence in fabric slots, at least 1 (default 1471 ≈ 1 ms at
    /// 622 Mb/s).
    pub every_slots: u64,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig { every_slots: 1_471 }
    }
}

/// One scrape of the registry: what moved during `[start_slot, end_slot)`.
///
/// Counters carry their interval *delta* (only series that moved), gauges
/// their level at the boundary, histograms their per-interval percentile
/// summary. Series are in deterministic `(name, entity)` order.
#[derive(Debug, Clone, Default)]
pub struct IntervalSnapshot {
    /// Interval ordinal (0-based since the observatory was enabled).
    pub index: u64,
    /// First slot covered (inclusive).
    pub start_slot: u64,
    /// Boundary slot (exclusive) the scrape fired at.
    pub end_slot: u64,
    /// Counter deltas over the interval (omits unmoved series).
    pub counters: Vec<(&'static str, Entity, u64)>,
    /// Gauge levels at the boundary (every registered gauge).
    pub gauges: Vec<(&'static str, Entity, i64)>,
    /// Histogram interval summaries (omits empty intervals).
    pub hists: Vec<(&'static str, Entity, HistStat)>,
}

impl IntervalSnapshot {
    /// The interval delta of counter `name`/`entity` (0 when unmoved).
    pub fn counter_delta(&self, name: &str, entity: Entity) -> u64 {
        self.counters
            .iter()
            .find(|(n, e, _)| *n == name && *e == entity)
            .map_or(0, |&(_, _, v)| v)
    }

    /// Sum of counter `name`'s interval deltas over every entity.
    pub fn counter_delta_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// The gauge `name`/`entity` level at the boundary, if registered.
    pub fn gauge(&self, name: &str, entity: Entity) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, e, _)| *n == name && *e == entity)
            .map(|&(_, _, v)| v)
    }

    /// The histogram summary for `name`/`entity`, if any sample landed.
    pub fn hist(&self, name: &str, entity: Entity) -> Option<&HistStat> {
        self.hists
            .iter()
            .find(|(n, e, _)| *n == name && *e == entity)
            .map(|(_, _, h)| h)
    }

    /// Per-link utilization in thousandths of the link's cell capacity
    /// (one cell per slot): `link.cells delta * 1000 / interval length`.
    pub fn link_utilization_milli(&self, link: u32) -> u64 {
        let slots = (self.end_slot - self.start_slot).max(1);
        self.counter_delta("link.cells", Entity::Link(link)) * 1000 / slots
    }
}

/// One typed watchdog judgment, mirrored into the flight recorder as a
/// [`crate::TraceEvent::HealthAlert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// The interval-boundary slot the alert was judged at.
    pub slot: u64,
    /// The boundary's virtual time.
    pub at_ns: u64,
    /// Which detector.
    pub detector: DetectorKind,
    /// What it judged (a link, or the whole installation).
    pub entity: Entity,
    /// `true` on the rising edge, `false` when the detector re-arms.
    pub raised: bool,
    /// Measured value in thousandths.
    pub value_milli: i64,
    /// Threshold in thousandths.
    pub threshold_milli: i64,
}

/// EWMA mean/variance baseline for z-score detectors.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    mean: f64,
    var: f64,
    n: u64,
}

impl Ewma {
    fn observe(&mut self, x: f64) {
        if self.n == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let d = x - self.mean;
            self.mean += EWMA_ALPHA * d;
            self.var = (1.0 - EWMA_ALPHA) * (self.var + EWMA_ALPHA * d * d);
        }
        self.n += 1;
    }

    fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }
}

/// Streaming per-link detector state.
#[derive(Debug, Clone, Default)]
struct LinkState {
    loss_window: VecDeque<u64>,
    loss_ewma: Ewma,
    loss_raised: bool,
    util_ewma: Ewma,
    stall_count: u32,
    stall_raised: bool,
}

/// The streaming telemetry tier: interval aggregator + SLO watchdog.
///
/// Lives inside the tracer core and is driven by the fabric's virtual
/// clock (`Tracer::set_slot`): each time the clock crosses one or more
/// interval boundaries, the registry is scraped once per boundary (quiet
/// regions the fabric fast-forwarded over yield empty intervals, keeping
/// the series regular) and the detectors are run on the fresh snapshot.
#[derive(Debug, Clone)]
pub struct Observatory {
    every: u64,
    next_boundary: u64,
    index: u64,
    ring: VecDeque<IntervalSnapshot>,
    dropped: u64,
    links: BTreeMap<u32, LinkState>,
    floor_raised: bool,
    latency_raised: bool,
    ctrl_raised: bool,
    health: Vec<HealthEvent>,
}

impl Observatory {
    /// A fresh observatory whose first interval starts at `start_slot`.
    pub fn new(cfg: ObservatoryConfig, start_slot: u64) -> Self {
        let every = cfg.every_slots.max(1);
        Observatory {
            every,
            next_boundary: start_slot + every,
            index: 0,
            ring: VecDeque::new(),
            dropped: 0,
            links: BTreeMap::new(),
            floor_raised: false,
            latency_raised: false,
            ctrl_raised: false,
            health: Vec::new(),
        }
    }

    /// `true` when `slot` has crossed the next interval boundary.
    pub fn due(&self, slot: u64) -> bool {
        slot >= self.next_boundary
    }

    /// Scrapes every boundary up to `slot`, appending any health alerts to
    /// the log ([`Observatory::health_log`]) for the caller to record.
    /// Boundaries after the first in one call see an unchanged registry
    /// and therefore produce empty intervals — exactly right, because the
    /// fabric only jumps the clock over provably quiet regions.
    pub fn scrape_until(&mut self, slot: u64, slot_ns: u64, registry: &mut MetricsRegistry) {
        while self.next_boundary <= slot {
            let boundary = self.next_boundary;
            let mut snap = IntervalSnapshot {
                index: self.index,
                start_slot: boundary - self.every,
                end_slot: boundary,
                ..IntervalSnapshot::default()
            };
            registry.scrape(&mut snap);
            self.run_detectors(&snap, slot_ns);
            if self.ring.len() == RING_CAPACITY {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back(snap);
            self.index += 1;
            self.next_boundary += self.every;
        }
    }

    fn run_detectors(&mut self, snap: &IntervalSnapshot, slot_ns: u64) {
        let Observatory {
            links,
            floor_raised,
            latency_raised,
            ctrl_raised,
            health,
            ..
        } = self;
        let warmed = snap.index >= WARMUP_INTERVALS;
        let boundary = snap.end_slot;
        let mut alert = |detector, entity, raised, value_milli, threshold_milli| {
            health.push(HealthEvent {
                slot: boundary,
                at_ns: boundary * slot_ns,
                detector,
                entity,
                raised,
                value_milli,
                threshold_milli,
            });
        };
        let injected = snap.counter_delta_total("fabric.cells_injected");
        let delivered = snap.counter_delta_total("fabric.cells_delivered");
        let active = injected >= MIN_INTERVAL_INJECTED;

        // Per-link detectors. A link enters the book the first time any
        // per-link series mentions it — healthy pings included, so an idle
        // monitored link builds its zero-loss baseline from boot and its
        // first-ever failure is still a spike against history. From then
        // on it is judged every interval (an interval with no series rows
        // means zero movement).
        for &(_, entity, _) in snap.counters.iter().filter(|(n, _, _)| {
            matches!(
                *n,
                "faults.lose"
                    | "monitor.ping_failed"
                    | "monitor.ping_ok"
                    | "link.cells"
                    | "fabric.credits_sent"
            )
        }) {
            if let Entity::Link(l) = entity {
                links.entry(l).or_default();
            }
        }
        for (&link, st) in links.iter_mut() {
            let ent = Entity::Link(link);
            let loss = snap.counter_delta("faults.lose", ent)
                + snap.counter_delta("monitor.ping_failed", ent);
            let util = snap.counter_delta("link.cells", ent);
            let credits = snap.counter_delta("fabric.credits_sent", ent);

            // Loss spike: z-score of a short sliding sum of loss events
            // against the link's own EWMA baseline. The window mirrors the
            // monitor's fail streak, so three failed pings on an otherwise
            // idle link are enough. The baseline is fed with the value
            // *leaving* the window — it lags by the window length, so a
            // developing anomaly can never teach the EWMA that its own
            // ramp is normal (and an armed outage never feeds it at all).
            st.loss_window.push_back(loss);
            let mut left_window = None;
            while st.loss_window.len() > LOSS_WINDOW_INTERVALS {
                left_window = st.loss_window.pop_front();
            }
            if let (Some(old), false) = (left_window, st.loss_raised) {
                st.loss_ewma.observe(old as f64);
            }
            let x = st.loss_window.iter().sum::<u64>() as f64;
            if !st.loss_raised {
                let wf = LOSS_WINDOW_INTERVALS as f64;
                let threshold = wf * st.loss_ewma.mean
                    + Z_THRESHOLD * (st.loss_ewma.std() * wf.sqrt()).max(SIGMA_FLOOR);
                if warmed
                    && st.loss_ewma.n >= MIN_BASELINE_OBS
                    && x >= MIN_LOSS_EVENTS as f64
                    && x > threshold
                {
                    st.loss_raised = true;
                    let threshold = threshold.max(MIN_LOSS_EVENTS as f64);
                    let (x, threshold) = ((x * 1000.0) as i64, (threshold * 1000.0) as i64);
                    alert(DetectorKind::LossSpike, ent, true, x, threshold);
                }
            } else if x < MIN_LOSS_EVENTS as f64 {
                st.loss_raised = false;
                let (x, threshold) = ((x * 1000.0) as i64, (MIN_LOSS_EVENTS * 1000) as i64);
                alert(DetectorKind::LossSpike, ent, false, x, threshold);
            }

            // Credit stall: a recently active link that moves no cells and
            // returns no credits while hosts keep injecting has stalled
            // (dead wire, wedged credit loop) rather than gone idle.
            let was_active = st.util_ewma.mean >= 1.0;
            if util == 0 && credits == 0 && was_active && active {
                st.stall_count += 1;
            } else {
                st.stall_count = 0;
            }
            let threshold = (CREDIT_STALL_INTERVALS as i64) * 1000;
            if st.stall_raised && util > 0 {
                st.stall_raised = false;
                alert(DetectorKind::CreditStall, ent, false, 0, threshold);
            }
            if warmed && !st.stall_raised && st.stall_count >= CREDIT_STALL_INTERVALS {
                st.stall_raised = true;
                let count = (st.stall_count as i64) * 1000;
                alert(DetectorKind::CreditStall, ent, true, count, threshold);
            }
            st.util_ewma.observe(util as f64);
        }

        // The installation-wide detectors raise on the interval that
        // breaks their objective and re-arm on the first that meets it.
        // Delivery floor (throughput collapse under sustained injection).
        if warmed && active {
            let ratio_milli = (delivered * 1000 / injected) as i64;
            let floor = DELIVERY_FLOOR_MILLI;
            if let Some(up) = flip(floor_raised, ratio_milli < floor) {
                alert(
                    DetectorKind::DeliveryFloor,
                    Entity::Global,
                    up,
                    ratio_milli,
                    floor,
                );
            }
        }

        // Latency budget on the interval's own p99.
        if warmed {
            if let Some(hs) = snap.hist("fabric.cell_latency_slots", Entity::Global) {
                if hs.count >= MIN_LATENCY_SAMPLES {
                    let budget = P99_LATENCY_BUDGET_SLOTS;
                    if let Some(up) = flip(latency_raised, hs.p99 > budget) {
                        let (p99, budget) = ((hs.p99 as i64) * 1000, (budget as i64) * 1000);
                        alert(DetectorKind::LatencyBudget, Entity::Global, up, p99, budget);
                    }
                }
            }
        }

        // Control storm.
        let ctrl = snap.counter_delta_total("ctrl.cells_sent");
        if warmed {
            let max = MAX_CTRL_CELLS_PER_INTERVAL;
            if let Some(up) = flip(ctrl_raised, ctrl > max) {
                let (ctrl, max) = ((ctrl as i64) * 1000, (max as i64) * 1000);
                alert(DetectorKind::CtrlStorm, Entity::Global, up, ctrl, max);
            }
        }
    }

    /// The retained interval snapshots, oldest first.
    pub fn intervals(&self) -> impl Iterator<Item = &IntervalSnapshot> {
        self.ring.iter()
    }

    /// Snapshots evicted off the front of the ring.
    pub fn intervals_dropped(&self) -> u64 {
        self.dropped
    }

    /// Intervals scraped so far (including evicted ones).
    pub fn intervals_seen(&self) -> u64 {
        self.index
    }

    /// The full typed health log, in emission order.
    pub fn health_log(&self) -> &[HealthEvent] {
        &self.health
    }
}

/// Sets `raised` to `bad` and returns the new state if that flipped it —
/// the raise and re-arm edges of a detector.
fn flip(raised: &mut bool, bad: bool) -> Option<bool> {
    (*raised != bad).then(|| {
        *raised = bad;
        bad
    })
}

/// Ground truth for one injected link failure: the link was down over
/// `[down_slot, up_slot)`, and alerts up to `clear_slot` (readmission +
/// margin) are still attributable to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultLabel {
    /// The failed link.
    pub link: u32,
    /// The slot the injector took it down.
    pub down_slot: u64,
    /// The slot the injector brought it back.
    pub up_slot: u64,
    /// End of the attribution window (≥ `up_slot`; covers the monitor's
    /// readmission streak and the reconfiguration that follows).
    pub clear_slot: u64,
}

/// Detection quality against ground-truth labels: per-label time-to-detect
/// and the false-positive count.
#[derive(Debug, Clone, Default)]
pub struct DetectionScore {
    /// Ground-truth failures scored.
    pub labels: usize,
    /// Labels with at least one attributable raised alert.
    pub detected: usize,
    /// Time-to-detect per detected label, in milliseconds of virtual
    /// time, sorted ascending.
    pub ttd_ms: Vec<f64>,
    /// Raised alerts attributable to no label window.
    pub false_positives: usize,
    /// Total raised alerts considered.
    pub raised_alerts: usize,
}

impl DetectionScore {
    /// Median time-to-detect (ms), or `None` when nothing was detected.
    pub fn median_ttd_ms(&self) -> Option<f64> {
        if self.ttd_ms.is_empty() {
            None
        } else {
            Some(self.ttd_ms[self.ttd_ms.len() / 2])
        }
    }

    /// Worst time-to-detect (ms).
    pub fn max_ttd_ms(&self) -> Option<f64> {
        self.ttd_ms.last().copied()
    }

    /// `detected == labels`.
    pub fn all_detected(&self) -> bool {
        self.detected == self.labels
    }
}

/// Scores raised health alerts against ground-truth fault labels.
///
/// A label counts as *detected* by the earliest raised alert inside its
/// `[down_slot, clear_slot]` window whose entity is the failed link or the
/// whole installation; time-to-detect is measured from `down_slot`. A
/// raised alert is a *false positive* when no label's window contains it —
/// per-link alerts inside any window are attributable (a failure elsewhere
/// legitimately moves traffic off other links). Pass `only` to score a
/// single detector, `None` for the union.
pub fn score_detections(
    events: &[HealthEvent],
    labels: &[FaultLabel],
    slot_ns: u64,
    only: Option<DetectorKind>,
) -> DetectionScore {
    let raised: Vec<&HealthEvent> = events
        .iter()
        .filter(|e| e.raised && only.is_none_or(|d| e.detector == d))
        .collect();
    let mut score = DetectionScore {
        labels: labels.len(),
        raised_alerts: raised.len(),
        ..DetectionScore::default()
    };
    for l in labels {
        let hit = raised
            .iter()
            .filter(|e| {
                e.slot >= l.down_slot
                    && e.slot <= l.clear_slot
                    && (matches!(e.entity, Entity::Global)
                        || matches!(e.entity, Entity::Link(x) if x == l.link))
            })
            .map(|e| e.slot)
            .min();
        if let Some(slot) = hit {
            score.detected += 1;
            score
                .ttd_ms
                .push((slot - l.down_slot) as f64 * slot_ns as f64 / 1e6);
        }
    }
    score.ttd_ms.sort_by(|a, b| a.total_cmp(b));
    for e in &raised {
        let attributable = labels
            .iter()
            .any(|l| e.slot >= l.down_slot && e.slot <= l.clear_slot);
        if !attributable {
            score.false_positives += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The detector tests' events start this many intervals in, past the
    /// warmup.
    const W: u64 = WARMUP_INTERVALS;

    fn observatory() -> Observatory {
        Observatory::new(ObservatoryConfig { every_slots: 100 }, 0)
    }

    #[test]
    fn aggregator_deltas_and_ring_bound() {
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        // Resolved and never written: absent from every interval.
        reg.resolve("link.cells", Entity::Link(9));
        // Written once, before the first boundary.
        reg.counter_add("ctrl.cells_sent", Entity::Switch(0), 4);
        reg.gauge_set("link.up", Entity::Link(2), 1);
        let n = RING_CAPACITY as u64 + 2;
        for k in 1..=n {
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 10);
            reg.gauge_set("switch.queue_depth", Entity::Switch(1), k as i64);
            if k % 2 == 1 {
                reg.hist_record("fabric.cell_latency_slots", Entity::Global, 40 * k);
            }
            if k == 3 {
                // Born after two scrapes: its whole value is this interval's.
                reg.counter_add("monitor.ping_ok", Entity::Link(2), 7);
            }
            obs.scrape_until(k * 100, 680, &mut reg);
            let s = obs.intervals().last().unwrap();
            assert_eq!((s.start_slot, s.end_slot), ((k - 1) * 100, k * 100));
            // Each interval sees only its own movement; an unmoved counter
            // is absent.
            let mut counters = vec![("fabric.cells_injected", Entity::Host(0), 10)];
            if k == 1 {
                counters.insert(0, ("ctrl.cells_sent", Entity::Switch(0), 4));
            }
            if k == 3 {
                counters.push(("monitor.ping_ok", Entity::Link(2), 7));
            }
            assert_eq!(s.counters, counters, "interval {k}");
            // Every written gauge appears in every interval.
            assert_eq!(
                s.gauges,
                vec![
                    ("link.up", Entity::Link(2), 1),
                    ("switch.queue_depth", Entity::Switch(1), k as i64)
                ]
            );
            // A histogram with no new samples yields no summary.
            match s.hist("fabric.cell_latency_slots", Entity::Global) {
                Some(h) => {
                    assert!(k % 2 == 1, "interval {k} summarised no samples");
                    assert_eq!((h.count, h.max), (1, 40 * k));
                    assert!(h.p99 <= 40 * k && h.p99 >= 40 * k - 40 * k / 32);
                }
                None => assert!(k % 2 == 0, "interval {k} lost its sample"),
            }
        }
        // Ring is bounded, evictions counted.
        assert_eq!(obs.intervals().count(), RING_CAPACITY);
        assert_eq!(obs.intervals_dropped(), 2);
        assert_eq!(obs.intervals_seen(), n);
        assert!(obs.health_log().is_empty());
    }

    #[test]
    fn catch_up_scrapes_cross_every_boundary_once() {
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        reg.counter_add("link.cells", Entity::Link(1), 5);
        reg.gauge_set("switch.queue_depth", Entity::Switch(0), 2);
        reg.hist_record("fabric.cell_latency_slots", Entity::Global, 9);
        // The clock jumps over four boundaries at once (a fabric skip).
        obs.scrape_until(450, 680, &mut reg);
        assert_eq!(obs.intervals_seen(), 4);
        let ends: Vec<u64> = obs.intervals().map(|s| s.end_slot).collect();
        assert_eq!(ends, vec![100, 200, 300, 400]);
        // The first carries the movement; the three after it are empty but
        // for the gauge's level.
        let first = obs.intervals().next().unwrap();
        assert_eq!(first.counters, vec![("link.cells", Entity::Link(1), 5)]);
        assert_eq!(first.hists.len(), 1);
        for s in obs.intervals().skip(1) {
            assert!(s.counters.is_empty() && s.hists.is_empty(), "{s:?}");
            assert_eq!(s.gauges, vec![("switch.queue_depth", Entity::Switch(0), 2)]);
        }
    }

    #[test]
    fn loss_spike_raises_after_warmup_and_rearms() {
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        let link = Entity::Link(7);
        // Quiet baseline: traffic and the occasional healthy ping.
        for k in 1..=W + 20 {
            reg.counter_add("link.cells", link, 50);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 50);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 50);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        assert!(
            obs.health_log().is_empty(),
            "quiet baseline raised {:?}",
            obs.health_log()
        );
        // The link dies: every cell on it is lost for three intervals.
        for k in W + 21..=W + 23 {
            reg.counter_add("faults.lose", link, 50);
            reg.counter_add("monitor.ping_failed", link, 1);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 50);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        let raised: Vec<&HealthEvent> = obs.health_log().iter().filter(|e| e.raised).collect();
        assert!(
            raised
                .iter()
                .any(|e| e.detector == DetectorKind::LossSpike && e.entity == link),
            "loss spike never raised: {:?}",
            obs.health_log()
        );
        // Loss stops; the detector re-arms.
        for k in W + 24..=W + 30 {
            reg.counter_add("link.cells", link, 50);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 50);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 50);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        assert!(obs
            .health_log()
            .iter()
            .any(|e| !e.raised && e.detector == DetectorKind::LossSpike));
    }

    #[test]
    fn quiet_ping_only_link_death_is_still_caught() {
        // A quiesced link (no data traffic) betrays itself through failed
        // pings alone: the sliding window accumulates the fail streak.
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        for k in 1..=W + 15 {
            reg.counter_add("monitor.ping_ok", Entity::Link(3), 1);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 50);
            reg.counter_add("link.cells", Entity::Link(3), 1);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        for k in W + 16..=W + 19 {
            reg.counter_add("monitor.ping_failed", Entity::Link(3), 1);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 50);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        assert!(
            obs.health_log()
                .iter()
                .any(|e| e.raised && e.detector == DetectorKind::LossSpike),
            "ping-only death missed: {:?}",
            obs.health_log()
        );
    }

    #[test]
    fn ctrl_storm_and_delivery_floor_raise_and_rearm() {
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        for k in 1..=W + 10 {
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 100);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 100);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        // Storm interval: heavy ctrl chatter, delivery collapses.
        reg.counter_add("ctrl.cells_sent", Entity::Switch(0), 500);
        reg.counter_add("fabric.cells_injected", Entity::Host(0), 100);
        reg.counter_add("fabric.cells_delivered", Entity::Host(1), 10);
        obs.scrape_until((W + 11) * 100, 680, &mut reg);
        let kinds: Vec<DetectorKind> = obs
            .health_log()
            .iter()
            .filter(|e| e.raised)
            .map(|e| e.detector)
            .collect();
        assert!(kinds.contains(&DetectorKind::CtrlStorm), "{kinds:?}");
        assert!(kinds.contains(&DetectorKind::DeliveryFloor), "{kinds:?}");
        // Back to normal: both re-arm.
        for k in W + 12..=W + 13 {
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 100);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 100);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        assert!(obs
            .health_log()
            .iter()
            .any(|e| !e.raised && e.detector == DetectorKind::CtrlStorm));
        assert!(obs
            .health_log()
            .iter()
            .any(|e| !e.raised && e.detector == DetectorKind::DeliveryFloor));
    }

    #[test]
    fn credit_stall_needs_recent_activity_and_live_injection() {
        let mut reg = MetricsRegistry::new(5);
        let mut obs = observatory();
        let link = Entity::Link(4);
        for k in 1..=W + 8 {
            reg.counter_add("link.cells", link, 30);
            reg.counter_add("fabric.credits_sent", link, 10);
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 60);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 60);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        // The link goes silent while hosts keep injecting elsewhere.
        for k in W + 9..=W + 12 {
            reg.counter_add("fabric.cells_injected", Entity::Host(0), 60);
            reg.counter_add("fabric.cells_delivered", Entity::Host(1), 60);
            obs.scrape_until(k * 100, 680, &mut reg);
        }
        assert!(
            obs.health_log()
                .iter()
                .any(|e| e.raised && e.detector == DetectorKind::CreditStall && e.entity == link),
            "stall missed: {:?}",
            obs.health_log()
        );
        // A run-wide drain (injection stops) must NOT stall-flag links.
        let mut obs2 = observatory();
        let mut reg2 = MetricsRegistry::new(5);
        for k in 1..=W + 8 {
            reg2.counter_add("link.cells", link, 30);
            reg2.counter_add("fabric.credits_sent", link, 10);
            reg2.counter_add("fabric.cells_injected", Entity::Host(0), 60);
            obs2.scrape_until(k * 100, 680, &mut reg2);
        }
        for k in W + 9..=W + 16 {
            obs2.scrape_until(k * 100, 680, &mut reg2);
        }
        assert!(
            !obs2
                .health_log()
                .iter()
                .any(|e| e.detector == DetectorKind::CreditStall),
            "drain misread as stall: {:?}",
            obs2.health_log()
        );
    }

    #[test]
    fn scoring_matches_labels_and_counts_false_positives() {
        let slot_ns = 680;
        let ev = |slot: u64, det: DetectorKind, entity: Entity, raised: bool| HealthEvent {
            slot,
            at_ns: slot * slot_ns,
            detector: det,
            entity,
            raised,
            value_milli: 0,
            threshold_milli: 0,
        };
        let events = vec![
            // Detected: loss spike on the failed link, 2000 slots in.
            ev(42_000, DetectorKind::LossSpike, Entity::Link(5), true),
            // Re-arms never count.
            ev(50_000, DetectorKind::LossSpike, Entity::Link(5), false),
            // Attributable per-link alert on a *different* link inside the
            // window (traffic moved off it): not a detection, not a FP.
            ev(43_000, DetectorKind::CreditStall, Entity::Link(9), true),
            // Global alert inside the second window: detects label 2.
            ev(90_500, DetectorKind::CtrlStorm, Entity::Global, true),
            // Way outside any window: false positive.
            ev(200_000, DetectorKind::DeliveryFloor, Entity::Global, true),
        ];
        let labels = vec![
            FaultLabel {
                link: 5,
                down_slot: 40_000,
                up_slot: 60_000,
                clear_slot: 70_000,
            },
            FaultLabel {
                link: 8,
                down_slot: 90_000,
                up_slot: 100_000,
                clear_slot: 110_000,
            },
        ];
        let s = score_detections(&events, &labels, slot_ns, None);
        assert_eq!(s.labels, 2);
        assert_eq!(s.detected, 2);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.raised_alerts, 4);
        let med = s.median_ttd_ms().unwrap();
        let expect = 2_000.0 * slot_ns as f64 / 1e6;
        assert!(
            s.ttd_ms.iter().any(|t| (t - expect).abs() < 1e-9),
            "ttd {:?}",
            s.ttd_ms
        );
        assert!(med > 0.0 && s.max_ttd_ms().unwrap() >= med);
        // Single-detector view: CtrlStorm alone detects only label 2.
        let c = score_detections(&events, &labels, slot_ns, Some(DetectorKind::CtrlStorm));
        assert_eq!(c.detected, 1);
        assert_eq!(c.false_positives, 0);
    }
}
