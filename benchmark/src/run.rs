//! One workload, one process: the untraced run that yields the end-to-end
//! metrics and the traced run that yields the per-layer metrics, each with
//! its correctness gate.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replays;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{run_rep, setup_only, Rep, RepConfig, Scale, Settled, Workload};
use an2::Tracer;
use an2_chaos::JVal;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed the goldens are pinned at.
pub const DEFAULT_SEED: u64 = 7;

/// Digests pinned at [`DEFAULT_SEED`] and [`Scale::FULL`], keyed by
/// workload: the end-of-timed-region digest and the drained one.
const GOLDENS: &str = include_str!("../goldens.json");

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The reported value: the median of `samples` when there are any.
    pub value: f64,
    /// Per-rep values (host-time metrics of the untraced run).
    pub samples: Vec<f64>,
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct Output {
    /// The workload that ran.
    pub workload: Workload,
    /// Whether every output check passed.
    pub correct: bool,
    /// What failed, if anything.
    pub failures: Vec<String>,
    /// Operations attempted: cells offered, or chaos schedules run.
    pub attempted: u64,
    /// Cells unaccounted for, or schedules with violations.
    pub failed: u64,
    /// Digest at the end of the timed region (equal across reps, shard
    /// counts, telemetry and chunking).
    pub digest: u64,
    /// Digest of the drained end state.
    pub settled_digest: u64,
    /// Wall clock of every timed region, seconds.
    pub walls: Vec<f64>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Traced runs only: span summary and budget tables, for humans.
    pub tables: String,
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

/// The correctness gate of one invocation: the reference rep every other
/// rep is held against, and what has failed so far.
struct Gate {
    reference: Rep,
    /// The reference rep's drained end state.
    end: Settled,
    failures: Vec<String>,
}

impl Gate {
    /// Runs the reference rep: the base workload's configuration (so a
    /// derived workload is checked against the inputs it shares), drained,
    /// discarded for timing — it doubles as the warm-up. At the default
    /// seed and full scale its digests must equal the goldens.
    fn open(w: Workload, scale: &Scale, seed: u64) -> Gate {
        let cfg = RepConfig {
            settle: true,
            ..RepConfig::of(w.base().unwrap_or(w))
        };
        let reference = run_rep(w, scale, seed, cfg, None);
        let end = reference.settled.expect("settled rep");
        let mut gate = Gate {
            reference,
            end,
            failures: Vec::new(),
        };
        if seed == DEFAULT_SEED && *scale == Scale::FULL {
            gate.golden(w);
        }
        gate
    }

    fn same(&mut self, what: &str, rep: &Rep) {
        let r = &self.reference;
        if (rep.digest, rep.slots, rep.delivered_timed) != (r.digest, r.slots, r.delivered_timed) {
            self.failures.push(format!(
                "{what}: digest {} ({} cells in {} slots) != reference {} ({} in {})",
                hex(rep.digest),
                rep.delivered_timed,
                rep.slots,
                hex(r.digest),
                r.delivered_timed,
                r.slots
            ));
        }
    }

    fn golden(&mut self, w: Workload) {
        let pinned = JVal::parse(GOLDENS).expect("goldens.json is valid JSON");
        let want = |key: &str| match pinned.get(w.name()).and_then(|g| g.get(key)) {
            Some(JVal::Str(s)) => s.clone(),
            _ => String::new(),
        };
        for (key, got) in [
            ("timed", self.reference.digest),
            ("settled", self.end.digest),
        ] {
            if want(key) != hex(got) {
                self.failures.push(format!(
                    "{} {key} digest {} != golden {}",
                    w.name(),
                    hex(got),
                    want(key)
                ));
            }
        }
    }
}

/// After the timed reps, set-up is sampled on its own for this long (or
/// this many times): `setup_s` is a median over more set-ups than there are
/// reps wherever a set-up is cheap next to a rep.
const SETUP_WINDOW: Duration = Duration::from_millis(500);
const SETUP_MAX_SAMPLES: usize = 200;

/// The untraced run: one discarded reference rep, then timed reps on fresh
/// inputs until `seconds` of timed region have been measured (at least
/// three). Host-time metrics are medians over the timed reps.
pub fn measure(w: Workload, scale: &Scale, seed: u64, seconds: f64) -> Output {
    let mut gate = Gate::open(w, scale, seed);
    let end = gate.end;
    let (mut attempted, mut failed) = (end.attempted, end.failed);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < 3 || reps.iter().map(|r| r.wall_s).sum::<f64>() < seconds {
        let rep = run_rep(w, scale, seed, RepConfig::of(w), None);
        gate.same(&format!("rep {}", reps.len() + 1), &rep);
        if let Some(s) = rep.settled {
            attempted += s.attempted;
            failed += s.failed;
        }
        reps.push(rep);
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let mut setups = per_rep(&|r| r.setup_s);
    let extra = Instant::now();
    while extra.elapsed() < SETUP_WINDOW && setups.len() < SETUP_MAX_SAMPLES {
        setups.push(setup_only(w, scale, seed));
    }
    let constant = |v: f64| (v, Vec::new());
    let values = [
        {
            let s = per_rep(&|r| r.delivered_timed as f64 / r.wall_s);
            (stats::median(&s), s)
        },
        {
            let s = per_rep(&|r| r.slots as f64 / r.wall_s);
            (stats::median(&s), s)
        },
        (stats::median(&setups), setups),
        constant(peak_rss_mib()),
        constant(end.latency.0 as f64),
        constant(end.latency.1 as f64),
        constant(end.delivered as f64 / end.sent.max(1) as f64),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric {
            name: m.name,
            unit: m.unit,
            value,
            samples,
        })
        .collect();
    Output {
        workload: w,
        correct: gate.failures.is_empty() && failed == 0,
        failures: gate.failures,
        attempted,
        failed,
        digest: gate.reference.digest,
        settled_digest: end.digest,
        walls: per_rep(&|r| r.wall_s),
        metrics,
        tables: String::new(),
    }
}

/// Slots per `Fabric::step` call of the traced rep.
const CHUNK_SLOTS: u64 = 50;

fn registry_total(tracers: &[Tracer], name: &'static str) -> f64 {
    tracers.iter().map(|t| t.counter_total(name)).sum::<u64>() as f64
}

/// The traced run: reference rep, one warm untraced rep (the overhead
/// base), one profiled rep stepping in 50-slot chunks under spans, one rep
/// with a tracer attached for the layers' own counts, then the replays.
/// Every rep's digest must equal the reference's.
pub fn trace(w: Workload, scale: &Scale, seed: u64, replay_budget: Duration) -> (Output, Spans) {
    let mut spans = Spans::default();
    let mut row: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut gate = Gate::open(w, scale, seed);
    let end = gate.end;
    let own = RepConfig::of(w);
    let fabric = w != Workload::ChaosGrid;

    let untraced = run_rep(w, scale, seed, own, None);
    gate.same("untraced rep", &untraced);
    let profiled = run_rep(
        w,
        scale,
        seed,
        RepConfig {
            profile: fabric,
            chunk_slots: CHUNK_SLOTS,
            settle: !fabric,
            ..own
        },
        Some(&mut spans),
    );
    gate.same("profiled, chunked rep", &profiled);
    // The layers' own counters live in the tracer's registry: a fabric
    // workload gets them from one more pass with recorder and observatory
    // attached; chaos_grid's settled rep already made its observed pass.
    let counted;
    let tracers = if fabric {
        counted = run_rep(
            w,
            scale,
            seed,
            RepConfig {
                telemetry: true,
                ..own
            },
            None,
        );
        gate.same("tracer-attached rep", &counted);
        &counted.tracers
    } else {
        &profiled.tracers
    };

    let cells = profiled.delivered_timed.max(1) as f64;
    let total_ns = profiled.wall_s * 1e9 / cells;
    row.insert(
        "bench.trace_overhead_ratio",
        profiled.wall_s / untraced.wall_s,
    );
    row.insert("fabric.prepare_cold_s", gate.reference.setup_s);
    if let Some(p) = &profiled.profile {
        let phases = [
            ("fabric.enqueue_ns_per_cell", p.enqueue_ns),
            ("fabric.schedule_ns_per_cell", p.schedule_ns),
            ("fabric.commit_ns_per_cell", p.commit_ns),
            ("fabric.fast_forward_ns_per_cell", p.fast_forward_ns),
        ];
        let mut attributed = 0.0;
        for (name, ns) in phases {
            row.insert(name, ns as f64 / cells);
            attributed += ns as f64 / cells;
        }
        row.insert("fabric.ns_per_cell", total_ns);
        row.insert("fabric.unattributed_ns_per_cell", total_ns - attributed);
        row.insert("fabric.stepped_switch_steps", p.stepped_switch_steps as f64);
        row.insert("fabric.skipped_switch_steps", p.skipped_switch_steps as f64);
        row.insert("fabric.skipped_slots", p.skipped_slots as f64);
        let steps = (p.stepped_switch_steps + p.skipped_switch_steps).max(1);
        row.insert(
            "fabric.skip_ratio",
            p.skipped_switch_steps as f64 / steps as f64,
        );
        let work = &profiled.shard_work;
        let busiest = work.iter().copied().max().unwrap_or(0).max(1);
        row.insert(
            "fabric.shard_balance",
            work.iter().sum::<u64>() as f64 / busiest as f64,
        );
    }
    let chunks = spans.durations("fabric.step");
    if !chunks.is_empty() {
        let (pct, tail) = stats::tail(&chunks);
        row.insert(
            "fabric.step_chunk_ns_p50",
            stats::percentile(&chunks, 0.5) as f64,
        );
        row.insert("fabric.step_chunk_ns_tail", tail as f64);
        row.insert("fabric.step_chunk_tail_pct", pct);
    }
    let opens = spans.durations("fabric.open_circuit");
    if !opens.is_empty() {
        row.insert(
            "fabric.open_circuit_ns",
            stats::percentile(&opens, 0.5) as f64,
        );
        let sends: u64 = spans.durations("fabric.send_cells").iter().sum();
        row.insert(
            "fabric.send_cells_ns_per_cell",
            sends as f64 / profiled.preloaded.max(1) as f64,
        );
    }
    let runs = spans.durations("chaos.run_schedule");
    if !runs.is_empty() {
        row.insert(
            "chaos.run_ms_p50",
            stats::percentile(&runs, 0.5) as f64 / 1e6,
        );
        row.insert(
            "chaos.run_ms_max",
            runs.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        );
    }
    let sum = |f: fn(&an2_chaos::RunReport) -> u64| profiled.reports.iter().map(f).sum::<u64>();
    row.insert("reconfig.epochs", sum(|r| r.epochs) as f64);
    row.insert(
        "reconfig.verdict_transitions",
        sum(|r| r.verdict_transitions) as f64,
    );
    row.insert(
        "reconfig.suppressed_recoveries",
        sum(|r| r.suppressed_recoveries) as f64,
    );

    for (metric, counter) in [
        ("xbar.grants", "xbar.grants"),
        ("switch.cells_enqueued", "switch.cells_enqueued"),
        ("link.cells", "link.cells"),
        ("fabric.credits_sent", "fabric.credits_sent"),
        ("control.ctrl_cells_sent", "ctrl.cells_sent"),
        ("control.ctrl_messages_received", "ctrl.messages_received"),
        ("faults.cells_lost", "faults.lose"),
        ("faults.resyncs", "flow.resyncs_completed"),
    ] {
        row.insert(metric, registry_total(tracers, counter));
    }
    let events: u64 = tracers.iter().map(Tracer::events_seen).sum();
    row.insert(
        "trace.events_per_cell",
        events as f64 / registry_total(tracers, "fabric.cells_delivered").max(1.0),
    );
    row.insert(
        "trace.events_dropped",
        tracers.iter().map(Tracer::events_dropped).sum::<u64>() as f64,
    );
    if let Some(t) = tracers.first() {
        let ((), scrape) = spans.time("trace.scrape_now", || t.scrape_now());
        row.insert("trace.scrape_us", scrape as f64 / 1e3);
        let (json, export) = spans.time("trace.chrome_trace", || {
            an2::sink::chrome_trace(&t.records())
        });
        std::hint::black_box(json);
        row.insert("trace.export_ms", export as f64 / 1e6);
    }

    let replays = spans.open("bench.replays");
    for (name, value) in replays::run_all(replay_budget, scale.tree_levels, seed, &mut spans) {
        row.insert(name, value);
    }
    spans.close(replays);

    let mut tables = span_table(&spans);
    if fabric {
        tables.push_str(&budget_tables(w, &row, events as f64, cells));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: row.remove(m.name).unwrap_or(0.0),
            samples: Vec::new(),
        })
        .collect();
    assert!(row.is_empty(), "undeclared per-layer metrics: {row:?}");
    let failed = end.failed + profiled.settled.map_or(0, |s| s.failed);
    let out = Output {
        workload: w,
        correct: gate.failures.is_empty() && failed == 0,
        failures: gate.failures,
        attempted: end.attempted + profiled.settled.map_or(0, |s| s.attempted),
        failed,
        digest: gate.reference.digest,
        settled_digest: end.digest,
        walls: vec![untraced.wall_s, profiled.wall_s],
        metrics,
        tables,
    };
    (out, spans)
}

fn span_table(spans: &Spans) -> String {
    let mut out = format!(
        "\nspans (self = total - time inside child spans)\n{:<34} {:>8} {:>12} {:>12}\n",
        "name", "calls", "total ms", "self ms"
    );
    for r in spans.summary() {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

/// Two tables in ns per delivered cell. The first is measured: the
/// fabric's own phase clocks plus what they do not cover sum to the wall
/// clock by construction. The second is an outside-in estimate: a layer's
/// own count times its replayed cost per call; what it leaves unexplained
/// is printed, not hidden.
fn budget_tables(
    w: Workload,
    row: &BTreeMap<&'static str, f64>,
    trace_events: f64,
    cells: f64,
) -> String {
    let get = |name: &str| row.get(name).copied().unwrap_or(0.0);
    let total = get("fabric.ns_per_cell");
    let line =
        |name: &str, ns: f64| format!("{name:<44} {ns:>10.1} {:>6.1}%\n", 100.0 * ns / total);
    let mut out = format!(
        "\nmeasured budget, ns per delivered cell ({} cells)\n",
        cells
    );
    let mut sum = 0.0;
    for name in [
        "fabric.enqueue_ns_per_cell",
        "fabric.schedule_ns_per_cell",
        "fabric.commit_ns_per_cell",
        "fabric.fast_forward_ns_per_cell",
        "fabric.unattributed_ns_per_cell",
    ] {
        out.push_str(&line(name, get(name)));
        sum += get(name);
    }
    out.push_str(&line("= fabric.ns_per_cell (wall / cells)", sum));

    let telemetry_on = RepConfig::of(w).telemetry;
    let estimates = [
        (
            "switch: cells_enqueued x ns_per_departure",
            get("switch.cells_enqueued") * get("switch.ns_per_departure"),
        ),
        (
            "switch: skipped_switch_steps x next_event_slot_ns",
            get("fabric.skipped_switch_steps") * get("switch.next_event_slot_ns"),
        ),
        (
            "flow: credits_sent x credit_roundtrip_ns",
            get("fabric.credits_sent") * get("flow.credit_roundtrip_ns"),
        ),
        (
            "cells: link.cells x pool_pushpop_ns",
            get("link.cells") * get("cells.pool_pushpop_ns"),
        ),
        (
            "sim: delivered x hist_record_ns",
            cells * get("sim.hist_record_ns"),
        ),
        (
            "trace: events x emit_ns (telemetry on)",
            if telemetry_on {
                trace_events * get("trace.emit_ns")
            } else {
                0.0
            },
        ),
    ];
    out.push_str(
        "\noutside-in estimate (layer count x replayed ns per call), ns per delivered cell\n",
    );
    let mut explained = 0.0;
    for (name, ns) in estimates {
        out.push_str(&line(name, ns / cells));
        explained += ns / cells;
    }
    out.push_str(&line("residual (wall - estimates)", total - explained));
    out
}
