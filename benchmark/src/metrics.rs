//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit and direction. `BENCHMARK.json`
//! declares the same sets (a test holds the two together); the extra
//! columns here — which end-to-end metric a layer metric should move, on
//! which workload — are what choosing-metrics §3 asks to be written down
//! before measuring, and have no key in `BENCHMARK.json`.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Why each workload exists (`BENCHMARK.json` `workloads[].why`).
pub const WORKLOAD_WHY: [(&str, &str); 6] = [
    (
        "tree_sat",
        "1024-switch fat-tree, every host saturating: contention-limited, so switch dequeue, PIM and fabric commit do the work; no slot is quiet enough to fast-forward over",
    ),
    (
        "tree_sat_s2",
        "tree_sat's inputs on two shard threads: the same layers through the parallel path, which today loses on the clock; digest must equal tree_sat's",
    ),
    (
        "tree_sparse",
        "same tree, 60k one-packet circuits: 128 of 1024 switches busy, so watermark skip, agenda, fast-forward and per-circuit state do the work and crossbars little",
    ),
    (
        "src_dense",
        "four 16-port crossbars at high occupancy, outboxes never dry, nothing to skip: the per-cell cost of PIM plus switch enqueue and dequeue",
    ),
    (
        "src_dense_traced",
        "src_dense's inputs with flight recorder and observatory attached: what leaving telemetry on costs; digest must equal src_dense's",
    ),
    (
        "chaos_grid",
        "32 chaos schedules on the live Network: control cells, fault draws, monitor and skeptic, credit resync, reassembly and idle fast-forward work while crossbars idle",
    ),
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Simulated-network metrics are exact for a fixed seed: `--compare`
    /// checks them for equality. Their `bound` only covers the spread
    /// across seeds.
    pub exact: bool,
}

/// The seven end-to-end metrics, reported per workload. "Host" metrics are
/// wall-clock of the simulator; "sim" metrics are the modelled network.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "cells_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "slots_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        exact: false,
    },
    EndToEnd {
        name: "cell_latency_p50_slots",
        unit: "slots",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "cell_latency_p99_slots",
        unit: "slots",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "delivered_fraction",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        exact: true,
    },
];

/// One per-layer metric (layer = crate name before the dot).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move (empty for a guard).
    pub moves: &'static str,
    /// ... on which workloads (or, for a guard, what it guards).
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, all taken in the `--trace` run only.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [PerLayer; 59] = [
    // PhaseProfile ns ÷ delivered cells; with `unattributed` they sum to
    // `fabric.ns_per_cell`.
    layer("fabric.ns_per_cell", "ns", Lower, "cells_per_sec", "all fabric workloads"),
    layer("fabric.enqueue_ns_per_cell", "ns", Lower, "cells_per_sec", "tree_sparse"),
    layer("fabric.schedule_ns_per_cell", "ns", Lower, "cells_per_sec", "tree_sat, src_dense"),
    layer("fabric.commit_ns_per_cell", "ns", Lower, "cells_per_sec", "tree_sat, src_dense"),
    layer("fabric.fast_forward_ns_per_cell", "ns", Lower, "cells_per_sec", "tree_sparse"),
    layer("fabric.unattributed_ns_per_cell", "ns", Lower, "cells_per_sec", "tree_sparse"),
    layer("fabric.stepped_switch_steps", "count", Lower, "cells_per_sec, slots_per_sec", "tree_sparse"),
    layer("fabric.skipped_switch_steps", "count", Higher, "cells_per_sec, slots_per_sec", "tree_sparse"),
    layer("fabric.skipped_slots", "count", Higher, "cells_per_sec, slots_per_sec", "tree_sparse"),
    layer("fabric.skip_ratio", "ratio", Higher, "cells_per_sec, slots_per_sec", "tree_sparse"),
    layer("fabric.shard_balance", "ratio", Higher, "cells_per_sec", "tree_sat_s2"),
    layer("fabric.step_chunk_ns_p50", "ns", Lower, "cells_per_sec", "all fabric workloads"),
    layer("fabric.step_chunk_ns_tail", "ns", Lower, "cells_per_sec", "all fabric workloads"),
    layer("fabric.step_chunk_tail_pct", "%", Higher, "", "the percentile step_chunk_ns_tail reports"),
    layer("fabric.open_circuit_ns", "ns", Lower, "setup_s", "tree_sparse"),
    layer("fabric.send_cells_ns_per_cell", "ns", Lower, "setup_s", "tree_sat, tree_sparse"),
    layer("fabric.prepare_cold_s", "s", Lower, "setup_s", "tree_sat, tree_sparse"),
    // Registry counts from a pass with a tracer attached (exact).
    layer("xbar.grants", "count", Lower, "cells_per_sec", "src_dense, tree_sat"),
    layer("switch.cells_enqueued", "count", Lower, "cells_per_sec", "src_dense, tree_sat"),
    layer("link.cells", "count", Lower, "cells_per_sec", "tree_sat"),
    layer("fabric.credits_sent", "count", Lower, "cells_per_sec", "tree_sat, src_dense"),
    // Replays.
    layer("xbar.pim16_ns", "ns", Lower, "cells_per_sec", "src_dense"),
    layer("xbar.pim4_ns", "ns", Lower, "cells_per_sec", "tree_sat"),
    layer("xbar.pim_match_ratio", "ratio", Higher, "cells_per_sec", "src_dense"),
    layer("switch.busy_step_ns", "ns", Lower, "cells_per_sec", "src_dense, tree_sat"),
    layer("switch.ns_per_departure", "ns", Lower, "cells_per_sec", "src_dense, tree_sat"),
    layer("switch.idle_step_ns", "ns", Lower, "cells_per_sec", "tree_sparse"),
    layer("switch.next_event_slot_ns", "ns", Lower, "cells_per_sec", "tree_sparse"),
    layer("flow.credit_roundtrip_ns", "ns", Lower, "cells_per_sec", "tree_sat, src_dense"),
    layer("cells.segment_ns_per_cell", "ns", Lower, "setup_s", "tree_sat, tree_sparse"),
    layer("cells.reassemble_ns_per_cell", "ns", Lower, "slots_per_sec", "chaos_grid"),
    layer("cells.pool_pushpop_ns", "ns", Lower, "cells_per_sec", "tree_sat, src_dense"),
    layer("topology.fat_tree_build_ms", "ms", Lower, "setup_s", "tree_sat, tree_sparse"),
    layer("topology.host_route_us", "us", Lower, "setup_s", "tree_sat, tree_sparse"),
    layer("topology.updown_forest_us", "us", Lower, "slots_per_sec", "chaos_grid"),
    layer("topology.updown_forest_tree_us", "us", Lower, "", "guard only: no workload routes up*/down* on the tree"),
    layer("topology.route_cache_hit_ratio", "ratio", Higher, "slots_per_sec", "chaos_grid"),
    layer("schedule.frame_insert_ns", "ns", Lower, "", "guard only: no workload is dominated by it"),
    layer("faults.begin_slot_ns", "ns", Lower, "slots_per_sec", "chaos_grid"),
    layer("faults.transmit_cell_ns", "ns", Lower, "slots_per_sec", "chaos_grid"),
    layer("faults.cells_lost", "count", Lower, "delivered_fraction", "chaos_grid"),
    layer("faults.resyncs", "count", Lower, "slots_per_sec", "chaos_grid"),
    layer("reconfig.harness_converge_us", "us", Lower, "slots_per_sec", "chaos_grid"),
    layer("reconfig.epochs", "count", Lower, "slots_per_sec", "chaos_grid"),
    layer("reconfig.verdict_transitions", "count", Lower, "slots_per_sec", "chaos_grid"),
    layer("reconfig.suppressed_recoveries", "count", Higher, "slots_per_sec", "chaos_grid"),
    layer("control.ctrl_cells_sent", "count", Lower, "slots_per_sec", "chaos_grid"),
    layer("control.ctrl_messages_received", "count", Lower, "slots_per_sec", "chaos_grid"),
    layer("trace.emit_ns", "ns", Lower, "cells_per_sec", "src_dense_traced"),
    layer("trace.events_per_cell", "ratio", Lower, "cells_per_sec", "src_dense_traced"),
    layer("trace.events_dropped", "count", Lower, "cells_per_sec", "src_dense_traced"),
    layer("trace.scrape_us", "us", Lower, "cells_per_sec", "src_dense_traced"),
    layer("trace.export_ms", "ms", Lower, "", "guard only: export happens after the run"),
    layer("sim.rng_ns", "ns", Lower, "cells_per_sec", "src_dense"),
    layer("sim.hist_record_ns", "ns", Lower, "cells_per_sec, peak_rss_mb", "tree_sparse"),
    layer("chaos.generate_us", "us", Lower, "setup_s", "chaos_grid"),
    layer("chaos.run_ms_p50", "ms", Lower, "slots_per_sec", "chaos_grid"),
    layer("chaos.run_ms_max", "ms", Lower, "slots_per_sec", "chaos_grid"),
    // Traced-run wall ÷ untraced wall in the same process: how far the
    // traced numbers can be trusted.
    layer("bench.trace_overhead_ratio", "ratio", Lower, "", "validity of the traced numbers, all workloads"),
];
