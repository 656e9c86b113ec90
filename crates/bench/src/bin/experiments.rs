//! The experiment harness: regenerates every figure (F1–F4) and every
//! quantitative claim (E1–E12) of the paper.
//!
//! Usage:
//!   cargo run -p an2-bench --bin experiments --release -- all
//!   cargo run -p an2-bench --bin experiments --release -- e4 e5
//!   cargo run -p an2-bench --bin experiments --release -- e3 e4 e5 --json
//!   cargo run -p an2-bench --bin experiments --release -- n4 --trace
//!
//! With `--trace`, N4 runs its fail cell with the flight recorder attached
//! and writes the recording to `trace_out/` (Chrome trace-event JSON for
//! ui.perfetto.dev, JSONL, and the metrics registry), asserting the
//! recorded reconfiguration span beats 200 ms and that tracing left the
//! run byte-identical.
//!
//! With `--json`, per-experiment structured results and wall-clock timings
//! are also *appended* to `BENCH_results.json` in the current directory (an
//! array of runs, newest last), so perf baselines accumulate and can be
//! diffed across commits. Every record carries the `shards` and `threads`
//! settings it ran under. The sweep experiments
//! (E3/E4/E5/E7) fan their grids across threads; set `AN2_BENCH_THREADS=1`
//! to force a serial run (results are identical either way).
//!
//! `--shards N` caps the N6 data-plane sweep at N shards (equivalent to
//! setting `AN2_BENCH_SHARDS=N`); results are byte-identical at any value.
//!
//! With `--profile`, N7 additionally records its per-phase timing
//! breakdown (enqueue / schedule / commit / fast-forward) through a
//! `MetricsRegistry` and appends the Prometheus rendering to the report,
//! so future optimization passes can profile without external tools.
//!
//! `--skeptic-base-wait MS` and `--skeptic-max-level N` override the
//! skeptic knobs for N8's campaign cells (defaults: 20 ms / level 3 for
//! the grid and churn soak, a flat 400 ms holddown for the storm-on cell).
//! N8's ≥5× storm-damping assertion only fires at the defaults.
//!
//! Outputs are recorded against the paper's statements in EXPERIMENTS.md.

use an2_bench::json::Json;
use an2_bench::{
    arena_exp, batch_exp, chaos_exp, control_exp, extensions_exp, fabric_exp, faults_exp, figures,
    flow_exp, network_exp, observe_exp, parallel, parallel_exp, reconfig_exp, schedule_exp,
    xbar_exp,
};
use std::time::Instant;

fn point_json(p: &xbar_exp::Point) -> Json {
    Json::obj(vec![
        ("name", Json::str(p.name.clone())),
        ("load", Json::Num(p.load)),
        ("throughput", Json::Num(p.throughput)),
        ("mean_delay", Json::Num(p.mean_delay)),
    ])
}

fn convergence_json(r: &xbar_exp::PimConvergence) -> Json {
    Json::obj(vec![
        ("n", Json::int(r.n as u64)),
        ("mean_iterations", Json::Num(r.mean_iterations)),
        ("bound", Json::Num(r.bound)),
        ("within_4", Json::Num(r.within_4)),
    ])
}

fn starvation_json(r: &xbar_exp::Starvation) -> Json {
    Json::obj(vec![
        ("scheduler", Json::str(r.scheduler.clone())),
        ("easy_served", Json::int(r.easy_served)),
        ("contested_served", Json::int(r.contested_served)),
        ("rival_served", Json::int(r.rival_served)),
    ])
}

fn insert_cost_json(r: &schedule_exp::InsertCost) -> Json {
    Json::obj(vec![
        ("n", Json::int(r.n as u64)),
        ("frame", Json::int(r.frame as u64)),
        ("insertions", Json::int(r.insertions)),
        ("mean_moves", Json::Num(r.mean_moves)),
        ("max_moves", Json::int(r.max_moves as u64)),
    ])
}

fn chaos_json(r: &faults_exp::ChaosRow) -> Json {
    Json::obj(vec![
        ("cell", Json::str(r.cell.clone())),
        ("sent_cells", Json::int(r.sent_cells)),
        ("delivered_cells", Json::int(r.delivered_cells)),
        ("lost_cells", Json::int(r.lost_cells)),
        ("violations", Json::int(r.violations)),
        ("resyncs", Json::int(r.resyncs)),
        ("detect_ms", Json::Num(r.detect_ms)),
        ("restored", Json::Bool(r.restored)),
        ("replay_ok", Json::Bool(r.replay_ok)),
    ])
}

fn campaign_json(r: &chaos_exp::CampaignRow) -> Json {
    Json::obj(vec![
        ("cell", Json::str(r.cell.clone())),
        ("violations", Json::int(r.violations)),
        ("delivery", Json::Num(r.delivery)),
        ("epochs", Json::int(r.epochs)),
        ("transitions", Json::int(r.transitions)),
        ("quarantines", Json::int(r.quarantines)),
        ("suppressed", Json::int(r.suppressed)),
        ("broken", Json::int(r.broken)),
        ("surviving", Json::int(r.surviving)),
    ])
}

fn arena_json(r: &arena_exp::ArenaRow) -> Json {
    Json::obj(vec![
        ("protocol", Json::str(r.protocol.clone())),
        ("topology", Json::str(r.topology.clone())),
        ("loss", Json::Num(r.loss)),
        ("converge_ms", Json::Num(r.converge_ms)),
        ("ctrl_cells", Json::int(r.ctrl_cells)),
        ("ctrl_messages", Json::int(r.ctrl_messages)),
        ("ctrl_lost", Json::int(r.ctrl_lost)),
        ("reconv_lost_cells", Json::int(r.reconv_lost_cells)),
        ("stretch", Json::Num(r.stretch)),
        ("surviving", Json::int(r.surviving)),
        ("converged", Json::Bool(r.converged)),
    ])
}

fn control_json(r: &control_exp::ControlRow) -> Json {
    Json::obj(vec![
        ("cell", Json::str(r.cell.clone())),
        ("converge_ms", Json::Num(r.converge_ms)),
        ("sent_cells", Json::int(r.sent_cells)),
        ("delivered_cells", Json::int(r.delivered_cells)),
        ("lost_cells", Json::int(r.lost_cells)),
        ("ctrl_messages", Json::int(r.ctrl_messages)),
        ("ctrl_cells", Json::int(r.ctrl_cells)),
        ("rerouted", Json::int(r.rerouted)),
        ("oracle_ok", Json::Bool(r.oracle_ok)),
        ("replay_ok", Json::Bool(r.replay_ok)),
    ])
}

fn trace_overhead_json(r: &fabric_exp::TraceOverhead) -> Json {
    Json::obj(vec![
        ("circuits", Json::int(r.circuits as u64)),
        ("slots", Json::int(r.slots)),
        ("untraced_ms", Json::Num(r.untraced_ms)),
        ("traced_ms", Json::Num(r.traced_ms)),
        ("overhead", Json::Num(r.overhead)),
        ("events", Json::int(r.events)),
        ("delivered_cells", Json::int(r.delivered_cells)),
    ])
}

fn trace_row_json(r: &control_exp::TraceRow) -> Json {
    Json::obj(vec![
        ("events_seen", Json::int(r.events_seen)),
        ("events_evicted", Json::int(r.events_evicted)),
        ("sampled_cells", Json::int(r.sampled_cells as u64)),
        ("reconfig_ms", Json::Num(r.reconfig_ms)),
        ("min_queued_slots", Json::int(r.min_queued_slots)),
        ("identical_to_untraced", Json::Bool(r.identical_to_untraced)),
    ])
}

fn shard_scaling_json(r: &parallel_exp::ShardScaling) -> Json {
    Json::obj(vec![
        ("shards", Json::int(r.shards as u64)),
        ("slots", Json::int(r.slots)),
        ("wall_ms", Json::Num(r.wall_ms)),
        ("cells_per_sec", Json::Num(r.cells_per_sec)),
        ("wall_speedup", Json::Num(r.wall_speedup)),
        ("shard_balance", Json::Num(r.shard_balance)),
        ("delivered_cells", Json::int(r.delivered_cells)),
    ])
}

fn batch_scaling_json(r: &batch_exp::BatchScaling) -> Json {
    Json::obj(vec![
        ("circuits", Json::int(r.circuits as u64)),
        ("slots", Json::int(r.slots)),
        ("unbatched_ms", Json::Num(r.unbatched_ms)),
        ("batched_ms", Json::Num(r.batched_ms)),
        ("wall_speedup", Json::Num(r.wall_speedup)),
        ("model_speedup", Json::Num(r.model_speedup)),
        ("skipped_switch_steps", Json::int(r.skipped_switch_steps)),
        ("stepped_switch_steps", Json::int(r.stepped_switch_steps)),
        ("skipped_slots", Json::int(r.skipped_slots)),
        ("delivered_cells", Json::int(r.delivered_cells)),
        ("cells_per_sec_core", Json::Num(r.cells_per_sec_core)),
    ])
}

fn fabric_perf_json(r: &fabric_exp::FabricPerf) -> Json {
    Json::obj(vec![
        ("circuits", Json::int(r.circuits as u64)),
        ("slots", Json::int(r.slots)),
        ("reference_ms", Json::Num(r.reference_ms)),
        ("slab_ms", Json::Num(r.slab_ms)),
        ("speedup", Json::Num(r.speedup)),
        ("delivered_cells", Json::int(r.delivered_cells)),
    ])
}

fn observe_json(r: &observe_exp::ObserveRow) -> Json {
    Json::obj(vec![
        ("cell", Json::str(r.cell.clone())),
        ("labels", Json::int(r.labels)),
        ("detected", Json::int(r.detected)),
        ("median_ttd_ms", Json::Num(r.median_ttd_ms)),
        ("max_ttd_ms", Json::Num(r.max_ttd_ms)),
        ("false_positives", Json::int(r.false_positives)),
        ("raised_alerts", Json::int(r.raised_alerts)),
        ("control_alerts", Json::int(r.control_alerts)),
        ("digest_match", Json::Bool(r.digest_match)),
        ("intervals", Json::int(r.intervals)),
        ("overhead_pct", Json::Num(r.overhead_pct)),
    ])
}

fn title(id: &str) -> Option<&'static str> {
    Some(match id {
        "f1" => "F1: sample installation (Figure 1)",
        "f2" => "F2: reservations and schedule (Figure 2)",
        "f3" => "F3: Slepian-Duguid insertion (Figure 3)",
        "f4" => "F4: credit flow control (Figure 4)",
        "e1" => "E1: reconfiguration under 200ms",
        "e2" => "E2: 2us cut-through latency",
        "e3" => "E3: FIFO head-of-line blocking (58%)",
        "e4" => "E4: PIM convergence (log2 N + 4/3)",
        "e5" => "E5: PIM vs output queueing and rivals",
        "e6" => "E6: maximum-matching starvation",
        "e7" => "E7: Slepian-Duguid insertion cost",
        "e8" => "E8: guaranteed latency bound p(2f+l)",
        "e9" => "E9: packing vs spreading reserved slots",
        "e10" => "E10: credit sizing, loss and resync",
        "e11" => "E11: up*/down* deadlock freedom",
        "e12" => "E12: reconfiguration behaviour",
        "n1" => "N1: whole-network load sweep",
        "n2" => "N2: fabric data plane, slab vs reference",
        "n3" => "N3: chaos soak — loss, flaps, crashes, resync",
        "n4" => "N4: embedded control plane — fail, flap, crash, replay",
        "n5" => "N5: tracing overhead — flight recorder on vs off",
        "n6" => "N6: parallel data plane — shard scaling on the 1024-switch fat-tree",
        "n7" => "N7: batched data plane — watermark skips at 1k/10k/100k circuits",
        "n8" => "N8: chaos campaigns — oracle grid, skeptic damping, churn soak, replay",
        "n9" => "N9: protocol arena — up*/down* vs spanning tree vs path vector",
        "n10" => "N10: telemetry observatory — time-to-detect vs ground-truth fault labels",
        "x1" => "X1: the paper's extension proposals",
        _ => return None,
    })
}

/// Runs one experiment, returning its report text and (for the experiments
/// with structured measurements) a JSON value for the baseline file. With
/// `trace`, N4 runs its fail cell under the flight recorder instead and
/// exports the recording. With `profile`, N7 also records its phase
/// breakdown through a `MetricsRegistry` and appends the rendering.
/// `skeptic` carries the `--skeptic-base-wait` / `--skeptic-max-level`
/// overrides for N8's campaign cells.
fn compute(
    id: &str,
    trace: bool,
    profile: bool,
    skeptic: (Option<u64>, Option<u32>),
) -> (String, Json) {
    match id {
        "n4" if trace => {
            let (row, text) = control_exp::n4_trace("trace_out");
            (text, trace_row_json(&row))
        }
        "f1" => (figures::figure1(8, 16).render(), Json::Null),
        "f2" => {
            let (_, _, text) = figures::figure2();
            (text, Json::Null)
        }
        "f3" => (figures::figure3(), Json::Null),
        "f4" => (figures::figure4(), Json::Null),
        "e1" => (reconfig_exp::e1_pull_the_plug().1, Json::Null),
        "e2" => (network_exp::e2_cut_through().1, Json::Null),
        "e3" => {
            let (points, text) = xbar_exp::e3_fifo_saturation(16, 30_000);
            (text, Json::Arr(points.iter().map(point_json).collect()))
        }
        "e4" => {
            let (rows, text) = xbar_exp::e4_pim_convergence(&[4, 8, 16, 32], 5_000);
            (text, Json::Arr(rows.iter().map(convergence_json).collect()))
        }
        "e5" => {
            let (points, text) = xbar_exp::e5_discipline_comparison(16, 30_000);
            (text, Json::Arr(points.iter().map(point_json).collect()))
        }
        "e6" => {
            let (rows, text) = xbar_exp::e6_starvation(10_000);
            (text, Json::Arr(rows.iter().map(starvation_json).collect()))
        }
        "e7" => {
            let (rows, text) = schedule_exp::e7_insertion_cost();
            (text, Json::Arr(rows.iter().map(insert_cost_json).collect()))
        }
        "e8" => (network_exp::e8_guaranteed_latency().1, Json::Null),
        "e9" => (schedule_exp::e9_arrangement(8, 128, 0.35).1, Json::Null),
        "e10" => {
            let text = format!(
                "{}\n{}",
                flow_exp::e10_credit_sizing().1,
                flow_exp::e10_loss_and_resync().1
            );
            (text, Json::Null)
        }
        "e11" => (flow_exp::e11_deadlock().1, Json::Null),
        "e12" => (reconfig_exp::e12_reconfig_behaviour().1, Json::Null),
        "n1" => (network_exp::n1_network_load_sweep().1, Json::Null),
        "n2" => {
            let (rows, text) = fabric_exp::n2_fabric_dataplane();
            (text, Json::Arr(rows.iter().map(fabric_perf_json).collect()))
        }
        "n3" => {
            let (rows, text) = faults_exp::n3_chaos_soak();
            (text, Json::Arr(rows.iter().map(chaos_json).collect()))
        }
        "n4" => {
            let (rows, text) = control_exp::n4_control_plane();
            (text, Json::Arr(rows.iter().map(control_json).collect()))
        }
        "n5" => {
            let (rows, text) = fabric_exp::n5_trace_overhead();
            (
                text,
                Json::Arr(rows.iter().map(trace_overhead_json).collect()),
            )
        }
        "n6" => {
            let (rows, text) = parallel_exp::n6_parallel_dataplane();
            (
                text,
                Json::Arr(rows.iter().map(shard_scaling_json).collect()),
            )
        }
        "n7" if profile => {
            let mut registry = an2::MetricsRegistry::new(4);
            let (rows, text) = batch_exp::n7_with_profile(Some(&mut registry));
            let text = format!(
                "{text}\nphase breakdown (100k batched):\n{}",
                registry.to_prometheus()
            );
            (
                text,
                Json::Arr(rows.iter().map(batch_scaling_json).collect()),
            )
        }
        "n7" => {
            let (rows, text) = batch_exp::n7_batched_dataplane();
            (
                text,
                Json::Arr(rows.iter().map(batch_scaling_json).collect()),
            )
        }
        "n8" => {
            let (rows, text) = chaos_exp::n8_chaos_campaigns(skeptic.0, skeptic.1);
            (text, Json::Arr(rows.iter().map(campaign_json).collect()))
        }
        "n9" => {
            let (rows, text) = arena_exp::n9_protocol_arena();
            (text, Json::Arr(rows.iter().map(arena_json).collect()))
        }
        "n10" => {
            let (rows, _detectors, text) = observe_exp::n10_observatory();
            (text, Json::Arr(rows.iter().map(observe_json).collect()))
        }
        "x1" => {
            let text = format!(
                "{}\n{}\n{}\n{}",
                extensions_exp::x1_delta_vs_full().1,
                extensions_exp::x1_page_out().1,
                extensions_exp::x1_dynamic_buffers().1,
                extensions_exp::x1_rebalance().1
            );
            (text, Json::Null)
        }
        other => unreachable!("title() gated unknown id '{other}'"),
    }
}

const ALL: &[&str] = &[
    "f1", "f2", "f3", "f4", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
    "e12", "x1", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_mode = false;
    let mut trace_mode = false;
    let mut profile_mode = false;
    let mut skeptic_base_wait: Option<u64> = None;
    let mut skeptic_max_level: Option<u32> = None;
    let mut named: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_mode = true,
            "--trace" => trace_mode = true,
            "--profile" => profile_mode = true,
            "--shards" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| panic!("--shards needs a value (e.g. --shards 4)"));
                v.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("--shards needs a number, got '{v}'"));
                std::env::set_var("AN2_BENCH_SHARDS", v);
            }
            "--skeptic-base-wait" => {
                let v = it.next().unwrap_or_else(|| {
                    panic!("--skeptic-base-wait needs milliseconds (e.g. --skeptic-base-wait 20)")
                });
                skeptic_base_wait = Some(v.trim().parse::<u64>().unwrap_or_else(|_| {
                    panic!("--skeptic-base-wait needs a number of ms, got '{v}'")
                }));
            }
            "--skeptic-max-level" => {
                let v = it.next().unwrap_or_else(|| {
                    panic!("--skeptic-max-level needs a level (e.g. --skeptic-max-level 3)")
                });
                skeptic_max_level =
                    Some(v.trim().parse::<u32>().unwrap_or_else(|_| {
                        panic!("--skeptic-max-level needs a number, got '{v}'")
                    }));
            }
            other if other.starts_with("--") => {
                panic!(
                    "unknown flag '{other}' (flags: --json, --trace, --profile, --shards N, \
                     --skeptic-base-wait MS, --skeptic-max-level N)"
                )
            }
            other => named.push(other),
        }
    }
    let named = named;
    let ids: Vec<&str> = if named.is_empty() || named.contains(&"all") {
        ALL.to_vec()
    } else {
        named
    };

    let harness_start = Instant::now();
    let mut records = Vec::new();
    for id in ids {
        let Some(t) = title(id) else {
            eprintln!("unknown experiment id '{id}' (use f1-f4, e1-e12, x1, n1-n10, all)");
            continue;
        };
        println!("\n=== {t} {}\n", "=".repeat(66 - t.len().min(60)));
        let cell_start = Instant::now();
        let (text, results) = compute(
            id,
            trace_mode,
            profile_mode,
            (skeptic_base_wait, skeptic_max_level),
        );
        let wall_ms = cell_start.elapsed().as_secs_f64() * 1e3;
        print!("{text}");
        records.push(Json::obj(vec![
            ("id", Json::str(id)),
            ("title", Json::str(t)),
            ("wall_ms", Json::Num(wall_ms)),
            ("shards", Json::int(parallel::shard_count() as u64)),
            ("threads", Json::int(parallel::worker_threads() as u64)),
            ("results", results),
        ]));
    }

    if json_mode {
        let doc = Json::obj(vec![
            ("threads", Json::int(parallel::worker_threads() as u64)),
            (
                "total_wall_ms",
                Json::Num(harness_start.elapsed().as_secs_f64() * 1e3),
            ),
            ("experiments", Json::Arr(records)),
        ]);
        let path = "BENCH_results.json";
        let content = append_run(std::fs::read_to_string(path).ok(), &doc.render());
        std::fs::write(path, content).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("\nappended to {path}");
    }
}

/// Appends this run to the baseline file instead of overwriting it, so
/// results accumulate across commits. The file holds either a single run
/// object (the pre-append format) or an array of them; either way the
/// result is an array with `new_run` last. The hand-rolled [`Json`] has no
/// parser, so this is plain string surgery on the outermost brackets.
fn append_run(previous: Option<String>, new_run: &str) -> String {
    let prev = previous.as_deref().map(str::trim).unwrap_or("");
    if prev.is_empty() {
        return format!("[{new_run}]\n");
    }
    if let Some(body) = prev
        .strip_prefix('[')
        .and_then(|p| p.strip_suffix(']'))
        .map(str::trim)
    {
        if body.is_empty() {
            return format!("[{new_run}]\n");
        }
        return format!("[{body},\n{new_run}]\n");
    }
    // Pre-append format: a bare run object becomes the first array element.
    format!("[{prev},\n{new_run}]\n")
}
