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

use an2_bench::{
    arena_exp, batch_exp, chaos_exp, control_exp, extensions_exp, fabric_exp, faults_exp, figures,
    flow_exp, network_exp, observe_exp, parallel, parallel_exp, reconfig_exp, schedule_exp,
    xbar_exp,
};
use an2_chaos::JVal;
use std::time::Instant;

fn jstr(s: impl Into<String>) -> JVal {
    JVal::Str(s.into())
}

fn obj(pairs: Vec<(&str, JVal)>) -> JVal {
    JVal::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn point_json(p: &xbar_exp::Point) -> JVal {
    obj(vec![
        ("name", jstr(p.name.clone())),
        ("load", JVal::Num(p.load)),
        ("throughput", JVal::Num(p.throughput)),
        ("mean_delay", JVal::Num(p.mean_delay)),
    ])
}

fn convergence_json(r: &xbar_exp::PimConvergence) -> JVal {
    obj(vec![
        ("n", JVal::UInt(r.n as u64)),
        ("mean_iterations", JVal::Num(r.mean_iterations)),
        ("bound", JVal::Num(r.bound)),
        ("within_4", JVal::Num(r.within_4)),
    ])
}

fn starvation_json(r: &xbar_exp::Starvation) -> JVal {
    obj(vec![
        ("scheduler", jstr(r.scheduler.clone())),
        ("easy_served", JVal::UInt(r.easy_served)),
        ("contested_served", JVal::UInt(r.contested_served)),
        ("rival_served", JVal::UInt(r.rival_served)),
    ])
}

fn insert_cost_json(r: &schedule_exp::InsertCost) -> JVal {
    obj(vec![
        ("n", JVal::UInt(r.n as u64)),
        ("frame", JVal::UInt(r.frame as u64)),
        ("insertions", JVal::UInt(r.insertions)),
        ("mean_moves", JVal::Num(r.mean_moves)),
        ("max_moves", JVal::UInt(r.max_moves as u64)),
    ])
}

fn chaos_json(r: &faults_exp::ChaosRow) -> JVal {
    obj(vec![
        ("cell", jstr(r.cell.clone())),
        ("sent_cells", JVal::UInt(r.sent_cells)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
        ("lost_cells", JVal::UInt(r.lost_cells)),
        ("violations", JVal::UInt(r.violations)),
        ("resyncs", JVal::UInt(r.resyncs)),
        ("detect_ms", JVal::Num(r.detect_ms)),
        ("restored", JVal::Bool(r.restored)),
        ("replay_ok", JVal::Bool(r.replay_ok)),
    ])
}

fn campaign_json(r: &chaos_exp::CampaignRow) -> JVal {
    obj(vec![
        ("cell", jstr(r.cell.clone())),
        ("violations", JVal::UInt(r.violations)),
        ("delivery", JVal::Num(r.delivery)),
        ("epochs", JVal::UInt(r.epochs)),
        ("transitions", JVal::UInt(r.transitions)),
        ("quarantines", JVal::UInt(r.quarantines)),
        ("suppressed", JVal::UInt(r.suppressed)),
        ("broken", JVal::UInt(r.broken)),
        ("surviving", JVal::UInt(r.surviving)),
    ])
}

fn arena_json(r: &arena_exp::ArenaRow) -> JVal {
    obj(vec![
        ("protocol", jstr(r.protocol.clone())),
        ("topology", jstr(r.topology.clone())),
        ("loss", JVal::Num(r.loss)),
        ("converge_ms", JVal::Num(r.converge_ms)),
        ("ctrl_cells", JVal::UInt(r.ctrl_cells)),
        ("ctrl_messages", JVal::UInt(r.ctrl_messages)),
        ("ctrl_lost", JVal::UInt(r.ctrl_lost)),
        ("reconv_lost_cells", JVal::UInt(r.reconv_lost_cells)),
        ("stretch", JVal::Num(r.stretch)),
        ("surviving", JVal::UInt(r.surviving)),
        ("converged", JVal::Bool(r.converged)),
    ])
}

fn control_json(r: &control_exp::ControlRow) -> JVal {
    obj(vec![
        ("cell", jstr(r.cell.clone())),
        ("converge_ms", JVal::Num(r.converge_ms)),
        ("sent_cells", JVal::UInt(r.sent_cells)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
        ("lost_cells", JVal::UInt(r.lost_cells)),
        ("ctrl_messages", JVal::UInt(r.ctrl_messages)),
        ("ctrl_cells", JVal::UInt(r.ctrl_cells)),
        ("rerouted", JVal::UInt(r.rerouted)),
        ("oracle_ok", JVal::Bool(r.oracle_ok)),
        ("replay_ok", JVal::Bool(r.replay_ok)),
    ])
}

fn trace_overhead_json(r: &fabric_exp::TraceOverhead) -> JVal {
    obj(vec![
        ("circuits", JVal::UInt(r.circuits as u64)),
        ("slots", JVal::UInt(r.slots)),
        ("untraced_ms", JVal::Num(r.untraced_ms)),
        ("traced_ms", JVal::Num(r.traced_ms)),
        ("overhead", JVal::Num(r.overhead)),
        ("events", JVal::UInt(r.events)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
    ])
}

fn trace_row_json(r: &control_exp::TraceRow) -> JVal {
    obj(vec![
        ("events_seen", JVal::UInt(r.events_seen)),
        ("events_evicted", JVal::UInt(r.events_evicted)),
        ("sampled_cells", JVal::UInt(r.sampled_cells as u64)),
        ("reconfig_ms", JVal::Num(r.reconfig_ms)),
        ("min_queued_slots", JVal::UInt(r.min_queued_slots)),
        ("identical_to_untraced", JVal::Bool(r.identical_to_untraced)),
    ])
}

fn shard_scaling_json(r: &parallel_exp::ShardScaling) -> JVal {
    obj(vec![
        ("shards", JVal::UInt(r.shards as u64)),
        ("slots", JVal::UInt(r.slots)),
        ("wall_ms", JVal::Num(r.wall_ms)),
        ("cells_per_sec", JVal::Num(r.cells_per_sec)),
        ("wall_speedup", JVal::Num(r.wall_speedup)),
        ("shard_balance", JVal::Num(r.shard_balance)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
    ])
}

fn batch_scaling_json(r: &batch_exp::BatchScaling) -> JVal {
    obj(vec![
        ("circuits", JVal::UInt(r.circuits as u64)),
        ("slots", JVal::UInt(r.slots)),
        ("unbatched_ms", JVal::Num(r.unbatched_ms)),
        ("batched_ms", JVal::Num(r.batched_ms)),
        ("wall_speedup", JVal::Num(r.wall_speedup)),
        ("model_speedup", JVal::Num(r.model_speedup)),
        ("skipped_switch_steps", JVal::UInt(r.skipped_switch_steps)),
        ("stepped_switch_steps", JVal::UInt(r.stepped_switch_steps)),
        ("skipped_slots", JVal::UInt(r.skipped_slots)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
        ("cells_per_sec_core", JVal::Num(r.cells_per_sec_core)),
    ])
}

fn fabric_perf_json(r: &fabric_exp::FabricPerf) -> JVal {
    obj(vec![
        ("circuits", JVal::UInt(r.circuits as u64)),
        ("slots", JVal::UInt(r.slots)),
        ("reference_ms", JVal::Num(r.reference_ms)),
        ("slab_ms", JVal::Num(r.slab_ms)),
        ("speedup", JVal::Num(r.speedup)),
        ("delivered_cells", JVal::UInt(r.delivered_cells)),
    ])
}

fn observe_json(r: &observe_exp::ObserveRow) -> JVal {
    obj(vec![
        ("cell", jstr(r.cell.clone())),
        ("labels", JVal::UInt(r.labels)),
        ("detected", JVal::UInt(r.detected)),
        ("median_ttd_ms", JVal::Num(r.median_ttd_ms)),
        ("max_ttd_ms", JVal::Num(r.max_ttd_ms)),
        ("false_positives", JVal::UInt(r.false_positives)),
        ("raised_alerts", JVal::UInt(r.raised_alerts)),
        ("control_alerts", JVal::UInt(r.control_alerts)),
        ("digest_match", JVal::Bool(r.digest_match)),
        ("intervals", JVal::UInt(r.intervals)),
        ("overhead_pct", JVal::Num(r.overhead_pct)),
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
) -> (String, JVal) {
    match id {
        "n4" if trace => {
            let (row, text) = control_exp::n4_trace("trace_out");
            (text, trace_row_json(&row))
        }
        "f1" => (figures::figure1(8, 16).render(), JVal::Null),
        "f2" => {
            let (_, _, text) = figures::figure2();
            (text, JVal::Null)
        }
        "f3" => (figures::figure3(), JVal::Null),
        "f4" => (figures::figure4(), JVal::Null),
        "e1" => (reconfig_exp::e1_pull_the_plug().1, JVal::Null),
        "e2" => (network_exp::e2_cut_through().1, JVal::Null),
        "e3" => {
            let (points, text) = xbar_exp::e3_fifo_saturation(16, 30_000);
            (text, JVal::Arr(points.iter().map(point_json).collect()))
        }
        "e4" => {
            let (rows, text) = xbar_exp::e4_pim_convergence(&[4, 8, 16, 32], 5_000);
            (text, JVal::Arr(rows.iter().map(convergence_json).collect()))
        }
        "e5" => {
            let (points, text) = xbar_exp::e5_discipline_comparison(16, 30_000);
            (text, JVal::Arr(points.iter().map(point_json).collect()))
        }
        "e6" => {
            let (rows, text) = xbar_exp::e6_starvation(10_000);
            (text, JVal::Arr(rows.iter().map(starvation_json).collect()))
        }
        "e7" => {
            let (rows, text) = schedule_exp::e7_insertion_cost();
            (text, JVal::Arr(rows.iter().map(insert_cost_json).collect()))
        }
        "e8" => (network_exp::e8_guaranteed_latency().1, JVal::Null),
        "e9" => (schedule_exp::e9_arrangement(8, 128, 0.35).1, JVal::Null),
        "e10" => {
            let text = format!(
                "{}\n{}",
                flow_exp::e10_credit_sizing().1,
                flow_exp::e10_loss_and_resync().1
            );
            (text, JVal::Null)
        }
        "e11" => (flow_exp::e11_deadlock().1, JVal::Null),
        "e12" => (reconfig_exp::e12_reconfig_behaviour().1, JVal::Null),
        "n1" => (network_exp::n1_network_load_sweep().1, JVal::Null),
        "n2" => {
            let (rows, text) = fabric_exp::n2_fabric_dataplane();
            (text, JVal::Arr(rows.iter().map(fabric_perf_json).collect()))
        }
        "n3" => {
            let (rows, text) = faults_exp::n3_chaos_soak();
            (text, JVal::Arr(rows.iter().map(chaos_json).collect()))
        }
        "n4" => {
            let (rows, text) = control_exp::n4_control_plane();
            (text, JVal::Arr(rows.iter().map(control_json).collect()))
        }
        "n5" => {
            let (rows, text) = fabric_exp::n5_trace_overhead();
            (
                text,
                JVal::Arr(rows.iter().map(trace_overhead_json).collect()),
            )
        }
        "n6" => {
            let (rows, text) = parallel_exp::n6_parallel_dataplane();
            (
                text,
                JVal::Arr(rows.iter().map(shard_scaling_json).collect()),
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
                JVal::Arr(rows.iter().map(batch_scaling_json).collect()),
            )
        }
        "n7" => {
            let (rows, text) = batch_exp::n7_batched_dataplane();
            (
                text,
                JVal::Arr(rows.iter().map(batch_scaling_json).collect()),
            )
        }
        "n8" => {
            let (rows, text) = chaos_exp::n8_chaos_campaigns(skeptic.0, skeptic.1);
            (text, JVal::Arr(rows.iter().map(campaign_json).collect()))
        }
        "n9" => {
            let (rows, text) = arena_exp::n9_protocol_arena();
            (text, JVal::Arr(rows.iter().map(arena_json).collect()))
        }
        "n10" => {
            let (rows, _detectors, text) = observe_exp::n10_observatory();
            (text, JVal::Arr(rows.iter().map(observe_json).collect()))
        }
        "x1" => {
            let text = format!(
                "{}\n{}\n{}\n{}",
                extensions_exp::x1_delta_vs_full().1,
                extensions_exp::x1_page_out().1,
                extensions_exp::x1_dynamic_buffers().1,
                extensions_exp::x1_rebalance().1
            );
            (text, JVal::Null)
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
    let mut unknown = 0;
    for id in ids {
        let Some(t) = title(id) else {
            eprintln!("unknown experiment id '{id}' (use f1-f4, e1-e12, x1, n1-n10, all)");
            unknown += 1;
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
        records.push(obj(vec![
            ("id", jstr(id)),
            ("title", jstr(t)),
            ("wall_ms", JVal::Num(wall_ms)),
            ("shards", JVal::UInt(parallel::shard_count() as u64)),
            ("threads", JVal::UInt(parallel::worker_threads() as u64)),
            ("results", results),
        ]));
    }

    if json_mode {
        let doc = obj(vec![
            ("threads", JVal::UInt(parallel::worker_threads() as u64)),
            (
                "total_wall_ms",
                JVal::Num(harness_start.elapsed().as_secs_f64() * 1e3),
            ),
            ("experiments", JVal::Arr(records)),
        ]);
        let path = "BENCH_results.json";
        let previous = std::fs::read_to_string(path).ok();
        let runs = append_run(previous.as_deref(), doc).unwrap_or_else(|e| panic!("{path}: {e}"));
        std::fs::write(path, runs.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("\nappended to {path}");
    }
    if unknown > 0 {
        // A mistyped id in a CI gate line must not pass as "nothing failed".
        eprintln!("{unknown} unknown experiment id(s)");
        std::process::exit(2);
    }
}

/// Appends this run to the baseline file instead of overwriting it, so
/// results accumulate across commits: the file is an array of runs, newest
/// last.
fn append_run(previous: Option<&str>, new_run: JVal) -> Result<JVal, String> {
    let mut runs = match previous.map(JVal::parse) {
        None => Vec::new(),
        Some(Ok(JVal::Arr(runs))) => runs,
        Some(Ok(_)) => return Err("not an array of runs".into()),
        Some(Err(e)) => return Err(e.to_string()),
    };
    runs.push(new_run);
    Ok(JVal::Arr(runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_accumulate_newest_last() {
        let first = append_run(None, obj(vec![("id", jstr("e3"))])).unwrap();
        // An undefined metric (mean delay when nothing was delivered) is
        // NaN in the row and null in the file.
        let run = obj(vec![
            ("wall_ms", JVal::Num(0.5)),
            ("mean_delay", JVal::Num(f64::NAN)),
        ]);
        let both = append_run(Some(&first.render()), run).unwrap();
        let JVal::Arr(runs) = JVal::parse(&both.render()).unwrap() else {
            panic!("baseline file is an array");
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("id"), Some(&JVal::Str("e3".into())));
        assert_eq!(runs[1].get("wall_ms"), Some(&JVal::Num(0.5)));
        assert_eq!(runs[1].get("mean_delay"), Some(&JVal::Null));
    }

    #[test]
    fn a_damaged_baseline_is_refused_not_overwritten() {
        assert!(append_run(Some("{\"threads\":1}"), JVal::Null).is_err());
        assert!(append_run(Some("[{\"threads\":1}"), JVal::Null).is_err());
    }
}
