//! The experiment harness: regenerates every figure (F1–F4) and every
//! quantitative claim (E1–E12) of the paper.
//!
//! Usage:
//!   cargo run -p an2-bench --bin experiments --release -- all
//!   cargo run -p an2-bench --bin experiments --release -- e4 e5
//!   cargo run -p an2-bench --bin experiments --release -- n4 --trace
//!
//! With `--trace`, N4 runs its fail cell with the flight recorder attached
//! and writes the recording to `trace_out/` (Chrome trace-event JSON for
//! ui.perfetto.dev, JSONL, and the metrics registry), asserting the
//! recorded reconfiguration span beats 200 ms and that tracing left the
//! run byte-identical.
//!
//! Every report is a function of the seeds in the code: no experiment
//! reads a clock or the environment, and the sweeps (E3/E4/E5/E7) fan their
//! grids across however many cores there are with identical results. So
//! `experiments all` is one text, committed as `goldens/experiments.txt`
//! and diffed by `ci.sh`; a change that means to move a report regenerates
//! it with the same command and `>`. Wall-clock numbers of record come from
//! `benchmark/run.sh`. Outputs are recorded against the paper's statements
//! in EXPERIMENTS.md.

use an2_bench::{
    arena_exp, chaos_exp, control_exp, extensions_exp, faults_exp, figures, flow_exp, network_exp,
    observe_exp, reconfig_exp, schedule_exp, xbar_exp,
};

/// What the command line selects besides experiment ids.
struct Opts {
    /// `--trace`: N4 runs its fail cell under the flight recorder instead
    /// and exports the recording.
    trace: bool,
}

/// `(id, title, run)`: every experiment the binary knows, in `all` order.
/// `run` returns the report text.
type Experiment = (&'static str, &'static str, fn(&Opts) -> String);

const EXPERIMENTS: &[Experiment] = &[
    ("f1", "F1: sample installation (Figure 1)", |_| {
        figures::figure1(8, 16).render()
    }),
    ("f2", "F2: reservations and schedule (Figure 2)", |_| {
        figures::figure2().2
    }),
    ("f3", "F3: Slepian-Duguid insertion (Figure 3)", |_| {
        figures::figure3()
    }),
    ("f4", "F4: credit flow control (Figure 4)", |_| {
        figures::figure4()
    }),
    ("e1", "E1: reconfiguration under 200ms", |_| {
        reconfig_exp::e1_pull_the_plug().1
    }),
    ("e2", "E2: 2us cut-through latency", |_| {
        network_exp::e2_cut_through().1
    }),
    ("e3", "E3: FIFO head-of-line blocking (58%)", |_| {
        xbar_exp::e3_fifo_saturation(16, 30_000).1
    }),
    ("e4", "E4: PIM convergence (log2 N + 4/3)", |_| {
        xbar_exp::e4_pim_convergence(&[4, 8, 16, 32], 5_000).1
    }),
    ("e5", "E5: PIM vs output queueing and rivals", |_| {
        xbar_exp::e5_discipline_comparison(16, 30_000).1
    }),
    ("e6", "E6: maximum-matching starvation", |_| {
        xbar_exp::e6_starvation(10_000).1
    }),
    ("e7", "E7: Slepian-Duguid insertion cost", |_| {
        schedule_exp::e7_insertion_cost().1
    }),
    ("e8", "E8: guaranteed latency bound p(2f+l)", |_| {
        network_exp::e8_guaranteed_latency().1
    }),
    ("e9", "E9: packing vs spreading reserved slots", |_| {
        schedule_exp::e9_arrangement(8, 128, 0.35).1
    }),
    ("e10", "E10: credit sizing, loss and resync", |_| {
        format!(
            "{}\n{}",
            flow_exp::e10_credit_sizing().1,
            flow_exp::e10_loss_and_resync().1
        )
    }),
    ("e11", "E11: up*/down* deadlock freedom", |_| {
        flow_exp::e11_deadlock().1
    }),
    ("e12", "E12: reconfiguration behaviour", |_| {
        reconfig_exp::e12_reconfig_behaviour().1
    }),
    ("x1", "X1: the paper's extension proposals", |_| {
        format!(
            "{}\n{}\n{}\n{}",
            extensions_exp::x1_delta_vs_full().1,
            extensions_exp::x1_page_out().1,
            extensions_exp::x1_dynamic_buffers().1,
            extensions_exp::x1_rebalance().1
        )
    }),
    ("n1", "N1: whole-network load sweep", |_| {
        network_exp::n1_network_load_sweep().1
    }),
    (
        "n3",
        "N3: chaos soak — loss, flaps, crashes, resync",
        |_| faults_exp::n3_chaos_soak().1,
    ),
    (
        "n4",
        "N4: embedded control plane — fail, flap, crash, replay",
        |opts| {
            if opts.trace {
                control_exp::n4_trace("trace_out").1
            } else {
                control_exp::n4_control_plane().1
            }
        },
    ),
    (
        "n8",
        "N8: chaos campaigns — oracle grid, skeptic damping, churn soak, replay",
        |_| chaos_exp::n8_chaos_campaigns().1,
    ),
    (
        "n9",
        "N9: protocol arena — up*/down* vs spanning tree vs path vector",
        |_| arena_exp::n9_protocol_arena().1,
    ),
    (
        "n10",
        "N10: telemetry observatory — time-to-detect vs ground-truth fault labels",
        |_| observe_exp::n10_observatory().2,
    ),
];

/// Resolves the command line against the table: no ids, or `all` among
/// them, selects every experiment once, in table order. `--trace` is read
/// by N4 alone, so it is refused unless `n4` is among the picked.
fn parse(args: &[String]) -> Result<(Opts, Vec<&'static Experiment>), String> {
    let mut opts = Opts { trace: false };
    let mut picked = Vec::new();
    let mut all = false;
    for a in args {
        match a.as_str() {
            "--trace" => opts.trace = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}' (the only flag is --trace)"))
            }
            "all" => all = true,
            id => picked.push(EXPERIMENTS.iter().find(|e| e.0 == id).ok_or_else(|| {
                format!(
                    "unknown experiment id '{id}' (use f1-f4, e1-e12, x1, n1 n3 n4 n8-n10, all)"
                )
            })?),
        }
    }
    if all || picked.is_empty() {
        picked = EXPERIMENTS.iter().collect();
    }
    if opts.trace && !picked.iter().any(|e| e.0 == "n4") {
        return Err("--trace is read by n4 only, which is not among the ids given".into());
    }
    Ok((opts, picked))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A mistyped id or a retired flag in a CI gate line must not pass as
    // "nothing failed", nor look like a crash.
    let (opts, picked) = parse(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    for (_, title, run) in picked {
        println!("\n{}\n", banner(title));
        print!("{}", run(&opts));
    }
}

/// The line that opens an experiment's report.
fn banner(title: &str) -> String {
    format!("=== {title} {}", "=".repeat(66 - title.len().min(60)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(_, picked)| picked.iter().map(|e| e.0).collect())
    }

    #[test]
    fn the_table_has_each_experiment_once() {
        let unique: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(unique.len(), EXPERIMENTS.len(), "duplicate id");
        for (family, count) in [("f", 4), ("e", 12), ("x", 1), ("n", 6)] {
            let n = unique.iter().filter(|id| id.starts_with(family)).count();
            assert_eq!(n, count, "family {family}");
        }
        assert_eq!(EXPERIMENTS.len(), 23);
        for (id, title, _) in EXPERIMENTS {
            let prefix = format!("{}:", id.to_uppercase());
            assert!(title.starts_with(&prefix), "{id} is titled '{title}'");
        }
    }

    #[test]
    fn all_runs_each_experiment_exactly_once() {
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(ids(&[]).unwrap(), table);
        assert_eq!(ids(&["all"]).unwrap(), table);
        assert_eq!(ids(&["e3", "all", "n4"]).unwrap(), table);
        assert_eq!(ids(&["n4", "e3"]).unwrap(), ["n4", "e3"]);
    }

    #[test]
    fn unknown_ids_and_retired_flags_are_errors() {
        // N2/N5/N6/N7 are `benchmark/` workloads, not experiments.
        for id in ["nope", "n2", "n5", "n6", "n7"] {
            assert!(ids(&[id]).unwrap_err().contains(&format!("'{id}'")));
        }
        assert!(ids(&["e3", "nope"]).is_err());
        for flag in [
            "--json",
            "--profile",
            "--shards",
            "--skeptic-base-wait",
            "--skeptic-max-level",
        ] {
            assert!(ids(&["n3", flag]).unwrap_err().contains(flag));
        }
        let args = ["n4".to_string(), "--trace".to_string()];
        assert!(parse(&args).unwrap().0.trace);
        // Only N4 reads the flag; `all` (or no id) picks N4.
        assert!(ids(&["e3", "--trace"]).unwrap_err().contains("n4"));
        assert!(ids(&["--trace", "e3", "n4"]).is_ok());
        assert!(ids(&["--trace"]).is_ok());
    }

    /// The golden `ci.sh` diffs holds one banner per table entry, in table
    /// order: an experiment added, dropped, retitled or moved without
    /// regenerating it fails here, without running any experiment.
    #[test]
    fn the_golden_has_the_tables_banners_in_table_order() {
        let golden = include_str!("../../goldens/experiments.txt");
        let banners: Vec<&str> = golden.lines().filter(|l| l.starts_with("=== ")).collect();
        let table: Vec<String> = EXPERIMENTS.iter().map(|e| banner(e.1)).collect();
        assert_eq!(banners, table);
    }
}
