//! The benchmark of record for the AN2 reproduction (see `README.md`).
//!
//! ```text
//! an2-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! an2-benchmark [--seed N] [--seconds S] [--trace]              every workload, a child process each
//! an2-benchmark --compare A.json B.json                         verdict per (metric, workload)
//! ```

mod metrics;
mod replays;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use an2_chaos::JVal;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::{Scale, Workload};

/// Seconds of timed region per workload when `--seconds` is not given
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 6.0;

/// Time budget of each layer replay in the traced run.
const REPLAY_BUDGET: Duration = Duration::from_millis(200);

/// Where result files and traces go, relative to the repository root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: run::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` from a human.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload in this process. Prints the metric table, a `#detail` line
/// for the suite, and — last — the driver's result line.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let out = if args.trace {
        let (out, spans) = run::trace(w, &Scale::FULL, args.seed, REPLAY_BUDGET);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", w.name());
        std::fs::write(&path, spans.chrome_trace(w.name())).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        out
    } else {
        run::measure(w, &Scale::FULL, args.seed, args.seconds)
    };
    print!("{}", report::table(&out));
    println!("#detail {}", report::compact(&report::detail(&out)));
    println!("{}", report::result_line(&out));
    Ok(out.correct)
}

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Every workload, each as its own child invocation of this binary so that
/// `peak_rss_mb` is the high-water mark of a process that ran only that
/// workload. Cross-checks the derived workloads' digests against their
/// bases and writes one result file with provenance.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace = if args.trace { "1" } else { "0" };
    let mut all_correct = true;
    let mut details: Vec<(String, JVal)> = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--trace", trace])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .output()
            .map_err(|e| format!("spawning {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        // The child's last line is the driver's; its table says the same.
        lines.pop();
        let mut detail = None;
        for line in lines {
            match line.strip_prefix("#detail ") {
                Some(json) => detail = JVal::parse(json).ok(),
                None => println!("{line}"),
            }
        }
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let detail = detail.ok_or(format!("{} printed no result", w.name()))?;
        all_correct &= child.status.success() && detail.get("correct") == Some(&JVal::Bool(true));
        details.push((w.name().to_string(), detail));
    }
    for w in Workload::ALL {
        let Some(base) = w.base() else { continue };
        let digest = |name: &str| {
            details
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, d)| d.get("digest"))
        };
        if digest(w.name()) != digest(base.name()) {
            println!("FAILED: {} digest != {}", w.name(), base.name());
            all_correct = false;
        }
    }

    let commit = stdout_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = stdout_of("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let provenance = report::obj(vec![
        ("commit", JVal::Str(commit.clone())),
        ("dirty", dirty.map_or(JVal::Null, JVal::Bool)),
        ("nproc", JVal::UInt(nproc)),
        ("rustc", JVal::Str(rustc)),
        ("seed", JVal::UInt(args.seed)),
        ("seconds", JVal::Num(args.seconds)),
        ("trace", JVal::Bool(args.trace)),
        ("correct", JVal::Bool(all_correct)),
    ]);
    let file = report::obj(vec![
        ("provenance", provenance),
        ("workloads", JVal::Obj(details)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let short = &commit[..commit.len().min(12)];
    let suffix = if args.trace { "-trace" } else { "" };
    let path = format!("{OUT_DIR}/{short}-{}{suffix}.json", args.seed);
    std::fs::write(&path, file.render()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "\n{}: results written to {path}",
        if all_correct {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        JVal::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let (table, regressed) = report::compare(&load(a)?, &load(b)?, &names);
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, args.workload) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("an2-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOAD_WHY};

    fn declared() -> JVal {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        JVal::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a JVal, key: &str) -> &'a JVal {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn items<'a>(v: &'a JVal, key: &str) -> &'a [JVal] {
        match field(v, key) {
            JVal::Arr(items) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn text(v: &JVal, key: &str) -> String {
        match field(v, key) {
            JVal::Str(s) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` declares exactly what `metrics.rs` declares.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let d = declared();
        let workloads: Vec<(String, String)> = items(&d, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOAD_WHY
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            ours.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            Workload::ALL.map(Workload::name)
        );
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let e2e: Vec<(String, String, String, f64)> = items(&d, "end_to_end")
            .iter()
            .map(|m| {
                let bound = match field(m, "bound") {
                    JVal::Num(b) => *b,
                    other => panic!("bound {other:?}"),
                };
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));

        let layers: Vec<(String, String, String)> = items(&d, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(layers, ours);
        assert!(PER_LAYER.len() <= 128);

        assert_eq!(
            field(&d, "run_seconds"),
            &JVal::UInt(DEFAULT_SECONDS as u64)
        );
        assert_eq!(items(&d, "paths"), [JVal::Str("benchmark".into())]);
        assert_eq!(
            items(&d, "command"),
            [
                JVal::Str("bash".into()),
                JVal::Str("benchmark/run.sh".into())
            ]
        );
    }

    /// `fat_tree(2, 4)`-scale versions of all six workloads, untraced and
    /// traced: every gate passes, derived workloads digest like their
    /// bases, and the names emitted are exactly the names declared.
    #[test]
    fn small_scale_workloads_pass_their_gates_and_emit_the_declared_names() {
        let d = declared();
        let names =
            |key: &str| -> Vec<String> { items(&d, key).iter().map(|m| text(m, "name")).collect() };
        let (e2e, layers) = (names("end_to_end"), names("per_layer"));
        assert!(names("workloads")
            .iter()
            .chain(&e2e)
            .chain(&layers)
            .all(|n| well_formed(n)));
        let mut digests = Vec::new();
        for w in Workload::ALL {
            let out = run::measure(w, &Scale::SMALL, 11, 0.0);
            assert!(out.correct, "{}: {:?}", w.name(), out.failures);
            assert!(out.attempted > 0 && out.failed == 0);
            let emitted: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(emitted, e2e, "{}", w.name());
            assert!(
                out.metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{}: end-to-end metrics are never 0: {:?}",
                w.name(),
                out.metrics
            );
            // The driver's line parses and carries exactly its four keys.
            let line = JVal::parse(&report::result_line(&out)).expect("result line parses");
            let JVal::Obj(keys) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

            let (traced, spans) = run::trace(w, &Scale::SMALL, 11, Duration::from_millis(2));
            assert!(traced.correct, "{} traced: {:?}", w.name(), traced.failures);
            assert_eq!(traced.digest, out.digest, "{}: traced digest", w.name());
            let emitted: Vec<String> = traced.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(emitted, layers, "{}", w.name());
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            JVal::parse(&spans.chrome_trace(w.name())).expect("span file parses");
            digests.push((w, out.digest, out.settled_digest));
        }
        for (w, digest, settled) in &digests {
            let Some(base) = w.base() else { continue };
            let (_, base_digest, base_settled) =
                digests.iter().find(|(b, ..)| *b == base).expect("base ran");
            assert_eq!(
                (digest, settled),
                (base_digest, base_settled),
                "{}",
                w.name()
            );
        }
    }
}
