//! What leaves the process: the one-line result the driver reads, the
//! detail record the suite collects, result files with provenance, and
//! `--compare`.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOAD_WHY};
use crate::run::Output;
use crate::stats;
use an2_chaos::JVal;
use std::fmt::Write as _;

/// A JSON object from `(key, value)` pairs, order kept.
pub fn obj(fields: Vec<(&str, JVal)>) -> JVal {
    JVal::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn nums(values: &[f64]) -> JVal {
    JVal::Arr(values.iter().map(|&v| JVal::Num(v)).collect())
}

/// `v` on one line. Numbers print with every digit `f64` holds.
pub fn compact(v: &JVal) -> String {
    fn write(v: &JVal, out: &mut String) {
        match v {
            JVal::Num(x) => {
                assert!(x.is_finite(), "JSON cannot carry {x}");
                let _ = write!(out, "{x}");
            }
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            JVal::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":");
                    write(item, out);
                }
                out.push('}');
            }
            // Scalars render the same at any indentation.
            scalar => out.push_str(scalar.render().trim_end()),
        }
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

/// The driver's contract: exactly `correct`, `attempted`, `failed` and
/// `metrics` (`name → {value, unit}`).
pub fn result_line(o: &Output) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", JVal::Num(m.value)),
                    ("unit", JVal::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    compact(&obj(vec![
        ("correct", JVal::Bool(o.correct)),
        ("attempted", JVal::UInt(o.attempted)),
        ("failed", JVal::UInt(o.failed)),
        ("metrics", obj(metrics)),
    ]))
}

/// Everything the suite keeps about one workload run: the result line's
/// fields plus digests, failures, per-rep raw walls and, per metric, the
/// quartiles and per-rep samples.
pub fn detail(o: &Output) -> JVal {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let (q1, _, q3) = if m.samples.is_empty() {
                (m.value, m.value, m.value)
            } else {
                stats::quartiles(&m.samples)
            };
            (
                m.name,
                obj(vec![
                    ("value", JVal::Num(m.value)),
                    ("unit", JVal::Str(m.unit.into())),
                    ("q1", JVal::Num(q1)),
                    ("q3", JVal::Num(q3)),
                    ("samples", nums(&m.samples)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", JVal::Str(o.workload.name().into())),
        ("correct", JVal::Bool(o.correct)),
        (
            "failures",
            JVal::Arr(o.failures.iter().cloned().map(JVal::Str).collect()),
        ),
        ("attempted", JVal::UInt(o.attempted)),
        ("failed", JVal::UInt(o.failed)),
        ("digest", JVal::Str(format!("{:016x}", o.digest))),
        (
            "settled_digest",
            JVal::Str(format!("{:016x}", o.settled_digest)),
        ),
        ("reps", JVal::UInt(o.walls.len() as u64)),
        ("wall_s", nums(&o.walls)),
        ("metrics", obj(metrics)),
    ])
}

/// The metric table a human reads: one row per metric, with quartiles
/// where reps give them and, for a layer metric, the end-to-end metric and
/// workloads it is expected to move.
pub fn table(o: &Output) -> String {
    let why = WORKLOAD_WHY
        .iter()
        .find(|(name, _)| *name == o.workload.name())
        .map_or("", |(_, why)| why);
    let mut out = format!(
        "{} - {why}\n{}: {} ({} attempted, {} failed, {} timed regions, digest {:016x})\n",
        o.workload.name(),
        o.workload.name(),
        if o.correct { "correct" } else { "INCORRECT" },
        o.attempted,
        o.failed,
        o.walls.len(),
        o.digest
    );
    for f in &o.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    for m in &o.metrics {
        let _ = write!(out, "  {:<36} {:>16.4} {:<6}", m.name, m.value, m.unit);
        if !m.samples.is_empty() {
            let (q1, _, q3) = stats::quartiles(&m.samples);
            let _ = write!(out, " [q1 {q1:.4}, q3 {q3:.4}, n={}]", m.samples.len());
        }
        if let Some(l) = PER_LAYER.iter().find(|l| l.name == m.name) {
            let _ = write!(out, " {} is better; ", l.better.as_str());
            let _ = match l.moves {
                "" => write!(out, "{}", l.on),
                moves => write!(out, "moves {moves} on {}", l.on),
            };
        }
        out.push('\n');
    }
    out.push_str(&o.tables);
    out
}

fn as_f64(v: &JVal) -> Option<f64> {
    match *v {
        JVal::UInt(x) => Some(x as f64),
        JVal::Int(x) => Some(x as f64),
        JVal::Num(x) => Some(x),
        _ => None,
    }
}

/// `(value, q1, q3, samples)` of one metric of one workload in a result file.
fn metric_of(file: &JVal, workload: &str, metric: &str) -> Option<(f64, f64, f64, Vec<f64>)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let samples = match m.get("samples")? {
        JVal::Arr(items) => items.iter().filter_map(as_f64).collect(),
        _ => Vec::new(),
    };
    Some((
        as_f64(m.get("value")?)?,
        as_f64(m.get("q1")?)?,
        as_f64(m.get("q3")?)?,
        samples,
    ))
}

/// The verdict on one (metric, workload) pair, by choosing-metrics §6/§8.
fn verdict(
    better: Better,
    bound: f64,
    exact: bool,
    a: &(f64, f64, f64, Vec<f64>),
    b: &(f64, f64, f64, Vec<f64>),
) -> &'static str {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Positive = B reads better than A, as a share of A's median.
    let gain = sign * (b.0 - a.0) / a.0.abs().max(f64::MIN_POSITIVE);
    if exact {
        return if gain == 0.0 {
            "unchanged"
        } else if gain > 0.0 {
            "improved"
        } else {
            "regressed"
        };
    }
    let best_a =
        a.3.iter()
            .map(|&x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max);
    let worst_b = b.3.iter().map(|&x| sign * x).fold(f64::INFINITY, f64::min);
    let every_b_beats_every_a = !a.3.is_empty() && !b.3.is_empty() && worst_b > best_a;
    let spread = (a.2 - a.1).abs().max((b.2 - b.1).abs()) / a.0.abs().max(f64::MIN_POSITIVE);
    // One result file is one run per side: its quartiles show the spread
    // between reps, not between runs, which on a shared box is the larger.
    // The bound is what was calibrated against run-to-run noise, so a gain
    // has to clear both.
    if every_b_beats_every_a && gain > spread.max(bound) {
        "improved"
    } else if spread > bound {
        // Spread wider than the bound: never "unchanged".
        "unresolved"
    } else if gain < -bound {
        "regressed"
    } else {
        "unchanged"
    }
}

/// `--compare A.json B.json`: one row per (metric, workload) with both
/// medians and quartiles and a verdict. Returns the table and whether any
/// row regressed.
pub fn compare(a: &JVal, b: &JVal, workloads: &[&str]) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<24} {:>14} {:>25} {:>14} {:>25}  {}\n",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "verdict"
    );
    let mut regressed = false;
    for w in workloads {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (metric_of(a, w, m.name), metric_of(b, w, m.name)) else {
                let _ = writeln!(out, "{w:<18} {:<24} missing from one side", m.name);
                regressed = true;
                continue;
            };
            let v = verdict(m.better, m.bound, m.exact, &ma, &mb);
            regressed |= v == "regressed";
            let _ = writeln!(
                out,
                "{w:<18} {:<24} {:>14.4} [{:>10.4}, {:>10.4}] {:>14.4} [{:>10.4}, {:>10.4}]  {v}",
                m.name, ma.0, ma.1, ma.2, mb.0, mb.1, mb.2
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(samples: &[f64]) -> (f64, f64, f64, Vec<f64>) {
        let (q1, med, q3) = stats::quartiles(samples);
        (med, q1, q3, samples.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = m(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = m(&[100.2, 100.9, 99.1, 100.4, 99.7]);
        let slow = m(&[88.0, 89.0, 87.5, 88.5, 88.2]);
        let fast = m(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let faster_within_noise = m(&[105.0, 106.0, 104.0, 105.5, 104.5]);
        let noisy = m(&[70.0, 130.0, 100.0, 85.0, 115.0]);
        let v = |a, b| verdict(Better::Higher, 0.08, false, a, b);
        assert_eq!(v(&base, &same), "unchanged");
        assert_eq!(v(&base, &slow), "regressed");
        assert_eq!(v(&base, &fast), "improved");
        // Every rep faster, but by less than the bound: one run per side
        // cannot tell that from run-to-run noise.
        assert_eq!(v(&base, &faster_within_noise), "unchanged");
        // Spread wider than the bound is never "unchanged".
        assert_eq!(v(&base, &noisy), "unresolved");
        // Lower-is-better flips the direction.
        assert_eq!(
            verdict(Better::Lower, 0.08, false, &base, &slow),
            "improved"
        );
        // Exact metrics compare for equality.
        let exact = |x: f64, y: f64| {
            let one = |v: f64| (v, v, v, Vec::new());
            verdict(Better::Lower, 0.1, true, &one(x), &one(y))
        };
        assert_eq!(exact(149.0, 149.0), "unchanged");
        assert_eq!(exact(149.0, 150.0), "regressed");
        assert_eq!(exact(149.0, 148.0), "improved");
    }

    #[test]
    fn compact_round_trips_through_the_parser() {
        let v = obj(vec![
            ("a", JVal::Num(1.25)),
            ("b", JVal::Arr(vec![JVal::UInt(3), JVal::Bool(true)])),
            ("c", JVal::Str("x\"y".into())),
        ]);
        let line = compact(&v);
        assert!(!line.contains('\n'));
        assert_eq!(JVal::parse(&line).expect("valid"), v);
    }
}
