//! Chaos-corpus replay: every schedule persisted under
//! `tests/chaos_corpus/` is a pinned regression. Each file must (a) parse,
//! (b) survive the strengthened oracle with zero violations, and (c)
//! replay byte-identically — the digest of two fresh runs of the same
//! schedule must agree.
//!
//! Files land here in two ways: seeded pins covering each campaign
//! scenario, and minimal repros written by the shrinker when a campaign
//! cell violates the oracle (in which case the fix that closes the bug
//! flips the file from "expected failure" to a pinned survivor before it
//! is committed).

use an2_chaos::corpus::{load_dir, schedule_from_json, schedule_to_json};
use an2_chaos::oracle::run_schedule;
use an2_chaos::JVal;
use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/chaos_corpus"))
}

#[test]
fn corpus_is_present_and_parses() {
    let corpus = load_dir(corpus_dir()).expect("corpus parses");
    assert!(
        corpus.len() >= 5,
        "expected the seeded corpus, found {} files",
        corpus.len()
    );
    for (path, schedule) in &corpus {
        assert!(
            !schedule.name.is_empty() && schedule.run_slots > 0,
            "{} is degenerate",
            path.display()
        );
    }
}

/// The corpus files are the pretty printer's byte pin: each file is what
/// `render` writes for what `parse` reads from it, and what the schedule
/// codec writes for the schedule it decodes.
#[test]
fn corpus_files_round_trip_byte_for_byte() {
    let corpus = load_dir(corpus_dir()).expect("corpus parses");
    for (path, _) in &corpus {
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        let value = JVal::parse(&text).expect("corpus file parses");
        assert_eq!(
            value.render(),
            text,
            "{}: render(parse(file))",
            path.display()
        );
        let violations: Vec<String> = match value.get("violations") {
            Some(JVal::Arr(items)) => items
                .iter()
                .map(|v| match v {
                    JVal::Str(s) => s.clone(),
                    other => panic!("{}: violation {other:?}", path.display()),
                })
                .collect(),
            other => panic!("{}: violations {other:?}", path.display()),
        };
        let schedule = schedule_from_json(&value).expect("corpus file decodes");
        assert_eq!(
            schedule_to_json(&schedule, &violations).render(),
            text,
            "{}: the schedule codec's round trip",
            path.display()
        );
    }
}

/// The JSON decoder returns `Ok` or `Err` and never panics (nor overflows
/// its stack) on every single-bit flip of the corpus files that leaves
/// valid UTF-8, every double-bit flip of one small document, and every
/// valid UTF-8 string of two bytes or less.
#[test]
fn json_decoder_never_panics_on_flipped_or_short_input() {
    let mut inputs = 0usize;
    let mut rejected = 0usize;
    let mut feed = |bytes: &[u8]| {
        if let Ok(text) = std::str::from_utf8(bytes) {
            inputs += 1;
            rejected += usize::from(JVal::parse(text).is_err());
        }
    };
    let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);

    for (path, _) in load_dir(corpus_dir()).expect("corpus parses") {
        let mut bytes = std::fs::read(&path).expect("corpus file reads");
        for bit in 0..bytes.len() * 8 {
            flip(&mut bytes, bit);
            feed(&bytes);
            flip(&mut bytes, bit);
        }
    }

    let doc = r#"{"k":[0,-1,2.5e-3,"a\"\u00e9é"],"o":{"t":true,"n":null}}"#;
    assert!(doc.len() <= 64 && JVal::parse(doc).is_ok());
    let mut bytes = doc.as_bytes().to_vec();
    let bits = bytes.len() * 8;
    for a in 0..bits {
        flip(&mut bytes, a);
        for b in a + 1..bits {
            flip(&mut bytes, b);
            feed(&bytes);
            flip(&mut bytes, b);
        }
        flip(&mut bytes, a);
    }

    feed(&[]);
    for a in 0..=u8::MAX {
        feed(&[a]);
        for b in 0..=u8::MAX {
            feed(&[a, b]);
        }
    }

    // Both outcomes occur, so the sweep reached past the first byte.
    assert!(
        rejected > 0 && rejected < inputs,
        "{rejected} of {inputs} rejected"
    );
}

#[test]
fn corpus_replays_with_zero_violations_and_identical_digests() {
    let corpus = load_dir(corpus_dir()).expect("corpus parses");
    let mut failures = Vec::new();
    for (path, schedule) in &corpus {
        let first = run_schedule(schedule);
        if !first.violations.is_empty() {
            failures.push(format!(
                "{}: violations {:?}",
                path.display(),
                first.violations
            ));
            continue;
        }
        let second = run_schedule(schedule);
        if first.digest != second.digest {
            failures.push(format!(
                "{}: replay diverged ({:#x} vs {:#x})",
                path.display(),
                first.digest,
                second.digest
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}

/// The same corpus, replayed under the arena rivals. The rivals have no
/// harness/canonical-path oracle, so the recorded legs are the
/// protocol-agnostic ones — per-slot invariants and the delivery floor —
/// and the replay-determinism contract (same schedule, same digest).
#[test]
fn corpus_replays_under_rival_protocols() {
    use an2::ProtocolKind;
    use an2_chaos::oracle::run_schedule_with;

    let corpus = load_dir(corpus_dir()).expect("corpus parses");
    let mut failures = Vec::new();
    for kind in [ProtocolKind::SpanningTree, ProtocolKind::PathVector] {
        for (i, (path, schedule)) in corpus.iter().enumerate() {
            let report = run_schedule_with(schedule, kind);
            if !report.violations.is_empty() {
                failures.push(format!(
                    "{} under {kind:?}: violations {:?}",
                    path.display(),
                    report.violations
                ));
                continue;
            }
            // Replay determinism, spot-checked on the first schedule per
            // rival (every run above already exercises the digest path).
            if i == 0 {
                let second = run_schedule_with(schedule, kind);
                if report.digest != second.digest {
                    failures.push(format!(
                        "{} under {kind:?}: replay diverged ({:#x} vs {:#x})",
                        path.display(),
                        report.digest,
                        second.digest
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "rival corpus regressions:\n{}",
        failures.join("\n")
    );
}
