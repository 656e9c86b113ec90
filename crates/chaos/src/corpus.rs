//! The repro corpus: minimal failing schedules persisted as plain,
//! reviewable JSON and replayed as regression tests.
//!
//! The workspace builds offline with no serialization crate, so this
//! module carries its own small JSON value type with a recursive-descent
//! parser and a deterministic pretty-printer. Corpus files hold the full
//! [`Schedule`] plus an informational `violations` array (ignored on
//! load); replaying a file re-runs the oracle from scratch, so corpus
//! checks stay valid as the implementation evolves.

use crate::gen::Schedule;
use crate::oracle::{run_schedule, RunReport};
use crate::spec::TopologyKind;
use an2_faults::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel};
use an2_reconfig::monitor::MonitorConfig;
use an2_reconfig::skeptic::SkepticConfig;
use an2_sim::SimDuration;
use an2_topology::{LinkId, SwitchId};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// A JSON value. Integers keep their own variants so 64-bit slot counts
/// and seeds survive the round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer token.
    UInt(u64),
    /// A negative integer token.
    Int(i64),
    /// A fractional or exponent-bearing number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object, field order preserved.
    Obj(Vec<(String, JVal)>),
}

/// A corpus error: parse failure or schema mismatch, with context.
#[derive(Debug)]
pub struct CorpusError(pub String);

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus: {}", self.0)
    }
}

impl std::error::Error for CorpusError {}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError(format!("io: {e}"))
    }
}

type Res<T> = Result<T, CorpusError>;

fn err<T>(msg: impl Into<String>) -> Res<T> {
    Err(CorpusError(msg.into()))
}

impl JVal {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn want(&self, key: &str) -> Res<&JVal> {
        self.get(key)
            .ok_or_else(|| CorpusError(format!("missing field `{key}`")))
    }

    fn as_u64(&self) -> Res<u64> {
        match *self {
            JVal::UInt(x) => Ok(x),
            JVal::Num(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as u64),
            ref other => err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    fn as_u32(&self) -> Res<u32> {
        let x = self.as_u64()?;
        u32::try_from(x).map_err(|_| CorpusError(format!("{x} overflows u32")))
    }

    fn as_f64(&self) -> Res<f64> {
        match *self {
            JVal::UInt(x) => Ok(x as f64),
            JVal::Int(x) => Ok(x as f64),
            JVal::Num(x) => Ok(x),
            ref other => err(format!("expected number, got {other:?}")),
        }
    }

    fn as_str(&self) -> Res<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    fn as_arr(&self) -> Res<&[JVal]> {
        match self {
            JVal::Arr(v) => Ok(v),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Renders with 2-space indentation and a trailing newline —
    /// deterministic, diff-friendly corpus files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::UInt(x) => out.push_str(&x.to_string()),
            JVal::Int(x) => out.push_str(&x.to_string()),
            JVal::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN or infinity: an undefined metric is null.
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < 9e15 {
                    out.push_str(&format!("{:.1}", x));
                } else {
                    out.push_str(&format!("{}", x));
                }
            }
            JVal::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JVal::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JVal::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("\"{k}\": "));
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Res<JVal> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Res<JVal> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return err("unexpected end of input");
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JVal::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    JVal::Str(s) => s,
                    other => return err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(JVal::Obj(fields));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(JVal::Arr(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let Some(&c) = b.get(*pos) else {
                    return err("unterminated string");
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(JVal::Str(s)),
                    b'\\' => {
                        let Some(&e) = b.get(*pos) else {
                            return err("unterminated escape");
                        };
                        *pos += 1;
                        match e {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                if *pos + 4 > b.len() {
                                    return err("truncated \\u escape");
                                }
                                let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                    .map_err(|_| CorpusError("bad \\u escape".into()))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| CorpusError("bad \\u escape".into()))?;
                                *pos += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return err(format!("bad escape \\{}", e as char)),
                        }
                    }
                    c => {
                        // Re-decode multi-byte UTF-8 runs from the source.
                        if c < 0x80 {
                            s.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let mut end = *pos;
                            while end < b.len() && (b[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            let chunk = std::str::from_utf8(&b[start..end])
                                .map_err(|_| CorpusError("invalid utf-8 in string".into()))?;
                            s.push_str(chunk);
                            *pos = end;
                        }
                    }
                }
            }
        }
        b't' => {
            expect_word(b, pos, "true")?;
            Ok(JVal::Bool(true))
        }
        b'f' => {
            expect_word(b, pos, "false")?;
            Ok(JVal::Bool(false))
        }
        b'n' => {
            expect_word(b, pos, "null")?;
            Ok(JVal::Null)
        }
        _ => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            let mut fractional = false;
            while *pos < b.len() {
                match b[*pos] {
                    b'0'..=b'9' => *pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        fractional = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let tok = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| CorpusError("bad number".into()))?;
            if tok.is_empty() || tok == "-" {
                return err(format!("expected a value at byte {start}"));
            }
            if fractional {
                tok.parse::<f64>()
                    .map(JVal::Num)
                    .map_err(|_| CorpusError(format!("bad number `{tok}`")))
            } else if let Some(stripped) = tok.strip_prefix('-') {
                stripped
                    .parse::<i64>()
                    .map(|x| JVal::Int(-x))
                    .map_err(|_| CorpusError(format!("bad number `{tok}`")))
            } else {
                tok.parse::<u64>()
                    .map(JVal::UInt)
                    .map_err(|_| CorpusError(format!("bad number `{tok}`")))
            }
        }
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &str) -> Res<()> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn obj(fields: Vec<(&str, JVal)>) -> JVal {
    JVal::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn loss_to_json(loss: &LossModel) -> JVal {
    match *loss {
        LossModel::None => obj(vec![("kind", JVal::Str("none".into()))]),
        LossModel::Independent { p } => obj(vec![
            ("kind", JVal::Str("independent".into())),
            ("p", JVal::Num(p)),
        ]),
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
        } => obj(vec![
            ("kind", JVal::Str("gilbert_elliott".into())),
            ("p_good_to_bad", JVal::Num(p_good_to_bad)),
            ("p_bad_to_good", JVal::Num(p_bad_to_good)),
            ("loss_good", JVal::Num(loss_good)),
            ("loss_bad", JVal::Num(loss_bad)),
        ]),
    }
}

fn loss_from_json(v: &JVal) -> Res<LossModel> {
    match v.want("kind")?.as_str()? {
        "none" => Ok(LossModel::None),
        "independent" => Ok(LossModel::Independent {
            p: v.want("p")?.as_f64()?,
        }),
        "gilbert_elliott" => Ok(LossModel::GilbertElliott {
            p_good_to_bad: v.want("p_good_to_bad")?.as_f64()?,
            p_bad_to_good: v.want("p_bad_to_good")?.as_f64()?,
            loss_good: v.want("loss_good")?.as_f64()?,
            loss_bad: v.want("loss_bad")?.as_f64()?,
        }),
        other => err(format!("unknown loss kind `{other}`")),
    }
}

fn model_to_json(m: &LinkFaultModel) -> JVal {
    obj(vec![
        ("loss", loss_to_json(&m.loss)),
        ("corrupt_per_cell", JVal::Num(m.corrupt_per_cell)),
        ("jitter_slots", JVal::UInt(m.jitter_slots)),
    ])
}

fn model_from_json(v: &JVal) -> Res<LinkFaultModel> {
    Ok(LinkFaultModel {
        loss: loss_from_json(v.want("loss")?)?,
        corrupt_per_cell: v.want("corrupt_per_cell")?.as_f64()?,
        jitter_slots: v.want("jitter_slots")?.as_u64()?,
    })
}

fn topology_to_json(t: &TopologyKind) -> JVal {
    match *t {
        TopologyKind::SrcInstallation { switches, hosts } => obj(vec![
            ("kind", JVal::Str("src_installation".into())),
            ("switches", JVal::UInt(switches as u64)),
            ("hosts", JVal::UInt(hosts as u64)),
        ]),
        TopologyKind::Ring { switches, hosts } => obj(vec![
            ("kind", JVal::Str("ring".into())),
            ("switches", JVal::UInt(switches as u64)),
            ("hosts", JVal::UInt(hosts as u64)),
        ]),
    }
}

fn topology_from_json(v: &JVal) -> Res<TopologyKind> {
    let switches = v.want("switches")?.as_u64()? as u16;
    let hosts = v.want("hosts")?.as_u64()? as u16;
    match v.want("kind")?.as_str()? {
        "src_installation" => Ok(TopologyKind::SrcInstallation { switches, hosts }),
        "ring" => Ok(TopologyKind::Ring { switches, hosts }),
        other => err(format!("unknown topology kind `{other}`")),
    }
}

/// Serializes a schedule (plus informational violation strings) to the
/// corpus JSON shape.
pub fn schedule_to_json(s: &Schedule, violations: &[String]) -> JVal {
    let f = &s.fault;
    let m = &f.monitor;
    obj(vec![
        ("name", JVal::Str(s.name.clone())),
        ("seed", JVal::UInt(s.seed)),
        ("topology", topology_to_json(&s.topology)),
        ("circuits", JVal::UInt(s.circuits as u64)),
        ("packet_bytes", JVal::UInt(s.packet_bytes as u64)),
        ("send_every", JVal::UInt(s.send_every)),
        ("run_slots", JVal::UInt(s.run_slots)),
        ("drain_slots", JVal::UInt(s.drain_slots)),
        ("delivery_floor", JVal::Num(s.delivery_floor)),
        (
            "fault",
            obj(vec![
                ("default_link", model_to_json(&f.default_link)),
                (
                    "per_link",
                    JVal::Arr(
                        f.per_link
                            .iter()
                            .map(|(l, m)| JVal::Arr(vec![JVal::UInt(l.0 as u64), model_to_json(m)]))
                            .collect(),
                    ),
                ),
                (
                    "flaps",
                    JVal::Arr(
                        f.flaps
                            .iter()
                            .map(|fl| {
                                obj(vec![
                                    ("link", JVal::UInt(fl.link.0 as u64)),
                                    ("down_at", JVal::UInt(fl.down_at)),
                                    ("up_at", JVal::UInt(fl.up_at)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "crashes",
                    JVal::Arr(
                        f.crashes
                            .iter()
                            .map(|c| {
                                obj(vec![
                                    ("switch", JVal::UInt(c.switch.0 as u64)),
                                    ("at", JVal::UInt(c.at)),
                                    ("restart_at", JVal::UInt(c.restart_at)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("resync_interval_slots", JVal::UInt(f.resync_interval_slots)),
                (
                    "monitor",
                    obj(vec![
                        ("ping_interval_ns", JVal::UInt(m.ping_interval.as_nanos())),
                        ("fail_threshold", JVal::UInt(m.fail_threshold as u64)),
                        ("recover_threshold", JVal::UInt(m.recover_threshold as u64)),
                        (
                            "skeptic",
                            obj(vec![
                                ("base_wait_ns", JVal::UInt(m.skeptic.base_wait.as_nanos())),
                                ("max_level", JVal::UInt(m.skeptic.max_level as u64)),
                                (
                                    "decay_after_ns",
                                    JVal::UInt(m.skeptic.decay_after.as_nanos()),
                                ),
                            ]),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "violations",
            JVal::Arr(violations.iter().map(|v| JVal::Str(v.clone())).collect()),
        ),
    ])
}

/// Deserializes a corpus JSON document back into a schedule. The
/// `violations` field is informational and ignored.
pub fn schedule_from_json(v: &JVal) -> Res<Schedule> {
    let f = v.want("fault")?;
    let m = f.want("monitor")?;
    let sk = m.want("skeptic")?;
    let fault = FaultSpec {
        default_link: model_from_json(f.want("default_link")?)?,
        per_link: f
            .want("per_link")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return err("per_link entry must be [link, model]");
                }
                Ok((LinkId(pair[0].as_u32()?), model_from_json(&pair[1])?))
            })
            .collect::<Res<Vec<_>>>()?,
        flaps: f
            .want("flaps")?
            .as_arr()?
            .iter()
            .map(|fl| {
                Ok(FlapEvent {
                    link: LinkId(fl.want("link")?.as_u32()?),
                    down_at: fl.want("down_at")?.as_u64()?,
                    up_at: fl.want("up_at")?.as_u64()?,
                })
            })
            .collect::<Res<Vec<_>>>()?,
        crashes: f
            .want("crashes")?
            .as_arr()?
            .iter()
            .map(|c| {
                Ok(CrashEvent {
                    switch: SwitchId(c.want("switch")?.as_u64()? as u16),
                    at: c.want("at")?.as_u64()?,
                    restart_at: c.want("restart_at")?.as_u64()?,
                })
            })
            .collect::<Res<Vec<_>>>()?,
        resync_interval_slots: f.want("resync_interval_slots")?.as_u64()?,
        monitor: MonitorConfig {
            ping_interval: SimDuration::from_nanos(m.want("ping_interval_ns")?.as_u64()?),
            fail_threshold: m.want("fail_threshold")?.as_u32()?,
            recover_threshold: m.want("recover_threshold")?.as_u32()?,
            skeptic: SkepticConfig {
                base_wait: SimDuration::from_nanos(sk.want("base_wait_ns")?.as_u64()?),
                max_level: sk.want("max_level")?.as_u32()?,
                decay_after: SimDuration::from_nanos(sk.want("decay_after_ns")?.as_u64()?),
            },
        },
    };
    Ok(Schedule {
        name: v.want("name")?.as_str()?.to_string(),
        seed: v.want("seed")?.as_u64()?,
        topology: topology_from_json(v.want("topology")?)?,
        circuits: v.want("circuits")?.as_u32()?,
        packet_bytes: v.want("packet_bytes")?.as_u64()? as usize,
        send_every: v.want("send_every")?.as_u64()?,
        run_slots: v.want("run_slots")?.as_u64()?,
        drain_slots: v.want("drain_slots")?.as_u64()?,
        delivery_floor: v.want("delivery_floor")?.as_f64()?,
        fault,
    })
}

/// Writes `schedule` (plus its violations) into `dir` as
/// `<name>-seed<seed>.json`. Returns the file path.
pub fn save_repro(dir: &Path, schedule: &Schedule, violations: &[String]) -> Res<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", schedule.name, schedule.seed));
    fs::write(&path, schedule_to_json(schedule, violations).render())?;
    Ok(path)
}

/// Loads one corpus file.
pub fn load_repro(path: &Path) -> Res<Schedule> {
    let text =
        fs::read_to_string(path).map_err(|e| CorpusError(format!("{}: {e}", path.display())))?;
    let v = JVal::parse(&text).map_err(|e| CorpusError(format!("{}: {e}", path.display())))?;
    schedule_from_json(&v).map_err(|e| CorpusError(format!("{}: {e}", path.display())))
}

/// Loads every `.json` schedule in `dir`, sorted by file name. An empty or
/// missing directory yields an empty corpus.
pub fn load_dir(dir: &Path) -> Res<Vec<(PathBuf, Schedule)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(out),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for p in paths {
        let s = load_repro(&p)?;
        out.push((p, s));
    }
    Ok(out)
}

/// Replays a schedule twice and returns both reports — the second run
/// must be byte-identical to the first (the campaign replay contract).
pub fn replay_twice(s: &Schedule) -> (RunReport, RunReport) {
    (run_schedule(s), run_schedule(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::{CampaignSpec, Scenario};

    #[test]
    fn json_value_round_trips() {
        let text =
            r#"{"a": [1, -2, 3.5, "x\ny"], "b": {"c": true, "d": null}, "big": 1099511627776}"#;
        let v = JVal::parse(text).unwrap();
        let rendered = v.render();
        let v2 = JVal::parse(&rendered).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.get("big").unwrap().as_u64().unwrap(), 1 << 40);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let v = JVal::Arr(vec![JVal::Num(f64::NAN), JVal::Num(f64::INFINITY)]);
        let back = JVal::parse(&v.render()).unwrap();
        assert_eq!(back, JVal::Arr(vec![JVal::Null, JVal::Null]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JVal::parse("{").is_err());
        assert!(JVal::parse("[1, 2").is_err());
        assert!(JVal::parse("{\"a\": }").is_err());
        assert!(JVal::parse("nulle").is_err());
        assert!(JVal::parse("").is_err());
    }

    #[test]
    fn schedule_round_trips_through_json() {
        for scenario in [
            Scenario::FlapStorm {
                links: 2,
                flaps_per_link: 3,
            },
            Scenario::MidReconfigCrash {
                flaps: 1,
                crashes: 1,
            },
            Scenario::ChurnLoss {
                flapping_links: 2,
                flaps_per_link: 2,
            },
        ] {
            let spec = CampaignSpec::defaults("roundtrip", scenario);
            let s = generate(&spec, 11);
            let json = schedule_to_json(&s, &["example violation".into()]);
            let back = schedule_from_json(&JVal::parse(&json.render()).unwrap()).unwrap();
            assert_eq!(back.name, s.name);
            assert_eq!(back.seed, s.seed);
            assert_eq!(back.fault.flaps, s.fault.flaps);
            assert_eq!(back.fault.crashes, s.fault.crashes);
            assert_eq!(back.fault.default_link, s.fault.default_link);
            assert_eq!(back.run_slots, s.run_slots);
            assert_eq!(back.drain_slots, s.drain_slots);
            assert_eq!(
                back.fault.monitor.skeptic.base_wait,
                s.fault.monitor.skeptic.base_wait
            );
        }
    }

    #[test]
    fn save_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("an2_chaos_corpus_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = CampaignSpec::defaults(
            "fsq",
            Scenario::FlapStorm {
                links: 1,
                flaps_per_link: 2,
            },
        );
        let a = generate(&spec, 1);
        let b = generate(&spec, 2);
        save_repro(&dir, &a, &[]).unwrap();
        save_repro(&dir, &b, &["boom".into()]).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1.seed, 1);
        assert_eq!(loaded[1].1.seed, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
