//! The repro corpus: minimal failing schedules persisted as plain,
//! reviewable JSON and replayed as regression tests.
//!
//! This module is the schedule codec and the file I/O; the JSON itself —
//! value type, parser, pretty printer — is [`an2_sim::json`]. Corpus files
//! hold the full [`Schedule`] plus an informational `violations` array
//! (ignored on load); replaying a file re-runs the oracle from scratch, so
//! corpus checks stay valid as the implementation evolves.

use crate::gen::Schedule;
use crate::oracle::{run_schedule, RunReport};
use crate::spec::TopologyKind;
use an2_faults::{CrashEvent, FaultSpec, FlapEvent, LinkFaultModel, LossModel};
use an2_reconfig::monitor::MonitorConfig;
use an2_reconfig::skeptic::SkepticConfig;
use an2_sim::json::{obj, JVal, JsonError};
use an2_sim::SimDuration;
use an2_topology::{LinkId, SwitchId};
use std::fs;
use std::path::{Path, PathBuf};

type Res<T> = Result<T, JsonError>;

fn err<T>(msg: impl Into<String>) -> Res<T> {
    Err(JsonError(msg.into()))
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
        fs::read_to_string(path).map_err(|e| JsonError(format!("{}: {e}", path.display())))?;
    let v = JVal::parse(&text).map_err(|e| JsonError(format!("{}: {e}", path.display())))?;
    schedule_from_json(&v).map_err(|e| JsonError(format!("{}: {e}", path.display())))
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
