//! The runtime fault injector.
//!
//! One [`FaultInjector`] is built per run from `(spec, seed)`. Every link
//! gets its own RNG stream (forked from the seed in link-id order), so the
//! fate of a transmission depends only on the spec, the seed, and the
//! deterministic order of transmissions on that link — never on traffic
//! elsewhere. Gilbert–Elliott chains are keyed to *time* rather than
//! traffic, so a burst hits whatever happens to be in flight: each takes one
//! draw from its link's stream per slot — one at a time in
//! [`FaultInjector::begin_slot`], or `n` at a time in
//! [`FaultInjector::advance_idle`] over a stretch the fabric has proven
//! quiet. Everything else the injector does per slot is a deadline known in
//! advance ([`FaultInjector::next_transition`]); every other draw is per
//! transmission.

use crate::spec::{FaultSpec, LinkFaultModel, LossModel};
use crate::{CELL_BITS, HEADER_BITS};
use an2_sim::SimRng;
use an2_topology::{LinkId, SwitchId};
use an2_trace::{Entity, FaultOutcome, TraceEvent, Tracer};

/// What happens to one cell transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact, arriving at `due` (base latency plus any jitter,
    /// clamped so the link stays FIFO per direction).
    Deliver {
        /// Arrival slot.
        due: u64,
    },
    /// Lost on the wire.
    Lose,
    /// Delivered with wire bit `bit` flipped. Bits below
    /// [`HEADER_BITS`](crate::HEADER_BITS) are header hits: the HEC check
    /// discards the cell at the receiving port (equivalent to a loss, but
    /// counted as corruption). Payload hits are delivered and must be
    /// caught end-to-end by the reassembler.
    Corrupt {
        /// Which of the 424 wire bits flipped.
        bit: u16,
        /// Arrival slot.
        due: u64,
    },
}

impl Fate {
    /// True when the cell reaches the far end (possibly corrupted in the
    /// payload). Header corruption does not arrive: the port drops it.
    pub fn arrives(&self) -> bool {
        match *self {
            Fate::Deliver { .. } => true,
            Fate::Lose => false,
            Fate::Corrupt { bit, .. } => bit >= HEADER_BITS,
        }
    }
}

/// Scheduled state changes taking effect at the start of a slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotFaults {
    /// Switches crashing this slot (buffered cells are lost).
    pub crashes: Vec<SwitchId>,
    /// Switches restarting this slot.
    pub restarts: Vec<SwitchId>,
    /// Links going physically down this slot.
    pub flaps_down: Vec<LinkId>,
    /// Links coming back up this slot.
    pub flaps_up: Vec<LinkId>,
}

impl SlotFaults {
    /// True when nothing happens this slot.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.restarts.is_empty()
            && self.flaps_down.is_empty()
            && self.flaps_up.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TransitionKind {
    // Order matters: downs/crashes apply before ups/restarts in a slot, so
    // a zero-length flap still pulses the link.
    FlapDown(LinkId),
    Crash(SwitchId),
    FlapUp(LinkId),
    Restart(SwitchId),
}

#[derive(Debug, Clone)]
struct LinkRt {
    model: LinkFaultModel,
    rng: SimRng,
    up: bool,
    /// Gilbert–Elliott chain state: currently in the bad (bursty) state?
    ge_bad: bool,
    /// Latest delivery slot handed out per direction — the FIFO clamp that
    /// keeps jittered links order-preserving.
    last_due: [u64; 2],
}

/// A Gilbert–Elliott link's transition probabilities as integer thresholds
/// on the 53 random bits [`SimRng::gen_f64`] is made of (see
/// [`f64_threshold`]).
#[derive(Debug, Clone, Copy)]
struct GeChain {
    link: usize,
    good_to_bad: u64,
    bad_to_good: u64,
}

/// The `t` with `(k as f64) * 2⁻⁵³ < p ⇔ k < t` for every `k < 2⁵³`: the
/// predicate `gen_f64() < p` asked of the bits `k = next_u64() >> 11`
/// themselves. Exact because `k * 2⁻⁵³` and `p * 2⁵³` are both exact in
/// `f64` (scaling by a power of two). A NaN or non-positive `p` never hits.
fn f64_threshold(p: f64) -> u64 {
    // The cast saturates: negatives and NaN to 0, `p >= 1` caps at 2⁵³.
    ((p * (1u64 << 53) as f64).ceil() as u64).min(1 << 53)
}

/// Per-run fault state: link RNG streams, Gilbert–Elliott chains, physical
/// link up/down and switch crashed/alive status, and the sorted transition
/// script derived from the spec's flap and crash events.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    links: Vec<LinkRt>,
    /// The links whose loss model is Gilbert–Elliott, in link order: the
    /// only ones with per-slot work.
    chains: Vec<GeChain>,
    crashed: Vec<bool>,
    script: Vec<(u64, TransitionKind)>,
    cursor: usize,
    /// Flight-recorder handle, Option-gated. Emission happens after each
    /// fate is decided, so the RNG streams are untouched by tracing.
    tracer: Option<Tracer>,
}

impl FaultInjector {
    /// Builds the injector for a run. `link_count` and `switch_count` come
    /// from the topology; per-link RNG streams are forked from `seed` in
    /// link-id order so the construction is deterministic.
    pub fn new(spec: &FaultSpec, seed: u64, link_count: usize, switch_count: usize) -> Self {
        let mut root = SimRng::new(seed);
        let links: Vec<LinkRt> = (0..link_count)
            .map(|i| LinkRt {
                model: spec.model_for(LinkId(i as u32)),
                rng: root.fork(i as u64),
                up: true,
                ge_bad: false,
                last_due: [0, 0],
            })
            .collect();
        let chains = links
            .iter()
            .enumerate()
            .filter_map(|(link, l)| match l.model.loss {
                LossModel::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    ..
                } => Some(GeChain {
                    link,
                    good_to_bad: f64_threshold(p_good_to_bad),
                    bad_to_good: f64_threshold(p_bad_to_good),
                }),
                _ => None,
            })
            .collect();
        let mut script: Vec<(u64, TransitionKind)> = Vec::new();
        for f in &spec.flaps {
            script.push((f.down_at, TransitionKind::FlapDown(f.link)));
            script.push((f.up_at, TransitionKind::FlapUp(f.link)));
        }
        for c in &spec.crashes {
            script.push((c.at, TransitionKind::Crash(c.switch)));
            script.push((c.restart_at, TransitionKind::Restart(c.switch)));
        }
        script.sort_unstable();
        FaultInjector {
            links,
            chains,
            crashed: vec![false; switch_count],
            script,
            cursor: 0,
            tracer: None,
        }
    }

    /// Attaches a flight recorder. Per-link fate counters
    /// (`faults.deliver` / `faults.corrupt` / `faults.lose`) track every
    /// draw; [`TraceEvent::FaultDraw`] records are emitted only for
    /// corrupted or lost cells, so a healthy run does not flood the ring.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Advances every Gilbert–Elliott chain by `n` slots in which no
    /// scripted transition falls: exactly `n` draws from each chain-bearing
    /// link's own stream, no other link touched. Streams are per link, so
    /// this leaves the injector in the state `n` calls of
    /// [`FaultInjector::begin_slot`] that found no transition would —
    /// which lets the fabric jump a quiet stretch in one call.
    pub fn advance_idle(&mut self, n: u64) {
        for c in &self.chains {
            let l = &mut self.links[c.link];
            // Locals, so the loop runs in registers: this is what is left
            // of an idle chaos run (a draw per link per skipped slot).
            let (mut rng, mut bad) = (l.rng.clone(), l.ge_bad);
            for _ in 0..n {
                let k = rng.next_u64() >> 11;
                bad = if bad {
                    k >= c.bad_to_good
                } else {
                    k < c.good_to_bad
                };
            }
            l.rng = rng;
            l.ge_bad = bad;
        }
    }

    /// The slot of the next scripted flap or crash transition not yet
    /// applied, `None` past the last. An entry [`FaultInjector::begin_slot`]
    /// has not been called late enough to apply is due at `now`.
    pub fn next_transition(&self, now: u64) -> Option<u64> {
        self.script.get(self.cursor).map(|&(at, _)| at.max(now))
    }

    /// Advances per-slot state: Gilbert–Elliott chains step once per link
    /// (keyed to time, not traffic), then any flap/crash transitions due at
    /// `slot` are applied and returned for the fabric to act on.
    pub fn begin_slot(&mut self, slot: u64) -> SlotFaults {
        self.advance_idle(1);
        let mut out = SlotFaults::default();
        while self.cursor < self.script.len() && self.script[self.cursor].0 <= slot {
            let (_, kind) = self.script[self.cursor];
            self.cursor += 1;
            match kind {
                TransitionKind::FlapDown(l) => {
                    self.links[l.0 as usize].up = false;
                    if let Some(t) = &self.tracer {
                        t.gauge_set("faults.link_up", Entity::Link(l.0), 0);
                    }
                    out.flaps_down.push(l);
                }
                TransitionKind::FlapUp(l) => {
                    self.links[l.0 as usize].up = true;
                    if let Some(t) = &self.tracer {
                        t.gauge_set("faults.link_up", Entity::Link(l.0), 1);
                    }
                    out.flaps_up.push(l);
                }
                TransitionKind::Crash(s) => {
                    self.crashed[s.0 as usize] = true;
                    out.crashes.push(s);
                }
                TransitionKind::Restart(s) => {
                    self.crashed[s.0 as usize] = false;
                    out.restarts.push(s);
                }
            }
        }
        out
    }

    /// Whether the switch is currently crashed.
    pub fn crashed(&self, switch: SwitchId) -> bool {
        self.crashed[switch.0 as usize]
    }

    fn loss_draw(l: &mut LinkRt) -> bool {
        let p = match l.model.loss {
            LossModel::None => return false,
            LossModel::Independent { p } => p,
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => {
                if l.ge_bad {
                    loss_bad
                } else {
                    loss_good
                }
            }
        };
        p > 0.0 && l.rng.gen_f64() < p
    }

    /// Decides the fate of one *cell* transmission on `link` in direction
    /// `dir` (0 or 1, by receiving endpoint), which would normally arrive
    /// at `base_due`. Applies loss, corruption and jitter in that order,
    /// then the per-direction FIFO clamp.
    pub fn transmit_cell(&mut self, link: LinkId, dir: usize, base_due: u64) -> Fate {
        let fate = self.decide_cell_fate(link, dir, base_due);
        if let Some(t) = &self.tracer {
            let (outcome, name) = match fate {
                Fate::Deliver { .. } => (FaultOutcome::Deliver, "faults.deliver"),
                Fate::Corrupt { .. } => (FaultOutcome::Corrupt, "faults.corrupt"),
                Fate::Lose => (FaultOutcome::Lose, "faults.lose"),
            };
            t.counter_add(name, Entity::Link(link.0), 1);
            if outcome != FaultOutcome::Deliver {
                t.emit(TraceEvent::FaultDraw {
                    link: link.0,
                    outcome,
                });
            }
        }
        fate
    }

    /// The fate decision itself — all RNG draws happen here, before any
    /// trace emission, so tracing cannot perturb the stream.
    fn decide_cell_fate(&mut self, link: LinkId, dir: usize, base_due: u64) -> Fate {
        let l = &mut self.links[link.0 as usize];
        if !l.up {
            return Fate::Lose;
        }
        if Self::loss_draw(l) {
            return Fate::Lose;
        }
        let corrupt_bit =
            if l.model.corrupt_per_cell > 0.0 && l.rng.gen_f64() < l.model.corrupt_per_cell {
                Some(l.rng.gen_range(CELL_BITS as usize) as u16)
            } else {
                None
            };
        let mut due = base_due;
        if l.model.jitter_slots > 0 {
            due += l.rng.gen_range(l.model.jitter_slots as usize + 1) as u64;
        }
        let due = due.max(l.last_due[dir]);
        l.last_due[dir] = due;
        match corrupt_bit {
            Some(bit) => Fate::Corrupt { bit, due },
            None => Fate::Deliver { due },
        }
    }

    /// Decides whether one *control* transmission (credit, resync marker or
    /// reply) survives the link. Control messages ride tiny cells: they see
    /// the same loss process but no payload corruption or jitter.
    pub fn transmit_ctrl(&mut self, link: LinkId) -> bool {
        let l = &mut self.links[link.0 as usize];
        l.up && !Self::loss_draw(l)
    }

    /// Decides whether a *burst* of `cells` control cells all survive the
    /// link — the transmission unit of a segmented reconfiguration protocol
    /// message, which is lost wholesale if any segment is. All `cells` draws
    /// are always taken, keeping the link's loss stream deterministic
    /// regardless of where (or whether) the burst fails.
    pub fn transmit_ctrl_burst(&mut self, link: LinkId, cells: u32) -> bool {
        let l = &mut self.links[link.0 as usize];
        let mut lost = false;
        for _ in 0..cells {
            lost |= Self::loss_draw(l);
        }
        l.up && !lost
    }

    /// Outcome of one monitor ping over `link`: the request and the ack
    /// each traverse the link once, so both must survive. Both draws are
    /// always taken, keeping the stream's draw count independent of the
    /// first outcome.
    pub fn ping(&mut self, link: LinkId) -> bool {
        let l = &mut self.links[link.0 as usize];
        let lost_req = Self::loss_draw(l);
        let lost_ack = Self::loss_draw(l);
        l.up && !lost_req && !lost_ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CrashEvent, FlapEvent};

    fn spec_with(default_link: LinkFaultModel) -> FaultSpec {
        FaultSpec {
            default_link,
            ..Default::default()
        }
    }

    #[test]
    fn ctrl_burst_wholesale_and_draw_count_fixed() {
        // Inert link: any burst survives.
        let mut inert = FaultInjector::new(&FaultSpec::default(), 3, 2, 1);
        assert!(inert.transmit_ctrl_burst(LinkId(0), 7));
        // Total loss: even a one-cell burst dies.
        let spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 1.0 },
            ..Default::default()
        });
        let mut inj = FaultInjector::new(&spec, 3, 2, 1);
        assert!(!inj.transmit_ctrl_burst(LinkId(0), 1));
        // Draw-count determinism: a k-cell burst advances the link's loss
        // stream exactly as k single ctrl sends do.
        let spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 0.5 },
            ..Default::default()
        });
        let mut a = FaultInjector::new(&spec, 9, 1, 1);
        let mut b = FaultInjector::new(&spec, 9, 1, 1);
        a.transmit_ctrl_burst(LinkId(0), 5);
        for _ in 0..5 {
            b.transmit_ctrl(LinkId(0));
        }
        let fa: Vec<bool> = (0..64).map(|_| a.transmit_ctrl(LinkId(0))).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.transmit_ctrl(LinkId(0))).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn inert_spec_delivers_everything_on_time() {
        let mut inj = FaultInjector::new(&FaultSpec::default(), 7, 4, 2);
        for slot in 0..100 {
            assert!(inj.begin_slot(slot).is_empty());
            for link in 0..4u32 {
                assert_eq!(
                    inj.transmit_cell(LinkId(link), (slot % 2) as usize, slot + 2),
                    Fate::Deliver { due: slot + 2 }
                );
                assert!(inj.transmit_ctrl(LinkId(link)));
                assert!(inj.ping(LinkId(link)));
            }
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let spec = FaultSpec {
            default_link: LinkFaultModel {
                loss: LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.2,
                    loss_good: 0.001,
                    loss_bad: 0.5,
                },
                corrupt_per_cell: 0.01,
                jitter_slots: 3,
            },
            ..Default::default()
        };
        let mut a = FaultInjector::new(&spec, 42, 3, 2);
        let mut b = FaultInjector::new(&spec, 42, 3, 2);
        for slot in 0..2_000 {
            assert_eq!(a.begin_slot(slot), b.begin_slot(slot));
            for link in 0..3u32 {
                assert_eq!(
                    a.transmit_cell(LinkId(link), 0, slot + 2),
                    b.transmit_cell(LinkId(link), 0, slot + 2)
                );
                assert_eq!(a.ping(LinkId(link)), b.ping(LinkId(link)));
            }
        }
    }

    #[test]
    fn seeds_decorrelate_links_and_runs() {
        let spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 0.5 },
            ..Default::default()
        });
        let mut a = FaultInjector::new(&spec, 1, 2, 1);
        let mut b = FaultInjector::new(&spec, 2, 2, 1);
        let fates = |inj: &mut FaultInjector, link: u32| -> Vec<bool> {
            (0..256)
                .map(|s| inj.transmit_cell(LinkId(link), 0, s + 2).arrives())
                .collect()
        };
        let a0 = fates(&mut a, 0);
        let a1 = fates(&mut a, 1);
        let b0 = fates(&mut b, 0);
        assert_ne!(a0, a1, "links draw from independent streams");
        assert_ne!(a0, b0, "different seeds give different runs");
    }

    #[test]
    fn independent_loss_hits_at_about_p() {
        let spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 0.1 },
            ..Default::default()
        });
        let mut inj = FaultInjector::new(&spec, 11, 1, 1);
        let n = 100_000;
        let lost = (0..n)
            .filter(|&s| inj.transmit_cell(LinkId(0), 0, s + 2) == Fate::Lose)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same marginal loss rate two ways: independent vs bursty. The GE
        // chain (mean burst 1/0.05 = 20 slots) must produce far fewer but
        // longer loss runs than the independent process.
        let marginal = 0.0026 / (0.0026 + 0.05); // stationary bad * loss_bad
        let ge = spec_with(LinkFaultModel {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.0026,
                p_bad_to_good: 0.05,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..Default::default()
        });
        let iid = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: marginal },
            ..Default::default()
        });
        let run_stats = |spec: &FaultSpec| -> (f64, usize) {
            let mut inj = FaultInjector::new(spec, 5, 1, 1);
            let n = 200_000u64;
            let mut lost = 0usize;
            let mut runs = 0usize;
            let mut in_run = false;
            for slot in 0..n {
                inj.begin_slot(slot);
                let l = inj.transmit_cell(LinkId(0), 0, slot + 2) == Fate::Lose;
                if l {
                    lost += 1;
                    if !in_run {
                        runs += 1;
                    }
                }
                in_run = l;
            }
            (lost as f64 / n as f64, runs)
        };
        let (ge_rate, ge_runs) = run_stats(&ge);
        let (iid_rate, iid_runs) = run_stats(&iid);
        assert!(
            (ge_rate - iid_rate).abs() < 0.02,
            "marginal rates comparable: {ge_rate} vs {iid_rate}"
        );
        assert!(
            ge_runs * 3 < iid_runs,
            "bursty losses clump into fewer runs: {ge_runs} vs {iid_runs}"
        );
    }

    #[test]
    fn corruption_splits_header_and_payload() {
        let spec = spec_with(LinkFaultModel {
            corrupt_per_cell: 1.0,
            ..Default::default()
        });
        let mut inj = FaultInjector::new(&spec, 3, 1, 1);
        let mut header = 0;
        let mut payload = 0;
        for slot in 0..10_000u64 {
            match inj.transmit_cell(LinkId(0), 0, slot + 2) {
                Fate::Corrupt { bit, .. } => {
                    assert!(bit < CELL_BITS);
                    if bit < HEADER_BITS {
                        header += 1;
                    } else {
                        payload += 1;
                    }
                }
                f => panic!("corrupt_per_cell = 1.0 but got {f:?}"),
            }
        }
        // 40 of 424 bits are header: expect ~9.4% header hits.
        let frac = header as f64 / (header + payload) as f64;
        assert!((frac - 40.0 / 424.0).abs() < 0.02, "header fraction {frac}");
    }

    #[test]
    fn jitter_preserves_fifo_per_direction() {
        let spec = spec_with(LinkFaultModel {
            jitter_slots: 8,
            ..Default::default()
        });
        let mut inj = FaultInjector::new(&spec, 9, 1, 1);
        let mut last = [0u64; 2];
        let mut jittered = false;
        for slot in 0..5_000u64 {
            for (dir, floor) in last.iter_mut().enumerate() {
                match inj.transmit_cell(LinkId(0), dir, slot + 2) {
                    Fate::Deliver { due } => {
                        assert!(due >= *floor, "FIFO violated in dir {dir}");
                        assert!(due >= slot + 2 && due <= slot + 2 + 8 || due == *floor);
                        if due > slot + 2 {
                            jittered = true;
                        }
                        *floor = due;
                    }
                    f => panic!("jitter-only model lost a cell: {f:?}"),
                }
            }
        }
        assert!(jittered, "jitter_slots = 8 never delayed anything");
    }

    #[test]
    fn flap_script_downs_and_revives_the_link() {
        let spec = FaultSpec {
            flaps: vec![FlapEvent {
                link: LinkId(1),
                down_at: 10,
                up_at: 20,
            }],
            ..Default::default()
        };
        let mut inj = FaultInjector::new(&spec, 1, 2, 1);
        for slot in 0..30u64 {
            let sf = inj.begin_slot(slot);
            match slot {
                10 => assert_eq!(sf.flaps_down, vec![LinkId(1)]),
                20 => assert_eq!(sf.flaps_up, vec![LinkId(1)]),
                _ => assert!(sf.is_empty()),
            }
            let up = !(10..20).contains(&slot);
            assert_eq!(inj.ping(LinkId(1)), up);
            assert_eq!(
                inj.transmit_cell(LinkId(1), 0, slot + 2).arrives(),
                up,
                "slot {slot}"
            );
            assert!(inj.ping(LinkId(0)), "other links unaffected");
        }
    }

    #[test]
    fn tracer_counts_fates_without_touching_the_rng_stream() {
        use an2_trace::{TraceConfig, Tracer};
        let spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 0.3 },
            corrupt_per_cell: 0.1,
            ..Default::default()
        });
        let mut plain = FaultInjector::new(&spec, 13, 2, 1);
        let tracer = Tracer::new(TraceConfig::default());
        let mut traced = FaultInjector::new(&spec, 13, 2, 1);
        traced.attach_tracer(tracer.clone());

        let mut fates = Vec::new();
        for slot in 0..2_000u64 {
            plain.begin_slot(slot);
            traced.begin_slot(slot);
            for link in 0..2u32 {
                let a = plain.transmit_cell(LinkId(link), 0, slot + 2);
                let b = traced.transmit_cell(LinkId(link), 0, slot + 2);
                assert_eq!(a, b, "tracing must not perturb the fault stream");
                fates.push(b);
            }
        }
        let lost = fates.iter().filter(|f| **f == Fate::Lose).count() as u64;
        let corrupt = fates
            .iter()
            .filter(|f| matches!(f, Fate::Corrupt { .. }))
            .count() as u64;
        let delivered = fates.len() as u64 - lost - corrupt;
        assert_eq!(tracer.counter_total("faults.lose"), lost);
        assert_eq!(tracer.counter_total("faults.corrupt"), corrupt);
        assert_eq!(tracer.counter_total("faults.deliver"), delivered);
        // Only non-deliver fates hit the ring.
        assert_eq!(tracer.events_seen(), lost + corrupt);
    }

    /// Gilbert–Elliott on link 0, independent loss on link 1 (the default),
    /// lossless link 2 — each with corruption or jitter so every kind of
    /// transmission draw is live.
    fn mixed_spec() -> FaultSpec {
        let mut spec = spec_with(LinkFaultModel {
            loss: LossModel::Independent { p: 0.3 },
            corrupt_per_cell: 0.1,
            jitter_slots: 2,
        });
        spec.per_link.push((
            LinkId(0),
            LinkFaultModel {
                loss: LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.2,
                    loss_good: 0.01,
                    loss_bad: 0.6,
                },
                corrupt_per_cell: 0.05,
                jitter_slots: 3,
            },
        ));
        spec.per_link.push((
            LinkId(2),
            LinkFaultModel {
                jitter_slots: 4,
                ..Default::default()
            },
        ));
        spec
    }

    /// The next 64 outcomes of every kind on every link: equal between two
    /// injectors iff their link streams, chain states and FIFO clamps are.
    fn outcomes(inj: &mut FaultInjector, links: u32) -> Vec<(Fate, bool, bool)> {
        (0..64u64)
            .flat_map(|k| (0..links).map(move |l| (k, LinkId(l))))
            .map(|(k, l)| {
                (
                    inj.transmit_cell(l, (k & 1) as usize, k + 2),
                    inj.transmit_ctrl(l),
                    inj.ping(l),
                )
            })
            .collect()
    }

    #[test]
    fn idle_advance_equals_that_many_begin_slots() {
        let spec = mixed_spec();
        for n in [0u64, 1, 2, 63, 1_000] {
            let mut stepped = FaultInjector::new(&spec, 21, 3, 1);
            let mut jumped = FaultInjector::new(&spec, 21, 3, 1);
            // Some history first, so the chain is not at its initial state.
            for slot in 0..50 {
                stepped.begin_slot(slot);
                jumped.begin_slot(slot);
            }
            for slot in 50..50 + n {
                assert!(stepped.begin_slot(slot).is_empty());
            }
            jumped.advance_idle(n);
            let bad =
                |inj: &FaultInjector| -> Vec<bool> { inj.links.iter().map(|l| l.ge_bad).collect() };
            assert_eq!(bad(&stepped), bad(&jumped), "chain states after {n}");
            // Untouched links drew nothing; the chain link drew exactly n.
            assert_eq!(
                outcomes(&mut stepped, 3),
                outcomes(&mut jumped, 3),
                "outcomes after {n}"
            );
        }
        // n = 0 is the identity, against an injector that did nothing.
        let mut idle = FaultInjector::new(&spec, 21, 3, 1);
        let mut fresh = FaultInjector::new(&spec, 21, 3, 1);
        idle.advance_idle(0);
        assert_eq!(outcomes(&mut idle, 3), outcomes(&mut fresh, 3));
    }

    #[test]
    fn chain_walks_only_gilbert_elliott_links() {
        assert!(FaultInjector::new(&FaultSpec::default(), 1, 5, 1)
            .chains
            .is_empty());
        let inj = FaultInjector::new(&mixed_spec(), 1, 3, 1);
        assert_eq!(
            inj.chains.iter().map(|c| c.link).collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn integer_threshold_is_the_float_predicate() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let top = (1u64 << 53) - 1;
        for p in [
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            2.0f64.powi(-53),
            1.5 * 2.0f64.powi(-53),
            0.0026,
            0.05,
            0.2,
            0.5,
            1.0 - 2.0f64.powi(-53),
            1.0,
            7.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            let t = f64_threshold(p);
            // Either side of the threshold, and the ends of the range.
            for k in [0, 1, t.saturating_sub(1), t, t + 1, top - 1, top] {
                let k = k.min(top);
                assert_eq!(k as f64 * scale < p, k < t, "p = {p:e}, k = {k}");
            }
        }
    }

    #[test]
    fn next_transition_walks_the_script_in_order() {
        let spec = FaultSpec {
            flaps: vec![FlapEvent {
                link: LinkId(0),
                down_at: 10,
                up_at: 30,
            }],
            crashes: vec![CrashEvent {
                switch: SwitchId(0),
                at: 20,
                restart_at: 25,
            }],
            ..Default::default()
        };
        let mut inj = FaultInjector::new(&spec, 1, 1, 1);
        assert_eq!(inj.next_transition(0), Some(10));
        // Nothing applied yet: an overdue entry is due now.
        assert_eq!(inj.next_transition(17), Some(17));
        let mut seen = Vec::new();
        let mut slot = 0;
        while let Some(at) = inj.next_transition(slot) {
            // Idle slots up to the transition, then the slot that runs it.
            inj.advance_idle(at - slot);
            assert!(!inj.begin_slot(at).is_empty(), "slot {at} applies one");
            seen.push(at);
            slot = at + 1;
        }
        assert_eq!(seen, vec![10, 20, 25, 30]);
        assert_eq!(inj.next_transition(slot), None);
        assert!(inj.ping(LinkId(0)) && !inj.crashed(SwitchId(0)));
        assert_eq!(
            FaultInjector::new(&FaultSpec::default(), 1, 1, 1).next_transition(0),
            None
        );
    }

    #[test]
    fn crash_script_marks_switch_dead_until_restart() {
        let spec = FaultSpec {
            crashes: vec![CrashEvent {
                switch: SwitchId(1),
                at: 5,
                restart_at: 9,
            }],
            ..Default::default()
        };
        let mut inj = FaultInjector::new(&spec, 1, 1, 3);
        for slot in 0..15u64 {
            let sf = inj.begin_slot(slot);
            match slot {
                5 => assert_eq!(sf.crashes, vec![SwitchId(1)]),
                9 => assert_eq!(sf.restarts, vec![SwitchId(1)]),
                _ => assert!(sf.is_empty()),
            }
            assert_eq!(inj.crashed(SwitchId(1)), (5..9).contains(&slot));
            assert!(!inj.crashed(SwitchId(0)));
            assert!(!inj.crashed(SwitchId(2)));
        }
    }
}
