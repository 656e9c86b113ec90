//! A switch's behaviour does not depend on ports it never sees.
//!
//! A fabric builds each switch as wide as the topology cables it rather
//! than at the 16 line cards an AN2 chassis can hold. That is only sound if
//! port count is invisible to traffic that stays below it: the crossbar
//! schedules the cards that are plugged in. Here a `w`-port switch and a
//! 16-port switch get the same seed and the same random history confined to
//! ports `0..w` — best-effort and guaranteed circuits, credit gates that
//! starve, control-cell claims on outputs, routes installed after their
//! first cells arrived, routes torn down mid-run and re-installed — and
//! must agree on every departure of every slot, on backlog, watermark and
//! credit balances, and on the next value their RNGs draw (PIM consumed the
//! same stream, so the next slot would agree too). Widths are walked
//! narrowest first, each under 64 seeds.

use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, VcId};
use an2_sim::SimRng;
use an2_switch::{Switch, SwitchConfig};

const SLOTS: u64 = 2_000;
const FRAME: u32 = 16;

/// One circuit of the random history.
struct Circuit {
    vc: VcId,
    input: usize,
    output: usize,
    class: TrafficClass,
    /// Credit-gated with this many buffers downstream (best-effort only).
    gate: Option<u32>,
    /// The slot its route is (re-)installed; cells arriving earlier wait in
    /// the pending buffer.
    install_at: u64,
    routed: bool,
}

/// Runs `op` on both switches and asserts they answer alike.
fn both<T: PartialEq + std::fmt::Debug>(
    pair: &mut (Switch, Switch),
    at: &str,
    what: &str,
    mut op: impl FnMut(&mut Switch) -> T,
) -> T {
    let (a, b) = (op(&mut pair.0), op(&mut pair.1));
    assert_eq!(a, b, "{at}: {what}");
    a
}

fn agree(w: usize, seed: u64) {
    let build = |ports| {
        Switch::new(SwitchConfig {
            ports,
            frame_slots: FRAME,
        })
    };
    let at = format!("width {w}, seed {seed}");
    let mut pair = (build(w), build(16));
    let (mut rng_narrow, mut rng_wide) = (SimRng::new(seed), SimRng::new(seed));
    let mut wl = SimRng::new(seed ^ 0x5eed_cafe);

    let mut circuits: Vec<Circuit> = (0..3 * w + 2)
        .map(|k| {
            let guaranteed = k % 5 == 4;
            Circuit {
                vc: VcId::new(10 + 7 * k as u32),
                input: wl.gen_range(w),
                output: wl.gen_range(w),
                class: if guaranteed {
                    TrafficClass::Guaranteed {
                        cells_per_frame: 1 + wl.gen_range(3) as u16,
                    }
                } else {
                    TrafficClass::BestEffort
                },
                gate: (!guaranteed && wl.gen_bool(0.5)).then(|| 1 + wl.gen_range(4) as u32),
                // A third of the routes land after their first cells.
                install_at: if wl.gen_bool(0.33) {
                    1 + wl.gen_range(300) as u64
                } else {
                    0
                },
                routed: false,
            }
        })
        .collect();

    let mut departed = 0;
    for slot in 0..SLOTS {
        for c in &mut circuits {
            if !c.routed && slot >= c.install_at {
                let (vc, output, class) = (c.vc, c.output, c.class);
                both(&mut pair, &at, "install_route", |sw| {
                    sw.install_route(vc, output, class)
                })
                .expect("the circuit is unrouted and its port is below the width");
                if let TrafficClass::Guaranteed { cells_per_frame } = class {
                    let have = pair.0.schedule().scheduled_cells(c.input, output);
                    for _ in have..cells_per_frame as u32 {
                        let input = c.input;
                        both(&mut pair, &at, "frame insert", |sw| {
                            sw.schedule_mut().insert(input, output)
                        })
                        .ok(); // a full link refuses alike on both
                    }
                }
                if let Some(credits) = c.gate {
                    both(&mut pair, &at, "set_credits", |sw| {
                        sw.set_credits(vc, credits)
                    });
                }
                c.routed = true;
            }
            // Arrivals: mostly on the circuit's own input, now and then on
            // another (a circuit keeps one queue per input).
            if wl.gen_bool(0.3) {
                let input = if wl.gen_bool(0.9) {
                    c.input
                } else {
                    wl.gen_range(w)
                };
                let cell = Cell::blank(c.vc);
                both(&mut pair, &at, "enqueue", |sw| sw.enqueue(input, cell))
                    .expect("port below w");
            }
            // Credits come back slower than a busy circuit spends them, so
            // gated circuits starve and recover.
            if c.routed && c.gate.is_some() && wl.gen_bool(0.2) {
                let vc = c.vc;
                both(&mut pair, &at, "try_add_credit", |sw| sw.try_add_credit(vc));
            }
            if c.routed && wl.gen_bool(0.002) {
                let vc = c.vc;
                both(&mut pair, &at, "remove_route", |sw| sw.remove_route(vc));
                c.routed = false;
                c.install_at = slot + 1 + wl.gen_range(40) as u64;
            }
        }
        if wl.gen_bool(0.03) {
            let (output, until) = (wl.gen_range(w), slot + 1 + wl.gen_range(6) as u64);
            both(&mut pair, &at, "reserve_output", |sw| {
                sw.reserve_output(output, until)
            });
        }

        let narrow = pair.0.step(&mut rng_narrow);
        let wide = pair.1.step(&mut rng_wide);
        assert_eq!(narrow, wide, "{at}: departures of slot {slot}");
        departed += narrow.len() as u64;
        both(&mut pair, &at, "total_backlog", |sw| sw.total_backlog());
        both(&mut pair, &at, "next_event_slot", |sw| sw.next_event_slot());
    }
    assert!(departed > SLOTS / 2, "{at}: an idle history proves nothing");
    for c in &circuits {
        let vc = c.vc;
        both(&mut pair, &at, "credit_balance", |sw| sw.credit_balance(vc));
        both(&mut pair, &at, "buffered_cells", |sw| sw.buffered_cells(vc));
    }
    assert_eq!(
        rng_narrow.next_u64(),
        rng_wide.next_u64(),
        "{at}: PIM drew differently"
    );
}

#[test]
fn narrow_switch_equals_sixteen_port_switch() {
    for w in [2, 3, 4, 8] {
        for seed in 0..64 {
            agree(w, seed);
        }
    }
}
