//! Property tests over the core algorithms and invariants, spanning
//! crates. Each property is an explicit claim from the paper, checked on an
//! explicit grid walked smallest first — port count, then size or
//! sequence length, then seed — so the first point that fails is the
//! smallest one the grid holds. Bulk inputs (demand matrices, payload
//! bytes, event sequences) are drawn from a [`SimRng`] seeded by the point,
//! every assertion names its point, and a failing event sequence is
//! reported cut down to a 1-minimal one by [`assert_sequence`].

use an2_cells::{Cell, CellHeader, CellKind, Packet, Reassembler, Segmenter, VcId};
use an2_flow::{resync, CreditReceiver, CreditSender};
use an2_schedule::nested::NestedFrameSchedule;
use an2_schedule::{FrameSchedule, ReservationMatrix};
use an2_sim::{assert_sequence, SimRng};
use an2_topology::{generators, updown, SpanningTree, SwitchId};
use an2_xbar::{
    outputs_unique, reference, CrossbarScheduler, DemandMatrix, GreedyMaximal, Islip,
    MaximumMatching, Pim,
};

/// Crossbar widths 1 to 8, eight seeds each: 64 points, narrowest first.
fn ports_then_seeds() -> impl Iterator<Item = (usize, u64)> {
    (1..=8).flat_map(|n| (0..8u64).map(move |seed| (n, seed)))
}

/// An `n`×`n` demand matrix in which every pair queues 0–2 cells.
fn demand(n: usize, rng: &mut SimRng) -> DemandMatrix {
    let cells: Vec<u64> = (0..n * n).map(|_| rng.gen_range(3) as u64).collect();
    DemandMatrix::from_table(n, &cells)
}

/// §3: PIM's result is always a legal matching, and run to quiescence
/// it is maximal.
#[test]
fn pim_always_legal_and_eventually_maximal() {
    for (n, seed) in ports_then_seeds() {
        let mut rng = SimRng::new(seed);
        let demand = demand(n, &mut rng);
        let m = Pim::an2().schedule(&demand, &mut rng);
        assert!(m.is_legal(&demand), "n={n} seed={seed}: illegal matching");
        assert!(
            outputs_unique(&m),
            "n={n} seed={seed}: an output matched twice"
        );
        let out = Pim::run_to_maximal(&demand, &mut rng);
        assert!(
            out.matching.is_legal(&demand) && out.matching.is_maximal(&demand),
            "n={n} seed={seed}: PIM run to quiescence is not a legal maximal matching"
        );
    }
}

/// A maximal matching is at least half a maximum matching, and never
/// larger.
#[test]
fn maximal_vs_maximum_bounds() {
    for (n, seed) in ports_then_seeds() {
        let mut rng = SimRng::new(seed);
        let demand = demand(n, &mut rng);
        let maximal = Pim::run_to_maximal(&demand, &mut rng).matching.len();
        let maximum = MaximumMatching::solve(&demand).len();
        assert!(
            maximal <= maximum && 2 * maximal >= maximum,
            "n={n} seed={seed}: maximal {maximal} against maximum {maximum}"
        );
    }
}

/// §4 (Slepian–Duguid): any reservation set that over-commits no link
/// is schedulable, and every insertion stays within 2N displacement
/// moves.
#[test]
fn slepian_duguid_always_schedules_feasible_sets() {
    for n in 2..8usize {
        for frame in 2..12u32 {
            for seed in 0..2u64 {
                let at = format!("n={n} frame={frame} seed={seed}");
                let mut rng = SimRng::new(seed);
                let mut res = ReservationMatrix::new(n, frame);
                let mut sched = FrameSchedule::new(n, frame);
                for _ in 0..(n as u32 * frame * 2) {
                    let i = rng.gen_range(n);
                    let o = rng.gen_range(n);
                    if res.reserve(i, o, 1).is_ok() {
                        let trace = sched
                            .insert(i, o)
                            .unwrap_or_else(|e| panic!("{at}: feasible ({i}, {o}) refused: {e:?}"));
                        assert!(trace.swaps() <= 2 * n, "{at}: {} swaps", trace.swaps());
                    }
                }
                assert!(sched.satisfies(&res), "{at}: reservations not granted");
            }
        }
    }
}

/// §5: up*/down* routes are legal and their channel-dependency graph is
/// acyclic on arbitrary connected topologies.
#[test]
fn updown_deadlock_freedom_on_random_graphs() {
    for n in 2..16usize {
        for extra in [0usize, 2, 6, 11] {
            for seed in 0..2u64 {
                let at = format!("switches={n} extra={extra} seed={seed}");
                let topo = generators::random_connected(n, extra, &mut SimRng::new(seed));
                let tree = SpanningTree::bfs(&topo, SwitchId(0));
                assert!(
                    updown::all_pairs_updown_deadlock_free(&topo, &tree),
                    "{at}: dependency cycle"
                );
                for s in topo.switches() {
                    for t in topo.switches() {
                        let r = updown::route(&topo, &tree, s, t)
                            .unwrap_or_else(|| panic!("{at}: no route {s} -> {t}"));
                        assert!(updown::is_legal_path(&tree, &r), "{at}: illegal {s} -> {t}");
                    }
                }
            }
        }
    }
}

/// §1: controller segmentation/reassembly is the identity on packets.
#[test]
fn segmentation_reassembly_identity() {
    // Both sides of every one- and two-cell boundary (a cell carries 48
    // bytes; the last one also the 8-byte trailer), then bulk.
    const LENGTHS: [usize; 16] = [
        0, 1, 39, 40, 41, 47, 48, 88, 89, 95, 96, 97, 500, 1_499, 2_048, 3_999,
    ];
    for len in LENGTHS {
        for seed in 0..4u64 {
            let at = format!("len={len} seed={seed}");
            let mut rng = SimRng::new(seed);
            let vc = VcId::new(rng.gen_range(VcId::MAX as usize) as u32);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let packet = Packet::from_bytes(data.clone());
            let cells = Segmenter::new(vc).segment(&packet);
            assert_eq!(cells.len(), packet.cell_count(), "{at}");
            let mut r = Reassembler::new();
            let mut out = None;
            for c in &cells {
                out = r
                    .push(c)
                    .unwrap_or_else(|e| panic!("{at}: a clean stream failed: {e:?}"));
            }
            let (got_vc, got) = out.unwrap_or_else(|| panic!("{at}: incomplete"));
            assert_eq!(got_vc, vc, "{at}");
            assert_eq!(got.as_bytes(), &data[..], "{at}");
        }
    }
}

/// The ATM header round-trips through its wire form, and any single-bit
/// corruption is caught by the HEC.
#[test]
fn header_roundtrip_and_hec() {
    let kinds = [
        CellKind::Data,
        CellKind::DataEnd,
        CellKind::Signal,
        CellKind::Management,
    ];
    for vc_raw in [0, 1, VcId::MAX - 1] {
        for kind in kinds {
            for clp in [false, true] {
                let h = CellHeader {
                    vc: VcId::new(vc_raw),
                    kind,
                    low_priority: clp,
                };
                let wire = h.encode();
                assert_eq!(CellHeader::decode(&wire).unwrap(), h, "{h:?}");
                for byte in 0..5 {
                    for bit in 0..8 {
                        let mut flipped = wire;
                        flipped[byte] ^= 1 << bit;
                        assert!(
                            CellHeader::decode(&flipped).is_err(),
                            "{h:?}: flip of byte {byte} bit {bit} passed the HEC"
                        );
                    }
                }
            }
        }
    }
}

/// One credit link under `ops` — (0) send, (1) deliver a cell, (2)
/// forward one, its credit lost when the flag is set, (3) a full resync
/// round trip — then drained and resynchronized: never an overflow, and
/// the balance back at `capacity`.
fn credit_run(capacity: u32, ops: &[(u8, bool)]) -> Result<(), String> {
    let mut sender = CreditSender::new(capacity);
    let mut receiver = CreditReceiver::new(capacity);
    let mut in_flight_cells = 0u32;
    for &(op, lose_credit) in ops {
        match op {
            0 => {
                if sender.try_send() {
                    in_flight_cells += 1;
                }
            }
            1 => {
                if in_flight_cells > 0 {
                    in_flight_cells -= 1;
                    receiver.on_cell().map_err(|e| e.to_string())?;
                }
            }
            2 => {
                if let Some(epoch) = receiver.forward() {
                    if !lose_credit {
                        sender.on_credit_with_epoch(epoch);
                    }
                }
            }
            _ => {
                let m = resync::begin(&mut sender);
                let rep = resync::handle_marker(&mut receiver, m);
                resync::finish(&mut sender, rep);
            }
        }
    }
    for _ in 0..in_flight_cells {
        receiver
            .on_cell()
            .map_err(|e| format!("during the drain: {e}"))?;
    }
    while receiver.forward().is_some() {}
    let m = resync::begin(&mut sender);
    let rep = resync::handle_marker(&mut receiver, m);
    resync::finish(&mut sender, rep);
    match sender.balance() {
        b if b == capacity => Ok(()),
        b => Err(format!(
            "balance {b} after the final resync, not {capacity}"
        )),
    }
}

/// §5: under any pattern of credit loss and any service order, the
/// downstream buffer never overflows, and a resynchronization restores
/// the full balance once the pipe drains.
#[test]
fn credit_protocol_never_overflows_and_resyncs() {
    for capacity in [1u32, 2, 3, 4, 8, 15] {
        for len in [1usize, 4, 16, 64, 199] {
            for seed in 0..3u64 {
                let mut rng = SimRng::new(seed);
                let ops: Vec<(u8, bool)> = (0..len)
                    .map(|_| (rng.gen_range(4) as u8, rng.gen_bool(0.5)))
                    .collect();
                assert_sequence(
                    format!("capacity={capacity} len={len} seed={seed}"),
                    &ops,
                    |ops| credit_run(capacity, ops),
                );
            }
        }
    }
}

/// Reconfiguration tags totally order concurrent configurations.
#[test]
fn tags_are_totally_ordered() {
    use an2_reconfig::Tag;
    let tags: Vec<Tag> = [0u64, 1, 2, 99]
        .into_iter()
        .flat_map(|epoch| {
            [0u16, 1, 2, 31].map(|i| Tag {
                epoch,
                initiator: SwitchId(i),
            })
        })
        .collect();
    for &a in &tags {
        for &b in &tags {
            // Antisymmetric and total:
            assert_eq!(
                a == b,
                a.epoch == b.epoch && a.initiator == b.initiator,
                "{a} vs {b}"
            );
            assert!(a < b || b < a || a == b, "{a} and {b} unordered");
            // Successor always dominates.
            assert!(
                a.successor(b.initiator) > a,
                "a = {a}, b = {b}: a's successor by {} does not dominate a",
                b.initiator
            );
        }
    }
}

/// Cell encode/decode identity through the full 53-byte wire form.
#[test]
fn cell_wire_roundtrip() {
    let vcs = [0, 1, 255, 256, 65_535, 65_536, VcId::MAX - 2, VcId::MAX - 1];
    for vc_raw in vcs {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let payload: [u8; 48] = std::array::from_fn(|_| rng.next_u64() as u8);
            let cell = Cell::new(VcId::new(vc_raw), CellKind::DataEnd, payload);
            let decoded = Cell::decode(&cell.encode()).unwrap();
            assert_eq!(decoded, cell, "vc={vc_raw} seed={seed}");
        }
    }
}

/// iSLIP with as many iterations as ports always produces a legal,
/// maximal match, like PIM, without randomness.
#[test]
fn islip_always_legal_and_maximal() {
    for (n, seed) in ports_then_seeds() {
        let demand = demand(n, &mut SimRng::new(seed));
        let m = Islip::new(n, n).schedule(&demand, &mut SimRng::new(0));
        assert!(
            m.is_legal(&demand) && m.is_maximal(&demand) && outputs_unique(&m),
            "n={n} seed={seed}: {m:?} is not a legal maximal matching"
        );
    }
}

/// The bitmask fast-path schedulers are drop-in replacements: for any
/// demand matrix and seed they consume the RNG stream exactly like the
/// pre-refactor implementations (preserved in `an2_xbar::reference`)
/// and return bit-identical matchings.
#[test]
fn bitmask_schedulers_match_reference() {
    for (n, seed) in ports_then_seeds() {
        let demand = demand(n, &mut SimRng::new(seed));
        let m = Pim::an2().schedule(&demand, &mut SimRng::new(seed));
        let r = reference::ReferencePim::an2().schedule(&demand, &mut SimRng::new(seed));
        assert_eq!(m, r, "n={n} seed={seed}: PIM diverged from reference");

        let m = GreedyMaximal::new().schedule(&demand, &mut SimRng::new(seed));
        let r = reference::ReferenceGreedy::new().schedule(&demand, &mut SimRng::new(seed));
        assert_eq!(m, r, "n={n} seed={seed}: greedy diverged from reference");

        let m = Islip::new(n, 3).schedule(&demand, &mut SimRng::new(seed));
        let r = reference::ReferenceIslip::new(n, 3).schedule(&demand, &mut SimRng::new(seed));
        assert_eq!(m, r, "n={n} seed={seed}: iSLIP diverged from reference");
    }
}

/// Nested frame schedules grant exactly the reserved bandwidth whenever
/// the headroom check admits the split.
#[test]
fn nested_frames_preserve_reservations() {
    let n = 4;
    let frame = 64u32;
    let subframes = 4;
    for per_pair in 1..4u32 {
        for seed in 0..22u64 {
            let mut rng = SimRng::new(seed);
            let mut res = ReservationMatrix::new(n, frame);
            for i in 0..n {
                for o in 0..n {
                    if rng.gen_bool(0.5) {
                        let _ = res.reserve(i, o, per_pair);
                    }
                }
            }
            if !NestedFrameSchedule::fits(&res, subframes) {
                continue;
            }
            let nested = NestedFrameSchedule::build(&res, subframes);
            for i in 0..n {
                for o in 0..n {
                    assert_eq!(
                        nested.scheduled_cells(i, o),
                        res.cells(i, o),
                        "per_pair={per_pair} seed={seed}: pair ({i}, {o})"
                    );
                }
            }
        }
    }
}

/// Feeds a link monitor `outcomes` ten milliseconds apart: its verdict
/// transitions must alternate dead/working.
fn monitor_run(outcomes: &[bool]) -> Result<(), String> {
    use an2_reconfig::monitor::{LinkMonitor, MonitorConfig};
    use an2_sim::{SimDuration, SimTime};
    let mut m = LinkMonitor::new(MonitorConfig::default());
    let mut now = SimTime::ZERO;
    let mut last = None;
    for &ok in outcomes {
        now += SimDuration::from_millis(10);
        if let Some(t) = m.on_ping(ok, now) {
            if last == Some(t.to) {
                return Err(format!("two transitions to {:?} in a row", t.to));
            }
            last = Some(t.to);
        }
    }
    Ok(())
}

/// The link monitor's verdict only changes on the configured
/// thresholds: arbitrary ping sequences never panic and transitions
/// always alternate dead/working.
#[test]
fn monitor_transitions_alternate() {
    for len in [1usize, 3, 8, 16, 32, 64, 200, 499] {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let outcomes: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            assert_sequence(format!("len={len} seed={seed}"), &outcomes, monitor_run);
        }
    }
}

/// Packet cell counts follow the AAL5 arithmetic for any length.
#[test]
fn packet_cell_count_formula() {
    for len in 0..10_000usize {
        let p = Packet::from_bytes(vec![0; len]);
        assert_eq!(p.cell_count(), (len + 8).div_ceil(48), "len={len}");
        assert_eq!(p.len(), len, "len={len}");
    }
}
