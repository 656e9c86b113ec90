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
use an2_sim::{assert_sequence, Fnv, SimRng};
use an2_topology::{generators, updown, SpanningTree, SwitchId};
use an2_xbar::{
    outputs_unique, CrossbarScheduler, DemandMatrix, GreedyMaximal, Islip, Matching,
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
/// round trip, its marker landing behind the cells in flight as on a FIFO
/// wire — then drained and resynchronized: never an overflow, and the
/// balance back at `capacity`.
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
                for _ in 0..std::mem::take(&mut in_flight_cells) {
                    receiver.on_cell().map_err(|e| e.to_string())?;
                }
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

/// An FNV over a matching: its width, then each input's output
/// (`u64::MAX` for an unmatched input).
fn matching_hash(m: &Matching) -> u64 {
    let mut h = Fnv::new();
    h.add(m.size() as u64);
    for input in 0..m.size() {
        h.add(m.output_of(input).map_or(u64::MAX, |o| o as u64));
    }
    h.finish()
}

/// Width × seed → each scheduler's [`matching_hash`].
const BITMASK_PINS: &str = "\
n=1 seed=0 pim=392209f14dea4c24 greedy=392209f14dea4c24 islip=392209f14dea4c24\n\
n=1 seed=1 pim=392209f14dea4c24 greedy=392209f14dea4c24 islip=392209f14dea4c24\n\
n=1 seed=2 pim=c4777a6e69ba809c greedy=c4777a6e69ba809c islip=c4777a6e69ba809c\n\
n=1 seed=3 pim=392209f14dea4c24 greedy=392209f14dea4c24 islip=392209f14dea4c24\n\
n=1 seed=4 pim=c4777a6e69ba809c greedy=c4777a6e69ba809c islip=c4777a6e69ba809c\n\
n=1 seed=5 pim=c4777a6e69ba809c greedy=c4777a6e69ba809c islip=c4777a6e69ba809c\n\
n=1 seed=6 pim=392209f14dea4c24 greedy=392209f14dea4c24 islip=392209f14dea4c24\n\
n=1 seed=7 pim=392209f14dea4c24 greedy=392209f14dea4c24 islip=392209f14dea4c24\n\
n=2 seed=0 pim=b026cb457020ada6 greedy=e1318b941230b9fe islip=b026cb457020ada6\n\
n=2 seed=1 pim=b026cb457020ada6 greedy=80237c8667fadf86 islip=b026cb457020ada6\n\
n=2 seed=2 pim=e1318b941230b9fe greedy=2b82addf4cfb9b1e islip=e1318b941230b9fe\n\
n=2 seed=3 pim=b026cb457020ada6 greedy=e1318b941230b9fe islip=b026cb457020ada6\n\
n=2 seed=4 pim=80237c8667fadf86 greedy=2b82addf4cfb9b1e islip=80237c8667fadf86\n\
n=2 seed=5 pim=2b82addf4cfb9b1e greedy=2b82addf4cfb9b1e islip=80237c8667fadf86\n\
n=2 seed=6 pim=80237c8667fadf86 greedy=80237c8667fadf86 islip=609e214d668ff43f\n\
n=2 seed=7 pim=b026cb457020ada6 greedy=b026cb457020ada6 islip=b026cb457020ada6\n\
n=3 seed=0 pim=f0379b80fa7e68bf greedy=92d95ed7d5464fc5 islip=92d95ed7d5464fc5\n\
n=3 seed=1 pim=fa8cde88980c8c45 greedy=fa8cde88980c8c45 islip=22e34b14edb7ba25\n\
n=3 seed=2 pim=e2455c2decc5a29d greedy=203aea4002a436df islip=fa8cde88980c8c45\n\
n=3 seed=3 pim=22e34b14edb7ba25 greedy=92d95ed7d5464fc5 islip=92d95ed7d5464fc5\n\
n=3 seed=4 pim=e38637f0809cab85 greedy=9a86410a87c0f005 islip=f1b2e77ec068d2ff\n\
n=3 seed=5 pim=523b6ff0d454383d greedy=523b6ff0d454383d islip=fa8cde88980c8c45\n\
n=3 seed=6 pim=55c44dfbd24cc5bf greedy=0620087ccad24afd islip=55c44dfbd24cc5bf\n\
n=3 seed=7 pim=22e34b14edb7ba25 greedy=e62b9bc800c39c1c islip=22e34b14edb7ba25\n\
n=4 seed=0 pim=6922ac6003dc6839 greedy=b47148f3702d8861 islip=bc5308578dc882ba\n\
n=4 seed=1 pim=7c1bac063e49fdc1 greedy=400f2c839df097a1 islip=fe16abd4e04c6021\n\
n=4 seed=2 pim=4ff33cbc5d9cbb59 greedy=9d6aa25b58bda7a1 islip=f51ac5ae154be63a\n\
n=4 seed=3 pim=b47148f3702d8861 greedy=6e0cbf97c7daf5c1 islip=e5769690a850285a\n\
n=4 seed=4 pim=3955a851cc3df319 greedy=d430f44e01d97f59 islip=bf5f04abea746dc1\n\
n=4 seed=5 pim=400f2c839df097a1 greedy=dcc7b57fc5d8b641 islip=400f2c839df097a1\n\
n=4 seed=6 pim=ac1efac5466fcbe1 greedy=fe16abd4e04c6021 islip=fe16abd4e04c6021\n\
n=4 seed=7 pim=b47148f3702d8861 greedy=8b75706ba33f3e41 islip=1ec0362e837cedc1\n\
n=5 seed=0 pim=44b4023f193e2204 greedy=e3e7b47ef33c3d5e islip=44b4023f193e2204\n\
n=5 seed=1 pim=c0e010e82915ae04 greedy=618bfa0f51814198 islip=618bfa0f51814198\n\
n=5 seed=2 pim=4b55cbc99fa7a07e greedy=48fc4fcd1374ecde islip=b5a0eb96936f4e44\n\
n=5 seed=3 pim=4ae5eb776b460444 greedy=6b146d3c95a34344 islip=59db71151ebe8238\n\
n=5 seed=4 pim=101836635f87cffc greedy=f703ba65dec5cce4 islip=146dbd4e090e8638\n\
n=5 seed=5 pim=fda1b68245a793c4 greedy=df3f9750971c8d24 islip=146dbd4e090e8638\n\
n=5 seed=6 pim=ec771b6e8ca64018 greedy=44b4023f193e2204 islip=23650be9feca7824\n\
n=5 seed=7 pim=c69537982ab440f1 greedy=1f917499cf3e645d islip=fb0e9f5da91f4a44\n\
n=6 seed=0 pim=5e66d10c894f29a2 greedy=856d9e473c78517a islip=502e81d662dec29f\n\
n=6 seed=1 pim=cc90832726b75482 greedy=054bba61c5cca01b islip=8ece1c8bf836f299\n\
n=6 seed=2 pim=aa13e099d36659fa greedy=aab32e97c79dca38 islip=3f1435e951663e9f\n\
n=6 seed=3 pim=a02f31a306b2a942 greedy=b6df1689799899a2 islip=f825f4dba4a69962\n\
n=6 seed=4 pim=e5d93af8464aab02 greedy=c5febb9577d10de2 islip=f99197e276876598\n\
n=6 seed=5 pim=06caeca8760fe5a2 greedy=561afc8e39139e62 islip=3f1435e951663e9f\n\
n=6 seed=6 pim=6bc70f3cf9b04802 greedy=08613ae024d6fe35 islip=d09993c15188a3c2\n\
n=6 seed=7 pim=294632994fe8ef42 greedy=9b72b0a19396f2db islip=f825f4dba4a69962\n\
n=7 seed=0 pim=a4c6a428fda9cfde greedy=8ff72f027a62d2a5 islip=c795caf19ce034fb\n\
n=7 seed=1 pim=f16671c683bea3e5 greedy=bc610efc35f03665 islip=e1c2a938a7f338c5\n\
n=7 seed=2 pim=f1d960162357f0c5 greedy=3e6bf399e80bf725 islip=acf9edeae1dd683b\n\
n=7 seed=3 pim=4d06054cbc3fa405 greedy=c12ae5d96edd025f islip=6b17d063f20d52f8\n\
n=7 seed=4 pim=5c1155967e4881d9 greedy=20325be87f5b0e25 islip=1cc45dd60d2111a5\n\
n=7 seed=5 pim=2982c9faca8f23a5 greedy=add95b6486f2ccc5 islip=f9c9db024985e717\n\
n=7 seed=6 pim=e5eb53d1f6461978 greedy=e010f25eee680c99 islip=72de14554c81a405\n\
n=7 seed=7 pim=a52e1d10c8782665 greedy=aa638465284f933f islip=7d636c9e4ac689a5\n\
n=8 seed=0 pim=4399481786c3f34d greedy=5d964f7ca44da0e3 islip=2a5e3a30e721d880\n\
n=8 seed=1 pim=2a5a9c5f026a7b0d greedy=d42dbb4d05ef1a44 islip=dafcf1d0c4b3ce42\n\
n=8 seed=2 pim=dcee780433fe7f45 greedy=39e95be0e7af812d islip=3e25699d5eecfda3\n\
n=8 seed=3 pim=1749fb6df348513b greedy=da1d3b83640fd4ad islip=3d0ed536421c7c1f\n\
n=8 seed=4 pim=58a2315dad236fc7 greedy=676dc33283080e4d islip=92c19bdd3a2ae682\n\
n=8 seed=5 pim=d9d047ec89a4f02d greedy=eef7719424b3f5cd islip=fd849e5e18be6073\n\
n=8 seed=6 pim=fe745992a3dade0d greedy=12c4b736548d9ce7 islip=0e60089ed8272fad\n\
n=8 seed=7 pim=667db5ea0e4df782 greedy=ab0b674fd567e60d islip=04e5efcbc962e062\n\
";

/// The bitmask fast-path schedulers are drop-in replacements: for any
/// demand matrix and seed they consume the RNG stream exactly like the
/// pre-refactor scan-and-`Vec` implementations and return bit-identical
/// matchings — the ones those implementations answered, pinned in
/// [`BITMASK_PINS`].
#[test]
fn schedulers_reproduce_pinned_matchings() {
    let mut actual = String::new();
    for (n, seed) in ports_then_seeds() {
        let demand = demand(n, &mut SimRng::new(seed));
        let pim = Pim::an2().schedule(&demand, &mut SimRng::new(seed));
        let greedy = GreedyMaximal::new().schedule(&demand, &mut SimRng::new(seed));
        let islip = Islip::new(n, 3).schedule(&demand, &mut SimRng::new(seed));
        actual += &format!("n={n} seed={seed}");
        for (name, m) in [("pim", &pim), ("greedy", &greedy), ("islip", &islip)] {
            actual += &format!(" {name}={:016x}", matching_hash(m));
        }
        actual.push('\n');
    }
    assert!(
        actual == BITMASK_PINS,
        "bitmask schedulers moved off their pins.\n--- actual ---\n{actual}--- pinned ---\n{BITMASK_PINS}"
    );
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
