//! The host controller's two indexes against their definitions: the ready
//! set against the readiness predicate evaluated entry by entry, after
//! every kind of step that can change it; per-circuit reassembly against
//! many circuits interleaved into one host.

use super::*;
use an2_cells::{Packet, Segmenter};
use an2_faults::{FaultSpec, LinkFaultModel, LossModel};
use an2_topology::{generators, HostId};

/// Every host's ready set equals the predicate, bit for bit.
fn assert_ready_sets_exact(f: &Fabric, when: &str) {
    for (h, host) in f.hosts.iter().enumerate() {
        for e in 0..host.outbox.len() {
            assert_eq!(
                host.is_ready(e),
                f.entry_ready(h, e),
                "{when}: host {h} entry {e} (vc {}) at slot {}",
                host.outbox[e].0,
                f.slot
            );
        }
        // No stray bit past the last entry: the pick must be an entry.
        let n = host.outbox.len();
        assert!(n == 0 || host.next_ready(0).is_none_or(|e| e < n), "{when}");
    }
}

/// Entries whose circuit is open and has cells queued but whose gate is
/// shut: what credit or token starvation looks like to the controller.
fn starved_entries(f: &Fabric, h: usize) -> usize {
    f.hosts[h]
        .outbox
        .iter()
        .filter(|(raw, q)| {
            !q.is_empty()
                && f.circuits
                    .get(VcId::new(*raw))
                    .is_some_and(|c| !c.gate_open())
        })
        .count()
}

/// Steps one slot at a time, checking the ready sets after each.
fn step_checked(f: &mut Fabric, slots: u64, when: &str) {
    for _ in 0..slots {
        f.step(1);
        assert_ready_sets_exact(f, when);
    }
}

struct Rig {
    f: Fabric,
    /// Host attachment links: `near[i]` joins near host `i` to switch 0,
    /// `far` joins the far host to switch 1.
    near: [LinkId; 2],
    far: LinkId,
    /// Two parallel inter-switch links.
    mids: [LinkId; 2],
}

const NEAR_A: HostId = HostId(0);
const NEAR_B: HostId = HostId(1);
const FAR: HostId = HostId(2);

/// Two near hosts on switch 0 and one far host on switch 1, two parallel
/// links between the switches. Both near hosts sending over one of them
/// offer two cells per slot to a one-cell-per-slot link, so switch 0's
/// buffers fill and host credits (three per circuit) run dry.
fn rig(frame_slots: u32) -> Rig {
    let mut topo = generators::line(2);
    let second = topo.link_switches(SwitchId(0), SwitchId(1)).unwrap();
    let first = topo.links_between(SwitchId(0), SwitchId(1))[0];
    let hosts = [topo.add_host(), topo.add_host(), topo.add_host()];
    assert_eq!(hosts, [NEAR_A, NEAR_B, FAR]);
    let near = [NEAR_A, NEAR_B].map(|h| topo.attach_host(h, SwitchId(0)).unwrap());
    let far = topo.attach_host(FAR, SwitchId(1)).unwrap();
    let cfg = FabricConfig {
        frame_slots,
        link_latency_slots: 1,
        be_credits: 3,
    };
    Rig {
        f: Fabric::new(topo, cfg, 11),
        near,
        far,
        mids: [first, second],
    }
}

impl Rig {
    fn open(&mut self, vc: VcId, src: HostId, class: TrafficClass, mid: usize) {
        self.f.open_circuit(
            vc,
            src,
            FAR,
            class,
            vec![SwitchId(0), SwitchId(1)],
            vec![self.mids[mid]],
            self.near[src.0 as usize],
            self.far,
        );
    }

    fn send(&mut self, vc: VcId, bytes: usize) {
        let packet = Packet::from_bytes(vec![vc.raw() as u8; bytes]);
        self.f.send_cells(vc, Segmenter::new(vc).segment(&packet));
    }
}

/// Circuit ids of host A, in an order that is neither ascending nor
/// descending, so outbox entries are inserted below existing ones.
fn scattered_ids(n: u32) -> Vec<VcId> {
    (0..n).map(|i| VcId::new(1_000 + (i * 37) % n)).collect()
}

#[test]
fn ready_set_tracks_the_predicate_through_every_transition() {
    let mut r = rig(64);
    let ids = scattered_ids(140);
    assert_ready_sets_exact(&r.f, "empty");

    // Open and load: 140 best-effort circuits at host A (bits across three
    // words), a saturating competitor at host B, one guaranteed circuit.
    for &vc in &ids {
        r.open(vc, NEAR_A, TrafficClass::BestEffort, 0);
        assert_ready_sets_exact(&r.f, "open");
        r.send(vc, 900);
        assert_ready_sets_exact(&r.f, "send");
    }
    assert_eq!(r.f.hosts[0].outbox.len(), 140);
    for i in 0..10 {
        let vc = VcId::new(5_000 + i);
        r.open(vc, NEAR_B, TrafficClass::BestEffort, 0);
        r.send(vc, 8_000);
    }
    let gt = VcId::new(999); // sorts below every best-effort entry
    r.open(
        gt,
        NEAR_A,
        TrafficClass::Guaranteed { cells_per_frame: 3 },
        0,
    );
    r.send(gt, 2_000);
    assert_ready_sets_exact(&r.f, "guaranteed open + send");

    // Drain under contention, across several frame boundaries: credits
    // starve (two hosts into one link) and the token bucket runs dry and
    // refills.
    let (mut saw_starved, mut saw_tokens_out, mut saw_refill) = (false, false, false);
    for _ in 0..1_500 {
        let tokens_before = r.f.circuits.get(gt).unwrap().gt_tokens;
        step_checked(&mut r.f, 1, "drain");
        saw_starved |= starved_entries(&r.f, 0) >= 70 && starved_entries(&r.f, 1) > 0;
        let tokens = r.f.circuits.get(gt).unwrap().gt_tokens;
        saw_tokens_out |= tokens == Some(0);
        saw_refill |= tokens_before == Some(0) && tokens == Some(3);
    }
    assert!(saw_starved, "contention never starved a circuit of credits");
    assert!(saw_tokens_out && saw_refill, "token bucket never cycled");

    // Close a middle entry that still has cells queued: every entry above
    // it moves down one.
    let middle = VcId::new(r.f.hosts[0].outbox[70].0);
    assert!(r.f.outbox_len(middle) > 0);
    r.f.close_circuit(middle).unwrap();
    assert_eq!(r.f.hosts[0].outbox.len(), 140);
    assert_ready_sets_exact(&r.f, "close middle");
    step_checked(&mut r.f, 20, "after close");

    // Reroute a circuit with cells queued onto the parallel link: the gate
    // reopens at full credit whatever it was.
    let moved = VcId::new(r.f.hosts[0].outbox[100].0);
    assert!(r.f.outbox_len(moved) > 0);
    r.f.reroute_circuit(
        moved,
        vec![SwitchId(0), SwitchId(1)],
        vec![r.mids[1]],
        r.near[0],
        r.far,
    );
    assert_ready_sets_exact(&r.f, "reroute");
    let e = r.f.hosts[0].outbox_entry(moved.raw()).unwrap();
    assert!(r.f.hosts[0].is_ready(e));
    step_checked(&mut r.f, 20, "after reroute");

    // Let everything drain, then page a circuit out and back in and use it
    // again.
    for _ in 0..20_000 {
        if r.f.outbox_cells == 0 {
            break;
        }
        step_checked(&mut r.f, 1, "drain out");
    }
    step_checked(&mut r.f, 1_000, "switch buffers empty");
    assert_eq!(r.f.outbox_cells, 0, "every outbox drained");
    let paged = ids[3];
    assert!(r.f.page_out_circuit(paged));
    assert_ready_sets_exact(&r.f, "page out");
    r.send(paged, 100);
    assert_ready_sets_exact(&r.f, "send while paged out");
    let e = r.f.hosts[0].outbox_entry(paged.raw()).unwrap();
    assert!(!r.f.hosts[0].is_ready(e), "a paged-out circuit has no gate");
    r.f.page_in_circuit(
        paged,
        vec![SwitchId(0), SwitchId(1)],
        vec![r.mids[0]],
        r.near[0],
        r.far,
    );
    assert_ready_sets_exact(&r.f, "page in");
    assert!(r.f.hosts[0].is_ready(e));
    step_checked(&mut r.f, 100, "after page in");
    assert_eq!(r.f.stats(paged).packets_delivered, 2);

    // A signalled set-up: its cell leads the outbox.
    let signalled = middle; // the id closed above: a middle insert
    r.f.open_circuit_signaled(
        signalled,
        NEAR_A,
        FAR,
        vec![SwitchId(0), SwitchId(1)],
        vec![r.mids[0]],
        r.near[0],
        r.far,
    );
    assert_ready_sets_exact(&r.f, "signalled open");
    r.send(signalled, 300);
    step_checked(&mut r.f, 300, "signalled");
    assert_eq!(r.f.stats(signalled).packets_delivered, 1);
}

#[test]
fn ready_set_tracks_the_predicate_under_loss_and_resync() {
    let mut r = rig(1024);
    // Lossy wires: data cells and credits vanish, so host gates close and
    // only §5's resync reopens them.
    let spec = FaultSpec {
        default_link: LinkFaultModel {
            loss: LossModel::Independent { p: 0.1 },
            corrupt_per_cell: 0.02,
            jitter_slots: 0,
        },
        resync_interval_slots: 0,
        ..FaultSpec::default()
    };
    r.f.attach_faults(&spec, 3);
    let ids = scattered_ids(130);
    for &vc in &ids {
        r.open(vc, NEAR_A, TrafficClass::BestEffort, 0);
        r.send(vc, 2_000);
    }
    for i in 0..4 {
        let vc = VcId::new(5_000 + i);
        r.open(vc, NEAR_B, TrafficClass::BestEffort, 0);
        r.send(vc, 12_000);
    }
    assert_ready_sets_exact(&r.f, "loaded");
    // With no periodic resync, every lost cell or credit shrinks a gate for
    // good; 42 cells per circuit at this loss rate close most of them.
    step_checked(&mut r.f, 12_000, "lossy drain");
    let stuck = starved_entries(&r.f, 0);
    assert!(stuck > 10, "loss closed only {stuck} host gates for good");
    // Forced resyncs on every circuit; the replies land over the next
    // slots and rewrite host gates, until every cell has been sent.
    let all: Vec<VcId> = r.f.circuits.iter().map(|(_, vc, _)| vc).collect();
    for round in 0..200 {
        if r.f.outbox_cells == 0 {
            break;
        }
        for &vc in &all {
            r.f.force_resync(vc);
        }
        assert_ready_sets_exact(&r.f, &format!("forced resync, round {round}"));
        step_checked(&mut r.f, 150, "after resync");
    }
    assert_eq!(r.f.outbox_cells, 0, "resync reopens every gate");
    let c = r.f.fault_counters().unwrap();
    assert!(c.credits_lost > 0 && c.resyncs_completed > 0, "{c:?}");
    assert_eq!(c.invariant_violations, 0);
}

#[test]
fn three_hundred_interleaved_circuits_reassemble_per_circuit() {
    // 300 circuits from two hosts into one, every packet a different
    // length, injected round-robin so the far host sees them interleaved
    // cell by cell.
    let mut r = rig(1024);
    let ids: Vec<VcId> = (0..300).map(|i| VcId::new(2_000 + i * 3)).collect();
    let packets: Vec<Packet> = (0..300usize)
        .map(|i| Packet::from_bytes((0..200 + i).map(|b| (b * 7 + i) as u8).collect::<Vec<_>>()))
        .collect();
    let (bad, moved) = (ids[77], ids[200]);
    for (i, (&vc, p)) in ids.iter().zip(&packets).enumerate() {
        r.open(vc, HostId((i % 2) as u16), TrafficClass::BestEffort, 0);
        let mut cells = Segmenter::new(vc).segment(p);
        if vc == bad {
            // Flip a bit of the trailer's CRC.
            cells.last_mut().unwrap().payload[47] ^= 1;
        }
        r.f.send_cells(vc, cells);
    }
    // Run until the circuit to be rerouted is mid-packet at the far host.
    while r.f.circuits.get(moved).unwrap().partial.is_empty() {
        r.f.step(1);
    }
    let mid_packet =
        r.f.circuits
            .iter()
            .filter(|(_, _, c)| !c.partial.is_empty())
            .count();
    assert!(mid_packet > 100, "only {mid_packet} circuits mid-packet");
    r.f.reroute_circuit(
        moved,
        vec![SwitchId(0), SwitchId(1)],
        vec![r.mids[1]],
        r.near[0],
        r.far,
    );
    assert!(
        r.f.circuits.get(moved).unwrap().partial.is_empty(),
        "a reroute discards the packet under reassembly"
    );
    r.f.step(5_000);
    let mut got = r.f.take_received(FAR);
    got.sort_by_key(|(vc, _)| *vc);
    let want: Vec<(VcId, Packet)> = ids
        .iter()
        .copied()
        .zip(packets)
        .filter(|(vc, _)| *vc != bad && *vc != moved)
        .collect();
    assert_eq!(got.len(), 298);
    assert_eq!(got, want, "every other packet arrives intact");
    for &vc in &ids {
        let s = r.f.stats(vc);
        // The corrupted trailer costs its own circuit its packet; the
        // rerouted circuit's tail completes a packet missing its head.
        let corrupted = u64::from(vc == bad || vc == moved);
        assert_eq!(s.packets_corrupted, corrupted, "{vc}");
        assert_eq!(s.packets_delivered, 1 - corrupted, "{vc}");
        assert!(r.f.circuits.get(vc).unwrap().partial.is_empty(), "{vc}");
    }
}

/// The outbox of `vc` at its source host.
fn outbox_of(f: &Fabric, vc: VcId) -> &host::Outbox {
    let h = &f.hosts[f.circuits.get(vc).unwrap().src.0 as usize];
    &h.outbox[h.outbox_entry(vc.raw()).unwrap()].1
}

/// The fabric-wide count against every outbox, entry by entry.
fn assert_outbox_cells_exact(f: &Fabric, when: &str) {
    let sum: usize = f
        .hosts
        .iter()
        .flat_map(|h| &h.outbox)
        .map(|(_, outbox)| outbox.len())
        .sum();
    assert_eq!(f.outbox_cells, sum, "{when}");
}

#[test]
fn a_vec_handed_to_send_cells_is_adopted_not_copied() {
    let mut r = rig(64);
    let vc = VcId::new(7);
    r.open(vc, NEAR_A, TrafficClass::BestEffort, 0);
    let cells = Segmenter::new(vc).segment(&Packet::from_bytes(vec![7; 1_000]));
    let (ptr, n) = (cells.as_ptr(), cells.len());
    r.f.send_cells(vc, cells);
    let batches = outbox_of(&r.f, vc).batches();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].as_slice().as_ptr(), ptr, "the caller's buffer");
    assert_eq!(batches[0].len(), n);
    assert_eq!(r.f.outbox_len(vc), n);
}

#[test]
fn outbox_is_fifo_across_batches_of_mixed_sizes() {
    let mut r = rig(64);
    let vc = VcId::new(7);
    r.open(vc, NEAR_A, TrafficClass::BestEffort, 0);
    let seg = Segmenter::new(vc);
    let packets = [200, 10, 100].map(|n| Packet::from_bytes(vec![n as u8; n]));
    let [a, b, c] = [0, 1, 2].map(|i| seg.segment(&packets[i]));
    assert_eq!([a.len(), b.len(), c.len()], [5, 1, 3]);
    // Packet a split over two batches (a `Vec`, then an iterator), b as an
    // array, c as a `Vec`: four batches of 2, 3, 1 and 3 cells.
    r.f.send_cells(vc, a[..2].to_vec());
    r.f.send_cells(vc, a[2..].iter().copied());
    r.f.send_cells(vc, b);
    r.f.send_cells(vc, c);
    let sizes =
        |f: &Fabric| -> Vec<usize> { outbox_of(f, vc).batches().iter().map(|b| b.len()).collect() };
    assert_eq!(sizes(&r.f), [2, 3, 1, 3]);
    // Each injection takes the front cell, and a batch goes once emptied.
    let mut left = 9;
    while left > 0 {
        r.f.step(1);
        let now = r.f.outbox_len(vc);
        assert!(now == left || now + 1 == left, "one cell per slot at most");
        left = now;
        let s = sizes(&r.f);
        assert_eq!(s.iter().sum::<usize>(), left);
        assert!(s.iter().all(|&n| n > 0), "an empty batch was kept: {s:?}");
        assert_outbox_cells_exact(&r.f, "draining");
    }
    r.f.step(100);
    let got: Vec<Packet> = r.f.take_received(FAR).into_iter().map(|(_, p)| p).collect();
    assert_eq!(got, packets, "the packets arrive whole and in order");
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "carries another circuit's header")]
fn another_circuits_cells_are_refused() {
    let mut r = rig(64);
    let (seven, eight) = (VcId::new(7), VcId::new(8));
    r.open(seven, NEAR_A, TrafficClass::BestEffort, 0);
    r.open(eight, NEAR_A, TrafficClass::BestEffort, 0);
    let cells = Segmenter::new(seven).segment(&Packet::from_bytes(vec![7; 100]));
    r.f.send_cells(eight, cells);
}

#[test]
fn an_empty_send_adds_no_batch() {
    let mut r = rig(64);
    let vc = VcId::new(7);
    r.open(vc, NEAR_A, TrafficClass::BestEffort, 0);
    r.f.send_cells(vc, Vec::new());
    r.f.send_cells(vc, std::iter::empty());
    assert!(outbox_of(&r.f, vc).batches().is_empty());
    assert_eq!((r.f.outbox_len(vc), r.f.outbox_cells), (0, 0));
    assert_ready_sets_exact(&r.f, "empty send");
    r.send(vc, 100);
    r.f.send_cells(vc, Vec::new());
    assert_eq!(outbox_of(&r.f, vc).batches().len(), 1);
}

#[test]
fn exhausted_batches_are_dropped_across_top_ups() {
    // The benchmark's steady top-up: between stretches of slots, each
    // circuit is refilled one packet per call until it holds a floor.
    let mut r = rig(64);
    let vcs = [VcId::new(7), VcId::new(8)];
    for (i, &vc) in vcs.iter().enumerate() {
        r.open(vc, [NEAR_A, NEAR_B][i], TrafficClass::BestEffort, 0);
    }
    let packets = vcs.map(|vc| Segmenter::new(vc).segment(&Packet::from_bytes(vec![1; 300])));
    let floor = 3 * packets[0].len();
    // Per circuit, the running total of cells pushed at each call's end.
    let mut call_ends: [Vec<usize>; 2] = Default::default();
    let mut pushed = [0usize; 2];
    for round in 0..100 {
        for (i, &vc) in vcs.iter().enumerate() {
            while r.f.outbox_len(vc) < floor {
                r.f.send_cells(vc, packets[i].iter().copied());
                pushed[i] += packets[i].len();
                call_ends[i].push(pushed[i]);
            }
        }
        r.f.step(7);
        for (i, &vc) in vcs.iter().enumerate() {
            let sent = pushed[i] - r.f.outbox_len(vc);
            let undrained = call_ends[i].iter().filter(|&&end| end > sent).count();
            let batches = outbox_of(&r.f, vc).batches().len();
            assert!(
                batches <= undrained,
                "round {round}, vc {vc}: {batches} batches for {undrained} undrained calls"
            );
        }
        assert_outbox_cells_exact(&r.f, "top-up");
    }
    let calls = call_ends.each_ref().map(Vec::len);
    assert!(calls.iter().all(|&n| n > 10), "too few top-ups: {calls:?}");
}

#[test]
fn closing_a_circuit_takes_its_cells_off_the_count() {
    let mut r = rig(64);
    let ids = scattered_ids(12);
    for (i, &vc) in ids.iter().enumerate() {
        r.open(vc, [NEAR_A, NEAR_B][i % 2], TrafficClass::BestEffort, 0);
        r.send(vc, 500 + 100 * i);
        r.send(vc, 50);
    }
    r.f.step(30);
    assert_outbox_cells_exact(&r.f, "loaded");
    for (i, &vc) in ids.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
        let queued = r.f.outbox_len(vc);
        assert!(queued > 0, "circuit {i} drained early");
        let before = r.f.outbox_cells;
        r.f.close_circuit(vc).unwrap();
        assert_eq!(r.f.outbox_cells, before - queued, "close {vc}");
        assert_outbox_cells_exact(&r.f, "after close");
        assert_ready_sets_exact(&r.f, "after close");
    }
    r.f.step(5_000);
    assert_eq!(r.f.outbox_cells, 0);
    assert_outbox_cells_exact(&r.f, "drained");
}
