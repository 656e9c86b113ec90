//! Every way into the parallel slot engine gives the sequential run.
//!
//! A fabric split into shards (switch groups worked by persistent threads
//! behind one release and one join per slot) must digest byte-identical to
//! one shard. That shard count is invisible on the mixed workloads is a
//! pinned claim of `watermark_equiv` (`fast_forwarding_is_invisible` at 1,
//! 2, 3, 4, 5 and 64 shards, traced and untraced, and the `Network` legs at
//! 1, 2 and 4). What stays here are the workloads no pin walks: each
//! condition that keeps the switches with the calling thread, a traced run
//! spread over the crew, `step(1)` × n against `step(n)`, shard counts
//! changed mid-run, and eight real lanes on a 32-switch tree.

mod grid;

use an2::{Fabric, FabricConfig, FaultSpec, TrafficClass};
use an2_cells::{Packet, Segmenter, VcId};
use an2_topology::{generators, paths, HostId};

/// How a [`leg_run`] is set up and sliced into `step` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg {
    /// Nothing attached, one `step` call per quiet gap: the crew's home turf.
    Plain,
    /// The same run as `step(1)` × n: a crew per slot.
    SingleSteps,
    /// Shard count changed between bursts (3 → the leg's count → 1 → back).
    ReshardMidRun,
    /// A tracer attached (digest folds in the recording, in order): the
    /// switches record into their own lanes, so the crew keeps running.
    Traced,
    /// Fallback: an (inert) fault layer attached.
    Faulted,
    /// Fallback: a signalled set-up in flight when `step` is entered.
    SignalledSetup,
    /// `Plain` one level deeper: 32 switches, so 8 shards are 8 real lanes.
    DeepTree,
}

/// Bursts of best-effort traffic on the 12-switch fat-tree separated by
/// long quiet gaps. Returns the digest of everything observable (traced,
/// with the record stream folded in) and each shard lane's count of
/// backlogged switch steps.
fn leg_run(leg: Leg, shards: usize) -> (u64, Vec<u64>) {
    let topo = if leg == Leg::DeepTree {
        generators::fat_tree(2, 4)
    } else {
        grid::fat2x3()
    };
    let mut f = Fabric::new(topo, FabricConfig::default(), 41);
    f.set_shards(if leg == Leg::ReshardMidRun { 3 } else { shards });
    let tracer = (leg == Leg::Traced).then(|| grid::attach_tracer(&mut f, 64));
    if leg == Leg::Faulted {
        f.attach_faults(&FaultSpec::default(), 5);
    }
    let hosts = f.topology().host_count() as u16;
    let mut vcs = Vec::new();
    for h in 0..hosts {
        let vc = VcId::new(200 + h as u32);
        let (src, dst) = (HostId(h), HostId((h + 3) % hosts));
        let (sw, links, sl, dl) =
            paths::host_wiring(f.topology(), src, dst).expect("tree is connected");
        if leg == Leg::SignalledSetup && h % 2 == 0 {
            f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl);
        } else {
            f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl);
        }
        vcs.push(vc);
    }
    for burst in 0..4usize {
        for (i, &vc) in vcs.iter().enumerate() {
            let pkt = Packet::from_bytes(vec![(burst * 16 + i) as u8; 200 + 90 * i]);
            f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
        }
        if leg == Leg::ReshardMidRun {
            f.set_shards([shards, 1, shards, 2][burst]);
        }
        if leg == Leg::SingleSteps {
            for _ in 0..1_500 {
                f.step(1);
            }
        } else {
            f.step(1_500);
        }
    }

    for &vc in &vcs {
        let s = f.stats(vc);
        assert_eq!(
            s.sent_cells, s.delivered_cells,
            "{leg:?}: {vc} did not drain"
        );
    }
    let work = f.shard_work().to_vec();
    let (digest, traced) = grid::with_records(grid::fabric_digest(&mut f), tracer.as_ref());
    (traced.unwrap_or(digest), work)
}

/// Every way into the slot engine gives the sequential run's digest: each
/// condition that keeps the switches with the calling thread, `step(1)` × n
/// against `step(n)`, and shard counts changed mid-run.
#[test]
fn every_engine_path_matches_the_sequential_run() {
    let (plain, _) = leg_run(Leg::Plain, 1);
    for leg in [Leg::Plain, Leg::SingleSteps, Leg::ReshardMidRun] {
        for shards in [1usize, 2, 5] {
            assert_eq!(plain, leg_run(leg, shards).0, "{leg:?} at {shards} shards");
        }
    }
    // The record stream is the 1-shard one at any shard count, with the
    // work really spread over the lanes (not funnelled through one).
    let (traced, _) = leg_run(Leg::Traced, 1);
    for shards in [2usize, 3, 5] {
        let (digest, work) = leg_run(Leg::Traced, shards);
        let lanes_worked = work.iter().filter(|&&w| w > 0).count();
        assert_eq!(traced, digest, "trace at {shards} shards");
        assert!(
            lanes_worked > 1,
            "traced run at {shards} shards stepped switches on {lanes_worked} lane(s)"
        );
    }
    for leg in [Leg::Faulted, Leg::SignalledSetup] {
        let (base, _) = leg_run(leg, 1);
        for shards in [2usize, 5] {
            assert_eq!(base, leg_run(leg, shards).0, "{leg:?} at {shards} shards");
        }
    }
    // Eight real lanes digest as one, and a 4-way block plan spreads the
    // switch phase: no lane holds half the backlogged steps (sum/max > 2).
    let (deep, _) = leg_run(Leg::DeepTree, 1);
    assert_eq!(deep, leg_run(Leg::DeepTree, 8).0, "DeepTree at 8 shards");
    let (digest, work) = leg_run(Leg::DeepTree, 4);
    assert_eq!(deep, digest, "DeepTree at 4 shards");
    let busiest = *work.iter().max().expect("four lanes");
    assert!(
        work.iter().sum::<u64>() > 2 * busiest,
        "4-way plan leaves one lane most of the work: {work:?}"
    );
}

/// Nothing separates two switches without link latency — a cell launched in
/// a slot would be due after that slot's deliveries had run, and never
/// arrive — so the value is refused where it enters.
#[test]
#[should_panic(expected = "link_latency_slots")]
fn zero_link_latency_is_rejected() {
    let cfg = FabricConfig {
        link_latency_slots: 0,
        ..FabricConfig::default()
    };
    let _ = Fabric::new(grid::fat2x3(), cfg, 41);
}
