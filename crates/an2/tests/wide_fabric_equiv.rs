//! Wide-radix fabrics: a >64-port switch answers as the map-based fabric
//! did and like a composition of smaller switches.
//!
//! Two legs, three seeds each:
//!
//! * **Oracle.** A 96-port hub switch (multi-word `PortSet` path) under
//!   contending mixed traffic must leave the observables the map-based
//!   fabric the slab [`an2::Fabric`] replaced left, pinned in [`PINS`] —
//!   the same guarantee `reference_equiv` pins for ≤64-port switches, here
//!   exercising the wide-mask request/grant/accept loops and the wide
//!   guaranteed-traffic frame tables.
//! * **Composition.** With contention-free forced traffic (every input
//!   port carries one circuit to a distinct output port, so every
//!   matching decision is forced regardless of RNG draws), a 96-host hub
//!   must produce per-circuit statistics — including every latency
//!   sample — identical to two independent 48-host hubs each carrying
//!   half the circuits.

mod grid;

use an2::{Fabric, FabricConfig, TrafficClass};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{Fnv, SimRng};
use an2_topology::{generators, paths, HostId};

/// One observable stats tuple per circuit: counters plus every latency
/// sample in order.
type CircuitObs = (u64, u64, u64, u64, Vec<u64>);

fn observe(stats: &an2::VcStats) -> CircuitObs {
    (
        stats.sent_cells,
        stats.delivered_cells,
        stats.dropped_cells,
        stats.packets_delivered,
        stats.latency_slots.samples().to_vec(),
    )
}

// ---------------------------------------------------------------- oracle —

/// Drives a 96-port hub fabric with contending traffic and returns its
/// pin line: the final slot, then an FNV over every circuit's statistics
/// with its latency samples and one over every packet each host received.
fn drive_hub(seed: u64) -> String {
    let mut f = Fabric::new(generators::wide_hub(96), FabricConfig::default(), seed);
    let mut wl = SimRng::new(seed ^ 0xABCD);
    let mut vcs = Vec::new();
    for i in 0..40u32 {
        let vc = VcId::new(100 + i);
        let (src, dst) = grid::draw_pair(&mut wl, f.topology().host_count());
        let (sw, links, sl, dl) = paths::host_wiring(f.topology(), src, dst).expect("hub route");
        let class = if i % 5 == 0 {
            TrafficClass::Guaranteed { cells_per_frame: 2 }
        } else {
            TrafficClass::BestEffort
        };
        f.open_circuit(vc, src, dst, class, sw, links, sl, dl);
        vcs.push((vc, src, dst));
    }
    for _ in 0..6 {
        grid::offer(&mut f, &mut wl, &vcs, 1, 0.7, 500);
        f.step(15 + wl.gen_range(30) as u64);
    }
    f.step(3_000);

    let mut stats = Fnv::new();
    let mut delivered_any = false;
    for &(vc, _, _) in &vcs {
        let (sent, delivered, dropped, packets, samples) = observe(f.stats(vc));
        delivered_any |= delivered > 0;
        for x in [sent, delivered, dropped, packets, samples.len() as u64] {
            stats.add(x);
        }
        for sample in samples {
            stats.add(sample);
        }
    }
    assert!(delivered_any, "seed {seed}: workload moved no traffic");
    let mut bytes = Fnv::new();
    for h in f.topology().hosts().collect::<Vec<_>>() {
        let packets = f.take_received(h);
        bytes.add(packets.len() as u64);
        for (vc, p) in packets {
            bytes.add(vc.raw() as u64);
            bytes.add(p.as_bytes().len() as u64);
            bytes.bytes(p.as_bytes());
        }
    }
    format!(
        "s{seed} slot={} stats={:016x} bytes={:016x}\n",
        f.slot(),
        stats.finish(),
        bytes.finish()
    )
}

/// Seed → the map-based oracle's answer on the 96-port hub, captured while
/// the oracle still ran beside the slab fabric.
const PINS: &str = "\
s5 slot=3176 stats=a74a60dfaefc504e bytes=7fb5928ee91f0b34\n\
s29 slot=3156 stats=91702fba367cafb1 bytes=a081d6e6e0c18f49\n\
s73 slot=3161 stats=39351a167e619f40 bytes=2e25b2cd0192803a\n\
";

#[test]
fn wide_hub_runs_reproduce_pinned_stats_and_bytes() {
    let mut actual = String::new();
    for seed in [5u64, 29, 73] {
        actual += &drive_hub(seed);
    }
    grid::assert_pins("96-port hub", &actual, PINS);
}

// ----------------------------------------------------------- composition —

/// Opens `pairs` forced circuits (host `2i` → host `2i+1`) on a hub
/// fabric, pushes the same per-circuit packet schedule, and returns each
/// circuit's observable stats in order.
/// `index_offset` shifts the per-circuit packet schedule so a half-size
/// run can replay exactly the schedule its circuits saw in the full run.
fn forced_run(hosts: usize, seed: u64, index_offset: usize) -> Vec<CircuitObs> {
    let mut f = Fabric::new(generators::wide_hub(hosts), FabricConfig::default(), seed);
    let pairs = hosts / 2;
    let vcs: Vec<VcId> = (0..pairs as u32).map(|i| VcId::new(200 + i)).collect();
    for (i, &vc) in vcs.iter().enumerate() {
        let src = HostId(2 * i as u16);
        let dst = HostId(2 * i as u16 + 1);
        let (sw, links, sl, dl) = paths::host_wiring(f.topology(), src, dst).expect("hub route");
        f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl);
    }
    for round in 0..5 {
        for (i, &vc) in vcs.iter().enumerate() {
            // A schedule that depends only on the global circuit index,
            // not on the fabric width, so halves see identical input.
            let len = 60 + 37 * ((index_offset + i + round) % 11);
            let pkt = Packet::from_bytes(vec![(len % 251) as u8; len]);
            f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
        }
        f.step(40);
    }
    f.step(2_000);
    vcs.iter().map(|&vc| observe(f.stats(vc))).collect()
}

#[test]
fn wide_hub_equals_composition_of_narrow_hubs() {
    for seed in [2u64, 41, 97] {
        let whole = forced_run(96, seed, 0);
        // Two 48-host hubs: the first carries circuits 0..24, the second
        // circuits 24..48 (relabelled onto hosts 0..48). Forced matchings
        // make per-circuit behaviour independent of which hub carries the
        // circuit and of every RNG draw.
        let lo = forced_run(48, seed.wrapping_add(1), 0);
        let hi = forced_run(48, seed.wrapping_add(2), 24);
        assert_eq!(whole.len(), lo.len() + hi.len());
        for (i, obs) in whole.iter().enumerate() {
            let half = if i < lo.len() {
                &lo[i]
            } else {
                &hi[i - lo.len()]
            };
            assert!(obs.1 > 0, "seed {seed}: circuit {i} delivered nothing");
            assert_eq!(
                obs, half,
                "seed {seed}: circuit {i} diverged between the 96-port hub \
                 and the 48-port composition"
            );
        }
    }
}
