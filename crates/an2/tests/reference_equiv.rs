//! Pins the slab fabric ([`an2::Fabric`]) to the answers of the map-based
//! fabric it replaced.
//!
//! The fabric is driven through a seeded workload — mixed best-effort /
//! guaranteed / signaled circuits, random packet traffic, a mid-run link
//! failure with reroutes, page-out and page-in. The workloads walk three
//! topology families, fewest switches first, each under six seeds, and each
//! point's answer is pinned in [`PINS`]: the final slot, then an FNV over
//! every surviving circuit's statistics with its latency samples in order,
//! one over every packet each host received, byte for byte, and one over
//! the circuits closed mid-run. The map-based fabric answered the same on
//! every point until it was retired.

mod grid;

use an2::{Fabric, FabricConfig};
use an2_sim::{Fnv, SimRng};
use an2_topology::paths;
use grid::Shape;

/// The three topology families, in the order the grid walks them: three
/// switches in a line, a four-switch ring, the paper's SRC installation.
const SHAPES: [Shape; 3] = [
    ("line3", grid::line3),
    ("ring4", grid::ring4),
    ("src4x6", grid::src4x6),
];

/// Drives `f` through the seeded workload and returns its pin line.
fn drive(label: &str, mut f: Fabric, wl_seed: u64) -> String {
    let mut wl = SimRng::new(wl_seed);
    let n_circ = 4 + wl.gen_range(4) as u32;
    let vcs = grid::open_mixed(&mut f, &mut wl, 0..n_circ);
    // Circuits closed mid-run: how many, and each one's raw id, delivered
    // and dropped cells at close.
    let mut closed = 0;
    let mut closed_hash = Fnv::new();
    for round in 0..10 {
        grid::offer(&mut f, &mut wl, &vcs, 1, 0.7, 900);
        f.step(20 + wl.gen_range(40) as u64);
        if round == 4 {
            let cut = grid::cut_loaded_link(&mut f, &vcs);
            for (vc, s) in cut.map_or_else(Vec::new, |c| c.closed) {
                closed += 1;
                for x in [vc.raw() as u64, s.delivered_cells, s.dropped_cells] {
                    closed_hash.add(x);
                }
            }
        }
        if round == 6 {
            for &(vc, _, _) in &vcs {
                if f.has_circuit(vc) && !f.is_paged_out(vc) && f.is_idle(vc, 5) {
                    f.page_out_circuit(vc);
                }
            }
        }
        if round == 8 {
            for &(vc, src, dst) in &vcs {
                if f.has_circuit(vc) && f.is_paged_out(vc) {
                    if let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) {
                        f.page_in_circuit(vc, sw, links, sl, dl);
                    }
                }
            }
        }
    }
    f.step(2_000);
    let mut open = 0;
    let mut stats = Fnv::new();
    for &(vc, _, _) in &vcs {
        if !f.has_circuit(vc) {
            continue;
        }
        open += 1;
        let s = f.stats(vc);
        for x in [
            vc.raw() as u64,
            s.sent_cells,
            s.delivered_cells,
            s.dropped_cells,
            s.packets_delivered,
            s.packets_corrupted,
            s.pages_out,
            s.pages_in,
        ] {
            stats.add(x);
        }
        let samples = s.latency_slots.samples();
        stats.add(samples.len() as u64);
        for &sample in samples {
            stats.add(sample);
        }
    }
    let mut bytes = Fnv::new();
    for h in f.topology().hosts().collect::<Vec<_>>() {
        let packets = f.take_received(h);
        bytes.add(h.0 as u64);
        bytes.add(packets.len() as u64);
        for (vc, p) in packets {
            bytes.add(vc.raw() as u64);
            bytes.add(p.as_bytes().len() as u64);
            bytes.bytes(p.as_bytes());
        }
    }
    format!(
        "{label} slot={} vcs={open} stats={:016x} bytes={:016x} closed={closed}:{:016x}\n",
        f.slot(),
        stats.finish(),
        bytes.finish(),
        closed_hash.finish()
    )
}

/// Topology × seed → the map-based oracle's answer, captured while the
/// oracle still ran beside the slab fabric.
const PINS: &str = "\
line3/s0 slot=2466 vcs=3 stats=e9c1b05db32d007f bytes=10773b2d5f3ffa48 closed=1:3f19b15800daf8f6\n\
line3/s1 slot=2414 vcs=2 stats=3bc913375b60e938 bytes=49fc6f1088571f5c closed=2:744b0f5371f2b82f\n\
line3/s2 slot=2407 vcs=3 stats=fd2d78e320ac9713 bytes=6520531698e68213 closed=3:ea5f5a8dc331e5c4\n\
line3/s3 slot=2404 vcs=2 stats=fffaa03f59c9ac89 bytes=a4fc15aa2e3e0aa7 closed=3:d0316817ed808360\n\
line3/s4 slot=2426 vcs=3 stats=04967ff5fa8c7827 bytes=6324d976d9e756ab closed=4:9b25935f63046c54\n\
line3/s5 slot=2327 vcs=2 stats=c61250a64d6d6b20 bytes=2a4c7bf494db2b22 closed=3:fa4bfb5b4fb63a38\n\
ring4/s0 slot=2460 vcs=4 stats=21205bb57d3be747 bytes=1f1e93e0c67ac580 closed=0:cbf29ce484222325\n\
ring4/s1 slot=2364 vcs=4 stats=ce61021bf43b7629 bytes=59acf11e94e7241a closed=0:cbf29ce484222325\n\
ring4/s2 slot=2390 vcs=6 stats=a15e7fdb276dfdb3 bytes=a57787d0067d7c84 closed=0:cbf29ce484222325\n\
ring4/s3 slot=2399 vcs=5 stats=15e34e13db85242e bytes=7a636949a001f851 closed=0:cbf29ce484222325\n\
ring4/s4 slot=2390 vcs=7 stats=c276085e5369b190 bytes=4b04a907dbfe5950 closed=0:cbf29ce484222325\n\
ring4/s5 slot=2323 vcs=5 stats=63568c7baeb3db4f bytes=57bb917855488815 closed=0:cbf29ce484222325\n\
src4x6/s0 slot=2460 vcs=4 stats=28dcbc1de3d69b7a bytes=1ef97dc4a09f93ef closed=0:cbf29ce484222325\n\
src4x6/s1 slot=2364 vcs=4 stats=e64cd03b9f531d8b bytes=ae4b6e877ee6bb9a closed=0:cbf29ce484222325\n\
src4x6/s2 slot=2390 vcs=6 stats=6002802052841b08 bytes=da017270552da183 closed=0:cbf29ce484222325\n\
src4x6/s3 slot=2370 vcs=5 stats=64cab14f1c8df7a5 bytes=9c2146008e055f14 closed=0:cbf29ce484222325\n\
src4x6/s4 slot=2380 vcs=7 stats=c39e5673a67d1165 bytes=878d90cf733e0aa0 closed=0:cbf29ce484222325\n\
src4x6/s5 slot=2323 vcs=5 stats=05497d47837f1f8f bytes=31022bb7b781cd50 closed=0:cbf29ce484222325\n\
";

#[test]
fn fabric_runs_reproduce_pinned_stats_and_bytes() {
    let mut actual = String::new();
    for (name, shape) in SHAPES {
        for seed in 0..6u64 {
            let f = Fabric::new(shape(), FabricConfig::default(), seed);
            actual += &drive(&format!("{name}/s{seed}"), f, seed + 100);
        }
    }
    grid::assert_pins("slab fabric", &actual, PINS);
}
