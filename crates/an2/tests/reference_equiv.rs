//! Property tests proving the slab fabric ([`an2::Fabric`]) is
//! behaviourally identical to the map-based oracle ([`an2::reference`]).
//!
//! Both fabrics are driven through the same seeded workload — mixed
//! best-effort / guaranteed / signaled circuits, random packet traffic, a
//! mid-run link failure with reroutes, page-out and page-in — and must
//! produce identical per-circuit statistics (including every latency
//! sample, in order), identical delivered packet bytes per host, and the
//! same final slot. The workloads walk three topology families, fewest
//! switches first, each under six seeds.

use an2::{FabricConfig, TrafficClass};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::SimRng;
use an2_topology::{generators, paths, HostId, LinkState, Node, SwitchId, Topology};

fn topology(idx: usize) -> Topology {
    match idx {
        // Three switches in a line, two hosts on each end switch.
        0 => {
            let mut t = generators::line(3);
            for s in [0u16, 0, 2, 2] {
                let h = t.add_host();
                t.attach_host(h, SwitchId(s)).unwrap();
            }
            t
        }
        // A four-switch ring, one host per switch.
        1 => {
            let mut t = generators::ring(4);
            for s in 0..4u16 {
                let h = t.add_host();
                t.attach_host(h, SwitchId(s)).unwrap();
            }
            t
        }
        // The paper's SRC installation shape: ring + chords, dual-homed.
        _ => generators::src_installation(4, 6),
    }
}

/// Everything observable about a finished run, for equality comparison.
#[derive(Debug, PartialEq)]
struct Summary {
    slot: u64,
    /// Per surviving circuit: raw id, sent, delivered, dropped, packets
    /// delivered, packets corrupted, pages out, pages in, latency samples.
    #[allow(clippy::type_complexity)]
    vcs: Vec<(u32, u64, u64, u64, u64, u64, u64, u64, Vec<u64>)>,
    /// Per host: delivered packets as (raw vc, payload bytes).
    #[allow(clippy::type_complexity)]
    received: Vec<(usize, Vec<(u32, Vec<u8>)>)>,
    /// Circuits closed mid-run: raw id, delivered, dropped at close.
    closed: Vec<(u32, u64, u64)>,
}

/// Drives one fabric (either implementation — they share an API, not a
/// trait, hence the macro) through the seeded workload and summarizes it.
macro_rules! drive {
    ($fabric:expr, $wl_seed:expr) => {{
        let mut f = $fabric;
        let mut wl = SimRng::new($wl_seed);
        let hosts: Vec<HostId> = (0..f.topology().host_count())
            .map(|h| HostId(h as u16))
            .collect();
        let mut vcs: Vec<(VcId, HostId, HostId)> = Vec::new();
        let n_circ = 4 + wl.gen_range(4);
        for i in 0..n_circ {
            let vc = VcId::new(100 + i as u32);
            let src = hosts[wl.gen_range(hosts.len())];
            let mut dst = hosts[wl.gen_range(hosts.len())];
            if dst == src {
                dst = hosts[(src.0 as usize + 1) % hosts.len()];
            }
            let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) else {
                continue;
            };
            match i % 4 {
                0 => f.open_circuit(
                    vc,
                    src,
                    dst,
                    TrafficClass::Guaranteed { cells_per_frame: 2 },
                    sw,
                    links,
                    sl,
                    dl,
                ),
                1 => f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl),
                _ => f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl),
            }
            vcs.push((vc, src, dst));
        }
        let mut closed: Vec<(u32, u64, u64)> = Vec::new();
        for round in 0..10 {
            for &(vc, _, _) in &vcs {
                if !f.has_circuit(vc) || f.is_paged_out(vc) {
                    continue;
                }
                if wl.gen_bool(0.7) {
                    let len = 40 + wl.gen_range(900);
                    let pkt = Packet::from_bytes(vec![(len % 251) as u8; len]);
                    f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
                }
            }
            f.step(20 + wl.gen_range(40) as u64);
            if round == 4 {
                // Cut the first loaded inter-switch link; reroute or close
                // every circuit that used it.
                let victim_link = f.topology().links().find(|&l| {
                    let (a, b) = f.topology().endpoints(l);
                    matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_)))
                        && f.topology().link_state(l) == LinkState::Working
                        && !f.circuits_using(l).is_empty()
                });
                if let Some(link) = victim_link {
                    let victims = f.circuits_using(link);
                    f.fail_link(link);
                    for vc in victims {
                        let (src, dst) = vcs
                            .iter()
                            .find(|(v, _, _)| *v == vc)
                            .map(|&(_, s, d)| (s, d))
                            .expect("victim was opened by this test");
                        match paths::host_wiring(f.topology(), src, dst) {
                            Some((sw, links, sl, dl)) => f.reroute_circuit(vc, sw, links, sl, dl),
                            None => {
                                if let Some(s) = f.close_circuit(vc) {
                                    closed.push((vc.raw(), s.delivered_cells, s.dropped_cells));
                                }
                            }
                        }
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
                        if let Some((sw, links, sl, dl)) =
                            paths::host_wiring(f.topology(), src, dst)
                        {
                            f.page_in_circuit(vc, sw, links, sl, dl);
                        }
                    }
                }
            }
        }
        f.step(2_000);
        let mut rows = Vec::new();
        for &(vc, _, _) in &vcs {
            if !f.has_circuit(vc) {
                continue;
            }
            let s = f.stats(vc);
            rows.push((
                vc.raw(),
                s.sent_cells,
                s.delivered_cells,
                s.dropped_cells,
                s.packets_delivered,
                s.packets_corrupted,
                s.pages_out,
                s.pages_in,
                s.latency_slots.samples().to_vec(),
            ));
        }
        let received = hosts
            .iter()
            .map(|&h| {
                (
                    h.0 as usize,
                    f.take_received(h)
                        .into_iter()
                        .map(|(vc, p)| (vc.raw(), p.as_bytes().to_vec()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>();
        Summary {
            slot: f.slot(),
            vcs: rows,
            received,
            closed,
        }
    }};
}

#[test]
fn slab_fabric_matches_reference() {
    let cfg = FabricConfig::default();
    for topo_idx in 0..3usize {
        for seed in 0..6u64 {
            let at = format!("topo {topo_idx}, seed {seed}");
            let wl_seed = seed + 100;
            let new = drive!(
                an2::Fabric::new(topology(topo_idx), cfg.clone(), seed),
                wl_seed
            );
            let old = drive!(
                an2::reference::Fabric::new(topology(topo_idx), cfg.clone(), seed),
                wl_seed
            );
            assert_eq!(new.slot, old.slot, "{at}: final slot");
            assert_eq!(new.closed, old.closed, "{at}: closed circuits");
            assert_eq!(new.vcs, old.vcs, "{at}: circuit statistics");
            assert_eq!(new.received, old.received, "{at}: delivered bytes");
        }
    }
}
