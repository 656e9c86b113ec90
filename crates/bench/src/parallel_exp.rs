//! Experiment N6: the sharded data plane on the clock.
//!
//! The fabric's persistent shard workers (switch groups worked by threads
//! that live for a whole `Fabric::step` call, one release and one join per
//! slot, departures committed in canonical switch order) are exercised on a
//! 1024-switch fat-tree — `fat_tree(2, 8)`, the largest AN2 installation in
//! the repository — at 1/2/4/8 shards.
//!
//! The headline is **wall speedup vs 1 shard**: fastest-of-3 wall time of
//! the same window on the machine running the harness, whose core count is
//! printed with the table — shards beyond it are multiplexed onto the
//! threads there are, so the curve flattens at `nproc`. Beside it,
//! **shard balance (count)** is `sum / max` of the per-shard busy
//! switch-step counts: how evenly the plan spreads the switch phase, a
//! count no clock ever saw and not a speedup.
//!
//! Every shard count must deliver byte-identical results — asserted here
//! over a full per-circuit stats digest, and proven more broadly by the
//! `shard_equiv` property suite — and with two or more cores the 2-shard
//! run must beat the 1-shard one on the clock.

use crate::parallel;
use an2::{FabricConfig, TrafficClass};
use an2_cells::{Cell, Packet, Segmenter, VcId};
use an2_topology::{generators, paths, HostId, LinkId, SwitchId, Topology};
use std::fmt::Write;
use std::time::Instant;

type RouteParts = (Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId);

fn route(topo: &Topology, src: HostId, dst: HostId) -> Option<RouteParts> {
    let r = paths::host_route(topo, src, dst)?;
    let switches = r.switches;
    let mut links = Vec::new();
    for w in switches.windows(2) {
        links.push(*topo.links_between(w[0], w[1]).first()?);
    }
    let src_link = topo
        .host_attachments(src)
        .into_iter()
        .find(|&(_, s)| s == switches[0])
        .map(|(l, _)| l)?;
    let dst_link = topo
        .host_attachments(dst)
        .into_iter()
        .find(|&(_, s)| s == *switches.last().expect("non-empty route"))
        .map(|(l, _)| l)?;
    Some((switches, links, src_link, dst_link))
}

/// The fat-tree workload, built once (untimed): one best-effort circuit per
/// host, to the partner found by flipping host bit `i mod 8` — a mix of
/// route lengths that exercises every tree level without funnelling all
/// traffic through one spine switch — with enough pre-segmented packets
/// that no outbox runs dry inside the measured window.
pub struct TreeScenario {
    topo_arity: usize,
    topo_levels: usize,
    circuits: Vec<(VcId, HostId, HostId, RouteParts, Vec<Cell>)>,
}

impl TreeScenario {
    /// Builds the workload on `fat_tree(arity, levels)` for a measured
    /// window of `slots` (sizes the per-circuit preload).
    pub fn new(arity: usize, levels: usize, slots: u64) -> Self {
        let topo = generators::fat_tree(arity, levels);
        let hosts = topo.host_count();
        let payload = vec![5u8; 7_950];
        let mut circuits = Vec::new();
        let host_bits = hosts.trailing_zeros().max(1) as usize;
        for i in 0..hosts {
            let src = HostId(i as u16);
            let dst = HostId((i ^ (1 << (i % host_bits))) as u16);
            let vc = VcId::new(100 + i as u32);
            let Some(parts) = route(&topo, src, dst) else {
                continue;
            };
            let pkt = Packet::from_bytes(payload.clone());
            let per_packet = Segmenter::new(vc).segment(&pkt);
            // One cell per host per slot is the injection ceiling; round up
            // a packet so the window never drains the outbox.
            let packets = (slots as usize / per_packet.len()) + 1;
            let mut cells = Vec::with_capacity(per_packet.len() * packets);
            for _ in 0..packets {
                cells.extend_from_slice(&per_packet);
            }
            circuits.push((vc, src, dst, parts, cells));
        }
        TreeScenario {
            topo_arity: arity,
            topo_levels: levels,
            circuits,
        }
    }

    /// A loaded fabric at the given shard count (untimed setup).
    pub fn prepare(&self, seed: u64, shards: usize) -> an2::Fabric {
        let topo = generators::fat_tree(self.topo_arity, self.topo_levels);
        let mut f = an2::Fabric::new(topo, FabricConfig::default(), seed);
        f.set_shards(shards);
        for (vc, src, dst, parts, cells) in &self.circuits {
            let (sw, links, sl, dl) = parts.clone();
            f.open_circuit(*vc, *src, *dst, TrafficClass::BestEffort, sw, links, sl, dl);
            f.send_cells(*vc, cells.clone());
        }
        f
    }
}

/// Digest of everything a run observes: per-circuit sent/delivered/dropped
/// counts and every latency sample, in order.
fn stats_digest(f: &an2::Fabric, scenario: &TreeScenario) -> (u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |x: u64| {
        for b in x.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x1_0000_01b3);
        }
    };
    let mut delivered = 0;
    for (vc, ..) in &scenario.circuits {
        let s = f.stats(*vc);
        delivered += s.delivered_cells;
        fnv(s.sent_cells);
        fnv(s.delivered_cells);
        fnv(s.dropped_cells);
        for &sample in s.latency_slots.samples() {
            fnv(sample);
        }
    }
    (digest, delivered)
}

/// One point on the N6 scaling curve.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Data-plane shards (1 = sequential stepping).
    pub shards: usize,
    /// Simulated slots in the measured window.
    pub slots: u64,
    /// Wall time of the measured window, milliseconds (fastest of 3).
    pub wall_ms: f64,
    /// Delivered cells per wall-clock second.
    pub cells_per_sec: f64,
    /// The 1-shard wall time over this one: the headline.
    pub wall_speedup: f64,
    /// `sum / max` of per-shard busy switch-steps: a count of how evenly
    /// the plan spreads the switch phase, not a timing.
    pub shard_balance: f64,
    /// Cells delivered — byte-identical across shard counts.
    pub delivered_cells: u64,
}

/// `sum / max` of the fabric's per-shard busy switch-step counts.
fn shard_balance(f: &an2::Fabric) -> f64 {
    let work = f.shard_work();
    let max = work.iter().copied().max().unwrap_or(1).max(1);
    work.iter().sum::<u64>() as f64 / max as f64
}

/// N6 — the sharded data plane on the 1024-switch fat-tree, swept over
/// power-of-two shard counts up to [`parallel::shard_count`] (default 8).
/// Three interleaved passes over the sweep, fastest wall time per point
/// counts; stats digests must match the sequential engine exactly, and on a
/// box with at least two cores 2 shards must beat 1 on the clock.
pub fn n6_parallel_dataplane() -> (Vec<ShardScaling>, String) {
    let slots = 3_000u64;
    let (arity, levels) = (2, 8); // 1024 switches, 256 hosts
    let scenario = TreeScenario::new(arity, levels, slots);
    let max_shards = parallel::shard_count();
    let mut sweep = vec![1usize];
    while *sweep.last().expect("non-empty") * 2 <= max_shards {
        sweep.push(sweep.last().expect("non-empty") * 2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut wall_ms = vec![f64::MAX; sweep.len()];
    let mut balance = vec![1.0; sweep.len()];
    let mut base: Option<(u64, u64)> = None;
    for _ in 0..3 {
        for (i, &shards) in sweep.iter().enumerate() {
            let mut f = scenario.prepare(7, shards);
            let t = Instant::now();
            f.step(slots);
            wall_ms[i] = wall_ms[i].min(t.elapsed().as_secs_f64() * 1e3);
            balance[i] = shard_balance(&f);
            let digest = stats_digest(&f, &scenario);
            assert_eq!(
                *base.get_or_insert(digest),
                digest,
                "{shards}-shard run diverged from the sequential digest"
            );
        }
    }
    let delivered_cells = base.expect("the sweep is never empty").1;
    let rows: Vec<ShardScaling> = sweep
        .iter()
        .enumerate()
        .map(|(i, &shards)| ShardScaling {
            shards,
            slots,
            wall_ms: wall_ms[i],
            cells_per_sec: delivered_cells as f64 / (wall_ms[i] / 1e3),
            wall_speedup: wall_ms[0] / wall_ms[i],
            shard_balance: balance[i],
            delivered_cells,
        })
        .collect();
    // The acceptance gate: given a second core, a second shard must pay.
    if cores >= 2 {
        if let Some(two) = rows.iter().find(|r| r.shards == 2) {
            assert!(
                two.wall_ms < rows[0].wall_ms,
                "2 shards ({:.1} ms) did not beat 1 shard ({:.1} ms) on {cores} cores",
                two.wall_ms,
                rows[0].wall_ms
            );
        }
    }

    let topo = generators::fat_tree(arity, levels);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N6  sharded data plane: {} switches ({}-ary {}-level fat-tree), \
         {} circuits, persistent shard workers, nproc = {cores}",
        topo.switch_count(),
        arity,
        levels,
        scenario.circuits.len()
    );
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>9} {:>10} {:>24} {:>22} {:>11}",
        "shards",
        "slots",
        "wall ms",
        "Mcells/s",
        "wall speedup vs 1 shard",
        "shard balance (count)",
        "delivered"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>9.1} {:>10.2} {:>23.2}x {:>22.2} {:>11}",
            r.shards,
            r.slots,
            r.wall_ms,
            r.cells_per_sec / 1e6,
            r.wall_speedup,
            r.shard_balance,
            r.delivered_cells
        );
    }
    let _ = writeln!(
        out,
        "identical stats digests at every shard count (the shard_equiv \
         property suite proves the same over random workloads, faults and \
         tracing); wall = fastest of 3 interleaved passes; shards beyond \
         nproc share the threads there are; shard balance = sum/max of \
         per-shard busy switch-steps, a count and not a speedup"
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tree_shard_sweep_is_deterministic() {
        // A 32-switch instance of the N6 workload: every shard count must
        // produce the same digest; the full-size curve runs in release via
        // the experiments binary.
        let slots = 400u64;
        let scenario = TreeScenario::new(2, 4, slots);
        let mut base = None;
        for shards in [1usize, 2, 4, 8] {
            let mut f = scenario.prepare(7, shards);
            f.step(slots);
            let digest = stats_digest(&f, &scenario);
            assert!(digest.1 > 0, "no traffic delivered at {shards} shards");
            match &base {
                None => base = Some(digest),
                Some(b) => assert_eq!(*b, digest, "diverged at {shards} shards"),
            }
        }
    }

    #[test]
    fn block_plan_spreads_the_switch_phase() {
        let slots = 400u64;
        let scenario = TreeScenario::new(2, 4, slots);
        let mut f = scenario.prepare(7, 4);
        f.step(slots);
        assert!(f.shard_work().iter().sum::<u64>() > 0, "no work recorded");
        assert!(
            shard_balance(&f) > 2.0,
            "4-way plan leaves one shard most of the work: {:?}",
            f.shard_work()
        );
    }
}
