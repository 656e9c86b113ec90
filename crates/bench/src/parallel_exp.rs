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

use crate::scenario::Scenario;
use std::fmt::Write;
use std::time::Instant;

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

/// N6 — the sharded data plane on the 1024-switch fat-tree at 1/2/4/8
/// shards. Three interleaved passes over the sweep, fastest wall time per point
/// counts; stats digests must match the sequential engine exactly, and on a
/// box with at least two cores 2 shards must beat 1 on the clock.
pub fn n6_parallel_dataplane() -> (Vec<ShardScaling>, String) {
    let slots = 3_000u64;
    let (arity, levels) = (2, 8); // 1024 switches, 256 hosts
    let scenario = Scenario::tree_saturating(arity, levels, slots);
    let sweep = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut wall_ms = vec![f64::MAX; sweep.len()];
    let mut balance = vec![1.0; sweep.len()];
    let mut base: Option<(u64, u64)> = None;
    for _ in 0..3 {
        for (i, &shards) in sweep.iter().enumerate() {
            let mut f = scenario.fabric(7, |f| f.set_shards(shards));
            let t = Instant::now();
            f.step(slots);
            wall_ms[i] = wall_ms[i].min(t.elapsed().as_secs_f64() * 1e3);
            balance[i] = shard_balance(&f);
            let digest = scenario.stats_digest(&f);
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

    let mut out = String::new();
    let _ = writeln!(
        out,
        "N6  sharded data plane: {} switches ({}-ary {}-level fat-tree), \
         {} circuits, persistent shard workers, nproc = {cores}",
        scenario.topology().switch_count(),
        arity,
        levels,
        scenario.circuits()
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
        let scenario = Scenario::tree_saturating(2, 4, slots);
        let mut base = None;
        for shards in [1usize, 2, 4, 8] {
            let mut f = scenario.fabric(7, |f| f.set_shards(shards));
            f.step(slots);
            let digest = scenario.stats_digest(&f);
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
        let scenario = Scenario::tree_saturating(2, 4, slots);
        let mut f = scenario.fabric(7, |f| f.set_shards(4));
        f.step(slots);
        assert!(f.shard_work().iter().sum::<u64>() > 0, "no work recorded");
        assert!(
            shard_balance(&f) > 2.0,
            "4-way plan leaves one shard most of the work: {:?}",
            f.shard_work()
        );
    }
}
