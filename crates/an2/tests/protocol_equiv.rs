//! Refactor-equivalence suite: the trait-wrapped up*/down* agent must be
//! byte-identical to the pre-refactor control plane.
//!
//! The digests pinned in `PINNED` were captured by running this exact
//! grid against the pre-refactor control plane (commit 7e5b096, where
//! `ControlPlane` drove `SwitchAgent` directly). Any refactor of the
//! protocol layer must reproduce them bit for bit: same reconfiguration
//! log, same control-cell counters (same RNG draws on the lossy links),
//! same per-circuit stats.

mod grid;

use an2::{FlapEvent, Network, ReconfigEvent};
use an2_sim::Fnv;
use an2_topology::Topology;

/// The grid's topologies, by the index `PINNED` rows carry.
const SHAPES: [fn() -> Topology; 3] = [grid::src4x8, grid::src6x12, grid::ring5x10];

/// One grid cell: boot, a mid-run flap (down then back up) on a backbone
/// link, steady best-effort traffic throughout. Digest covers the typed
/// reconfiguration log, the control transport counters, and per-circuit
/// stats — everything the replay contract covers.
fn run_digest(which: u64, seed: u64) -> Vec<u64> {
    let topo = SHAPES[which as usize % 3]();
    let backbone: Vec<_> = topo.switch_links().collect();
    let victim = backbone[2 % backbone.len()].0;
    let mut spec = grid::pinged_spec();
    // Light independent loss so every control burst draws from the
    // per-link RNG streams: a refactor that changes message sizes, send
    // order, or cell counts shifts these draws and the digest catches it.
    spec.default_link.loss = an2::LossModel::Independent { p: 0.005 };
    spec.resync_interval_slots = 4_096;
    spec.flaps.push(FlapEvent {
        link: victim,
        down_at: 40_000,
        up_at: 150_000,
    });
    spec.flaps.push(FlapEvent {
        link: backbone[backbone.len() - 1].0,
        down_at: 260_000,
        up_at: grid::NEVER,
    });
    let mut net = Network::builder().topology(topo).seed(seed).build();
    let circuits = grid::open_pairs(&mut net, usize::MAX, None);
    net.attach_faults(&spec, seed);
    net.enable_control_plane();
    grid::send_rounds(&mut net, &circuits, 80, 5_000, 300);
    let mut d = Vec::new();
    for e in net.reconfig_log() {
        d.push(e.slot());
        d.push(match e {
            ReconfigEvent::LinkDead { link, .. } => 0x100 | link.0 as u64,
            ReconfigEvent::LinkWorking { link, .. } => 0x200 | link.0 as u64,
            ReconfigEvent::EpochStarted { tag, .. } => 0x300 | tag.epoch,
            ReconfigEvent::Quiesced { messages, .. } => 0x400 | messages,
            ReconfigEvent::RoutesInstalled {
                rerouted,
                kept,
                unroutable,
                ..
            } => 0x500 | (rerouted << 20) | (kept << 10) | unroutable,
            ReconfigEvent::LinkQuarantined {
                link,
                entered,
                level,
                ..
            } => 0x600 | ((*entered as u64) << 40) | ((*level as u64) << 20) | link.0 as u64,
        });
    }
    let c = net.ctrl_counters();
    d.extend([c.messages_sent, c.messages_lost, c.cells_sent]);
    for &vc in &circuits {
        if net.is_broken(vc) {
            continue;
        }
        let s = net.stats(vc).clone();
        d.extend([
            s.sent_cells,
            s.delivered_cells,
            s.lost_cells,
            s.dropped_cells,
        ]);
    }
    d
}

/// FNV-1a over the digest words: one pinned u64 per grid cell.
fn fnv(words: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &w in words {
        h.add(w);
    }
    h.finish()
}

/// (topology, seed, digest word count, FNV-1a of the digest words),
/// captured pre-refactor. See the module docs.
const PINNED: [(u64, u64, usize, u64); 9] = [
    (0, 3, 57, 0x22bd07f67bcea66d),
    (0, 7, 55, 0x77b78a11b786a281),
    (0, 21, 55, 0xfd6d438f52a95627),
    (1, 3, 65, 0x9d584ec93be822fb),
    (1, 7, 63, 0x7c1fed1266fd840e),
    (1, 21, 63, 0xdde72d39a413f903),
    (2, 3, 57, 0xbc167304771d9a11),
    (2, 7, 57, 0x1925b19acb419f80),
    (2, 21, 57, 0xea04606f3f32edad),
];

/// One row per grid cell: topology, seed, digest word count and FNV.
fn row((which, seed, words, fnv): (u64, u64, usize, u64)) -> String {
    format!("t{which}/s{seed} words={words} fnv={fnv:016x}\n")
}

#[test]
fn updown_digests_match_pre_refactor_baseline() {
    let actual: String = PINNED
        .iter()
        .map(|&(which, seed, ..)| {
            let d = run_digest(which, seed);
            row((which, seed, d.len(), fnv(&d)))
        })
        .collect();
    let pinned: String = PINNED.into_iter().map(row).collect();
    grid::assert_pins("trait-wrapped up*/down*", &actual, &pinned);
}
