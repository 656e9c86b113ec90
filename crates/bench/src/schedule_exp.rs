//! Experiments E7 and E9: Slepian–Duguid cost and schedule arrangement (§4).

use crate::parallel;
use an2_schedule::nested::{flat_max_interdeparture_gap, NestedFrameSchedule};
use an2_schedule::packing::{best_effort_stats, build_packed, build_spread, mean_free_slots};
use an2_schedule::{FrameSchedule, ReservationMatrix};
use an2_sim::SimRng;
use std::fmt::Write;

/// Insertion-cost measurements for one (N, frame) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertCost {
    /// Switch size.
    pub n: usize,
    /// Frame size in slots.
    pub frame: u32,
    /// Insertions performed while filling to ~90% capacity.
    pub insertions: u64,
    /// Mean displacement moves per insertion.
    pub mean_moves: f64,
    /// Maximum displacement moves observed.
    pub max_moves: usize,
}

/// One E7 cell: fills an (N, frame) schedule to ~90% capacity, measuring
/// displacement moves. Each cell seeds its own RNG from (N, frame), so
/// cells can run on any thread in any order.
pub(crate) fn e7_cell(n: usize, frame: u32) -> InsertCost {
    let mut rng = SimRng::new(700 + n as u64 + frame as u64);
    let mut res = ReservationMatrix::new(n, frame);
    let mut sched = FrameSchedule::new(n, frame);
    let target = (n as u64 * frame as u64) * 9 / 10;
    let mut insertions = 0u64;
    let mut total_moves = 0u64;
    let mut max_moves = 0usize;
    let mut attempts = 0u64;
    while insertions < target && attempts < target * 20 {
        attempts += 1;
        let i = rng.gen_range(n);
        let o = rng.gen_range(n);
        if res.reserve(i, o, 1).is_ok() {
            let trace = sched.insert(i, o).expect("feasible inserts");
            insertions += 1;
            total_moves += trace.swaps() as u64;
            max_moves = max_moves.max(trace.swaps());
        }
    }
    assert!(sched.satisfies(&res));
    InsertCost {
        n,
        frame,
        insertions,
        mean_moves: total_moves as f64 / insertions.max(1) as f64,
        max_moves,
    }
}

/// E7 — Slepian–Duguid insertion cost is linear in switch size and
/// independent of frame size (§4). Configurations run in parallel, each on
/// a seed derived from (N, frame).
pub fn e7_insertion_cost() -> (Vec<InsertCost>, String) {
    // Sweep N at fixed frame, then frame at fixed N.
    let mut cases: Vec<(usize, u32)> = vec![(4, 64), (8, 64), (16, 64), (32, 64)];
    cases.extend([(16, 16), (16, 128), (16, 1024)]);
    let rows = parallel::par_map(cases, |(n, frame)| e7_cell(n, frame));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7  Slepian-Duguid insertion cost (fill to ~90% capacity)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>12} {:>12} {:>10}",
        "N", "frame", "insertions", "mean moves", "max moves"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>12} {:>12.3} {:>10}",
            r.n, r.frame, r.insertions, r.mean_moves, r.max_moves
        );
    }
    let _ = writeln!(
        out,
        "paper: time per added cell is linear in switch size and independent \
         of frame size (max moves tracks N, not frame)"
    );
    (rows, out)
}

/// Best-effort opportunity under an arrangement strategy.
#[derive(Debug, Clone)]
pub struct Arrangement {
    /// Strategy label.
    pub strategy: String,
    /// Mean free (input, output)-pair slots per frame.
    pub mean_free_slots: f64,
    /// Mean over pairs of the worst best-effort wait (max cyclic gap).
    pub mean_max_gap: f64,
    /// Max interdeparture gap of the largest guaranteed circuit (jitter).
    pub stream_jitter_gap: u32,
}

/// E9 — packing vs spreading reserved slots, plus the nested-frame
/// extension (§4 future work).
pub fn e9_arrangement(n: usize, frame: u32, fill: f64) -> (Vec<Arrangement>, String) {
    let mut rng = SimRng::new(900);
    let mut res = ReservationMatrix::new(n, frame);
    // One fat stream plus random background reservations.
    let stream_cells = frame / 8;
    res.reserve(0, 1, stream_cells).unwrap();
    let target = (n as f64 * frame as f64 * fill) as u32;
    let mut placed = 0;
    let mut attempts = 0;
    while placed < target && attempts < target * 20 {
        attempts += 1;
        let i = rng.gen_range(n);
        let o = rng.gen_range(n);
        if res.reserve(i, o, 1).is_ok() {
            placed += 1;
        }
    }

    let measure = |name: &str, s: &FrameSchedule| {
        let mut gap_total = 0u64;
        for i in 0..n {
            for o in 0..n {
                gap_total += best_effort_stats(s, i, o).max_gap as u64;
            }
        }
        Arrangement {
            strategy: name.to_string(),
            mean_free_slots: mean_free_slots(s),
            mean_max_gap: gap_total as f64 / (n * n) as f64,
            stream_jitter_gap: flat_max_interdeparture_gap(s, 0, 1).unwrap_or(0),
        }
    };

    let packed = build_packed(&res);
    let spread = build_spread(&res);
    assert!(packed.satisfies(&res));
    assert!(spread.satisfies(&res));
    let mut rows = vec![
        measure("packed (first-fit)", &packed),
        measure("spread (balanced)", &spread),
    ];

    // Nested frames: the finest subframe split the density leaves headroom
    // for.
    for subframes in [8u32, 4, 2] {
        if frame.is_multiple_of(subframes) && NestedFrameSchedule::fits(&res, subframes) {
            let nested = NestedFrameSchedule::build(&res, subframes);
            rows.push(Arrangement {
                strategy: format!("nested ({subframes} subframes)"),
                mean_free_slots: f64::NAN,
                mean_max_gap: f64::NAN,
                stream_jitter_gap: nested.max_interdeparture_gap(0, 1).unwrap_or(0),
            });
            break;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9  schedule arrangement, {n}x{n} switch, {frame}-slot frame, \
         ~{:.0}% reserved + one {stream_cells}-cell stream",
        fill * 100.0
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16} {:>14} {:>14}",
        "strategy", "mean free slots", "mean max gap", "stream jitter"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<22} {:>16.1} {:>14.1} {:>14}",
            r.strategy, r.mean_free_slots, r.mean_max_gap, r.stream_jitter_gap
        );
    }
    let _ = writeln!(
        out,
        "paper: packing frees whole slots for best-effort; spreading the \
         unreserved slots shortens best-effort waits; nested frames bound a \
         stream's jitter by the subframe."
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_cost_scales_with_n_not_frame() {
        let (rows, _) = e7_insertion_cost();
        for r in &rows {
            assert!(
                r.max_moves <= 2 * r.n,
                "N={} frame={}: {} moves",
                r.n,
                r.frame,
                r.max_moves
            );
        }
        // Frame-size sweep at N=16: max moves must not grow with frame.
        let frames: Vec<&InsertCost> = rows.iter().filter(|r| r.n == 16).collect();
        let small = frames.iter().map(|r| r.max_moves).min().unwrap();
        let large = frames.iter().map(|r| r.max_moves).max().unwrap();
        assert!(large <= small.max(1) * 32 + 32, "frame size affected cost");
    }

    #[test]
    fn e7_cells_order_independent() {
        let cases = vec![(4usize, 16u32), (8, 16), (4, 32)];
        let serial = parallel::par_map_threads(cases.clone(), 1, |(n, f)| e7_cell(n, f));
        let threaded = parallel::par_map_threads(cases, 3, |(n, f)| e7_cell(n, f));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn e9_spread_beats_packed_on_gaps() {
        let (rows, _) = e9_arrangement(8, 64, 0.35);
        let packed = rows
            .iter()
            .find(|r| r.strategy.starts_with("packed"))
            .unwrap();
        let spread = rows
            .iter()
            .find(|r| r.strategy.starts_with("spread"))
            .unwrap();
        assert!(spread.mean_max_gap < packed.mean_max_gap);
        // A nested row exists at this density and bounds the stream jitter
        // by two subframes, whichever split was feasible.
        let nested = rows
            .iter()
            .find(|r| r.strategy.starts_with("nested"))
            .unwrap();
        let subframes: u32 = nested
            .strategy
            .trim_start_matches("nested (")
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(nested.stream_jitter_gap <= 2 * (64 / subframes));
    }
}
