//! Experiments E3–E6: crossbar scheduling (§3).

use an2_sim::SimRng;

use crate::{parallel, pct};
use an2_xbar::simulate::{simulate, ArrivalGen, Arrivals, Discipline, SwitchReport};
use an2_xbar::{CrossbarScheduler, DemandMatrix, GreedyMaximal, Islip, MaximumMatching, Pim};
use std::fmt::Write;

/// One measured point: a discipline under an arrival pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Discipline label.
    pub name: String,
    /// Offered load.
    pub load: f64,
    /// Delivered throughput (fraction of aggregate capacity).
    pub throughput: f64,
    /// Mean cell delay in slots (NaN when nothing was delivered).
    pub mean_delay: f64,
}

/// One cell of a sweep grid: everything a worker thread needs to run a
/// single (discipline, pattern, load) simulation independently.
///
/// `Discipline` holds a `Box<dyn CrossbarScheduler>` and is not `Send`, so
/// a cell carries a plain-function constructor and each worker builds the
/// scheduler locally. Every cell also names its own RNG seed, making the
/// grid order-independent: [`run_cell`] produces the same `Point` no matter
/// which thread runs it or when.
#[derive(Clone)]
pub struct SweepCell {
    /// Discipline label.
    pub name: &'static str,
    /// Builds the discipline for an `n`-port switch.
    pub make: fn(usize) -> Discipline,
    /// Arrival pattern (carries the offered load).
    pub pattern: Arrivals,
    /// Switch size.
    pub n: usize,
    /// Slots to simulate.
    pub slots: u64,
    /// Dedicated RNG seed for this cell.
    pub seed: u64,
}

/// Runs one sweep cell to completion on the calling thread.
pub fn run_cell(cell: SweepCell) -> Point {
    run_one(
        cell.name,
        (cell.make)(cell.n),
        cell.pattern,
        cell.n,
        cell.slots,
        cell.seed,
    )
}

fn run_one(
    name: &str,
    mut d: Discipline,
    pattern: Arrivals,
    n: usize,
    slots: u64,
    seed: u64,
) -> Point {
    let load = match &pattern {
        Arrivals::Uniform { load }
        | Arrivals::Hotspot { load, .. }
        | Arrivals::Permutation { load, .. }
        | Arrivals::Bursty { load, .. } => *load,
    };
    let mut gen = ArrivalGen::new(n, pattern);
    let mut rng = SimRng::new(seed);
    let r: SwitchReport = simulate(n, &mut d, &mut gen, slots, &mut rng);
    Point {
        name: name.to_string(),
        load,
        throughput: r.throughput(),
        mean_delay: r.mean_delay().unwrap_or(f64::NAN),
    }
}

/// The E3 grid: (load × {FIFO, PIM-3+VOQ}) cells in report order.
pub(crate) fn e3_cells(n: usize, slots: u64) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for load in [0.4, 0.5, 0.55, 0.6, 0.7, 0.85, 1.0] {
        cells.push(SweepCell {
            name: "FIFO",
            make: |_| Discipline::Fifo,
            pattern: Arrivals::Uniform { load },
            n,
            slots,
            seed: 100,
        });
        cells.push(SweepCell {
            name: "PIM-3+VOQ",
            make: |_| Discipline::Voq(Box::new(Pim::an2())),
            pattern: Arrivals::Uniform { load },
            n,
            slots,
            seed: 100,
        });
    }
    cells
}

/// E3 — FIFO input queueing saturates near 58% (Karol et al., §3):
/// throughput versus offered load for FIFO and for PIM+VOQ.
pub fn e3_fifo_saturation(n: usize, slots: u64) -> (Vec<Point>, String) {
    let points = parallel::par_map(e3_cells(n, slots), run_cell);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3  head-of-line blocking: FIFO vs VOQ+PIM, {n}x{n} switch, uniform arrivals"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>12}",
        "discipline", "load", "thruput", "mean delay"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<12} {:>6.2} {:>10.3} {:>12.1}",
            p.name, p.load, p.throughput, p.mean_delay
        );
    }
    let sat = points
        .iter()
        .filter(|p| p.name == "FIFO" && p.load >= 1.0)
        .map(|p| p.throughput)
        .next()
        .unwrap();
    let _ = writeln!(
        out,
        "FIFO saturation {sat:.3}; Karol et al. theory 2-sqrt(2) = {:.3}",
        2.0 - 2f64.sqrt()
    );
    (points, out)
}

/// Convergence measurements for E4.
#[derive(Debug, Clone, PartialEq)]
pub struct PimConvergence {
    /// Switch size.
    pub n: usize,
    /// Mean productive iterations to reach a maximal match.
    pub mean_iterations: f64,
    /// The paper's bound log2(N) + 4/3.
    pub bound: f64,
    /// Fraction of trials maximal within 4 iterations.
    pub within_4: f64,
}

/// One E4 cell: convergence statistics for a single switch size, on a
/// forked RNG stream derived from the size so the result is independent of
/// which thread runs it.
pub(crate) fn e4_cell(n: usize, trials: u64) -> PimConvergence {
    let mut rng = SimRng::new(42).fork(n as u64);
    let mut total = 0u64;
    let mut within4 = 0u64;
    for _ in 0..trials {
        let mut d = DemandMatrix::new(n);
        for i in 0..n {
            for o in 0..n {
                if rng.gen_bool(0.75) {
                    d.add(i, o, 1);
                }
            }
        }
        let out = Pim::run_to_maximal(&d, &mut rng);
        total += out.productive_iterations as u64;
        if out.productive_iterations <= 4 {
            within4 += 1;
        }
    }
    PimConvergence {
        n,
        mean_iterations: total as f64 / trials as f64,
        bound: (n as f64).log2() + 4.0 / 3.0,
        within_4: within4 as f64 / trials as f64,
    }
}

/// E4 — PIM converges in expected ≤ log₂N + 4/3 iterations; ≥98% of slots
/// within 4 (§3). Measured under dense random demand per size; the sizes
/// run in parallel on per-size forked RNG streams.
pub fn e4_pim_convergence(sizes: &[usize], trials: u64) -> (Vec<PimConvergence>, String) {
    let rows = parallel::par_map(sizes.to_vec(), |n| e4_cell(n, trials));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4  PIM iterations to a maximal match ({trials} trials per size)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>18} {:>12}",
        "N", "mean iter", "bound log2N+4/3", "within 4"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>4} {:>10.2} {:>18.2} {:>12}",
            r.n,
            r.mean_iterations,
            r.bound,
            pct(r.within_4)
        );
    }
    let _ = writeln!(
        out,
        "paper: 5.32 expected at N=16; >98% within 4 iterations"
    );
    (rows, out)
}

/// A named discipline constructor for the comparison table.
type DisciplineCase = (&'static str, fn(usize) -> Discipline);

/// The eight disciplines compared in E5, in column order.
fn e5_disciplines() -> Vec<DisciplineCase> {
    vec![
        ("FIFO", |_| Discipline::Fifo),
        ("PIM-1", |_| Discipline::Voq(Box::new(Pim::new(1)))),
        ("PIM-3", |_| Discipline::Voq(Box::new(Pim::an2()))),
        ("PIM-4", |_| Discipline::Voq(Box::new(Pim::new(4)))),
        ("iSLIP-3", |n| Discipline::Voq(Box::new(Islip::new(n, 3)))),
        ("greedy", |_| {
            Discipline::Voq(Box::new(GreedyMaximal::new()))
        }),
        ("OQ-k4", |_| Discipline::OutputQueued { speedup: 4 }),
        ("OQ-k16", |_| Discipline::OutputQueued { speedup: 16 }),
    ]
}

/// A named arrival-pattern constructor for the comparison table.
type PatternCase = (&'static str, fn(f64) -> Arrivals);

/// The three arrival patterns compared in E5, in table order.
fn e5_patterns() -> [PatternCase; 3] {
    [
        ("uniform", |load| Arrivals::Uniform { load }),
        ("bursty(16)", |load| Arrivals::Bursty {
            load,
            mean_burst: 16.0,
        }),
        ("hotspot(25%->out0)", |load| Arrivals::Hotspot {
            load,
            hot_output: 0,
            hot_fraction: 0.25,
        }),
    ]
}

/// The E5 grid: pattern × load × discipline cells, in report order.
pub(crate) fn e5_cells(n: usize, slots: u64) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for (_, make_pattern) in e5_patterns() {
        for load in [0.5, 0.8, 0.95] {
            for (name, make) in e5_disciplines() {
                cells.push(SweepCell {
                    name,
                    make,
                    pattern: make_pattern(load),
                    n,
                    slots,
                    seed: 200,
                });
            }
        }
    }
    cells
}

/// E5 — the §3 headline: PIM(3)+VOQ vs output queueing k=16 (and other
/// disciplines) across loads and arrival patterns. The 72-cell grid runs in
/// parallel; each cell seeds its own RNG so the table is identical to a
/// serial run.
pub fn e5_discipline_comparison(n: usize, slots: u64) -> (Vec<Point>, String) {
    let points = parallel::par_map(e5_cells(n, slots), run_cell);
    let disciplines = e5_disciplines();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E5  disciplines across loads and patterns, {n}x{n} switch"
    );
    let mut next = points.iter();
    for (pattern_name, _) in e5_patterns() {
        let _ = writeln!(out, "\n[{pattern_name} arrivals]");
        let _ = write!(out, "{:<10}", "load");
        for (name, _) in &disciplines {
            let _ = write!(out, " {name:>9}");
        }
        let _ = writeln!(out, "   (mean delay in slots)");
        for load in [0.5, 0.8, 0.95] {
            let _ = write!(out, "{load:<10.2}");
            for _ in &disciplines {
                let p = next.next().expect("grid size mismatch");
                let _ = write!(out, " {:>9.1}", p.mean_delay);
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "\npaper: PIM-3 + random-access buffers ~= output queueing k=16 with \
         unbounded buffers"
    );
    (points, out)
}

/// Starvation counts for E6.
#[derive(Debug, Clone)]
pub struct Starvation {
    /// Scheduler label.
    pub scheduler: String,
    /// Times the contested circuit (input 0 → output 2) was served.
    pub contested_served: u64,
    /// Times circuit input 0 → output 1 was served.
    pub easy_served: u64,
    /// Times circuit input 3 → output 2 was served.
    pub rival_served: u64,
}

/// E6 — the §3 starvation example: "input 1 consistently has cells for
/// outputs 2 and 3, and input 4 consistently has cells for output 3"
/// (0-based: input 0 → {1, 2}, input 3 → {2}). A deterministic maximum
/// matcher starves 0→2 forever; PIM's randomness serves everyone.
pub fn e6_starvation(slots: u64) -> (Vec<Starvation>, String) {
    fn run(name: &str, sched: &mut dyn CrossbarScheduler, slots: u64) -> Starvation {
        let mut rng = SimRng::new(300);
        let mut s = Starvation {
            scheduler: name.to_string(),
            contested_served: 0,
            easy_served: 0,
            rival_served: 0,
        };
        // Persistent backlog on all three circuits.
        let mut d = DemandMatrix::new(4);
        d.add(0, 1, 1_000_000);
        d.add(0, 2, 1_000_000);
        d.add(3, 2, 1_000_000);
        for _ in 0..slots {
            let m = sched.schedule(&d, &mut rng);
            match m.output_of(0) {
                Some(1) => s.easy_served += 1,
                Some(2) => s.contested_served += 1,
                _ => {}
            }
            if m.output_of(3) == Some(2) {
                s.rival_served += 1;
            }
        }
        s
    }
    let mut rows = vec![run(
        "maximum (Hopcroft-Karp)",
        &mut MaximumMatching::new(),
        slots,
    )];
    rows.push(run("PIM-3", &mut Pim::an2(), slots));
    rows.push(run("iSLIP-3", &mut Islip::new(4, 3), slots));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E6  starvation under maximum matching ({slots} slots, persistent demand)"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>10}",
        "scheduler", "0->1", "0->2", "3->2"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>10} {:>10}",
            r.scheduler, r.easy_served, r.contested_served, r.rival_served
        );
    }
    let _ = writeln!(
        out,
        "paper: the maximum match always pairs 0->1 and 3->2; circuit 0->2 \
         is starved. PIM's random grants protect it."
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_shapes() {
        let (points, text) = e3_fifo_saturation(16, 8_000);
        let fifo_sat = points
            .iter()
            .find(|p| p.name == "FIFO" && p.load >= 1.0)
            .unwrap();
        assert!((0.54..0.63).contains(&fifo_sat.throughput));
        let pim_sat = points
            .iter()
            .find(|p| p.name == "PIM-3+VOQ" && p.load >= 1.0)
            .unwrap();
        assert!(pim_sat.throughput > 0.9);
        assert!(text.contains("E3"));
    }

    #[test]
    fn e4_bounds_hold() {
        let (rows, _) = e4_pim_convergence(&[4, 16], 400);
        for r in &rows {
            assert!(r.mean_iterations <= r.bound, "N={}", r.n);
        }
        let n16 = rows.iter().find(|r| r.n == 16).unwrap();
        assert!(n16.within_4 > 0.95);
    }

    #[test]
    fn e5_pim_close_to_oq() {
        let (points, _) = e5_discipline_comparison(16, 6_000);
        let pim = points
            .iter()
            .find(|p| p.name == "PIM-3" && (p.load - 0.8).abs() < 1e-9)
            .unwrap();
        let oq = points
            .iter()
            .find(|p| p.name == "OQ-k16" && (p.load - 0.8).abs() < 1e-9)
            .unwrap();
        assert!(pim.mean_delay / oq.mean_delay < 4.0);
    }

    #[test]
    fn parallel_sweep_identical_to_single_thread() {
        // The determinism contract behind the parallel harness: fanning the
        // grid across threads yields byte-identical results to a forced
        // single-thread run. Compared via Debug strings so NaN delays (which
        // are not PartialEq-equal) still count as identical.
        let serial = parallel::par_map_threads(e5_cells(8, 600), 1, run_cell);
        let threaded = parallel::par_map_threads(e5_cells(8, 600), 6, run_cell);
        assert_eq!(format!("{serial:?}"), format!("{threaded:?}"));

        let serial = parallel::par_map_threads(e3_cells(8, 400), 1, run_cell);
        let threaded = parallel::par_map_threads(e3_cells(8, 400), 3, run_cell);
        assert_eq!(format!("{serial:?}"), format!("{threaded:?}"));

        let sizes = vec![4usize, 8, 16];
        let serial = parallel::par_map_threads(sizes.clone(), 1, |n| e4_cell(n, 50));
        let threaded = parallel::par_map_threads(sizes, 3, |n| e4_cell(n, 50));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn e6_maximum_starves_pim_does_not() {
        let (rows, _) = e6_starvation(3_000);
        let max = &rows[0];
        assert_eq!(max.contested_served, 0, "maximum matching must starve 0->2");
        assert_eq!(max.easy_served, 3_000);
        let pim = &rows[1];
        assert!(pim.contested_served > 300);
        assert!(pim.easy_served > 300);
        assert!(pim.rival_served > 300);
    }
}
