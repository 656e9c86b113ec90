//! Slot-level simulation of a single switch under synthetic cell arrivals.
//!
//! This is the apparatus behind the §3 performance claims: it drives a
//! buffering discipline (FIFO input queues, virtual output queues with a
//! matching scheduler, or output queueing with internal speedup *k*) with a
//! configurable arrival pattern and measures throughput and cell latency.
//!
//! "Simulation studies show that, for a 16×16 switch and a variety of cell
//! arrival patterns, random-access input buffers plus parallel iterative
//! matching yield throughput and latency nearly as good as that of output
//! queueing with k = 16 and unbounded buffer capacity." (§3)
//!
//! The inner loops are allocation-free after warm-up: queues are index-based
//! ring buffers that grow geometrically and are then reused, the VOQ
//! simulator maintains its [`DemandMatrix`] incrementally (add on arrival,
//! take on dispatch) instead of rebuilding an `n × n` table every slot, and
//! the scheduler runs through
//! [`schedule_into`](crate::CrossbarScheduler::schedule_into) with a single
//! [`Scratch`] and output [`Matching`] shared across all slots.

use crate::matching::DemandMatrix;
use crate::scratch::Scratch;
use crate::{CrossbarScheduler, Matching};
use an2_sim::metrics::Histogram;
use an2_sim::SimRng;

/// Synthetic cell arrival patterns, per input port per slot.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Bernoulli arrivals with probability `load`; output uniform over all
    /// ports — the i.i.d. model under which FIFO saturates at 58%.
    Uniform {
        /// Offered load per input, in `[0, 1]`.
        load: f64,
    },
    /// Bernoulli arrivals; a `hot_fraction` of cells target `hot_output`,
    /// the rest are uniform.
    Hotspot {
        /// Offered load per input.
        load: f64,
        /// The overloaded output port.
        hot_output: usize,
        /// Fraction of cells aimed at the hot output.
        hot_fraction: f64,
    },
    /// Bernoulli arrivals; input `i` always sends to `perm[i]` — the
    /// contention-free pattern any input-queued switch should carry at full
    /// rate.
    Permutation {
        /// Offered load per input.
        load: f64,
        /// Fixed destination of each input.
        perm: Vec<usize>,
    },
    /// Bursty on/off traffic: geometric bursts of mean length `mean_burst`,
    /// all cells of a burst to one (uniform random) output; idle gaps sized
    /// so the long-run load is `load`. The correlated pattern LAN traffic
    /// actually exhibits (§3 argues LAN traffic violates the i.i.d.
    /// assumption output queueing analyses rely on).
    Bursty {
        /// Long-run offered load per input.
        load: f64,
        /// Mean burst length in cells.
        mean_burst: f64,
    },
}

/// Per-input generator state for [`Arrivals::Bursty`].
#[derive(Debug, Clone, Default)]
struct BurstState {
    /// Remaining cells in the current burst.
    remaining: u64,
    /// Destination of the current burst.
    dest: usize,
    /// Remaining idle slots before the next burst.
    idle: u64,
}

/// Drives an [`Arrivals`] pattern, holding per-input state.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    pattern: Arrivals,
    n: usize,
    bursts: Vec<BurstState>,
}

impl ArrivalGen {
    /// A generator for an `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics on malformed patterns (load outside `[0,1]`, permutation of
    /// the wrong length or with out-of-range entries, zero burst length).
    pub fn new(n: usize, pattern: Arrivals) -> Self {
        match &pattern {
            Arrivals::Uniform { load } => {
                assert!((0.0..=1.0).contains(load), "load must be in [0,1]");
            }
            Arrivals::Hotspot {
                load,
                hot_output,
                hot_fraction,
            } => {
                assert!((0.0..=1.0).contains(load));
                assert!(*hot_output < n, "hot output out of range");
                assert!((0.0..=1.0).contains(hot_fraction));
            }
            Arrivals::Permutation { load, perm } => {
                assert!((0.0..=1.0).contains(load));
                assert_eq!(perm.len(), n, "permutation must cover all inputs");
                assert!(
                    perm.iter().all(|&o| o < n),
                    "permutation entry out of range"
                );
            }
            Arrivals::Bursty { load, mean_burst } => {
                assert!((0.0..=1.0).contains(load));
                assert!(*mean_burst >= 1.0, "mean burst below one cell");
            }
        }
        ArrivalGen {
            pattern,
            n,
            bursts: vec![BurstState::default(); n],
        }
    }

    /// The destination of the cell arriving at `input` this slot, or `None`
    /// for no arrival.
    pub fn next(&mut self, input: usize, rng: &mut SimRng) -> Option<usize> {
        match &self.pattern {
            Arrivals::Uniform { load } => rng.gen_bool(*load).then(|| rng.gen_range(self.n)),
            Arrivals::Hotspot {
                load,
                hot_output,
                hot_fraction,
            } => rng.gen_bool(*load).then(|| {
                if rng.gen_bool(*hot_fraction) {
                    *hot_output
                } else {
                    rng.gen_range(self.n)
                }
            }),
            Arrivals::Permutation { load, perm } => rng.gen_bool(*load).then(|| perm[input]),
            Arrivals::Bursty { load, mean_burst } => {
                let st = &mut self.bursts[input];
                if st.remaining == 0 && st.idle == 0 {
                    // Start a new cycle: burst then gap sized for the load.
                    st.remaining = rng.gen_geometric(1.0 / mean_burst);
                    st.dest = rng.gen_range(self.n);
                    let mean_gap = if *load > 0.0 {
                        mean_burst * (1.0 - load) / load
                    } else {
                        f64::INFINITY
                    };
                    st.idle = if mean_gap.is_finite() && mean_gap > 0.0 {
                        rng.gen_geometric(1.0 / (mean_gap + 1.0)) - 1
                    } else {
                        u64::MAX
                    };
                }
                if st.remaining > 0 {
                    st.remaining -= 1;
                    Some(st.dest)
                } else {
                    st.idle = st.idle.saturating_sub(1);
                    None
                }
            }
        }
    }
}

/// A flat index-based FIFO ring buffer of `Copy` records.
///
/// Power-of-two capacity, geometric growth, no per-push allocation once
/// warm: the queue workhorse of the simulators, replacing `VecDeque` so the
/// whole simulation state is plain `Vec`s indexed by head/length counters.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn push(&mut self, value: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mask = self.buf.len() - 1;
        self.buf[(self.head + self.len) & mask] = value;
        self.len += 1;
    }

    #[inline]
    fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.buf[self.head])
    }

    #[inline]
    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.buf[self.head];
        self.head = (self.head + 1) & (self.buf.len() - 1);
        self.len -= 1;
        Some(value)
    }

    #[cold]
    fn grow(&mut self) {
        let old_cap = self.buf.len();
        if old_cap == 0 {
            self.buf = vec![T::default(); 4];
            self.head = 0;
            return;
        }
        let mut grown = vec![T::default(); old_cap * 2];
        for (slot, grown_slot) in grown.iter_mut().enumerate().take(self.len) {
            *grown_slot = self.buf[(self.head + slot) & (old_cap - 1)];
        }
        self.buf = grown;
        self.head = 0;
    }
}

/// A cell waiting in an input-side FIFO: its destination and arrival slot.
#[derive(Debug, Clone, Copy, Default)]
struct QueuedCell {
    output: u32,
    arrived: u64,
}

/// The buffering discipline under test.
pub enum Discipline {
    /// Random-access input buffers (virtual output queues) with a crossbar
    /// scheduler — the AN2 design.
    Voq(Box<dyn CrossbarScheduler>),
    /// One FIFO per input; only the head cell is eligible. Head-of-line
    /// blocking limits throughput to ≈58% under uniform traffic.
    Fifo,
    /// Output queueing with internal speedup `k`: up to `k` cells may reach
    /// one output per slot (excess waits at the input in FIFO order);
    /// output buffers are unbounded. `k = n` is the paper's yardstick.
    OutputQueued {
        /// Internal fabric speedup factor.
        speedup: usize,
    },
}

impl std::fmt::Debug for Discipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Discipline::Voq(s) => write!(f, "Voq({})", s.name()),
            Discipline::Fifo => write!(f, "Fifo"),
            Discipline::OutputQueued { speedup } => write!(f, "OutputQueued(k={speedup})"),
        }
    }
}

/// Results of a switch simulation run.
#[derive(Debug)]
pub struct SwitchReport {
    /// Ports on the simulated switch.
    pub ports: usize,
    /// Cell slots simulated.
    pub slots: u64,
    /// Cells offered by the arrival process.
    pub offered: u64,
    /// Cells delivered out of the switch.
    pub delivered: u64,
    /// Cell delays in slots (arrival to departure, inclusive).
    pub delay: Histogram,
    /// Largest total backlog (cells buffered anywhere) observed.
    pub peak_backlog: u64,
}

impl SwitchReport {
    /// Delivered throughput as a fraction of aggregate link capacity.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / (self.slots as f64 * self.ports as f64)
    }

    /// Mean cell delay in slots, if any cell was delivered.
    pub fn mean_delay(&self) -> Option<f64> {
        self.delay.mean()
    }
}

/// Simulates `slots` cell slots of an `n`-port switch.
///
/// Delay accounting: a cell arriving in slot `t` and crossing the switch in
/// slot `t` has delay 1 (one slot of service time); every queued slot adds
/// one. For output-queued disciplines the delay includes output-queue
/// residence, making the comparison with input queueing fair.
pub fn simulate(
    n: usize,
    discipline: &mut Discipline,
    arrivals: &mut ArrivalGen,
    slots: u64,
    rng: &mut SimRng,
) -> SwitchReport {
    match discipline {
        Discipline::Voq(scheduler) => simulate_voq(n, scheduler.as_mut(), arrivals, slots, rng),
        Discipline::Fifo => simulate_fifo(n, arrivals, slots, rng),
        Discipline::OutputQueued { speedup } => {
            simulate_output_queued(n, *speedup, arrivals, slots, rng)
        }
    }
}

fn simulate_voq(
    n: usize,
    scheduler: &mut dyn CrossbarScheduler,
    arrivals: &mut ArrivalGen,
    slots: u64,
    rng: &mut SimRng,
) -> SwitchReport {
    // Per (input, output): ring of arrival slots. The demand matrix mirrors
    // the ring lengths and is maintained incrementally, so no per-slot
    // rebuild and — with `schedule_into` — no per-slot allocation at all.
    let mut voq: Vec<Ring<u64>> = (0..n * n).map(|_| Ring::new()).collect();
    let mut demand = DemandMatrix::new(n);
    let mut matching = Matching::empty(n);
    let mut scratch = Scratch::new();
    let mut offered = 0;
    let mut delivered = 0;
    let mut delay = Histogram::new();
    let mut peak_backlog = 0u64;
    let mut backlog = 0u64;
    for slot in 0..slots {
        for input in 0..n {
            if let Some(output) = arrivals.next(input, rng) {
                voq[input * n + output].push(slot);
                demand.add(input, output, 1);
                offered += 1;
                backlog += 1;
            }
        }
        peak_backlog = peak_backlog.max(backlog);
        scheduler.schedule_into(&demand, rng, &mut scratch, &mut matching);
        debug_assert!(matching.is_legal(&demand));
        for (input, output) in matching.iter() {
            let arrived = voq[input * n + output].pop().expect("legal matching");
            demand.take_one(input, output);
            delivered += 1;
            backlog -= 1;
            delay.record(slot - arrived + 1);
        }
    }
    debug_assert_eq!(demand.total(), backlog, "demand mirrors ring lengths");
    SwitchReport {
        ports: n,
        slots,
        offered,
        delivered,
        delay,
        peak_backlog,
    }
}

fn simulate_fifo(
    n: usize,
    arrivals: &mut ArrivalGen,
    slots: u64,
    rng: &mut SimRng,
) -> SwitchReport {
    // Per input: ring of queued cells. Head contention is a bitmask per
    // output, resolved in ascending output order as before.
    let mut fifo: Vec<Ring<QueuedCell>> = (0..n).map(|_| Ring::new()).collect();
    let mut contenders: Vec<u64> = vec![0; n]; // per output: inputs whose head wants it
    let mut offered = 0;
    let mut delivered = 0;
    let mut delay = Histogram::new();
    let mut peak_backlog = 0u64;
    let mut backlog = 0u64;
    for slot in 0..slots {
        for (input, q) in fifo.iter_mut().enumerate() {
            if let Some(output) = arrivals.next(input, rng) {
                q.push(QueuedCell {
                    output: output as u32,
                    arrived: slot,
                });
                offered += 1;
                backlog += 1;
            }
        }
        peak_backlog = peak_backlog.max(backlog);
        // Heads contend; each output picks one contender at random.
        contenders.fill(0);
        for (input, q) in fifo.iter().enumerate() {
            if let Some(cell) = q.front() {
                contenders[cell.output as usize] |= 1 << input;
            }
        }
        for &mask in &contenders {
            if mask != 0 {
                let rank = rng.gen_range(mask.count_ones() as usize);
                let winner = crate::matching::nth_set_bit(mask, rank);
                let cell = fifo[winner].pop().expect("head exists");
                delivered += 1;
                backlog -= 1;
                delay.record(slot - cell.arrived + 1);
            }
        }
    }
    SwitchReport {
        ports: n,
        slots,
        offered,
        delivered,
        delay,
        peak_backlog,
    }
}

fn simulate_output_queued(
    n: usize,
    speedup: usize,
    arrivals: &mut ArrivalGen,
    slots: u64,
    rng: &mut SimRng,
) -> SwitchReport {
    assert!(speedup > 0, "speedup must be positive");
    // Staging ring per input (cells the fabric hasn't moved yet) and an
    // unbounded ring per output. The per-round visit order and per-slot
    // output budgets are hoisted out of the slot loop and refilled in place.
    let mut staging: Vec<Ring<QueuedCell>> = (0..n).map(|_| Ring::new()).collect();
    let mut out_q: Vec<Ring<u64>> = (0..n).map(|_| Ring::new()).collect();
    let mut budget: Vec<usize> = vec![0; n];
    let mut order: Vec<usize> = vec![0; n];
    let mut offered = 0;
    let mut delivered = 0;
    let mut delay = Histogram::new();
    let mut peak_backlog = 0u64;
    let mut backlog = 0u64;
    for slot in 0..slots {
        for (input, q) in staging.iter_mut().enumerate() {
            if let Some(output) = arrivals.next(input, rng) {
                q.push(QueuedCell {
                    output: output as u32,
                    arrived: slot,
                });
                offered += 1;
                backlog += 1;
            }
        }
        peak_backlog = peak_backlog.max(backlog);
        // Fabric passes: up to `speedup` rounds; in each round every input
        // may move its head cell unless the target output exhausted its
        // per-slot transfer budget. Random input order for fairness,
        // freshly shuffled from identity each round as before.
        budget.fill(speedup);
        for _round in 0..speedup {
            for (slot_idx, input) in order.iter_mut().enumerate() {
                *input = slot_idx;
            }
            rng.shuffle(&mut order);
            let mut moved = false;
            for &input in &order {
                if let Some(cell) = staging[input].front() {
                    let output = cell.output as usize;
                    if budget[output] > 0 {
                        staging[input].pop();
                        budget[output] -= 1;
                        out_q[output].push(cell.arrived);
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        // Each output transmits one cell per slot.
        for q in out_q.iter_mut() {
            if let Some(arrived) = q.pop() {
                delivered += 1;
                backlog -= 1;
                delay.record(slot - arrived + 1);
            }
        }
    }
    SwitchReport {
        ports: n,
        slots,
        offered,
        delivered,
        delay,
        peak_backlog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::Pim;

    fn run(
        n: usize,
        mut discipline: Discipline,
        pattern: Arrivals,
        slots: u64,
        seed: u64,
    ) -> SwitchReport {
        let mut gen = ArrivalGen::new(n, pattern);
        let mut rng = SimRng::new(seed);
        simulate(n, &mut discipline, &mut gen, slots, &mut rng)
    }

    #[test]
    fn ring_fifo_order_and_growth() {
        let mut r: Ring<u64> = Ring::new();
        assert_eq!(r.pop(), None);
        for v in 0..100 {
            r.push(v);
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.front(), Some(0));
        for v in 0..60 {
            assert_eq!(r.pop(), Some(v));
        }
        // Interleave push/pop across the wrap point.
        for v in 100..140 {
            r.push(v);
        }
        for v in 60..140 {
            assert_eq!(r.pop(), Some(v));
        }
        assert_eq!(r.len(), 0);
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn fifo_saturates_near_58_percent() {
        // Karol et al. (§3): head-of-line blocking limits FIFO throughput to
        // 2 - sqrt(2) = 0.586 under saturated uniform traffic.
        let r = run(
            16,
            Discipline::Fifo,
            Arrivals::Uniform { load: 1.0 },
            20_000,
            1,
        );
        let tp = r.throughput();
        assert!(
            (0.55..0.62).contains(&tp),
            "FIFO saturation throughput {tp:.3} not near 0.586"
        );
    }

    #[test]
    fn pim_voq_sustains_high_load() {
        let r = run(
            16,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Uniform { load: 0.9 },
            20_000,
            2,
        );
        // Delivered ≈ offered: the switch keeps up at 90% load.
        assert!(r.throughput() > 0.88, "throughput {:.3}", r.throughput());
        assert!(r.mean_delay().unwrap() < 20.0);
    }

    #[test]
    fn output_queueing_k16_is_the_yardstick() {
        let r = run(
            16,
            Discipline::OutputQueued { speedup: 16 },
            Arrivals::Uniform { load: 0.9 },
            20_000,
            3,
        );
        assert!(r.throughput() > 0.88);
    }

    #[test]
    fn pim_close_to_output_queueing() {
        // E5 in miniature: mean delays within a small factor at 80% load.
        let pim = run(
            16,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Uniform { load: 0.8 },
            30_000,
            4,
        );
        let oq = run(
            16,
            Discipline::OutputQueued { speedup: 16 },
            Arrivals::Uniform { load: 0.8 },
            30_000,
            4,
        );
        let ratio = pim.mean_delay().unwrap() / oq.mean_delay().unwrap();
        assert!(
            ratio < 3.0,
            "PIM delay {:.2} vs OQ {:.2} (ratio {ratio:.2})",
            pim.mean_delay().unwrap(),
            oq.mean_delay().unwrap()
        );
    }

    #[test]
    fn permutation_traffic_full_rate_under_voq() {
        let perm: Vec<usize> = (0..16).map(|i| (i + 5) % 16).collect();
        let r = run(
            16,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Permutation { load: 1.0, perm },
            10_000,
            5,
        );
        assert!(
            r.throughput() > 0.99,
            "contention-free traffic must flow at line rate"
        );
        // Delay is exactly 1 slot for almost every cell.
        assert!(r.mean_delay().unwrap() < 1.1);
    }

    #[test]
    fn hotspot_bounded_by_hot_output_capacity() {
        // 16 inputs at load 0.5 all aiming 50% of cells at output 0 offer
        // 4x output 0's capacity; delivered hot traffic caps at 1 cell/slot.
        let r = run(
            16,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Hotspot {
                load: 0.5,
                hot_output: 0,
                hot_fraction: 0.5,
            },
            10_000,
            6,
        );
        // Aggregate throughput ≤ (1 hot + 15 * uniform share) — just check
        // the switch survives and delivers the feasible part.
        assert!(r.delivered > 0);
        assert!(r.throughput() < 0.5, "hot traffic cannot all be delivered");
    }

    #[test]
    fn bursty_long_run_load_close_to_target() {
        let mut gen = ArrivalGen::new(
            8,
            Arrivals::Bursty {
                load: 0.6,
                mean_burst: 10.0,
            },
        );
        let mut rng = SimRng::new(7);
        let slots = 200_000;
        let mut arrivals = 0u64;
        for _ in 0..slots {
            for input in 0..8 {
                if gen.next(input, &mut rng).is_some() {
                    arrivals += 1;
                }
            }
        }
        let load = arrivals as f64 / (slots * 8) as f64;
        assert!((load - 0.6).abs() < 0.05, "long-run bursty load {load:.3}");
    }

    #[test]
    fn bursts_are_correlated() {
        let mut gen = ArrivalGen::new(
            8,
            Arrivals::Bursty {
                load: 0.9,
                mean_burst: 16.0,
            },
        );
        let mut rng = SimRng::new(8);
        // Consecutive arrivals at one input mostly share a destination.
        let mut same = 0;
        let mut diff = 0;
        let mut last: Option<usize> = None;
        for _ in 0..10_000 {
            if let Some(d) = gen.next(0, &mut rng) {
                if let Some(l) = last {
                    if l == d {
                        same += 1;
                    } else {
                        diff += 1;
                    }
                }
                last = Some(d);
            }
        }
        assert!(
            same > diff * 5,
            "bursty traffic not correlated: {same} vs {diff}"
        );
    }

    #[test]
    fn zero_load_produces_nothing() {
        let r = run(
            4,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Uniform { load: 0.0 },
            1_000,
            9,
        );
        assert_eq!(r.offered, 0);
        assert_eq!(r.delivered, 0);
        assert!(r.delay.is_empty());
        assert_eq!(r.peak_backlog, 0);
    }

    #[test]
    fn conservation_no_cell_lost() {
        // delivered + still-buffered == offered. Buffered = offered-delivered
        // must be small at modest load.
        let r = run(
            8,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Uniform { load: 0.5 },
            10_000,
            10,
        );
        assert!(r.offered >= r.delivered);
        assert!(
            r.offered - r.delivered < 100,
            "backlog exploded at load 0.5"
        );
    }

    #[test]
    fn voq_matches_reference_scheduler_run() {
        // The whole simulator — incremental demand, ring buffers,
        // schedule_into — must produce the numbers the original
        // scan-and-`Vec` PIM produced, because both consume the RNG
        // identically.
        let r = run(
            8,
            Discipline::Voq(Box::new(Pim::an2())),
            Arrivals::Uniform { load: 0.7 },
            5_000,
            12,
        );
        // The reference run's answer: offered, delivered, peak backlog and
        // the bits of the mean delay (≈ 2.8638 slots).
        const PIN: (u64, u64, u64, Option<u64>) = (28_071, 28_064, 31, Some(0x4006_e915_e48f_9dec));
        let answer = (
            r.offered,
            r.delivered,
            r.peak_backlog,
            r.mean_delay().map(f64::to_bits),
        );
        assert_eq!(answer, PIN);
    }

    #[test]
    fn report_accessors() {
        let r = run(
            4,
            Discipline::Fifo,
            Arrivals::Uniform { load: 0.3 },
            5_000,
            11,
        );
        let offered_load = r.offered as f64 / (r.slots as f64 * r.ports as f64);
        assert!((offered_load - 0.3).abs() < 0.03);
        assert!(r.throughput() <= offered_load + 1e-9);
        assert!(r.peak_backlog > 0);
    }

    #[test]
    #[should_panic(expected = "permutation must cover")]
    fn bad_permutation_rejected() {
        ArrivalGen::new(
            4,
            Arrivals::Permutation {
                load: 0.5,
                perm: vec![0, 1],
            },
        );
    }

    #[test]
    #[should_panic(expected = "hot output out of range")]
    fn bad_hotspot_rejected() {
        ArrivalGen::new(
            4,
            Arrivals::Hotspot {
                load: 0.5,
                hot_output: 4,
                hot_fraction: 0.5,
            },
        );
    }

    #[test]
    fn discipline_debug_strings() {
        let d = Discipline::Voq(Box::new(Pim::an2()));
        assert!(format!("{d:?}").contains("PIM"));
        assert!(format!("{:?}", Discipline::OutputQueued { speedup: 4 }).contains("k=4"));
    }
}
