//! Shard lanes and the per-slot hand-off between the fabric's lead thread
//! and its persistent shard workers.
//!
//! A *lane* is one shard's share of the slot's switch phase: an inbox of
//! deliveries addressed to its switches, the departures they produce, and
//! the counters the lead folds back into the fabric. Every shard count runs
//! the same lane code — one lane stepped inline is the sequential engine;
//! several lanes worked by a crew of threads is the parallel one. The lead
//! (the thread inside `Fabric::step`) keeps everything else: agenda, hosts,
//! circuits and the canonical commit.
//!
//! The crew lives for one `Fabric::step` call ([`run_crew`]); per slot it
//! costs one release and one join on atomics ([`Lead::round`]), never a
//! thread spawn. A worker that panics raises an abort flag from a drop
//! guard, both wait loops watch it, and the panic resurfaces on the lead
//! instead of leaving it waiting forever.

use an2_cells::{Cell, VcId};
use an2_sim::SimRng;
use an2_switch::{Departure, StepScratch, Switch};
use an2_trace::{MetricOp, TraceRecord, TraceSink};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Consecutive switch ids dealt to one lane as a unit. Sixteen `SimRng`s or
/// `Switch` headers span several cache lines, so neighbouring lanes share a
/// line only at block edges.
const BLOCK: usize = 16;

/// The shard of every switch: contiguous blocks dealt round-robin. All
/// cross-switch traffic goes through the lead's agenda, so a plan is judged
/// by balance and cache-line sharing, not by cut links (DESIGN §11 has the
/// measured comparison against region-growing and `i % k`). Generators
/// number switches region by region (a fat-tree level by level, the loaded
/// edge first), so small fabrics shrink the block until every shard holds
/// at least four: a slice of every region, not one region each.
pub(crate) fn block_plan(switches: usize, shards: usize) -> Vec<u32> {
    let block = (switches / (4 * shards.max(1))).clamp(1, BLOCK);
    (0..switches)
        .map(|i| ((i / block) % shards) as u32)
        .collect()
}

/// A maximal run of consecutive switch ids owned by one lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub base: u32,
    pub len: u32,
    pub lane: u32,
}

/// Where a switch lives under the current plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Home {
    pub lane: u32,
    /// Index among the lane's runs, in ascending switch order.
    pub chunk: u32,
    pub offset: u32,
}

/// A shard plan compiled for the slot loop: the runs to walk and each
/// switch's address inside its lane.
#[derive(Debug)]
pub(crate) struct ShardLayout {
    pub runs: Vec<Run>,
    pub home: Vec<Home>,
}

impl ShardLayout {
    pub(crate) fn from_plan(plan: &[u32], lanes: usize) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        let mut home = Vec::with_capacity(plan.len());
        let mut chunks_in_lane = vec![0u32; lanes];
        for (i, &lane) in plan.iter().enumerate() {
            match runs.last_mut() {
                Some(r) if r.lane == lane => r.len += 1,
                _ => {
                    runs.push(Run {
                        base: i as u32,
                        len: 1,
                        lane,
                    });
                    chunks_in_lane[lane as usize] += 1;
                }
            }
            home.push(Home {
                lane,
                chunk: chunks_in_lane[lane as usize] - 1,
                offset: i as u32 - runs.last().expect("just pushed").base,
            });
        }
        ShardLayout { runs, home }
    }
}

/// One run's switches and RNG streams, borrowed for a whole `step` call.
pub(crate) struct Chunk<'a> {
    pub base: u32,
    pub switches: &'a mut [Switch],
    pub rngs: &'a mut [SimRng],
}

/// Something the agenda delivered to a switch this slot, routed by the lead
/// into the owning lane's inbox.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Delivery {
    Cell {
        home: Home,
        input: usize,
        cell: Cell,
        trace: u32,
    },
    Credit {
        home: Home,
        vc: VcId,
    },
}

/// One shard's share of a slot's switch phase.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// Deliveries for this lane's switches, in agenda order.
    pub inbox: Vec<Delivery>,
    /// This slot's departures, switch after switch.
    pub departures: Vec<Departure>,
    /// `(switch, end offset into departures)` for every switch that emitted
    /// this slot, ascending — what the lead's commit merges by cursor.
    pub bounds: Vec<(u32, u32)>,
    /// How many of `bounds` the lead's commit has propagated so far.
    pub committed: usize,
    /// The earliest slot at which any switch of the lane needs stepping
    /// again (`u64::MAX` = none scheduled): the lane's word in the
    /// whole-slot fast-forward decision.
    pub quiet_bound: u64,
    pub stepped: u64,
    pub skipped: u64,
    /// Steps taken with cells buffered (the `shard_work` count).
    pub busy: u64,
    /// Set while a tracer is attached: after each switch's turn its trace
    /// lane is drained into the buffers below, so the lead can flush every
    /// switch's output in ascending id whichever thread stepped it.
    pub traced: bool,
    pub trace_records: Vec<TraceRecord>,
    pub trace_ops: Vec<MetricOp>,
    /// `(switch, end of its records, end of its ops)` for every switch that
    /// recorded anything since the lead last flushed, ascending. The lead's
    /// flush empties all three; an untraced slot never touches them.
    pub trace_bounds: Vec<(u32, u32, u32)>,
    /// The flush's merge cursor into `trace_bounds` (0 between flushes).
    pub trace_flushed: usize,
    /// The working memory every switch of the lane steps through, one after
    /// another: about a kilobyte at fat-tree widths, so it stays in L1 for
    /// the whole switch phase.
    pub scratch: StepScratch,
}

impl Lane {
    /// Resets the per-slot outputs (the inbox is the slot's input).
    pub fn begin(&mut self) {
        self.departures.clear();
        self.bounds.clear();
        self.committed = 0;
        self.quiet_bound = u64::MAX;
        self.stepped = 0;
        self.skipped = 0;
        self.busy = 0;
    }

    /// A worker's whole slot: apply the inbox, then step every chunk.
    pub fn work(&mut self, chunks: &mut [Chunk<'_>], slot: u64) {
        self.begin();
        for delivery in self.inbox.drain(..) {
            match delivery {
                Delivery::Cell {
                    home,
                    input,
                    cell,
                    trace,
                } => chunks[home.chunk as usize].switches[home.offset as usize]
                    .enqueue_traced(input, cell, trace)
                    .expect("port map produced a valid input port"),
                Delivery::Credit { home, vc } => {
                    chunks[home.chunk as usize].switches[home.offset as usize].try_add_credit(vc);
                }
            }
        }
        for c in chunks {
            self.step_chunk(c.base, c.switches, c.rngs, slot);
        }
    }

    /// Steps one run of switches into the lane's departure buffer. The
    /// watermark proves a skipped switch's step is a no-op (no cell moves,
    /// no RNG drawn), so only its clock advances.
    pub(crate) fn step_chunk(
        &mut self,
        base: u32,
        switches: &mut [Switch],
        rngs: &mut [SimRng],
        slot: u64,
    ) {
        for (i, (sw, rng)) in switches.iter_mut().zip(rngs).enumerate() {
            if sw.next_event_slot() > slot {
                sw.advance_to(slot + 1);
                self.skipped += 1;
            } else {
                if sw.total_backlog() > 0 {
                    self.busy += 1;
                }
                sw.step_with(rng, &mut self.scratch, &mut self.departures);
                let end = self.departures.len() as u32;
                if end != self.bounds.last().map_or(0, |b| b.1) {
                    self.bounds.push((base + i as u32, end));
                }
                self.stepped += 1;
            }
            self.quiet_bound = self.quiet_bound.min(sw.next_event_slot());
        }
        if self.traced {
            // Every switch, stepped or not: a skipped one may still have
            // recorded this slot's enqueues (a fresh cell wakes it a
            // pipeline depth later).
            for (i, sw) in switches.iter_mut().enumerate() {
                if sw.drain_trace(&mut self.trace_records, &mut self.trace_ops) {
                    self.trace_bounds.push((
                        base + i as u32,
                        self.trace_records.len() as u32,
                        self.trace_ops.len() as u32,
                    ));
                }
            }
        }
    }
}

/// Whether any lane holds switch trace output the lead has not flushed.
pub(crate) fn trace_pending(lanes: &[Lane]) -> bool {
    lanes.iter().any(|l| !l.trace_bounds.is_empty())
}

/// Puts the lanes' switch trace output through `sink` in ascending switch
/// id, whichever lane holds it, and empties the lanes' trace buffers: each
/// lane's bounds are already ascending, so this is the commit's merge by
/// cursor again.
pub(crate) fn flush_traces(lanes: &mut [Lane], sink: &mut TraceSink<'_>) {
    while let Some((_, l)) = lanes
        .iter()
        .enumerate()
        .filter_map(|(l, lane)| lane.trace_bounds.get(lane.trace_flushed).map(|b| (b.0, l)))
        .min()
    {
        let lane = &mut lanes[l];
        let (r0, o0) = lane.trace_flushed.checked_sub(1).map_or((0, 0), |prev| {
            (lane.trace_bounds[prev].1, lane.trace_bounds[prev].2)
        });
        let (_, r1, o1) = lane.trace_bounds[lane.trace_flushed];
        lane.trace_flushed += 1;
        sink.apply(
            &lane.trace_records[r0 as usize..r1 as usize],
            &lane.trace_ops[o0 as usize..o1 as usize],
        );
    }
    for lane in lanes {
        lane.trace_records.clear();
        lane.trace_ops.clear();
        lane.trace_bounds.clear();
        lane.trace_flushed = 0;
    }
}

/// What the lead asks every worker to do in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// Work the lanes for this slot.
    Step(u64),
    /// Advance every switch clock to this slot without stepping.
    SkipTo(u64),
}

/// Busy-wait iterations before a waiter starts yielding its core. Rounds
/// are microseconds apart when every thread has a core; when they do not
/// (more runnable threads than cores), yielding is what lets the awaited
/// thread run at all.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// The shared words of the hand-off. `round` is the release: the lead
/// writes the command, then bumps it with `Release`; a worker that
/// `Acquire`-loads the new value sees the command and everything the lead
/// wrote before it (lanes travel through mutexes, which order themselves).
/// `arrived` is the join, with the same pairing in the other direction.
struct HandOff {
    round: AtomicU64,
    cmd_slot: AtomicU64,
    cmd_skip: AtomicBool,
    exit: AtomicBool,
    arrived: AtomicUsize,
    abort: AtomicBool,
}

/// Raises the abort flag if its thread unwinds, so nobody waits for it.
struct AbortOnPanic<'a>(&'a HandOff);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort.store(true, Ordering::SeqCst);
        }
    }
}

impl HandOff {
    /// Spins, then yields, until `ready`; `false` if the crew aborted.
    fn wait(&self, ready: impl Fn() -> bool) -> bool {
        let mut spins = 0;
        loop {
            if ready() {
                return true;
            }
            if self.abort.load(Ordering::SeqCst) {
                return false;
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// A worker's wait for the round after `seen`; `None` = time to leave.
    fn next_round(&self, seen: &mut u64) -> Option<Cmd> {
        let last = *seen;
        if !self.wait(|| self.round.load(Ordering::Acquire) != last) {
            return None;
        }
        *seen += 1;
        if self.exit.load(Ordering::Relaxed) {
            return None;
        }
        let slot = self.cmd_slot.load(Ordering::Relaxed);
        Some(if self.cmd_skip.load(Ordering::Relaxed) {
            Cmd::SkipTo(slot)
        } else {
            Cmd::Step(slot)
        })
    }
}

/// The lead's end of the hand-off.
struct Lead<'a> {
    hand: &'a HandOff,
    workers: usize,
}

impl Lead<'_> {
    /// One round: releases every worker on `cmd`, runs the lead's own share,
    /// then waits until every worker has finished theirs.
    ///
    /// # Panics
    ///
    /// Re-raises (as its own panic) a panic on any worker thread.
    pub fn round(&self, cmd: Cmd, own: impl FnOnce()) {
        let h = self.hand;
        let (slot, skip) = match cmd {
            Cmd::Step(slot) => (slot, false),
            Cmd::SkipTo(slot) => (slot, true),
        };
        h.arrived.store(0, Ordering::Relaxed);
        h.cmd_slot.store(slot, Ordering::Relaxed);
        h.cmd_skip.store(skip, Ordering::Relaxed);
        h.round.fetch_add(1, Ordering::Release);
        own();
        let joined = h.wait(|| h.arrived.load(Ordering::Acquire) == self.workers);
        assert!(joined, "a shard worker panicked");
    }
}

/// Runs `lead` on the calling thread with one scoped thread per element of
/// `workers`, each looping "wait for a round, run the closure on its
/// command, report in" until `lead` returns. With no workers this is a
/// plain call.
///
/// # Panics
///
/// A panic on any thread of the crew ends every wait and propagates.
fn run_crew<W, R>(workers: Vec<W>, lead: impl FnOnce(&Lead<'_>) -> R) -> R
where
    W: FnMut(Cmd) + Send,
{
    let hand = HandOff {
        round: AtomicU64::new(0),
        cmd_slot: AtomicU64::new(0),
        cmd_skip: AtomicBool::new(false),
        exit: AtomicBool::new(false),
        arrived: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    };
    let hand = &hand;
    let count = workers.len();
    std::thread::scope(|scope| {
        for mut work in workers {
            scope.spawn(move || {
                let _abort = AbortOnPanic(hand);
                let mut seen = 0;
                while let Some(cmd) = hand.next_round(&mut seen) {
                    work(cmd);
                    hand.arrived.fetch_add(1, Ordering::Release);
                }
            });
        }
        let _abort = AbortOnPanic(hand);
        let out = lead(&Lead {
            hand,
            workers: count,
        });
        hand.exit.store(true, Ordering::Relaxed);
        hand.round.fetch_add(1, Ordering::Release);
        out
    })
}

/// The lanes one thread of a crew works, each with its switches.
pub(crate) type Hand<'sw> = Vec<(usize, Vec<Chunk<'sw>>)>;

/// Moves the clocks of a thread's switches to `target` (a proven-quiet
/// stretch).
fn advance_chunks(hand: &mut Hand<'_>, target: u64) {
    for (_, chunks) in hand {
        for sw in chunks.iter_mut().flat_map(|c| c.switches.iter_mut()) {
            sw.advance_to(target);
        }
    }
}

/// The lead's view of a running crew: the threads working the shard lanes
/// for one `Fabric::step` call (see [`deal`] and [`Crew::run`]).
pub(crate) struct Crew<'a, 'sw> {
    lead: &'a Lead<'a>,
    /// Where lanes worked by other threads cross over and back.
    cells: &'a [Mutex<Lane>],
    /// The lanes the lead works itself, with their switches.
    own: &'a mut Hand<'sw>,
    threads: usize,
}

/// Deals every run's switches to its lane and lane `l` to thread
/// `l % threads` (thread 0 is the caller's): one [`Hand`] per thread.
pub(crate) fn deal<'sw>(
    runs: &[Run],
    lanes: usize,
    threads: usize,
    switches: &'sw mut [Switch],
    rngs: &'sw mut [SimRng],
) -> Vec<Hand<'sw>> {
    let mut lane_chunks: Vec<Vec<Chunk<'_>>> = (0..lanes).map(|_| Vec::new()).collect();
    let (mut sw_rest, mut rng_rest) = (switches, rngs);
    for run in runs {
        let (sw, rest) = std::mem::take(&mut sw_rest).split_at_mut(run.len as usize);
        sw_rest = rest;
        let (rg, rest) = std::mem::take(&mut rng_rest).split_at_mut(run.len as usize);
        rng_rest = rest;
        lane_chunks[run.lane as usize].push(Chunk {
            base: run.base,
            switches: sw,
            rngs: rg,
        });
    }
    let mut hands: Vec<Hand<'_>> = (0..threads).map(|_| Vec::new()).collect();
    for (lane, chunks) in lane_chunks.into_iter().enumerate() {
        hands[lane % threads].push((lane, chunks));
    }
    hands
}

impl<'sw> Crew<'_, 'sw> {
    /// Starts a thread for every hand but the first and runs `lead` with
    /// the crew at its call. The switches stay borrowed for the duration:
    /// the lead's slot code cannot touch one by accident, and each worker
    /// holds plain `&mut` borrows.
    pub fn run<R>(mut hands: Vec<Hand<'sw>>, lead: impl FnOnce(&mut Crew<'_, 'sw>) -> R) -> R {
        let threads = hands.len();
        let lanes: usize = hands.iter().map(Vec::len).sum();
        let mut own = hands.remove(0);
        // Lanes cross to their worker and back through these cells; the
        // hand-off's release and join say whose turn it is, the mutex makes
        // the exchange safe code.
        let cells: Vec<Mutex<Lane>> = (0..lanes).map(|_| Mutex::default()).collect();
        let workers: Vec<_> = hands
            .into_iter()
            .map(|mut mine| {
                let cells = &cells;
                move |cmd| match cmd {
                    Cmd::Step(slot) => {
                        for (lane, chunks) in &mut mine {
                            cells[*lane]
                                .lock()
                                .expect("a lane cell is poisoned only after a crew thread panicked")
                                .work(chunks, slot);
                        }
                    }
                    Cmd::SkipTo(target) => advance_chunks(&mut mine, target),
                }
            })
            .collect();
        run_crew(workers, |lead_end| {
            lead(&mut Crew {
                lead: lead_end,
                cells: &cells,
                own: &mut own,
                threads,
            })
        })
    }

    /// Swaps every lane another thread works with its cell: called before
    /// the release (lane out, with its inbox filled) and after the join
    /// (lane back, with its departures).
    fn exchange_lanes(&self, lanes: &mut [Lane]) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if l % self.threads != 0 {
                let mut cell = self.cells[l].lock().expect("workers are between rounds");
                std::mem::swap(lane, &mut cell);
            }
        }
    }

    /// One slot's switch phase: hands the other threads' lanes over,
    /// releases the crew, works the lead's own lanes, and takes the lanes
    /// back at the join.
    pub fn step(&mut self, lanes: &mut [Lane], slot: u64) {
        self.exchange_lanes(lanes);
        let own = &mut *self.own;
        self.lead.round(Cmd::Step(slot), || {
            for (lane, chunks) in own.iter_mut() {
                lanes[*lane].work(chunks, slot);
            }
        });
        self.exchange_lanes(lanes);
    }

    /// Moves every switch clock to `target` without stepping.
    pub(crate) fn skip_to(&mut self, target: u64) {
        let own = &mut *self.own;
        self.lead
            .round(Cmd::SkipTo(target), || advance_chunks(own, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_plan_deals_contiguous_blocks_round_robin() {
        let plan = block_plan(1024, 2);
        assert!(plan[..16].iter().all(|&s| s == 0));
        assert!(plan[16..32].iter().all(|&s| s == 1));
        assert_eq!(plan.iter().filter(|&&s| s == 0).count(), 512);
        // Small fabrics shrink the block: four blocks per shard, and never
        // a shard without switches.
        assert_eq!(
            block_plan(16, 2),
            vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
        );
        assert_eq!(block_plan(4, 2), vec![0, 1, 0, 1]);
        assert_eq!(block_plan(3, 3), vec![0, 1, 2]);
        for (n, k) in [(16, 3), (20, 8), (5, 5), (36, 7)] {
            let plan = block_plan(n, k);
            for shard in 0..k as u32 {
                assert!(plan.contains(&shard), "{n} switches, shard {shard} of {k}");
            }
        }
    }

    #[test]
    fn layout_addresses_every_switch_inside_its_lane() {
        let plan = [0, 0, 1, 1, 1, 0, 2, 0];
        let layout = ShardLayout::from_plan(&plan, 3);
        let runs: Vec<_> = layout
            .runs
            .iter()
            .map(|r| (r.base, r.len, r.lane))
            .collect();
        assert_eq!(
            runs,
            vec![(0, 2, 0), (2, 3, 1), (5, 1, 0), (6, 1, 2), (7, 1, 0)]
        );
        let addr = |i: usize| {
            let h = layout.home[i];
            (h.lane, h.chunk, h.offset)
        };
        assert_eq!(addr(1), (0, 0, 1));
        assert_eq!(addr(4), (1, 0, 2));
        assert_eq!(addr(5), (0, 1, 0));
        assert_eq!(addr(7), (0, 2, 0));
    }

    /// Eight workers on however few cores the box has: every round's work
    /// is visible to the lead when `round` returns, and nobody is left
    /// behind when the lead finishes.
    #[test]
    fn eight_workers_finish_every_round() {
        const WORKERS: usize = 8;
        const ROUNDS: u64 = 2_000;
        let logs: Vec<Mutex<Vec<Cmd>>> = (0..WORKERS).map(|_| Mutex::new(Vec::new())).collect();
        let workers: Vec<_> = logs
            .iter()
            .map(|log| move |cmd| log.lock().unwrap().push(cmd))
            .collect();
        let own_rounds = run_crew(workers, |lead| {
            let mut own_rounds = 0;
            for r in 0..ROUNDS {
                let cmd = if r % 7 == 3 {
                    Cmd::SkipTo(r)
                } else {
                    Cmd::Step(r)
                };
                lead.round(cmd, || own_rounds += 1);
                for log in &logs {
                    let log = log.lock().unwrap();
                    assert_eq!(log.len() as u64, r + 1);
                    assert_eq!(log.last(), Some(&cmd));
                }
            }
            own_rounds
        });
        assert_eq!(own_rounds, ROUNDS);
    }

    #[test]
    fn no_workers_is_a_plain_call() {
        let workers: Vec<fn(Cmd)> = Vec::new();
        let mut ran = 0;
        run_crew(workers, |lead| lead.round(Cmd::Step(0), || ran += 1));
        assert_eq!(ran, 1);
    }

    #[test]
    #[should_panic(expected = "a shard worker panicked")]
    fn worker_panic_reaches_the_lead_instead_of_hanging_it() {
        let workers: Vec<Box<dyn FnMut(Cmd) + Send>> = vec![
            Box::new(|_| {}),
            Box::new(|cmd| assert_ne!(cmd, Cmd::Step(5), "boom at slot 5")),
            Box::new(|_| {}),
        ];
        run_crew(workers, |lead| {
            for slot in 0..10 {
                lead.round(Cmd::Step(slot), || {});
            }
        });
    }

    #[test]
    #[should_panic(expected = "lead boom")]
    fn lead_panic_releases_the_workers() {
        let workers: Vec<_> = (0..3).map(|_| |_: Cmd| {}).collect();
        run_crew(workers, |lead| {
            lead.round(Cmd::Step(0), || {});
            panic!("lead boom");
        });
    }
}
