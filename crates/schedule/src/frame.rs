//! The frame schedule and the Slepian–Duguid insertion algorithm.
//!
//! "The Slepian-Duguid theorem implies that a schedule can be found for any
//! set of reservations that does not over-commit the bandwidth of any link.
//! Moreover, the proof of the theorem provides an algorithm for adding a
//! cell to an existing schedule; the time required is linear in the size of
//! the switch and independent of frame size." (§4)
//!
//! The algorithm, as the paper describes it: to add a reservation P→Q, use a
//! slot where both P and Q are free if one exists. Otherwise take a slot `p`
//! where P is free and a slot `q` where Q is free, add P→Q to `p`, and
//! repeatedly move the conflicting connection to the other slot until no
//! conflict remains — at most N swaps for an N×N switch (Figure 3).

use crate::reservation::ReservationMatrix;
use std::fmt;

/// One displacement performed by the insertion algorithm: `conn` was placed
/// into `slot`, displacing `displaced` (if any) into the other working slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The slot written.
    pub slot: u32,
    /// The connection placed, as `(input, output)`.
    pub conn: (usize, usize),
    /// The connection that had to move out, if the placement conflicted.
    pub displaced: Option<(usize, usize)>,
}

/// The record of one insertion: which slots were touched and every
/// displacement, reproducing the italics/boldface trace of Figure 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertTrace {
    /// Slot chosen because the input was free (`p` in the paper), which is
    /// also where the new connection was first placed.
    pub slot_p: u32,
    /// Slot chosen because the output was free (`q`), or `None` when a slot
    /// with both free existed and no displacement was needed.
    pub slot_q: Option<u32>,
    /// The displacements, in order. The first move places the new
    /// reservation itself.
    pub moves: Vec<Move>,
}

impl InsertTrace {
    /// Number of displacement moves after the initial placement. Each of the
    /// paper's "steps" (Figure 3) swaps one conflicting pair between slots
    /// `p` and `q`, i.e. covers two of these moves, so this is at most `2N`
    /// when the paper's step count is at most `N`.
    pub fn swaps(&self) -> usize {
        self.moves.len().saturating_sub(1)
    }

    /// The paper's step count: the initial placement plus one step per
    /// displaced pair (Figure 3 labels these 1, 2, 3). Bounded by `N + 1`
    /// for an `N × N` switch.
    pub fn paper_steps(&self) -> usize {
        1 + self.swaps().div_ceil(2)
    }
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Every slot already uses this input: the input link is fully
    /// committed, so the reservation should have been refused by admission.
    InputFull(usize),
    /// Every slot already uses this output.
    OutputFull(usize),
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::InputFull(i) => write!(f, "input {i} has no free slot in the frame"),
            InsertError::OutputFull(o) => write!(f, "output {o} has no free slot in the frame"),
        }
    }
}

impl std::error::Error for InsertError {}

/// Table entry for an idle port (ports are bounded far below this by the
/// crossbar's `MAX_PORTS`).
const IDLE: u16 = u16::MAX;

/// A frame schedule: for each of the frame's slots, a crossbar configuration
/// saying which input transmits to which output (bottom half of Figure 2).
///
/// Both tables are flat (`slot * n + port`) and allocated by the first
/// reservation: a switch that carries only best-effort traffic — every
/// switch of the scale topologies — never pays for a frame it never reads.
/// Equality means "same reservations": an untouched schedule equals one
/// whose reservations were all removed again.
///
/// ```
/// use an2_schedule::FrameSchedule;
/// let mut s = FrameSchedule::new(4, 3);
/// s.insert(1, 0).unwrap(); // paper's 2→1, 0-based
/// assert_eq!(s.scheduled_cells(1, 0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FrameSchedule {
    n: usize,
    frame: u32,
    /// `slot * n + input` → the output assigned to that input ([`IDLE`] =
    /// none). Empty until the first reservation.
    out_of_input: Vec<u16>,
    /// `slot * n + output` → the input assigned to it (inverse index).
    in_of_output: Vec<u16>,
}

impl PartialEq for FrameSchedule {
    fn eq(&self, other: &Self) -> bool {
        // `in_of_output` is determined by `out_of_input`; an unallocated
        // table stands for an all-idle one.
        let (a, b) = (&self.out_of_input, &other.out_of_input);
        self.n == other.n
            && self.frame == other.frame
            && match (a.is_empty(), b.is_empty()) {
                (false, false) => a == b,
                _ => a.iter().chain(b).all(|&e| e == IDLE),
            }
    }
}

impl Eq for FrameSchedule {}

impl FrameSchedule {
    /// An empty schedule for an `n × n` switch with `frame` slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `frame == 0`, or `n` does not fit the tables'
    /// 16-bit port entries.
    pub fn new(n: usize, frame: u32) -> Self {
        assert!(n > 0 && frame > 0, "degenerate schedule");
        assert!(
            n < IDLE as usize,
            "port count overflows the schedule tables"
        );
        FrameSchedule {
            n,
            frame,
            out_of_input: Vec::new(),
            in_of_output: Vec::new(),
        }
    }

    /// Switch size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Frame size in slots.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    fn lookup(&self, table: &[u16], slot: u32, port: usize) -> Option<usize> {
        assert!(
            slot < self.frame && port < self.n,
            "slot or port out of range"
        );
        table
            .get(slot as usize * self.n + port)
            .filter(|&&e| e != IDLE)
            .map(|&e| e as usize)
    }

    /// The output `input` transmits to in `slot`, if any.
    pub fn output_in_slot(&self, slot: u32, input: usize) -> Option<usize> {
        self.lookup(&self.out_of_input, slot, input)
    }

    /// The input transmitting to `output` in `slot`, if any.
    pub fn input_in_slot(&self, slot: u32, output: usize) -> Option<usize> {
        self.lookup(&self.in_of_output, slot, output)
    }

    /// Whether both `input` and `output` are idle in `slot` — a slot
    /// best-effort traffic could use for that pairing (§4).
    pub fn pair_free(&self, slot: u32, input: usize, output: usize) -> bool {
        self.output_in_slot(slot, input).is_none() && self.input_in_slot(slot, output).is_none()
    }

    /// Number of slots in which `input` transmits to `output` — the
    /// bandwidth actually scheduled for that pair.
    pub fn scheduled_cells(&self, input: usize, output: usize) -> u32 {
        (0..self.frame)
            .filter(|&s| self.output_in_slot(s, input) == Some(output))
            .count() as u32
    }

    /// Total scheduled (slot, connection) entries.
    pub fn total_cells(&self) -> u32 {
        self.out_of_input.iter().filter(|&&e| e != IDLE).count() as u32
    }

    pub(crate) fn place(&mut self, slot: u32, input: usize, output: usize) {
        debug_assert!(self.pair_free(slot, input, output));
        if self.out_of_input.is_empty() {
            let len = self.frame as usize * self.n;
            self.out_of_input = vec![IDLE; len];
            self.in_of_output = vec![IDLE; len];
        }
        self.out_of_input[slot as usize * self.n + input] = output as u16;
        self.in_of_output[slot as usize * self.n + output] = input as u16;
    }

    fn unplace(&mut self, slot: u32, input: usize, output: usize) {
        debug_assert_eq!(self.output_in_slot(slot, input), Some(output));
        self.out_of_input[slot as usize * self.n + input] = IDLE;
        self.in_of_output[slot as usize * self.n + output] = IDLE;
    }

    /// Adds one cell/frame from `input` to `output` by the Slepian–Duguid
    /// displacement algorithm, returning the full trace (Figure 3).
    ///
    /// # Errors
    ///
    /// Fails only when the input or output link is already scheduled in
    /// every slot — i.e. when admission control was bypassed.
    pub fn insert(&mut self, input: usize, output: usize) -> Result<InsertTrace, InsertError> {
        // A slot with both ends free: trivial placement.
        if let Some(slot) = (0..self.frame).find(|&s| self.pair_free(s, input, output)) {
            self.place(slot, input, output);
            return Ok(InsertTrace {
                slot_p: slot,
                slot_q: None,
                moves: vec![Move {
                    slot,
                    conn: (input, output),
                    displaced: None,
                }],
            });
        }
        // Otherwise: p where the input is free, q where the output is free.
        // Both exist whenever the links are not fully committed.
        let p = (0..self.frame)
            .find(|&s| self.output_in_slot(s, input).is_none())
            .ok_or(InsertError::InputFull(input))?;
        let q = (0..self.frame)
            .find(|&s| self.input_in_slot(s, output).is_none())
            .ok_or(InsertError::OutputFull(output))?;

        let mut moves = Vec::new();
        // Place the new connection in p; it conflicts on the output side.
        let mut slot = p;
        let mut conn = (input, output);
        loop {
            let (ci, co) = conn;
            // Who conflicts in `slot`? Alternates: placing into p conflicts
            // on the output, placing into q conflicts on the input — both
            // sides are checked, but the invariant guarantees at most one.
            let out_conflict = self.input_in_slot(slot, co).map(|r| (r, co));
            let in_conflict = self.output_in_slot(slot, ci).map(|o| (ci, o));
            debug_assert!(
                out_conflict.is_none() || in_conflict.is_none(),
                "both sides conflicted: invariant broken"
            );
            let displaced = out_conflict.or(in_conflict);
            if let Some(d) = displaced {
                self.unplace(slot, d.0, d.1);
            }
            self.place(slot, ci, co);
            moves.push(Move {
                slot,
                conn,
                displaced,
            });
            match displaced {
                None => break,
                Some(d) => {
                    conn = d;
                    slot = if slot == p { q } else { p };
                }
            }
        }
        Ok(InsertTrace {
            slot_p: p,
            slot_q: Some(q),
            moves,
        })
    }

    /// Removes one scheduled cell from `input` to `output` (circuit
    /// teardown). Returns the slot it was removed from, or `None` if no such
    /// cell is scheduled.
    pub fn remove(&mut self, input: usize, output: usize) -> Option<u32> {
        let slot = (0..self.frame).find(|&s| self.output_in_slot(s, input) == Some(output))?;
        self.unplace(slot, input, output);
        Some(slot)
    }

    /// Builds a complete schedule for a reservation matrix by repeated
    /// insertion. By the Slepian–Duguid theorem this cannot fail for a
    /// feasible matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix's frame size differs from `frame`, or if the
    /// matrix over-commits a link (impossible when it came from
    /// [`ReservationMatrix::reserve`]).
    pub fn build(reservations: &ReservationMatrix) -> Self {
        let mut s = FrameSchedule::new(reservations.size(), reservations.frame());
        for (i, o, cells) in reservations.entries() {
            for _ in 0..cells {
                s.insert(i, o)
                    .expect("feasible reservations are always schedulable");
            }
        }
        s
    }

    /// Checks that this schedule grants exactly the reserved bandwidth.
    pub fn satisfies(&self, reservations: &ReservationMatrix) -> bool {
        if reservations.size() != self.n || reservations.frame() != self.frame {
            return false;
        }
        (0..self.n)
            .all(|i| (0..self.n).all(|o| self.scheduled_cells(i, o) == reservations.cells(i, o)))
    }

    /// Renders a slot as the paper prints it: `1→3 2→1 3→2` (1-based).
    pub fn format_slot(&self, slot: u32) -> String {
        let mut parts = Vec::new();
        for input in 0..self.n {
            if let Some(output) = self.output_in_slot(slot, input) {
                parts.push(format!("{}→{}", input + 1, output + 1));
            }
        }
        parts.join(" ")
    }

    /// The exact Figure 2 schedule (0-based ports, 3-slot frame), including
    /// the 4→3 reservation.
    pub fn figure2() -> Self {
        let mut s = FrameSchedule::new(4, 3);
        // Slot 1: 1→3 2→1 3→2; Slot 2: 1→4 2→1 3→2 4→3; Slot 3: 1→2 3→4 4→1.
        for (slot, input, output) in [
            (0, 0, 2),
            (0, 1, 0),
            (0, 2, 1),
            (1, 0, 3),
            (1, 1, 0),
            (1, 2, 1),
            (1, 3, 2),
            (2, 0, 1),
            (2, 2, 3),
            (2, 3, 0),
        ] {
            s.place(slot, input, output);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sim::SimRng;

    #[test]
    fn figure2_schedule_satisfies_figure2_reservations() {
        let s = FrameSchedule::figure2();
        let r = ReservationMatrix::figure2();
        assert!(s.satisfies(&r));
        assert_eq!(s.total_cells(), 10);
        assert_eq!(s.format_slot(0), "1→3 2→1 3→2");
        assert_eq!(s.format_slot(1), "1→4 2→1 3→2 4→3");
        assert_eq!(s.format_slot(2), "1→2 3→4 4→1");
    }

    /// The Figure 3 running example: the initial two-slot schedule where
    /// adding 4→3 (0-based: 3→2) requires three displacement moves.
    fn figure3_initial() -> FrameSchedule {
        let mut s = FrameSchedule::new(4, 2);
        // p (slot 0): 1→3 2→1 3→2 ; q (slot 1): 1→2 3→4 4→1 (1-based).
        for (slot, input, output) in [
            (0, 0, 2),
            (0, 1, 0),
            (0, 2, 1),
            (1, 0, 1),
            (1, 2, 3),
            (1, 3, 0),
        ] {
            s.insert_at_for_test(slot, input, output);
        }
        s
    }

    impl FrameSchedule {
        fn insert_at_for_test(&mut self, slot: u32, input: usize, output: usize) {
            self.place(slot, input, output);
        }
    }

    #[test]
    fn figure3_insertion_trace_matches_paper() {
        let mut s = figure3_initial();
        // No slot has both input 4 and output 3 free (0-based: 3 and 2).
        assert!(!s.pair_free(0, 3, 2));
        assert!(!s.pair_free(1, 3, 2));
        let trace = s.insert(3, 2).unwrap();
        // p = slot 0 (input 4 free there), q = slot 1 (output 3 free there).
        assert_eq!(trace.slot_p, 0);
        assert_eq!(trace.slot_q, Some(1));
        // Paper: terminates after three steps; our moves list is
        // [place 4→3 (displacing 1→3), move 1→3 (displacing 1→2),
        //  move 1→2 (displacing 3→2), move 3→2 (displacing 3→4),
        //  move 3→4 (no conflict)] — i.e. the paper's three *swaps* plus the
        // final conflict-free move appear as 5 placements / 4 displacements.
        assert_eq!(trace.moves[0].conn, (3, 2));
        assert_eq!(trace.moves[0].displaced, Some((0, 2))); // 1→3
        assert_eq!(trace.moves[1].conn, (0, 2)); // 1→3 into q
        assert_eq!(trace.moves[1].displaced, Some((0, 1))); // 1→2
        assert_eq!(trace.moves[2].conn, (0, 1)); // 1→2 into p
        assert_eq!(trace.moves[2].displaced, Some((2, 1))); // 3→2
        assert_eq!(trace.moves[3].conn, (2, 1)); // 3→2 into q
        assert_eq!(trace.moves[3].displaced, Some((2, 3))); // 3→4
        assert_eq!(trace.moves[4].conn, (2, 3)); // 3→4 into p, clean
        assert_eq!(trace.moves[4].displaced, None);
        // Final state matches Figure 3 step 3:
        // p: 1→2 2→1 3→4 4→3 ; q: 1→3 3→2 4→1.
        assert_eq!(s.format_slot(0), "1→2 2→1 3→4 4→3");
        assert_eq!(s.format_slot(1), "1→3 3→2 4→1");
    }

    #[test]
    fn trivial_insert_uses_free_slot() {
        let mut s = FrameSchedule::new(4, 3);
        let trace = s.insert(0, 1).unwrap();
        assert_eq!(trace.slot_q, None);
        assert_eq!(trace.swaps(), 0);
        assert_eq!(s.scheduled_cells(0, 1), 1);
    }

    #[test]
    fn insert_rejects_full_link() {
        let mut s = FrameSchedule::new(2, 2);
        s.insert(0, 0).unwrap();
        s.insert(0, 1).unwrap();
        assert_eq!(s.insert(0, 0), Err(InsertError::InputFull(0)));
        // Output side: fill output 1 from both inputs.
        let mut s = FrameSchedule::new(2, 2);
        s.insert(0, 1).unwrap();
        s.insert(1, 1).unwrap();
        assert_eq!(s.insert(0, 1), Err(InsertError::OutputFull(1)));
        assert!(InsertError::InputFull(0).to_string().contains("input 0"));
    }

    #[test]
    fn build_always_satisfies_feasible_random_matrices() {
        let mut rng = SimRng::new(1212);
        for _ in 0..50 {
            let n = 2 + rng.gen_range(7);
            let frame = 2 + rng.gen_range(14) as u32;
            let mut r = ReservationMatrix::new(n, frame);
            // Fill randomly until ~70% of capacity or rejection.
            for _ in 0..n * frame as usize {
                let i = rng.gen_range(n);
                let o = rng.gen_range(n);
                let amt = 1 + rng.gen_range(3) as u32;
                let _ = r.reserve(i, o, amt);
            }
            let s = FrameSchedule::build(&r);
            assert!(s.satisfies(&r), "n={n} frame={frame}");
        }
    }

    #[test]
    fn swaps_bounded_by_switch_size() {
        // "this will require at most N steps for an N×N switch" (§4).
        let mut rng = SimRng::new(77);
        for _ in 0..30 {
            let n = 4 + rng.gen_range(13);
            let frame = 8u32;
            let mut r = ReservationMatrix::new(n, frame);
            let mut s = FrameSchedule::new(n, frame);
            for _ in 0..n * frame as usize * 2 {
                let i = rng.gen_range(n);
                let o = rng.gen_range(n);
                if r.reserve(i, o, 1).is_ok() {
                    let trace = s.insert(i, o).unwrap();
                    assert!(
                        trace.paper_steps() <= n + 1,
                        "insertion took {} paper-steps on a {n}x{n} switch",
                        trace.paper_steps()
                    );
                    assert!(trace.swaps() <= 2 * n);
                }
            }
            assert!(s.satisfies(&r));
        }
    }

    #[test]
    fn insertion_cost_independent_of_frame_size() {
        // Same reservation pattern scheduled into frames of 8 and 1024:
        // displacement counts stay bounded by N either way.
        for frame in [8u32, 1024] {
            let mut r = ReservationMatrix::new(4, frame);
            let mut s = FrameSchedule::new(4, frame);
            let mut max_swaps = 0;
            let mut rng = SimRng::new(5);
            for _ in 0..(4 * frame as usize) {
                let i = rng.gen_range(4);
                let o = rng.gen_range(4);
                if r.reserve(i, o, 1).is_ok() {
                    max_swaps = max_swaps.max(s.insert(i, o).unwrap().swaps());
                }
            }
            assert!(
                max_swaps <= 8,
                "frame={frame}: {max_swaps} swaps (bound 2N)"
            );
        }
    }

    #[test]
    fn untouched_schedule_equals_an_emptied_one() {
        let untouched = FrameSchedule::new(4, 3);
        let mut emptied = FrameSchedule::new(4, 3);
        emptied.insert(1, 2).unwrap();
        assert_ne!(untouched, emptied);
        assert_ne!(emptied, untouched);
        emptied.remove(1, 2).unwrap();
        assert_eq!(untouched, emptied);
        assert_eq!(emptied, untouched);
        assert_eq!(untouched, FrameSchedule::new(4, 3));
        assert_ne!(untouched, FrameSchedule::new(4, 2));
        // Nothing is allocated until a reservation lands.
        assert!(untouched.out_of_input.is_empty() && untouched.in_of_output.is_empty());
        assert_eq!(untouched.output_in_slot(2, 3), None);
        assert_eq!(untouched.total_cells(), 0);
    }

    #[test]
    fn remove_frees_slot() {
        let mut s = FrameSchedule::new(4, 3);
        s.insert(1, 2).unwrap();
        assert_eq!(s.remove(1, 2), Some(0));
        assert_eq!(s.remove(1, 2), None);
        assert_eq!(s.total_cells(), 0);
        assert!(s.pair_free(0, 1, 2));
    }

    #[test]
    fn pair_free_detects_best_effort_opportunities() {
        // Figure 2: "a best-effort cell can be transmitted from input 2 to
        // output 3 during the third slot."
        let s = FrameSchedule::figure2();
        assert!(s.pair_free(2, 1, 2)); // 0-based: input 2→1, output 3→2
        assert!(!s.pair_free(0, 1, 2)); // slot 1: input 2 busy with 2→1
    }

    #[test]
    fn full_frame_perfect_schedule() {
        // A fully loaded switch: every input sends frame cells spread over
        // all outputs; the schedule must be a perfect matching per slot.
        let n = 8;
        let frame = n as u32;
        let mut r = ReservationMatrix::new(n, frame);
        for i in 0..n {
            for o in 0..n {
                r.reserve(i, o, 1).unwrap();
            }
        }
        let s = FrameSchedule::build(&r);
        assert!(s.satisfies(&r));
        for slot in 0..frame {
            for input in 0..n {
                assert!(s.output_in_slot(slot, input).is_some());
            }
        }
    }
}
