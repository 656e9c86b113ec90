//! Bandwidth reservations: the demand side of guaranteed traffic.
//!
//! "Bandwidth reservations are based on frames of 1024 cell slots. Thus an
//! application expresses its bandwidth request as some number of
//! cells/frame." (§4) A reservation set is feasible exactly when no input
//! or output link is committed beyond the frame size — the premise of the
//! Slepian–Duguid theorem.

use std::fmt;

/// Why a reservation could not be added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationError {
    /// The input link would exceed the frame size.
    InputOvercommitted {
        /// The input port.
        input: usize,
        /// Cells already reserved on that input.
        reserved: u32,
        /// Cells requested.
        requested: u32,
        /// The frame size.
        frame: u32,
    },
    /// The output link would exceed the frame size.
    OutputOvercommitted {
        /// The output port.
        output: usize,
        /// Cells already reserved on that output.
        reserved: u32,
        /// Cells requested.
        requested: u32,
        /// The frame size.
        frame: u32,
    },
}

impl fmt::Display for ReservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReservationError::InputOvercommitted {
                input,
                reserved,
                requested,
                frame,
            } => write!(
                f,
                "input {input} over-committed: {reserved} + {requested} > {frame} cells/frame"
            ),
            ReservationError::OutputOvercommitted {
                output,
                reserved,
                requested,
                frame,
            } => write!(
                f,
                "output {output} over-committed: {reserved} + {requested} > {frame} cells/frame"
            ),
        }
    }
}

impl std::error::Error for ReservationError {}

/// The reservation table of one switch: cells per frame for each
/// (input, output) pair, as in the top half of Figure 2.
///
/// ```
/// use an2_schedule::ReservationMatrix;
/// let mut r = ReservationMatrix::new(4, 3); // 4x4 switch, 3-slot frame
/// r.reserve(1, 0, 2).unwrap();
/// assert_eq!(r.cells(1, 0), 2);
/// assert!(r.reserve(1, 2, 2).is_err()); // input 1 would need 4 > 3 slots
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationMatrix {
    n: usize,
    frame: u32,
    cells: Vec<u32>,
}

impl ReservationMatrix {
    /// An empty reservation table for an `n × n` switch and `frame`-slot
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `frame == 0`.
    pub fn new(n: usize, frame: u32) -> Self {
        assert!(n > 0, "switch size must be positive");
        assert!(frame > 0, "frame must have at least one slot");
        ReservationMatrix {
            n,
            frame,
            cells: vec![0; n * n],
        }
    }

    /// Builds from the row-major table of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if the table is not `n × n` or any row/column exceeds the
    /// frame.
    pub fn from_table(n: usize, frame: u32, table: &[u32]) -> Self {
        assert_eq!(table.len(), n * n, "table must have n*n entries");
        let mut r = ReservationMatrix::new(n, frame);
        for i in 0..n {
            for o in 0..n {
                if table[i * n + o] > 0 {
                    r.reserve(i, o, table[i * n + o])
                        .expect("table over-commits a link");
                }
            }
        }
        r
    }

    /// Switch size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Frame size in slots.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Reserved cells per frame from `input` to `output`.
    pub fn cells(&self, input: usize, output: usize) -> u32 {
        self.cells[input * self.n + output]
    }

    /// Total cells reserved on an input link.
    pub(crate) fn input_load(&self, input: usize) -> u32 {
        (0..self.n).map(|o| self.cells(input, o)).sum()
    }

    /// Total cells reserved on an output link.
    pub(crate) fn output_load(&self, output: usize) -> u32 {
        (0..self.n).map(|i| self.cells(i, output)).sum()
    }

    /// Adds `amount` cells/frame from `input` to `output`.
    ///
    /// # Errors
    ///
    /// Rejects the reservation if it would over-commit the input or output
    /// link — the admission rule bandwidth central enforces (§4).
    pub fn reserve(
        &mut self,
        input: usize,
        output: usize,
        amount: u32,
    ) -> Result<(), ReservationError> {
        let in_load = self.input_load(input);
        if in_load + amount > self.frame {
            return Err(ReservationError::InputOvercommitted {
                input,
                reserved: in_load,
                requested: amount,
                frame: self.frame,
            });
        }
        let out_load = self.output_load(output);
        if out_load + amount > self.frame {
            return Err(ReservationError::OutputOvercommitted {
                output,
                reserved: out_load,
                requested: amount,
                frame: self.frame,
            });
        }
        self.cells[input * self.n + output] += amount;
        Ok(())
    }

    /// Releases `amount` cells/frame (tearing a circuit down).
    ///
    /// # Panics
    ///
    /// Panics if more is released than was reserved.
    pub fn release(&mut self, input: usize, output: usize, amount: u32) {
        let c = &mut self.cells[input * self.n + output];
        assert!(
            *c >= amount,
            "releasing more than reserved at ({input},{output})"
        );
        *c -= amount;
    }

    /// Total reserved cells across the switch.
    pub fn total(&self) -> u32 {
        self.cells.iter().sum()
    }

    /// All `(input, output, cells)` entries with non-zero reservations.
    pub fn entries(&self) -> Vec<(usize, usize, u32)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for o in 0..self.n {
                let c = self.cells(i, o);
                if c > 0 {
                    out.push((i, o, c));
                }
            }
        }
        out
    }

    /// The Figure 2 reservation table (1-based in the paper; 0-based here),
    /// *including* the 4→3 reservation the running example adds.
    pub fn figure2() -> Self {
        // in\out:   1  2  3  4        (paper numbering)
        //   1       -  1  1  1
        //   2       2  -  -  -
        //   3       -  2  -  1
        //   4       1  -  1  -
        ReservationMatrix::from_table(
            4,
            3,
            &[
                0, 1, 1, 1, //
                2, 0, 0, 0, //
                0, 2, 0, 1, //
                1, 0, 1, 0,
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_query() {
        let mut r = ReservationMatrix::new(4, 1024);
        r.reserve(0, 1, 100).unwrap();
        r.reserve(0, 2, 200).unwrap();
        r.reserve(3, 1, 50).unwrap();
        assert_eq!(r.cells(0, 1), 100);
        assert_eq!(r.input_load(0), 300);
        assert_eq!(r.output_load(1), 150);
        assert_eq!(r.total(), 350);
        assert_eq!(r.entries().len(), 3);
        assert_eq!(r.frame(), 1024);
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn admission_rejects_overcommit() {
        let mut r = ReservationMatrix::new(2, 10);
        r.reserve(0, 0, 6).unwrap();
        // Input 0 already at 6; 5 more would exceed 10.
        let err = r.reserve(0, 1, 5).unwrap_err();
        assert!(matches!(
            err,
            ReservationError::InputOvercommitted { input: 0, .. }
        ));
        // Output 0 at 6: 5 more from input 1 exceeds.
        let err = r.reserve(1, 0, 5).unwrap_err();
        assert!(matches!(
            err,
            ReservationError::OutputOvercommitted { output: 0, .. }
        ));
        // Exactly filling is allowed.
        r.reserve(0, 1, 4).unwrap();
        assert_eq!(r.input_load(0), 10);
        // Failed reservations must not have mutated the table.
        assert_eq!(r.total(), 10);
    }

    #[test]
    fn release_returns_capacity() {
        let mut r = ReservationMatrix::new(2, 4);
        r.reserve(0, 0, 4).unwrap();
        assert!(r.reserve(0, 1, 1).is_err());
        r.release(0, 0, 2);
        r.reserve(0, 1, 1).unwrap();
        assert_eq!(r.cells(0, 0), 2);
    }

    #[test]
    #[should_panic(expected = "more than reserved")]
    fn over_release_panics() {
        let mut r = ReservationMatrix::new(2, 4);
        r.release(0, 0, 1);
    }

    #[test]
    fn figure2_matches_paper() {
        let r = ReservationMatrix::figure2();
        // Paper's indices are 1-based; ours are 0-based.
        assert_eq!(r.cells(0, 1), 1);
        assert_eq!(r.cells(0, 2), 1);
        assert_eq!(r.cells(0, 3), 1);
        assert_eq!(r.cells(1, 0), 2);
        assert_eq!(r.cells(2, 1), 2);
        assert_eq!(r.cells(2, 3), 1);
        assert_eq!(r.cells(3, 0), 1);
        assert_eq!(r.cells(3, 2), 1);
        assert_eq!(r.total(), 10);
        // Feasible in a 3-slot frame: every row and column at most 3.
        for k in 0..4 {
            assert!(r.input_load(k) <= 3);
            assert!(r.output_load(k) <= 3);
        }
    }

    #[test]
    fn error_messages() {
        let e = ReservationError::InputOvercommitted {
            input: 3,
            reserved: 900,
            requested: 200,
            frame: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("input 3") && s.contains("1024"));
    }

    #[test]
    #[should_panic(expected = "over-commits")]
    fn from_table_rejects_infeasible() {
        ReservationMatrix::from_table(2, 2, &[2, 1, 0, 0]);
    }
}
