//! Nested frames (§4, future work).
//!
//! "Large frames are attractive because they provide a fine-grained
//! allocation unit, but small frames yield better latency and jitter bounds.
//! Nested frames could provide the benefits of both. For example, allocation
//! could be based on 1024-slot frames, with cell re-ordering restricted to
//! 128-slot units."
//!
//! A [`NestedFrameSchedule`] keeps the big frame's allocation granularity (a
//! reservation is still "k cells per 1024 slots") but distributes each
//! circuit's cells round-robin over subframes and schedules each subframe
//! independently. Because a cell can only be reordered within its 128-slot
//! subframe, the inter-departure jitter of a circuit shrinks from O(frame)
//! to O(subframe + spacing).

use crate::frame::FrameSchedule;
use crate::reservation::ReservationMatrix;

/// A frame schedule composed of independently scheduled subframes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedFrameSchedule {
    n: usize,
    subframes: Vec<FrameSchedule>,
    subframe_slots: u32,
}

impl NestedFrameSchedule {
    /// Builds a nested schedule for `reservations`, splitting the frame into
    /// `subframe_count` equal subframes. Each reservation's k cells are
    /// spread over subframes as evenly as possible (⌈k/m⌉ or ⌊k/m⌋ each).
    ///
    /// # Panics
    ///
    /// Panics if the frame size is not divisible by `subframe_count`, or if
    /// a reservation's per-subframe share over-fills a subframe (cannot
    /// happen for feasible matrices: per-subframe load of a link is at most
    /// ⌈frame_load / m⌉ ≤ subframe size only when loads divide evenly —
    /// so the builder *reserves headroom*: it requires every link load to
    /// leave `subframe_count - 1` spare slots, and panics otherwise; see
    /// [`NestedFrameSchedule::fits`].
    pub fn build(reservations: &ReservationMatrix, subframe_count: u32) -> Self {
        let frame = reservations.frame();
        assert!(
            subframe_count > 0 && frame.is_multiple_of(subframe_count),
            "frame {frame} not divisible into {subframe_count} subframes"
        );
        assert!(
            Self::fits(reservations, subframe_count),
            "reservations too dense for nested scheduling headroom"
        );
        let n = reservations.size();
        let sub_slots = frame / subframe_count;
        // Per-subframe reservation matrices: distribute each entry's cells
        // round-robin, starting at a rotating offset for balance.
        let mut subs: Vec<ReservationMatrix> = (0..subframe_count)
            .map(|_| ReservationMatrix::new(n, sub_slots))
            .collect();
        let mut rotor = 0u32;
        for (i, o, cells) in reservations.entries() {
            for j in 0..cells {
                let sf = ((j + rotor) % subframe_count) as usize;
                subs[sf]
                    .reserve(i, o, 1)
                    .expect("headroom check guarantees subframe feasibility");
            }
            rotor = rotor.wrapping_add(1);
        }
        let subframes = subs.iter().map(FrameSchedule::build).collect();
        NestedFrameSchedule {
            n,
            subframes,
            subframe_slots: sub_slots,
        }
    }

    /// Whether the round-robin split of `reservations` into `subframe_count`
    /// subframes is guaranteed feasible: every link's load, divided over the
    /// subframes, must fit a subframe even in the worst rounding case.
    pub fn fits(reservations: &ReservationMatrix, subframe_count: u32) -> bool {
        let sub_slots = reservations.frame() / subframe_count;
        (0..reservations.size()).all(|k| {
            let worst_in = per_subframe_worst(reservations.input_load(k), subframe_count);
            let worst_out = per_subframe_worst(reservations.output_load(k), subframe_count);
            worst_in <= sub_slots && worst_out <= sub_slots
        })
    }

    /// Switch size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Total frame size in slots.
    pub fn frame(&self) -> u32 {
        self.subframe_slots * self.subframes.len() as u32
    }

    /// The output scheduled for `input` at absolute slot `slot`.
    pub fn output_in_slot(&self, slot: u32, input: usize) -> Option<usize> {
        let sf = (slot / self.subframe_slots) as usize;
        self.subframes[sf].output_in_slot(slot % self.subframe_slots, input)
    }

    /// Scheduled cells per frame for a pair (must equal the reservation).
    pub fn scheduled_cells(&self, input: usize, output: usize) -> u32 {
        self.subframes
            .iter()
            .map(|s| s.scheduled_cells(input, output))
            .sum()
    }

    /// The largest gap, in slots, between consecutive departures of a
    /// pair's cells across the (cyclic) frame — the circuit's jitter bound.
    pub fn max_interdeparture_gap(&self, input: usize, output: usize) -> Option<u32> {
        let frame = self.frame();
        max_cyclic_gap(
            &departure_slots(|t| self.output_in_slot(t, input) == Some(output), frame),
            frame,
        )
    }
}

/// Worst-case cells landing in one subframe when `load` cells are split
/// round-robin per entry: an entry of k cells puts at most ⌈k/m⌉ in one
/// subframe, and summing ⌈·⌉ over entries can exceed ⌈sum/m⌉ by the number
/// of entries; we bound conservatively by ⌈load/m⌉ + (m - 1).
fn per_subframe_worst(load: u32, m: u32) -> u32 {
    load.div_ceil(m) + (m - 1)
}

/// Max interdeparture gap helper for flat schedules, to compare nested and
/// flat jitter on equal terms.
pub fn flat_max_interdeparture_gap(s: &FrameSchedule, input: usize, output: usize) -> Option<u32> {
    let frame = s.frame();
    max_cyclic_gap(
        &departure_slots(|t| s.output_in_slot(t, input) == Some(output), frame),
        frame,
    )
}

fn departure_slots(has: impl Fn(u32) -> bool, frame: u32) -> Vec<u32> {
    (0..frame).filter(|&t| has(t)).collect()
}

/// Largest distance (in slots) between consecutive departures, treating the
/// frame as cyclic: the schedule repeats, so the last departure of one frame
/// is followed by the first departure of the next.
fn max_cyclic_gap(slots: &[u32], frame: u32) -> Option<u32> {
    if slots.is_empty() {
        return None;
    }
    let mut max = 0;
    for k in 0..slots.len() {
        let next = if k + 1 < slots.len() {
            slots[k + 1]
        } else {
            slots[0] + frame
        };
        max = max.max(next - slots[k]);
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_reservations(n: usize, frame: u32, per_pair: u32) -> ReservationMatrix {
        let mut r = ReservationMatrix::new(n, frame);
        for i in 0..n {
            for o in 0..n {
                r.reserve(i, o, per_pair).unwrap();
            }
        }
        r
    }

    #[test]
    fn nested_satisfies_reservations() {
        let r = dense_reservations(4, 128, 8);
        let nested = NestedFrameSchedule::build(&r, 8);
        for i in 0..4 {
            for o in 0..4 {
                assert_eq!(nested.scheduled_cells(i, o), 8);
            }
        }
        assert_eq!(nested.frame(), 128);
        assert_eq!(nested.subframe_slots, 16);
        assert_eq!(nested.size(), 4);
    }

    #[test]
    fn nested_reduces_jitter() {
        // One circuit with 8 cells/128 slots; flat scheduling may bunch all
        // 8 at the start of the frame (gap ~120 slots); nested with 8
        // subframes caps the gap near 2 subframes.
        let mut r = ReservationMatrix::new(4, 128);
        r.reserve(0, 1, 8).unwrap();
        // Add competing load so the flat packer bunches.
        r.reserve(1, 2, 8).unwrap();
        r.reserve(2, 3, 8).unwrap();
        let flat = crate::packing::build_packed(&r);
        let nested = NestedFrameSchedule::build(&r, 8);
        let flat_gap = flat_max_interdeparture_gap(&flat, 0, 1).unwrap();
        let nested_gap = nested.max_interdeparture_gap(0, 1).unwrap();
        assert!(
            nested_gap < flat_gap,
            "nested gap {nested_gap} !< flat gap {flat_gap}"
        );
        assert!(nested_gap <= 2 * nested.subframe_slots);
    }

    #[test]
    fn fits_rejects_overdense() {
        let r = dense_reservations(4, 16, 4); // every link fully committed
        assert!(!NestedFrameSchedule::fits(&r, 4));
        let light = dense_reservations(4, 64, 2); // link load 8 of 64
        assert!(NestedFrameSchedule::fits(&light, 4));
    }

    #[test]
    #[should_panic(expected = "too dense")]
    fn build_panics_without_headroom() {
        let r = dense_reservations(4, 16, 4);
        NestedFrameSchedule::build(&r, 4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn build_rejects_nondividing_subframes() {
        let r = ReservationMatrix::new(2, 10);
        NestedFrameSchedule::build(&r, 3);
    }

    #[test]
    fn unreserved_pair_has_no_departures() {
        let mut r = ReservationMatrix::new(2, 16);
        r.reserve(0, 1, 2).unwrap();
        let nested = NestedFrameSchedule::build(&r, 2);
        assert_eq!(nested.max_interdeparture_gap(1, 0), None);
        assert_eq!(nested.scheduled_cells(1, 0), 0);
    }
}
