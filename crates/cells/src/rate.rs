//! Link rates and cell-slot timing.
//!
//! AN2 links run at 622 Mb/s, with 155 Mb/s links "also provided, e.g. for
//! connecting a host to a switch" (§1); the paper's guaranteed-latency
//! arithmetic in §4 uses 1 Gb/s links ("With 1 gigabit-per-second links, it
//! takes less than half a millisecond to transmit a frame").

use crate::cell::CELL_BYTES;
use an2_sim::SimDuration;
use std::fmt;

/// The link speeds of the AN2 design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkRate {
    /// 155.52 Mb/s (OC-3): host attachment links.
    Mbps155,
    /// 622.08 Mb/s (OC-12): the standard AN2 inter-switch link.
    Mbps622,
    /// 1 Gb/s: the rate the paper's §4 latency arithmetic assumes.
    Gbps1,
}

impl LinkRate {
    /// Bits per second.
    pub(crate) fn bits_per_sec(self) -> u64 {
        match self {
            LinkRate::Mbps155 => 155_520_000,
            LinkRate::Mbps622 => 622_080_000,
            LinkRate::Gbps1 => 1_000_000_000,
        }
    }

    /// Time to transmit one 53-byte cell at this rate — the switch's slot
    /// time. At 622 Mb/s this is ~681 ns, consistent with §3's "half
    /// microsecond required to transmit a cell" order of magnitude.
    pub fn slot_duration(self) -> SimDuration {
        let bits = (CELL_BYTES * 8) as u64;
        SimDuration::from_nanos(bits * 1_000_000_000 / self.bits_per_sec())
    }

    /// Cells per second at full utilisation.
    pub fn cells_per_sec(self) -> u64 {
        self.bits_per_sec() / (CELL_BYTES as u64 * 8)
    }
}

impl fmt::Display for LinkRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkRate::Mbps155 => write!(f, "155Mb/s"),
            LinkRate::Mbps622 => write!(f, "622Mb/s"),
            LinkRate::Gbps1 => write!(f, "1Gb/s"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_durations_match_paper_orders() {
        // 424 bits / 622.08 Mb/s = 681.6 ns
        assert_eq!(LinkRate::Mbps622.slot_duration().as_nanos(), 681);
        // 424 bits / 155.52 Mb/s = 2726 ns
        assert_eq!(LinkRate::Mbps155.slot_duration().as_nanos(), 2726);
        // 424 bits / 1 Gb/s = 424 ns
        assert_eq!(LinkRate::Gbps1.slot_duration().as_nanos(), 424);
    }

    #[test]
    fn gigabit_frame_under_half_millisecond() {
        // The paper: "With 1 gigabit-per-second links, it takes less than
        // half a millisecond to transmit a frame" (1024 slots).
        let frame = LinkRate::Gbps1.slot_duration() * 1024;
        assert!(frame < SimDuration::from_micros(500), "frame = {frame}");
    }

    #[test]
    fn cells_per_second() {
        assert_eq!(LinkRate::Gbps1.cells_per_sec(), 2_358_490);
        assert!(LinkRate::Mbps622.cells_per_sec() > 1_400_000);
    }

    #[test]
    fn display() {
        assert_eq!(LinkRate::Mbps622.to_string(), "622Mb/s");
    }
}
