//! Signaling-cell payloads.
//!
//! "When a new virtual circuit is to be created, a cell containing the ids of
//! the source and destination hosts is sent along a separate signaling
//! circuit. When this cell arrives at a switch, it is passed to the processor
//! on the line card where it arrived." (§2)
//!
//! This module defines the payload encoding of those cells: circuit setup for
//! best-effort traffic, setup/confirm/deny for guaranteed traffic (carrying
//! the cells-per-frame reservation, §4), teardown, and the page-out
//! notification of §2's resource-reclamation extension. Encodings are
//! fixed-layout big-endian so that a decoded value always round-trips.

use crate::cell::{Cell, CellKind, VcId, PAYLOAD_BYTES};
use std::fmt;

/// The service class of a virtual circuit (§1: guaranteed / best-effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Variable Bit Rate: no setup reservation, no service guarantee.
    BestEffort,
    /// Continuous Bit Rate: reserved bandwidth in cells per 1024-slot frame.
    Guaranteed {
        /// Reserved bandwidth, in cells per frame.
        cells_per_frame: u16,
    },
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::BestEffort => write!(f, "best-effort"),
            TrafficClass::Guaranteed { cells_per_frame } => {
                write!(f, "guaranteed({cells_per_frame} cells/frame)")
            }
        }
    }
}

/// A decoded signaling message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalMsg {
    /// Establish a circuit along the path this cell travels. Line cards that
    /// forward this cell install a routing-table entry for `circuit`.
    Setup {
        /// The circuit being established.
        circuit: VcId,
        /// Source host id.
        src_host: u32,
        /// Destination host id.
        dst_host: u32,
        /// Service class (and reservation, if guaranteed).
        class: TrafficClass,
    },
    /// Positive acknowledgment, returned to the source host.
    Confirm {
        /// The circuit that was established.
        circuit: VcId,
    },
    /// Negative acknowledgment: admission control denied the reservation.
    Deny {
        /// The circuit that was refused.
        circuit: VcId,
        /// Reason code (0 = no route, 1 = insufficient bandwidth).
        reason: u8,
    },
    /// Tear the circuit down and release its buffers and table entries.
    Teardown {
        /// The circuit being destroyed.
        circuit: VcId,
    },
    /// §2 extension: the upstream switch paged this idle circuit out;
    /// downstream may release its resources too.
    PageOut {
        /// The idle circuit being reclaimed.
        circuit: VcId,
    },
}

/// Error when decoding a signaling payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The unrecognised tag byte.
    pub tag: u8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown signaling message tag {:#04x}", self.tag)
    }
}

impl std::error::Error for DecodeError {}

const TAG_SETUP: u8 = 1;
const TAG_CONFIRM: u8 = 2;
const TAG_DENY: u8 = 3;
const TAG_TEARDOWN: u8 = 4;
const TAG_PAGEOUT: u8 = 5;

impl SignalMsg {
    /// The circuit this message refers to.
    pub fn circuit(&self) -> VcId {
        match *self {
            SignalMsg::Setup { circuit, .. }
            | SignalMsg::Confirm { circuit }
            | SignalMsg::Deny { circuit, .. }
            | SignalMsg::Teardown { circuit }
            | SignalMsg::PageOut { circuit } => circuit,
        }
    }

    /// Encodes into a 48-byte cell payload.
    pub fn encode(&self) -> [u8; PAYLOAD_BYTES] {
        let mut p = [0u8; PAYLOAD_BYTES];
        match *self {
            SignalMsg::Setup {
                circuit,
                src_host,
                dst_host,
                class,
            } => {
                p[0] = TAG_SETUP;
                p[1..5].copy_from_slice(&circuit.raw().to_be_bytes());
                p[5..9].copy_from_slice(&src_host.to_be_bytes());
                p[9..13].copy_from_slice(&dst_host.to_be_bytes());
                match class {
                    TrafficClass::BestEffort => p[13] = 0,
                    TrafficClass::Guaranteed { cells_per_frame } => {
                        p[13] = 1;
                        p[14..16].copy_from_slice(&cells_per_frame.to_be_bytes());
                    }
                }
            }
            SignalMsg::Confirm { circuit } => {
                p[0] = TAG_CONFIRM;
                p[1..5].copy_from_slice(&circuit.raw().to_be_bytes());
            }
            SignalMsg::Deny { circuit, reason } => {
                p[0] = TAG_DENY;
                p[1..5].copy_from_slice(&circuit.raw().to_be_bytes());
                p[5] = reason;
            }
            SignalMsg::Teardown { circuit } => {
                p[0] = TAG_TEARDOWN;
                p[1..5].copy_from_slice(&circuit.raw().to_be_bytes());
            }
            SignalMsg::PageOut { circuit } => {
                p[0] = TAG_PAGEOUT;
                p[1..5].copy_from_slice(&circuit.raw().to_be_bytes());
            }
        }
        p
    }

    /// Decodes from a 48-byte cell payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on an unknown tag byte.
    pub fn decode(payload: &[u8; PAYLOAD_BYTES]) -> Result<Self, DecodeError> {
        let circuit = VcId::new(u32::from_be_bytes(payload[1..5].try_into().unwrap()) & VcId::MAX);
        match payload[0] {
            TAG_SETUP => {
                let src_host = u32::from_be_bytes(payload[5..9].try_into().unwrap());
                let dst_host = u32::from_be_bytes(payload[9..13].try_into().unwrap());
                let class = if payload[13] == 0 {
                    TrafficClass::BestEffort
                } else {
                    TrafficClass::Guaranteed {
                        cells_per_frame: u16::from_be_bytes(payload[14..16].try_into().unwrap()),
                    }
                };
                Ok(SignalMsg::Setup {
                    circuit,
                    src_host,
                    dst_host,
                    class,
                })
            }
            TAG_CONFIRM => Ok(SignalMsg::Confirm { circuit }),
            TAG_DENY => Ok(SignalMsg::Deny {
                circuit,
                reason: payload[5],
            }),
            TAG_TEARDOWN => Ok(SignalMsg::Teardown { circuit }),
            TAG_PAGEOUT => Ok(SignalMsg::PageOut { circuit }),
            tag => Err(DecodeError { tag }),
        }
    }

    /// Wraps this message into a signaling cell on the given signaling
    /// circuit.
    ///
    /// ```
    /// use an2_cells::signal::{SignalMsg, TrafficClass, SIGNALING_VC};
    /// use an2_cells::VcId;
    /// let msg = SignalMsg::Setup {
    ///     circuit: VcId::new(0x99),
    ///     src_host: 1,
    ///     dst_host: 2,
    ///     class: TrafficClass::BestEffort,
    /// };
    /// let cell = msg.to_cell(SIGNALING_VC);
    /// assert_eq!(SignalMsg::from_cell(&cell), Some(msg));
    /// ```
    pub fn to_cell(&self, signaling_vc: VcId) -> Cell {
        Cell::new(signaling_vc, CellKind::Signal, self.encode())
    }

    /// Extracts a signaling message from a cell; `None` if the cell is not a
    /// signaling cell or fails to decode.
    pub fn from_cell(cell: &Cell) -> Option<Self> {
        if cell.header.kind != CellKind::Signal {
            return None;
        }
        SignalMsg::decode(&cell.payload).ok()
    }
}

/// The well-known signaling circuit id (VC 5, as in ATM UNI signaling).
pub const SIGNALING_VC: VcId = VcId::well_known(5);

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<SignalMsg> {
        vec![
            SignalMsg::Setup {
                circuit: VcId::new(0x12_3456),
                src_host: 42,
                dst_host: 97,
                class: TrafficClass::BestEffort,
            },
            SignalMsg::Setup {
                circuit: VcId::new(0x01),
                src_host: 0,
                dst_host: u32::MAX,
                class: TrafficClass::Guaranteed {
                    cells_per_frame: 1024,
                },
            },
            SignalMsg::Confirm {
                circuit: VcId::new(7),
            },
            SignalMsg::Deny {
                circuit: VcId::new(8),
                reason: 1,
            },
            SignalMsg::Teardown {
                circuit: VcId::new(9),
            },
            SignalMsg::PageOut {
                circuit: VcId::new(10),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for msg in all_messages() {
            let decoded = SignalMsg::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn cell_round_trip() {
        for msg in all_messages() {
            let cell = msg.to_cell(SIGNALING_VC);
            assert_eq!(cell.vc(), SIGNALING_VC);
            assert_eq!(SignalMsg::from_cell(&cell), Some(msg));
        }
    }

    #[test]
    fn circuit_accessor() {
        for msg in all_messages() {
            let _ = msg.circuit(); // every variant exposes a circuit
        }
        assert_eq!(
            SignalMsg::Confirm {
                circuit: VcId::new(7)
            }
            .circuit(),
            VcId::new(7)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut p = [0u8; PAYLOAD_BYTES];
        p[0] = 0xEE;
        let err = SignalMsg::decode(&p).unwrap_err();
        assert_eq!(err.tag, 0xEE);
        assert!(err.to_string().contains("0xee"));
    }

    #[test]
    fn data_cell_is_not_signal() {
        let cell = Cell::blank(VcId::new(1));
        assert_eq!(SignalMsg::from_cell(&cell), None);
    }

    #[test]
    fn traffic_class_display() {
        assert_eq!(TrafficClass::BestEffort.to_string(), "best-effort");
        assert_eq!(
            TrafficClass::Guaranteed {
                cells_per_frame: 12
            }
            .to_string(),
            "guaranteed(12 cells/frame)"
        );
    }

    #[test]
    fn well_known_const() {
        assert_eq!(SIGNALING_VC.raw(), 5);
        const OTHER: VcId = VcId::well_known(31);
        assert_eq!(OTHER.raw(), 31);
    }
}
