//! The 53-byte ATM cell, its 5-byte header, and the HEC header checksum.
//!
//! The header layout follows the ATM UNI format the AN2 line cards would
//! parse in hardware:
//!
//! ```text
//!  byte 0: GFC(4) | VPI(4 high)
//!  byte 1: VPI(4 low) | VCI(4 high)
//!  byte 2: VCI(8 mid)
//!  byte 3: VCI(4 low) | PTI(3) | CLP(1)
//!  byte 4: HEC — CRC-8 over bytes 0..4, polynomial x^8 + x^2 + x + 1
//! ```
//!
//! The reproduction folds VPI and VCI into a single 24-bit [`VcId`], matching
//! the paper's model where "the header of each cell contains its virtual
//! circuit id" and a routing-table lookup maps it to an output port.

use std::fmt;

/// Bytes in a full ATM cell.
pub const CELL_BYTES: usize = 53;
/// Bytes in the cell header.
pub const HEADER_BYTES: usize = 5;
/// Bytes of payload per cell.
pub const PAYLOAD_BYTES: usize = 48;

/// A virtual-circuit identifier: the combined 24-bit VPI/VCI field.
///
/// On a real link VC ids have *link-local* scope — each switch's routing
/// table maps (input port, VC id) to an output port, possibly rewriting the
/// id. The reproduction keeps ids network-unique for legibility, which is a
/// strict special case of link-local ids.
///
/// ```
/// use an2_cells::VcId;
/// let vc = VcId::new(0x00_1234);
/// assert_eq!(vc.raw(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(u32);

impl VcId {
    /// The maximum representable id (24 bits).
    pub const MAX: u32 = 0x00FF_FFFF;

    /// Creates a VC id.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 24 bits.
    pub fn new(raw: u32) -> Self {
        assert!(raw <= Self::MAX, "VC id must fit in 24 bits");
        VcId(raw)
    }

    /// The raw 24-bit value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Const constructor for well-known circuit ids (e.g. the signaling
    /// circuit).
    ///
    /// # Panics
    ///
    /// Panics at compile time if the value exceeds 24 bits.
    pub const fn well_known(raw: u32) -> VcId {
        assert!(raw <= VcId::MAX);
        VcId(raw)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc:{:#x}", self.0)
    }
}

impl From<VcId> for u32 {
    fn from(vc: VcId) -> u32 {
        vc.0
    }
}

/// What a cell carries, encoded in the 3-bit payload-type indicator.
///
/// AN2 distinguishes user data (with an AAL5-style end-of-packet marker),
/// in-band signaling (circuit setup travels "along a separate signaling
/// circuit", §2) and the link-maintenance traffic used by the monitor (§2)
/// and the credit protocol (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// User data, more cells of this packet follow.
    Data,
    /// User data, final cell of a packet (AAL5 end-of-message).
    DataEnd,
    /// Signaling (circuit setup / teardown / reservation).
    Signal,
    /// Link management: monitor pings, credit updates, resync markers.
    Management,
}

impl CellKind {
    fn to_pti(self) -> u8 {
        match self {
            CellKind::Data => 0b000,
            CellKind::DataEnd => 0b001,
            CellKind::Signal => 0b100,
            CellKind::Management => 0b101,
        }
    }

    fn from_pti(pti: u8) -> Self {
        match pti & 0b111 {
            0b001 => CellKind::DataEnd,
            0b100 => CellKind::Signal,
            0b101 => CellKind::Management,
            _ => CellKind::Data,
        }
    }
}

/// The decoded 5-byte cell header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellHeader {
    /// Virtual circuit this cell belongs to.
    pub vc: VcId,
    /// Payload type.
    pub kind: CellKind,
    /// Cell-loss priority: `true` marks the cell as preferentially droppable.
    /// AN2's credit flow control never drops best-effort cells, but the bit
    /// exists in the format and is preserved end-to-end.
    pub low_priority: bool,
}

/// CRC-8 with the ATM HEC polynomial x⁸ + x² + x + 1 (0x07), as computed by
/// the header-error-control circuit of an ATM line card.
pub(crate) fn hec(bytes: &[u8]) -> u8 {
    let mut crc: u8 = 0;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Error returned when a received header fails its HEC check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HecError {
    /// HEC byte carried in the cell.
    pub found: u8,
    /// HEC recomputed over the received header bytes.
    pub computed: u8,
}

impl fmt::Display for HecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "header checksum mismatch (found {:#04x}, computed {:#04x})",
            self.found, self.computed
        )
    }
}

impl std::error::Error for HecError {}

impl CellHeader {
    /// Encodes the header into its 5-byte wire form, including the HEC.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let vpi_vci = self.vc.raw(); // 24 bits: VPI(8) | VCI(16)
        let vpi = ((vpi_vci >> 16) & 0xFF) as u8;
        let vci = (vpi_vci & 0xFFFF) as u16;
        let pti = self.kind.to_pti();
        let clp = u8::from(self.low_priority);
        let mut b = [0u8; HEADER_BYTES];
        b[0] = vpi >> 4; // GFC = 0, VPI high nibble
        b[1] = (vpi << 4) | ((vci >> 12) as u8 & 0x0F);
        b[2] = (vci >> 4) as u8;
        b[3] = (((vci & 0x0F) as u8) << 4) | (pti << 1) | clp;
        b[4] = hec(&b[..4]);
        b
    }

    /// Decodes a 5-byte wire header, verifying the HEC.
    ///
    /// # Errors
    ///
    /// Returns [`HecError`] when the checksum does not match, as a real line
    /// card would discard the cell.
    pub fn decode(bytes: &[u8; HEADER_BYTES]) -> Result<Self, HecError> {
        let computed = hec(&bytes[..4]);
        if computed != bytes[4] {
            return Err(HecError {
                found: bytes[4],
                computed,
            });
        }
        let vpi = ((bytes[0] & 0x0F) << 4) | (bytes[1] >> 4);
        let vci = (((bytes[1] & 0x0F) as u16) << 12)
            | ((bytes[2] as u16) << 4)
            | ((bytes[3] >> 4) as u16);
        let pti = (bytes[3] >> 1) & 0b111;
        let clp = bytes[3] & 1 != 0;
        Ok(CellHeader {
            vc: VcId::new(((vpi as u32) << 16) | vci as u32),
            kind: CellKind::from_pti(pti),
            low_priority: clp,
        })
    }
}

/// A complete 53-byte ATM cell: header plus 48-byte payload.
///
/// `Cell` is the unit moved by every queue, crossbar and link in the
/// reproduction. It is `Copy` (53 bytes of plain data) so pooled queues can
/// move cells between slots without touching the allocator.
///
/// ```
/// use an2_cells::{Cell, CellKind, VcId};
/// let cell = Cell::new(VcId::new(7), CellKind::DataEnd, *b"hello, AN2! padding to 48 bytes..........!!!....");
/// let wire = cell.encode();
/// assert_eq!(wire.len(), 53);
/// assert_eq!(Cell::decode(&wire).unwrap(), cell);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The decoded header.
    pub header: CellHeader,
    /// 48 bytes of payload.
    pub payload: [u8; PAYLOAD_BYTES],
}

impl Cell {
    /// Creates a cell.
    pub fn new(vc: VcId, kind: CellKind, payload: [u8; PAYLOAD_BYTES]) -> Self {
        Cell {
            header: CellHeader {
                vc,
                kind,
                low_priority: false,
            },
            payload,
        }
    }

    /// A data cell with a zeroed payload — handy for scheduler experiments
    /// where only the VC id matters.
    pub fn blank(vc: VcId) -> Self {
        Cell::new(vc, CellKind::Data, [0; PAYLOAD_BYTES])
    }

    /// The cell's virtual circuit.
    pub fn vc(&self) -> VcId {
        self.header.vc
    }

    /// `true` when this cell ends a packet.
    pub fn is_end_of_packet(&self) -> bool {
        self.header.kind == CellKind::DataEnd
    }

    /// Encodes to the 53-byte wire form.
    pub fn encode(&self) -> [u8; CELL_BYTES] {
        let mut out = [0u8; CELL_BYTES];
        out[..HEADER_BYTES].copy_from_slice(&self.header.encode());
        out[HEADER_BYTES..].copy_from_slice(&self.payload);
        out
    }

    /// Decodes from the 53-byte wire form, verifying the header HEC.
    ///
    /// # Errors
    ///
    /// Returns [`HecError`] if the header checksum fails.
    pub fn decode(bytes: &[u8; CELL_BYTES]) -> Result<Self, HecError> {
        let mut hdr = [0u8; HEADER_BYTES];
        hdr.copy_from_slice(&bytes[..HEADER_BYTES]);
        let header = CellHeader::decode(&hdr)?;
        let mut payload = [0u8; PAYLOAD_BYTES];
        payload.copy_from_slice(&bytes[HEADER_BYTES..]);
        Ok(Cell { header, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_id_bounds() {
        assert_eq!(VcId::new(VcId::MAX).raw(), VcId::MAX);
        assert_eq!(u32::from(VcId::new(5)), 5);
        assert_eq!(VcId::new(16).to_string(), "vc:0x10");
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn vc_id_too_large_panics() {
        VcId::new(VcId::MAX + 1);
    }

    #[test]
    fn header_round_trip_all_kinds() {
        for kind in [
            CellKind::Data,
            CellKind::DataEnd,
            CellKind::Signal,
            CellKind::Management,
        ] {
            for clp in [false, true] {
                let h = CellHeader {
                    vc: VcId::new(0xAB_CDEF),
                    kind,
                    low_priority: clp,
                };
                let decoded = CellHeader::decode(&h.encode()).unwrap();
                assert_eq!(decoded, h);
            }
        }
    }

    #[test]
    fn header_rejects_corruption() {
        let h = CellHeader {
            vc: VcId::new(77),
            kind: CellKind::Data,
            low_priority: false,
        };
        let mut wire = h.encode();
        for byte in 0..HEADER_BYTES {
            for bit in 0..8 {
                wire[byte] ^= 1 << bit;
                assert!(
                    CellHeader::decode(&wire).is_err(),
                    "flip of byte {byte} bit {bit} must fail the HEC"
                );
                wire[byte] ^= 1 << bit;
            }
        }
        assert!(CellHeader::decode(&wire).is_ok());
    }

    #[test]
    fn hec_known_property() {
        // CRC of data followed by its CRC is zero for this polynomial form.
        let data = [0x12, 0x34, 0x56, 0x78];
        let c = hec(&data);
        let mut with = data.to_vec();
        with.push(c);
        assert_eq!(hec(&with), 0);
    }

    #[test]
    fn cell_round_trip() {
        let mut payload = [0u8; PAYLOAD_BYTES];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = i as u8;
        }
        let cell = Cell::new(VcId::new(0x12_3456), CellKind::DataEnd, payload);
        let wire = cell.encode();
        assert_eq!(Cell::decode(&wire).unwrap(), cell);
        assert!(cell.is_end_of_packet());
        assert_eq!(cell.vc(), VcId::new(0x12_3456));
    }

    #[test]
    fn blank_cell_is_data() {
        let c = Cell::blank(VcId::new(1));
        assert!(!c.is_end_of_packet());
        assert_eq!(c.payload, [0; PAYLOAD_BYTES]);
    }

    #[test]
    fn cell_decode_rejects_bad_header() {
        let cell = Cell::blank(VcId::new(9));
        let mut wire = cell.encode();
        wire[0] ^= 0x10;
        let err = Cell::decode(&wire).unwrap_err();
        assert_ne!(err.found, err.computed);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn distinct_vcs_distinct_wire() {
        let a = Cell::blank(VcId::new(1)).encode();
        let b = Cell::blank(VcId::new(2)).encode();
        assert_ne!(a, b);
    }
}
