//! AAL5-style segmentation and reassembly.
//!
//! "It is more convenient for host software to deal with larger data units
//! [...] In AN2 a host presents packets to its controller, which disassembles
//! them into cells to transmit to the network. The controller at the
//! receiving host will re-assemble the cells into packets." (paper, §1)
//!
//! The framing follows AAL5: the payload is padded so that payload + an
//! 8-byte trailer fill a whole number of cells; the trailer carries the true
//! length and a CRC-32 over the padded payload; the last cell of a packet is
//! marked in the cell header's payload-type field. Unlike AAL5's CPCS-PDU,
//! the CRC does not cover the length field, so a corrupted length can
//! deliver a packet of the wrong length undetected.

use crate::cell::{Cell, CellKind, VcId, PAYLOAD_BYTES};
use crate::vcindex::VcIndex;
use std::fmt;
use std::sync::Arc;

const TRAILER_BYTES: usize = 8;

/// A variable-length host packet, as presented to an AN2 controller.
///
/// ```
/// use an2_cells::Packet;
/// let p = Packet::from_bytes(vec![1, 2, 3]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.cell_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Shared, so cloning a packet along every hop copies a pointer.
    data: Arc<[u8]>,
}

impl Packet {
    /// Maximum packet size accepted by a controller (64 KiB — a generous
    /// bound for the ethernet-replacement service AN1/AN2 provide).
    pub const MAX_BYTES: usize = 65_536;

    /// Wraps raw bytes as a packet.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`Packet::MAX_BYTES`].
    pub fn from_bytes(data: impl Into<Arc<[u8]>>) -> Self {
        let data = data.into();
        assert!(data.len() <= Self::MAX_BYTES, "packet exceeds maximum size");
        Packet { data }
    }

    /// The packet's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a zero-length packet (legal; still occupies one cell for
    /// its trailer).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of cells this packet occupies on the wire.
    pub fn cell_count(&self) -> usize {
        (self.len() + TRAILER_BYTES).div_ceil(PAYLOAD_BYTES)
    }
}

impl From<Vec<u8>> for Packet {
    fn from(v: Vec<u8>) -> Self {
        Packet::from_bytes(v)
    }
}

/// Byte-at-a-time CRC-32 table for the IEEE 802.3 polynomial (reflected),
/// built at compile time from the same bit-by-bit recurrence the earlier
/// implementation ran per input bit.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables derived from [`CRC_TABLE`]: `CRC_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the state with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
/// Line-card hardware would use a parallel circuit; segmentation and
/// reassembly both checksum every packet body, so the simulator slices the
/// classic byte-at-a-time table loop by eight (the loop itself finishes the
/// tail).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Segments packets into cells for one virtual circuit — the transmit half of
/// an AN2 host controller.
///
/// ```
/// use an2_cells::{Packet, Segmenter, Reassembler, VcId};
/// let vc = VcId::new(9);
/// let cells = Segmenter::new(vc).segment(&Packet::from_bytes(vec![0xAB; 100]));
/// assert_eq!(cells.len(), 3); // 100 B + 8 B trailer => 3 cells
/// let mut r = Reassembler::new();
/// let mut out = None;
/// for c in cells {
///     out = r.push(&c).unwrap();
/// }
/// assert_eq!(out.unwrap().1.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Segmenter {
    vc: VcId,
}

impl Segmenter {
    /// A segmenter emitting cells on virtual circuit `vc`.
    pub fn new(vc: VcId) -> Self {
        Segmenter { vc }
    }

    /// The circuit this segmenter emits on.
    pub fn vc(&self) -> VcId {
        self.vc
    }

    /// Converts one packet into its cell sequence. The last cell has
    /// [`CellKind::DataEnd`] and contains the AAL5 trailer in its final
    /// 8 bytes.
    pub fn segment(&self, packet: &Packet) -> Vec<Cell> {
        let body = packet.as_bytes();
        let n_cells = packet.cell_count();
        let padded = n_cells * PAYLOAD_BYTES;
        let mut buf = vec![0u8; padded];
        buf[..body.len()].copy_from_slice(body);
        // Trailer: [len u32 | crc32 u32] over everything before the trailer.
        let crc = crc32(&buf[..padded - TRAILER_BYTES]);
        buf[padded - 8..padded - 4].copy_from_slice(&(body.len() as u32).to_be_bytes());
        buf[padded - 4..].copy_from_slice(&crc.to_be_bytes());

        buf.chunks_exact(PAYLOAD_BYTES)
            .enumerate()
            .map(|(i, chunk)| {
                let mut payload = [0u8; PAYLOAD_BYTES];
                payload.copy_from_slice(chunk);
                let kind = if i == n_cells - 1 {
                    CellKind::DataEnd
                } else {
                    CellKind::Data
                };
                Cell::new(self.vc, kind, payload)
            })
            .collect()
    }
}

/// Why reassembly of a packet failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyError {
    /// The CRC-32 in the trailer did not match the received payload.
    BadChecksum {
        /// CRC carried in the trailer.
        expected: u32,
        /// CRC computed over the received cells.
        computed: u32,
    },
    /// The length field in the trailer is impossible for the number of cells
    /// received (corrupt trailer, or a lost cell shortened the packet).
    BadLength {
        /// Length claimed by the trailer.
        claimed: usize,
        /// Bytes actually received (before the trailer).
        available: usize,
    },
    /// A non-data cell arrived on a data circuit.
    UnexpectedKind,
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassemblyError::BadChecksum { expected, computed } => write!(
                f,
                "packet checksum mismatch (trailer {expected:#010x}, computed {computed:#010x})"
            ),
            ReassemblyError::BadLength { claimed, available } => write!(
                f,
                "packet trailer claims {claimed} bytes but only {available} arrived"
            ),
            ReassemblyError::UnexpectedKind => write!(f, "non-data cell on a data circuit"),
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// One virtual circuit's packet under reassembly: the payloads of the cells
/// received since the circuit's last end-of-packet cell.
///
/// Cells of one circuit arrive in order (§1), so reassembly is per-circuit
/// state and nothing else; whoever terminates the circuit keeps one of these
/// beside the circuit's other state and pays constant work per cell however
/// many circuits it terminates.
///
/// ```
/// use an2_cells::{Packet, PartialPacket, Segmenter, VcId};
/// let cells = Segmenter::new(VcId::new(9)).segment(&Packet::from_bytes(vec![0xAB; 100]));
/// let mut partial = PartialPacket::new();
/// assert_eq!(partial.push(&cells[0]), Ok(None));
/// assert_eq!(partial.push(&cells[1]), Ok(None));
/// assert_eq!(partial.push(&cells[2]).unwrap().unwrap().len(), 100);
/// assert!(partial.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PartialPacket {
    /// No capacity is retained between packets: the end-of-packet cell
    /// takes the buffer with it (into the finished [`Packet`], or away when
    /// a check fails) and the next packet starts from an unallocated `Vec`.
    /// A terminator of tens of thousands of mostly idle circuits would
    /// otherwise hold a packet's worth of memory for each.
    buf: Vec<u8>,
}

impl PartialPacket {
    /// No cell received yet.
    pub fn new() -> Self {
        PartialPacket::default()
    }

    /// `true` when no cell has arrived since the last end-of-packet cell.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Accepts the circuit's next cell. Returns `Ok(Some(packet))` when this
    /// cell completed a packet.
    ///
    /// # Errors
    ///
    /// Returns a [`ReassemblyError`] if the completed packet fails its CRC or
    /// length check (the cells received so far are discarded, as AAL5
    /// discards corrupt frames), or if the cell is not a data cell (nothing
    /// is discarded).
    pub fn push(&mut self, cell: &Cell) -> Result<Option<Packet>, ReassemblyError> {
        match cell.header.kind {
            CellKind::Data => {
                self.buf.extend_from_slice(&cell.payload);
                Ok(None)
            }
            CellKind::DataEnd => {
                let mut buf = std::mem::take(&mut self.buf);
                buf.extend_from_slice(&cell.payload);
                let total = buf.len();
                debug_assert_eq!(total % PAYLOAD_BYTES, 0);
                let claimed =
                    u32::from_be_bytes(buf[total - 8..total - 4].try_into().unwrap()) as usize;
                let expected = u32::from_be_bytes(buf[total - 4..].try_into().unwrap());
                let computed = crc32(&buf[..total - TRAILER_BYTES]);
                if computed != expected {
                    return Err(ReassemblyError::BadChecksum { expected, computed });
                }
                if claimed > total - TRAILER_BYTES {
                    return Err(ReassemblyError::BadLength {
                        claimed,
                        available: total - TRAILER_BYTES,
                    });
                }
                buf.truncate(claimed);
                Ok(Some(Packet::from_bytes(buf)))
            }
            _ => Err(ReassemblyError::UnexpectedKind),
        }
    }
}

/// Reassembles cell streams back into packets — the receive half of an AN2
/// host controller. One reassembler handles many virtual circuits, keeping
/// a [`PartialPacket`] per VC, because a controller terminates all of its
/// host's circuits.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// Circuit id → position in `partial`. A controller may terminate
    /// hundreds of circuits with packets interleaved cell by cell, so each
    /// arriving cell finds its circuit's state by index, never by scanning
    /// the circuits that happen to be mid-packet.
    index: VcIndex,
    partial: Vec<PartialPacket>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Accepts the next cell of a circuit. Returns `Ok(Some((vc, packet)))`
    /// when this cell completed a packet.
    ///
    /// # Errors
    ///
    /// Returns a [`ReassemblyError`] if the completed packet fails its CRC or
    /// length check (the partial state for that circuit is discarded, as AAL5
    /// discards corrupt frames), or if the cell is not a data cell.
    pub fn push(&mut self, cell: &Cell) -> Result<Option<(VcId, Packet)>, ReassemblyError> {
        let slot = self.index.intern(cell.vc()) as usize;
        if slot == self.partial.len() {
            self.partial.push(PartialPacket::new());
        }
        let done = self.partial[slot].push(cell)?;
        Ok(done.map(|packet| (cell.vc(), packet)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(len: usize) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
        let packet = Packet::from_bytes(data.clone());
        let cells = Segmenter::new(VcId::new(3)).segment(&packet);
        assert_eq!(cells.len(), packet.cell_count());
        let mut r = Reassembler::new();
        let mut done = None;
        for (i, c) in cells.iter().enumerate() {
            let out = r.push(c).unwrap();
            if i + 1 < cells.len() {
                assert!(out.is_none());
            } else {
                done = out;
            }
        }
        let (vc, got) = done.expect("last cell completes the packet");
        assert_eq!(vc, VcId::new(3));
        assert_eq!(got.as_bytes(), &data[..]);
        assert!(r.partial.iter().all(PartialPacket::is_empty));
    }

    #[test]
    fn round_trip_various_sizes() {
        for len in [0, 1, 39, 40, 41, 47, 48, 49, 95, 96, 97, 1500, 4096] {
            round_trip(len);
        }
    }

    #[test]
    fn cell_count_matches_aal5() {
        // 40 bytes + 8 trailer = exactly one cell.
        assert_eq!(Packet::from_bytes(vec![0; 40]).cell_count(), 1);
        // 41 bytes spills into two.
        assert_eq!(Packet::from_bytes(vec![0; 41]).cell_count(), 2);
        assert_eq!(Packet::from_bytes(vec![]).cell_count(), 1);
        assert_eq!(Packet::from_bytes(vec![0; 1500]).cell_count(), 32);
    }

    #[test]
    fn interleaved_circuits_reassemble_independently() {
        let pa = Packet::from_bytes(vec![0xAA; 100]);
        let pb = Packet::from_bytes(vec![0xBB; 100]);
        let ca = Segmenter::new(VcId::new(1)).segment(&pa);
        let cb = Segmenter::new(VcId::new(2)).segment(&pb);
        let mut r = Reassembler::new();
        let mut finished = Vec::new();
        // Interleave a/b cell by cell, as a switch output port would.
        for (x, y) in ca.iter().zip(cb.iter()) {
            if let Some(done) = r.push(x).unwrap() {
                finished.push(done);
            }
            if let Some(done) = r.push(y).unwrap() {
                finished.push(done);
            }
        }
        assert_eq!(finished.len(), 2);
        assert_eq!(finished[0], (VcId::new(1), pa));
        assert_eq!(finished[1], (VcId::new(2), pb));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let packet = Packet::from_bytes(vec![7; 200]);
        let mut cells = Segmenter::new(VcId::new(4)).segment(&packet);
        cells[1].payload[10] ^= 0xFF;
        let mut r = Reassembler::new();
        let mut result = Ok(None);
        for c in &cells {
            result = r.push(c);
        }
        assert!(matches!(result, Err(ReassemblyError::BadChecksum { .. })));
        // State for the circuit was discarded.
        assert!(r.partial.iter().all(PartialPacket::is_empty));
    }

    #[test]
    fn lost_cell_detected() {
        let packet = Packet::from_bytes(vec![9; 200]);
        let cells = Segmenter::new(VcId::new(5)).segment(&packet);
        let mut r = Reassembler::new();
        let mut result = Ok(None);
        for (i, c) in cells.iter().enumerate() {
            if i == 2 {
                continue; // drop one middle cell
            }
            result = r.push(c);
        }
        // Either the length or the CRC exposes the loss.
        assert!(result.is_err());
    }

    #[test]
    fn management_cell_rejected() {
        let mut r = Reassembler::new();
        let cell = Cell::new(VcId::new(1), CellKind::Management, [0; PAYLOAD_BYTES]);
        assert_eq!(r.push(&cell), Err(ReassemblyError::UnexpectedKind));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789" with CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_the_byte_loop() {
        fn bytewise(bytes: &[u8]) -> u32 {
            !bytes.iter().fold(0xFFFF_FFFF, |crc: u32, &b| {
                (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize]
            })
        }
        let data: Vec<u8> = (0..7_950u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every tail length, every alignment of the 8-byte steps.
        for len in (0..=200).chain([7_950]) {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        assert_eq!(crc32(&data[3..203]), bytewise(&data[3..203]));
    }

    #[test]
    fn many_interleaved_circuits_keep_their_own_state() {
        // 300 circuits, cells interleaved round-robin as a busy host link
        // would deliver them; one circuit's third cell is corrupted.
        let packets: Vec<Packet> = (0..300usize)
            .map(|i| {
                Packet::from_bytes(
                    (0..150 + i)
                        .map(|b| (b * 31 + i) as u8)
                        .collect::<Vec<u8>>(),
                )
            })
            .collect();
        let mut streams: Vec<Vec<Cell>> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| Segmenter::new(VcId::new(5_000 + 97 * i as u32)).segment(p))
            .collect();
        streams[150][2].payload[0] ^= 1;
        let mut r = Reassembler::new();
        let (mut done, mut failed) = (Vec::new(), Vec::new());
        for round in 0..streams.iter().map(Vec::len).max().unwrap() {
            for (i, cells) in streams.iter().enumerate() {
                match cells.get(round).map(|c| r.push(c)) {
                    Some(Ok(Some((vc, p)))) => done.push((vc, p)),
                    Some(Err(_)) => failed.push(i),
                    _ => {}
                }
            }
            if round == 1 {
                assert!(!r.partial.iter().any(PartialPacket::is_empty));
            }
        }
        assert_eq!(failed, [150]);
        assert_eq!(done.len(), 299);
        for (vc, p) in done {
            let i = ((vc.raw() - 5_000) / 97) as usize;
            assert_eq!(p, packets[i]);
        }
        assert!(r.partial.iter().all(PartialPacket::is_empty));
    }

    #[test]
    #[should_panic(expected = "maximum size")]
    fn oversized_packet_panics() {
        Packet::from_bytes(vec![0; Packet::MAX_BYTES + 1]);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ReassemblyError::BadLength {
            claimed: 100,
            available: 40,
        };
        assert!(e.to_string().contains("100"));
        let e = ReassemblyError::UnexpectedKind;
        assert!(!e.to_string().is_empty());
    }
}
