//! The wire decoders return `Ok` or `Err` and never panic: the cell header
//! and whole-cell decoders (HEC) and the signalling payload decoder, fed
//! every single-bit and double-bit flip of a small valid corpus and every
//! byte string of two bytes or less laid into the start of their
//! fixed-size arrays. Switch-to-switch control messages ride out of band
//! in the fabric, so there is no control-cell byte decoder to sweep.

use an2_cells::signal::{SignalMsg, TrafficClass, SIGNALING_VC};
use an2_cells::{Cell, CellHeader, CellKind, VcId, CELL_BYTES, HEADER_BYTES, PAYLOAD_BYTES};

fn flip<const N: usize>(bytes: &mut [u8; N], bit: usize) {
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// Feeds `decode` every single- and double-bit flip of each `corpus`
/// entry, then every string of at most two bytes laid into a zeroed
/// array. `decode` says whether it rejected its input; returns how many
/// inputs it saw and how many it rejected.
fn sweep<const N: usize>(
    corpus: &[[u8; N]],
    mut decode: impl FnMut(&[u8; N]) -> bool,
) -> (usize, usize) {
    let (mut inputs, mut rejected) = (0, 0);
    let mut feed = |bytes: &[u8; N]| {
        inputs += 1;
        rejected += usize::from(decode(bytes));
    };
    for &valid in corpus {
        let mut bytes = valid;
        for a in 0..N * 8 {
            flip(&mut bytes, a);
            feed(&bytes);
            for b in a + 1..N * 8 {
                flip(&mut bytes, b);
                feed(&bytes);
                flip(&mut bytes, b);
            }
            flip(&mut bytes, a);
        }
    }
    feed(&[0; N]);
    for a in 0..=u8::MAX {
        let mut bytes = [0; N];
        bytes[0] = a;
        feed(&bytes);
        for b in 0..=u8::MAX {
            bytes[1] = b;
            feed(&bytes);
        }
    }
    (inputs, rejected)
}

fn headers() -> Vec<CellHeader> {
    let kinds = [
        CellKind::Data,
        CellKind::DataEnd,
        CellKind::Signal,
        CellKind::Management,
    ];
    let mut out = Vec::new();
    for vc in [0, 1, 5, 0x12_3456, VcId::MAX] {
        for kind in kinds {
            for low_priority in [false, true] {
                out.push(CellHeader {
                    vc: VcId::new(vc),
                    kind,
                    low_priority,
                });
            }
        }
    }
    out
}

fn signals() -> Vec<SignalMsg> {
    let circuit = VcId::new(0x00AB_CDEF);
    let setup = |class| SignalMsg::Setup {
        circuit,
        src_host: 3,
        dst_host: u32::MAX,
        class,
    };
    vec![
        setup(TrafficClass::BestEffort),
        setup(TrafficClass::Guaranteed {
            cells_per_frame: 1023,
        }),
        SignalMsg::Confirm { circuit },
        SignalMsg::Deny { circuit, reason: 1 },
        SignalMsg::Teardown { circuit },
        SignalMsg::PageOut { circuit },
    ]
}

/// The HEC rejects every one- and two-bit error in a header: CRC-8 over
/// 40 bits detects both. What passes decodes without panicking.
#[test]
fn header_decoder_never_panics_and_catches_one_and_two_bit_errors() {
    let corpus: Vec<[u8; HEADER_BYTES]> = headers().iter().map(CellHeader::encode).collect();
    for wire in &corpus {
        let mut bytes = *wire;
        for a in 0..HEADER_BYTES * 8 {
            flip(&mut bytes, a);
            assert!(CellHeader::decode(&bytes).is_err(), "{wire:?} bit {a}");
            for b in a + 1..HEADER_BYTES * 8 {
                flip(&mut bytes, b);
                assert!(CellHeader::decode(&bytes).is_err(), "{wire:?} bits {a} {b}");
                flip(&mut bytes, b);
            }
            flip(&mut bytes, a);
        }
    }
    let (inputs, rejected) = sweep(&corpus, |b| CellHeader::decode(b).is_err());
    assert!(
        rejected > 0 && rejected < inputs,
        "{rejected} of {inputs} rejected"
    );
}

/// A whole cell decodes whenever its header does, and a flip in the
/// payload comes through as that flip: the decoder checks only the header.
#[test]
fn cell_decoder_never_panics_and_passes_payload_flips_through() {
    let payload: [u8; PAYLOAD_BYTES] = std::array::from_fn(|i| (i * 37) as u8);
    let cells: Vec<Cell> = headers()
        .into_iter()
        .step_by(7)
        .map(|header| Cell { header, payload })
        .collect();
    let corpus: Vec<[u8; CELL_BYTES]> = cells.iter().map(Cell::encode).collect();
    let (inputs, rejected) = sweep(&corpus, |bytes| {
        let mut hdr = [0; HEADER_BYTES];
        hdr.copy_from_slice(&bytes[..HEADER_BYTES]);
        match Cell::decode(bytes) {
            Ok(cell) => {
                assert_eq!(Ok(cell.header), CellHeader::decode(&hdr));
                assert_eq!(cell.payload[..], bytes[HEADER_BYTES..]);
                false
            }
            Err(e) => {
                assert_eq!(Err(e), CellHeader::decode(&hdr));
                true
            }
        }
    });
    assert!(
        rejected > 0 && rejected < inputs,
        "{rejected} of {inputs} rejected"
    );
}

/// The signalling decoder answers every payload, and what it accepts
/// re-encodes to a payload it decodes the same way.
#[test]
fn signal_decoder_never_panics() {
    let corpus: Vec<[u8; PAYLOAD_BYTES]> = signals().iter().map(SignalMsg::encode).collect();
    for (msg, wire) in signals().iter().zip(&corpus) {
        assert_eq!(SignalMsg::decode(wire), Ok(*msg));
        assert_eq!(msg.to_cell(SIGNALING_VC).payload, *wire);
    }
    let (inputs, rejected) = sweep(&corpus, |bytes| match SignalMsg::decode(bytes) {
        Ok(msg) => {
            assert_eq!(SignalMsg::decode(&msg.encode()), Ok(msg));
            false
        }
        Err(e) => {
            assert!(!(1..=5).contains(&e.tag), "known tag {} rejected", e.tag);
            true
        }
    });
    assert!(
        rejected > 0 && rejected < inputs,
        "{rejected} of {inputs} rejected"
    );
}
