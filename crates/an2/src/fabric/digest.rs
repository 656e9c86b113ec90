//! The replay contract: one walk over everything a run leaves observable.
//!
//! "Byte-identical" between two runs — across shard counts, batching on
//! and off, traced and untraced, and from one commit to the next — means
//! this digest is equal. `Network::digest` continues the same hasher with
//! the network-layer terms. The word order is pinned outside this
//! workspace (N8's golden line, `benchmark/goldens.json`): a term may be
//! appended by a change that regenerates both, never reordered.

use super::{Fabric, VcStats};
use an2_cells::VcId;
use an2_sim::Fnv;

/// Stands in for the statistics of a circuit the network holds broken.
const BROKEN_CIRCUIT: u64 = 0xb20ce2;

impl Fabric {
    /// Digest of everything observable, in this order:
    ///
    /// 1. every open circuit in `VcId` order: sent, delivered, dropped,
    ///    lost and corrupted cells, packets delivered and corrupted, then
    ///    every latency sample in recording order;
    /// 2. every host in id order: each packet received and not yet taken —
    ///    circuit, length, first eight bytes;
    /// 3. the control transport's counters;
    /// 4. the fault layer's counters (all zero without a layer, so the
    ///    default `FaultSpec`, resync off, digests like none; a spec
    ///    that only turns resync on counts its markers here).
    ///
    /// Reads only: two calls on the same fabric are equal, and
    /// [`Fabric::take_received`] afterwards still returns every packet.
    /// Not covered: `pages_out` / `pages_in`, payload past the eighth byte,
    /// the slot counter, anything a tracer recorded.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::replay();
        self.digest_into(&mut h, std::iter::empty());
        h.finish()
    }

    /// The walk behind [`Fabric::digest`], with the circuits the network
    /// layer holds `broken` merged into the circuit order as a marker each.
    pub(crate) fn digest_into(&self, h: &mut Fnv, broken: impl Iterator<Item = VcId>) {
        let mut circuits: Vec<(VcId, Option<&VcStats>)> = self
            .circuits
            .iter()
            .map(|(_, vc, c)| (vc, Some(&c.stats)))
            .chain(broken.map(|vc| (vc, None)))
            .collect();
        circuits.sort_unstable_by_key(|&(vc, _)| vc);
        for (_, stats) in circuits {
            let Some(s) = stats else {
                h.add(BROKEN_CIRCUIT);
                continue;
            };
            for x in [
                s.sent_cells,
                s.delivered_cells,
                s.dropped_cells,
                s.lost_cells,
                s.corrupted_cells,
                s.packets_delivered,
                s.packets_corrupted,
            ] {
                h.add(x);
            }
            for &sample in s.latency_slots.samples() {
                h.add(sample);
            }
        }
        for host in &self.hosts {
            for (vc, packet) in &host.received {
                h.add(u64::from(vc.raw()));
                h.add(packet.len() as u64);
                for &b in packet.as_bytes().iter().take(8) {
                    h.add(u64::from(b));
                }
            }
        }
        let c = self.ctrl_counters();
        for x in [c.messages_sent, c.messages_lost, c.cells_sent] {
            h.add(x);
        }
        let c = self.fault_counters().unwrap_or_default();
        for x in [
            c.cells_lost,
            c.cells_corrupted,
            c.credits_lost,
            c.markers_sent,
            c.markers_lost,
            c.replies_lost,
            c.resyncs_completed,
            c.crash_dropped_cells,
            c.invariant_violations,
        ] {
            h.add(x);
        }
    }
}
