//! The control-cell transport: reconfiguration protocol messages on the
//! inter-switch wires, beside the data plane's cells and credits.
//!
//! Control payloads (tags, edge lists) are kept out-of-band rather than
//! serialized into the `Copy` events of the agenda: a message occupies its
//! wire for its cell count and arrives whole, mirroring how AN2's switch
//! software reassembles a multi-cell protocol unit before acting.

use super::{Fabric, FabricTrace};
use an2_reconfig::protocol::ProtocolMsg as CtrlMsg;
use an2_topology::{LinkId, LinkState, Node, SwitchId};
use an2_trace::{Entity, TraceEvent};

/// Counters for the reconfiguration control-cell transport. Unlike
/// [`super::FaultCounters`] these exist even without a fault layer —
/// control cells are a first-class fabric citizen; only their *loss* needs
/// the injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlCounters {
    /// Protocol messages put on a wire.
    pub messages_sent: u64,
    /// Protocol messages destroyed (loss draw on any segment, link flapped
    /// or voted dead while in flight, or destination line card crashed).
    pub messages_lost: u64,
    /// Total 53-byte control cells those messages segmented into.
    pub cells_sent: u64,
}

/// A protocol message in flight on an inter-switch wire.
#[derive(Debug, Clone)]
struct InFlight {
    due: u64,
    to: SwitchId,
    link: LinkId,
    msg: CtrlMsg,
}

#[derive(Debug, Default)]
pub(super) struct CtrlTransport {
    /// Messages on wires, in send order (empty unless an embedded control
    /// plane is sending; the hot path gates on that).
    inflight: Vec<InFlight>,
    /// Messages that reached their destination switch, awaiting the
    /// control plane's pump.
    arrivals: Vec<(SwitchId, LinkId, CtrlMsg)>,
    counters: CtrlCounters,
}

/// The cell count a protocol message segments into: AN2 signalling units
/// ride 53-byte cells with 48-byte payloads, so a message of `b` wire bytes
/// (`ProtocolMsg::wire_bytes`, e.g. `14 + 4(e+p)` for a topology report
/// listing `e` edges and `p` tree arcs) needs `⌈b / 48⌉` cells while the
/// fixed-size messages fit in one.
fn cells_for(msg: &CtrlMsg) -> u32 {
    msg.wire_bytes().div_ceil(an2_cells::PAYLOAD_BYTES).max(1) as u32
}

impl CtrlTransport {
    /// Books a message as sent and, if it survived the send, puts it on
    /// `link` to surface at `to` in slot `due`; otherwise books it lost.
    fn send(&mut self, due: u64, to: SwitchId, link: LinkId, msg: CtrlMsg, survived: bool) {
        self.counters.messages_sent += 1;
        self.counters.cells_sent += cells_for(&msg) as u64;
        if survived {
            self.inflight.push(InFlight { due, to, link, msg });
        } else {
            self.counters.messages_lost += 1;
        }
    }

    /// Whether nothing is on a wire.
    pub(super) fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Moves every message due by `slot` into the arrival buffer, in send
    /// order. A message addressed to a line card `crashed` reports down
    /// dies at the port, like any cell.
    #[inline]
    pub(super) fn deliver_due(
        &mut self,
        slot: u64,
        crashed: impl Fn(SwitchId) -> bool,
        mut trace: Option<&mut FabricTrace>,
    ) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].due > slot {
                i += 1;
                continue;
            }
            let m = self.inflight.remove(i);
            if crashed(m.to) {
                self.counters.messages_lost += 1;
                continue;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.lane.emit(TraceEvent::CtrlRx {
                    switch: m.to.0,
                    link: m.link.0,
                });
                t.count("ctrl.messages_received", Entity::Switch(m.to.0), 1);
            }
            self.arrivals.push((m.to, m.link, m.msg));
        }
    }

    /// Destroys the messages in flight on `link` (verdict or flap).
    pub(super) fn purge_on(&mut self, link: LinkId) {
        let before = self.inflight.len();
        self.inflight.retain(|c| c.link != link);
        self.counters.messages_lost += (before - self.inflight.len()) as u64;
    }

    /// The earliest slot a message in flight is due, if any.
    fn next_due(&self) -> Option<u64> {
        self.inflight.iter().map(|c| c.due).min()
    }

    fn take_arrivals(&mut self) -> Vec<(SwitchId, LinkId, CtrlMsg)> {
        std::mem::take(&mut self.arrivals)
    }
}

impl Fabric {
    /// Puts a reconfiguration protocol message on the wire from `from`
    /// toward `to` over `link`. The message segments into control cells;
    /// the sender's output port is claimed
    /// from data traffic while the burst serializes; every segment sees the
    /// link's loss process and one hit destroys the whole message (the
    /// receiving line card's CRC rejects partial units). Arrival lands in
    /// the control-arrival buffer `link latency + cells + extra_delay_slots`
    /// slots later. Returns whether the message survived the send.
    ///
    /// Sends on links the monitor has voted dead are refused (the port map
    /// no longer drives that transmitter) and count as lost.
    pub fn send_ctrl(
        &mut self,
        from: SwitchId,
        to: SwitchId,
        link: LinkId,
        msg: CtrlMsg,
        extra_delay_slots: u64,
    ) -> bool {
        let cells = cells_for(&msg);
        if let Some(t) = &mut self.trace {
            t.lane.emit(TraceEvent::CtrlTx {
                switch: from.0,
                link: link.0,
                cells,
            });
            t.count("ctrl.cells_sent", Entity::Switch(from.0), cells as u64);
            self.flush_trace();
        }
        let survived = self.topo.link_state(link) == LinkState::Working && {
            let output = self.port_on(link, Node::Switch(from));
            self.switches[from.0 as usize].reserve_output(output, self.slot + cells as u64);
            self.ctrl_burst_crosses(link, cells)
        };
        let due = self.slot + self.cfg.link_latency_slots + cells as u64 + extra_delay_slots;
        self.ctrl.send(due, to, link, msg, survived);
        survived
    }

    /// The earliest slot a control message in flight is due, if any — the
    /// batching bound for [`crate::Network::step`]'s chunked stepping.
    pub fn next_ctrl_due(&self) -> Option<u64> {
        self.ctrl.next_due()
    }

    /// Control messages currently on wires.
    pub fn ctrl_inflight_count(&self) -> usize {
        self.ctrl.inflight.len()
    }

    /// Drains the protocol messages that arrived at their destination
    /// switches, in arrival order, as `(switch, arriving link, message)`.
    pub fn take_ctrl_arrivals(&mut self) -> Vec<(SwitchId, LinkId, CtrlMsg)> {
        self.ctrl.take_arrivals()
    }

    /// Control-transport counters (always available, unlike the fault
    /// layer's).
    pub fn ctrl_counters(&self) -> CtrlCounters {
        self.ctrl.counters
    }
}

#[cfg(test)]
#[path = "ctrl_tests.rs"]
mod tests;
