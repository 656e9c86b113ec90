//! What is on the wires: the events the fabric has scheduled for later
//! slots, and the calendar queue that holds them.

use an2_cells::{Cell, CellKind, VcId};
use an2_flow::resync;
use an2_topology::{HostId, LinkId, SwitchId};

#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
    CellToSwitch {
        switch: SwitchId,
        input: usize,
        cell: Cell,
        link: LinkId,
        /// Path-trace id (`0` = not sampled; always 0 without a tracer).
        trace: u32,
    },
    CellToHost {
        host: HostId,
        cell: Cell,
        link: LinkId,
        trace: u32,
    },
    CreditToSwitch {
        switch: SwitchId,
        vc: VcId,
        link: LinkId,
        /// Resync epoch stamped by the downstream end (0 until a resync
        /// has run; always 0 with no fault layer attached).
        epoch: u32,
    },
    CreditToHost {
        vc: VcId,
        link: LinkId,
        epoch: u32,
    },
    /// A §5 resync marker travelling downstream on a hop's link. Markers
    /// ride the same FIFO channel as data cells (same jitter clamp), which
    /// is what makes the marker rule sound — see
    /// [`an2_flow::resync::handle_marker`].
    ResyncMarker {
        vc: VcId,
        link: LinkId,
        marker: resync::Marker,
    },
    /// The downstream end's reply, travelling upstream. Replies may
    /// reorder freely against credits (only a transient under-estimate).
    ResyncReply {
        vc: VcId,
        link: LinkId,
        reply: resync::Reply,
    },
}

impl Event {
    /// The link the event is travelling on.
    pub(super) fn link(&self) -> LinkId {
        match *self {
            Event::CellToSwitch { link, .. }
            | Event::CellToHost { link, .. }
            | Event::CreditToSwitch { link, .. }
            | Event::CreditToHost { link, .. }
            | Event::ResyncMarker { link, .. }
            | Event::ResyncReply { link, .. } => link,
        }
    }

    /// The circuit the event belongs to.
    pub(super) fn vc(&self) -> VcId {
        match *self {
            Event::CellToSwitch { cell, .. } | Event::CellToHost { cell, .. } => cell.vc(),
            Event::CreditToSwitch { vc, .. }
            | Event::CreditToHost { vc, .. }
            | Event::ResyncMarker { vc, .. }
            | Event::ResyncReply { vc, .. } => vc,
        }
    }

    /// The circuit of a *data* cell in flight, `None` for everything else.
    /// Signal cells never entered `sent_cells` or the `inject_slots`
    /// latency queue, so a purge that destroys one owes its circuit no
    /// drop accounting (a drop pops one latency entry per data cell).
    pub(super) fn data_cell_vc(&self) -> Option<VcId> {
        match self {
            Event::CellToSwitch { cell, .. } | Event::CellToHost { cell, .. } => {
                (cell.header.kind != CellKind::Signal).then(|| cell.vc())
            }
            _ => None,
        }
    }
}

/// A calendar queue over the fabric's bounded scheduling horizon: a
/// power-of-two ring of buckets holding `(due_slot, Event)` pairs. Pushes
/// and per-slot drains are O(bucket length); purges scan every bucket, like
/// the `BTreeMap` agenda they replaced. The ring is wider than the horizon
/// (signal processing + link latency, at least one slot), so a bucket
/// normally holds one due slot; injected delivery jitter
/// (`LinkFaultModel::jitter_slots`) can carry an arrival a full ring ahead,
/// and then two due slots share a bucket until the earlier one is taken.
#[derive(Debug)]
pub(super) struct Agenda {
    buckets: Vec<Vec<(u64, Event)>>,
    mask: u64,
}

impl Agenda {
    /// A calendar sized for events at most `horizon` slots in the future.
    pub(super) fn new(horizon: u64) -> Self {
        let len = (horizon + 2).next_power_of_two().max(2);
        Agenda {
            buckets: (0..len).map(|_| Vec::new()).collect(),
            mask: len - 1,
        }
    }

    #[inline]
    pub(super) fn push(&mut self, due: u64, event: Event) {
        self.buckets[(due & self.mask) as usize].push((due, event));
    }

    /// Moves every event due exactly at `slot` into `out` (which must be
    /// empty), in push order, keeping other entries. Normally every entry
    /// in the bucket is due and the whole bucket is swapped out without
    /// copying; a bucket that also holds a jittered arrival due a ring
    /// later takes the stable in-place compaction path, which leaves that
    /// arrival for its own slot.
    #[inline]
    pub(super) fn take_due(&mut self, slot: u64, out: &mut Vec<(u64, Event)>) {
        let bucket = &mut self.buckets[(slot & self.mask) as usize];
        if bucket.iter().all(|&(due, _)| due == slot) {
            std::mem::swap(bucket, out);
            return;
        }
        let mut kept = 0;
        for i in 0..bucket.len() {
            let (due, event) = bucket[i];
            if due == slot {
                out.push((due, event));
            } else {
                bucket[kept] = (due, event);
                kept += 1;
            }
        }
        bucket.truncate(kept);
    }

    /// Removes every event `pred` accepts and returns them, bucket by
    /// bucket and in push order within a bucket; the rest keep their
    /// order. The teardown, link-failure and flap purges: the caller keeps
    /// only the accounting of what it destroyed.
    pub(super) fn drain_where(&mut self, mut pred: impl FnMut(&Event) -> bool) -> Vec<Event> {
        let mut out = Vec::new();
        for bucket in &mut self.buckets {
            bucket.retain(|(_, e)| {
                let hit = pred(e);
                if hit {
                    out.push(*e);
                }
                !hit
            });
        }
        out
    }

    /// Counts scheduled events matching `f` (soak/test observability).
    pub(super) fn count_matching(&self, mut f: impl FnMut(&Event) -> bool) -> usize {
        self.buckets
            .iter()
            .map(|b| b.iter().filter(|(_, e)| f(e)).count())
            .sum()
    }

    /// The earliest due slot of any scheduled event, scanning every bucket.
    /// Only called from the quiet-slot fast-forward, where the agenda is
    /// nearly empty; the hot path never pays for this.
    pub(super) fn next_due(&self) -> Option<u64> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|&(due, _)| due))
            .min()
    }
}

#[cfg(test)]
#[path = "agenda_tests.rs"]
mod tests;
