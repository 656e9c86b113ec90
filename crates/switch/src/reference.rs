//! The pre-slab switch data plane, preserved verbatim as an oracle.
//!
//! This is the map-based implementation the slab rewrite in
//! `crate::switch` replaced: per-input `BTreeMap<VcId, VecDeque<_>>`
//! queues, a `BTreeMap` routing table and a `BTreeMap` credit table. It is
//! kept because `an2::reference` steps it, as the behavioural oracle of
//! `an2`'s `reference_equiv` and `wide_fabric_equiv` suites — both
//! implementations must produce byte-identical departures and consume the
//! RNG stream identically on any seeded workload.
//!
//! Mirrors the PR 1 pattern of `an2_xbar::reference`. Do not optimise this
//! module; its value is that it stays exactly what shipped before.

use crate::{Departure, SwitchConfig, SwitchError, PIM_ITERATIONS, PIPELINE_SLOTS};
use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, VcId};
use an2_schedule::FrameSchedule;
use an2_sim::SimRng;
use an2_xbar::{CrossbarScheduler, DemandMatrix, Matching, Pim};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

#[derive(Debug, Clone)]
struct QueuedCell {
    cell: Cell,
    enqueued_slot: u64,
}

#[derive(Debug, Clone)]
struct Route {
    output: usize,
    class: TrafficClass,
}

/// The pre-slab AN2 switch. Behaviourally identical to [`crate::Switch`].
pub struct ReferenceSwitch {
    cfg: SwitchConfig,
    routing: BTreeMap<VcId, Route>,
    /// Best-effort queues: per input port, per circuit.
    best_effort: Vec<BTreeMap<VcId, VecDeque<QueuedCell>>>,
    /// Guaranteed queues: per input port, per circuit (separate pools, §4).
    guaranteed: Vec<BTreeMap<VcId, VecDeque<QueuedCell>>>,
    /// Cells for circuits with no routing entry yet: "they will be buffered
    /// until the routing table entry is filled in" (§2).
    pending: BTreeMap<VcId, VecDeque<(usize, QueuedCell)>>,
    schedule: FrameSchedule,
    pim: Pim,
    slot: u64,
    /// Credit balances gating best-effort circuits on their outbound link
    /// (§5). Circuits without an entry are ungated (e.g. the final hop to a
    /// host, whose controller always has buffers).
    credits: BTreeMap<VcId, u32>,
}

impl fmt::Debug for ReferenceSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReferenceSwitch")
            .field("ports", &self.cfg.ports)
            .field("slot", &self.slot)
            .field("routes", &self.routing.len())
            .finish()
    }
}

impl ReferenceSwitch {
    /// Creates an idle switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        let ports = cfg.ports;
        let frame = cfg.frame_slots;
        let pim = Pim::new(PIM_ITERATIONS);
        ReferenceSwitch {
            cfg,
            routing: BTreeMap::new(),
            best_effort: vec![BTreeMap::new(); ports],
            guaranteed: vec![BTreeMap::new(); ports],
            pending: BTreeMap::new(),
            schedule: FrameSchedule::new(ports, frame),
            pim,
            slot: 0,
            credits: BTreeMap::new(),
        }
    }

    /// Gates a best-effort circuit's outbound transmissions behind a credit
    /// balance (§5). The fabric sets this to the downstream buffer count at
    /// circuit setup.
    pub fn set_credits(&mut self, vc: VcId, credits: u32) {
        self.credits.insert(vc, credits);
    }

    /// Removes the credit gate for a circuit (used on teardown).
    pub fn clear_credits(&mut self, vc: VcId) {
        self.credits.remove(&vc);
    }

    /// One credit returned from downstream: a buffer was freed there.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is ungated — a stray credit indicates a fabric
    /// accounting bug.
    pub fn add_credit(&mut self, vc: VcId) {
        let c = self
            .credits
            .get_mut(&vc)
            .expect("credit for an ungated circuit");
        *c += 1;
    }

    /// The circuit's current credit balance (`None` = ungated).
    pub fn credit_balance(&self, vc: VcId) -> Option<u32> {
        self.credits.get(&vc).copied()
    }

    fn has_credit(&self, vc: VcId) -> bool {
        self.credits.get(&vc).is_none_or(|&c| c > 0)
    }

    /// Ports on this switch.
    pub fn ports(&self) -> usize {
        self.cfg.ports
    }

    /// The current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The guaranteed-traffic frame schedule (for reservation surgery).
    pub fn schedule_mut(&mut self) -> &mut FrameSchedule {
        &mut self.schedule
    }

    /// Read access to the frame schedule.
    pub fn schedule(&self) -> &FrameSchedule {
        &self.schedule
    }

    /// Installs a routing-table entry: cells of `vc` leave on `output`.
    /// Cells that arrived before the entry existed are released from the
    /// pending buffer.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range port or a duplicate entry.
    pub fn install_route(
        &mut self,
        vc: VcId,
        output: usize,
        class: TrafficClass,
    ) -> Result<(), SwitchError> {
        if output >= self.cfg.ports {
            return Err(SwitchError::BadPort(output));
        }
        if self.routing.contains_key(&vc) {
            return Err(SwitchError::RouteExists(vc));
        }
        self.routing.insert(vc, Route { output, class });
        if let Some(held) = self.pending.remove(&vc) {
            for (input, qc) in held {
                self.queue_for(vc, input).push_back(qc);
            }
        }
        Ok(())
    }

    /// Removes a routing entry (circuit teardown or page-out, §2), dropping
    /// any queued cells of the circuit. Returns how many cells were
    /// discarded.
    pub fn remove_route(&mut self, vc: VcId) -> usize {
        self.routing.remove(&vc);
        let mut dropped = 0;
        for input in 0..self.cfg.ports {
            dropped += self.best_effort[input].remove(&vc).map_or(0, |q| q.len());
            dropped += self.guaranteed[input].remove(&vc).map_or(0, |q| q.len());
        }
        dropped + self.pending.remove(&vc).map_or(0, |q| q.len())
    }

    /// The output port a circuit is routed to, if any.
    pub fn route_of(&self, vc: VcId) -> Option<usize> {
        self.routing.get(&vc).map(|r| r.output)
    }

    fn queue_for(&mut self, vc: VcId, input: usize) -> &mut VecDeque<QueuedCell> {
        let class = self.routing[&vc].class;
        let pool = match class {
            TrafficClass::BestEffort => &mut self.best_effort[input],
            TrafficClass::Guaranteed { .. } => &mut self.guaranteed[input],
        };
        pool.entry(vc).or_default()
    }

    /// Accepts a cell on an input port. Routed cells join their circuit's
    /// queue; unrouted cells wait in the pending buffer.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range input port.
    pub fn enqueue(&mut self, input: usize, cell: Cell) -> Result<(), SwitchError> {
        if input >= self.cfg.ports {
            return Err(SwitchError::BadPort(input));
        }
        let vc = cell.vc();
        let qc = QueuedCell {
            cell,
            enqueued_slot: self.slot,
        };
        if self.routing.contains_key(&vc) {
            self.queue_for(vc, input).push_back(qc);
        } else {
            self.pending.entry(vc).or_default().push_back((input, qc));
        }
        Ok(())
    }

    /// Cells queued for a circuit at an input port (any pool).
    pub fn backlog(&self, input: usize, vc: VcId) -> usize {
        self.best_effort[input].get(&vc).map_or(0, |q| q.len())
            + self.guaranteed[input].get(&vc).map_or(0, |q| q.len())
    }

    /// Total cells buffered anywhere in the switch.
    pub fn total_backlog(&self) -> usize {
        let pools = self.best_effort.iter().chain(self.guaranteed.iter());
        pools
            .map(|p| p.values().map(VecDeque::len).sum::<usize>())
            .sum::<usize>()
            + self.pending.values().map(VecDeque::len).sum::<usize>()
    }

    /// Whether a queued cell is old enough to have cleared the cut-through
    /// pipeline.
    fn eligible(&self, qc: &QueuedCell) -> bool {
        self.slot >= qc.enqueued_slot + PIPELINE_SLOTS
    }

    /// The oldest eligible guaranteed cell at `input` routed to `output`.
    fn take_guaranteed(&mut self, input: usize, output: usize) -> Option<QueuedCell> {
        let best_vc = self.guaranteed[input]
            .iter()
            .filter(|(vc, q)| {
                self.routing.get(vc).map(|r| r.output) == Some(output)
                    && q.front().is_some_and(|qc| self.eligible(qc))
            })
            .min_by_key(|(_, q)| q.front().map(|qc| qc.enqueued_slot))
            .map(|(&vc, _)| vc)?;
        self.guaranteed[input]
            .get_mut(&best_vc)
            .and_then(VecDeque::pop_front)
    }

    /// The oldest eligible, credit-holding best-effort cell at `input`
    /// routed to `output`. Consumes one credit for the chosen circuit.
    fn take_best_effort(&mut self, input: usize, output: usize) -> Option<QueuedCell> {
        let best_vc = self.best_effort[input]
            .iter()
            .filter(|(vc, q)| {
                self.routing.get(vc).map(|r| r.output) == Some(output)
                    && self.has_credit(**vc)
                    && q.front().is_some_and(|qc| self.eligible(qc))
            })
            .min_by_key(|(_, q)| q.front().map(|qc| qc.enqueued_slot))
            .map(|(&vc, _)| vc)?;
        if let Some(c) = self.credits.get_mut(&best_vc) {
            *c -= 1;
        }
        self.best_effort[input]
            .get_mut(&best_vc)
            .and_then(VecDeque::pop_front)
    }

    /// Advances one cell slot: serves the frame schedule first, donates idle
    /// reserved slots, runs PIM for best-effort traffic over the remaining
    /// ports, and returns every departing cell.
    pub fn step(&mut self, rng: &mut SimRng) -> Vec<Departure> {
        let n = self.cfg.ports;
        let frame_slot = (self.slot % self.cfg.frame_slots as u64) as u32;
        let mut departures = Vec::new();
        let mut crossbar = Matching::empty(n);

        // Phase 1 — guaranteed traffic takes its reserved pairings (§4).
        for input in 0..n {
            if let Some(output) = self.schedule.output_in_slot(frame_slot, input) {
                if let Some(qc) = self.take_guaranteed(input, output) {
                    crossbar.set(input, output);
                    departures.push(Departure {
                        output,
                        cell: qc.cell,
                        enqueued_slot: qc.enqueued_slot,
                        trace: 0,
                    });
                }
                // "Best-effort cells can use an allocated slot if no cell
                // from the scheduled virtual circuit is present" — by not
                // claiming the pair here, it stays free for phase 2.
            }
        }

        // Phase 2 — PIM over everything still free (§3). Demand counts only
        // eligible cells whose route leads to a free output.
        let mut demand = DemandMatrix::new(n);
        for input in 0..n {
            if !crossbar.input_free(input) {
                continue;
            }
            for (vc, q) in &self.best_effort[input] {
                let Some(route) = self.routing.get(vc) else {
                    continue;
                };
                if !crossbar.output_free(route.output) || !self.has_credit(*vc) {
                    continue;
                }
                let eligible = q
                    .iter()
                    .filter(|qc| self.slot >= qc.enqueued_slot + PIPELINE_SLOTS)
                    .count() as u64;
                if eligible > 0 {
                    demand.add(input, route.output, eligible);
                }
            }
            // Guaranteed circuits with backlog may also use free slots via
            // the matching (they behave like best-effort for excess cells
            // *of an already-reserved circuit* only through their schedule;
            // the paper gives spare slots to best-effort cells, so
            // guaranteed queues wait for their reservations).
        }
        let matching = self.pim.schedule(&demand, rng);
        for (input, output) in matching.iter() {
            let qc = self
                .take_best_effort(input, output)
                .expect("PIM matched a pair with demand");
            crossbar.set(input, output);
            departures.push(Departure {
                output,
                cell: qc.cell,
                enqueued_slot: qc.enqueued_slot,
                trace: 0,
            });
        }

        self.slot += 1;
        departures
    }
}
