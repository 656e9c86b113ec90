//! The cell-level network fabric: switches, links, host controllers and
//! credits, stepped slot by slot.
//!
//! The fabric is the data plane of the reproduction. Control decisions
//! (route choice, admission) are made by [`crate::Network`]; the fabric
//! executes them: it owns the per-switch data planes ([`an2_switch::Switch`]),
//! propagates cells and credits along links with latency, segments nothing
//! (hosts hand it cells), reassembles packets at destination controllers,
//! and enforces §5's credit flow control on every best-effort hop.
//!
//! ## Parts
//!
//! This file is the slot — deliver → inject → schedule → commit — and the
//! wires between switches: the port map (a flat array indexed by `(switch,
//! port)`), [`Fabric::propagate`] and the one [`Fabric::launch`] every cell
//! leaves through. It drives parts that each own their state behind
//! private fields and say in their own module how they store it: the event
//! `agenda`, the `circuits` table, the `host` controllers, the `ctrl`
//! transport for reconfiguration messages, and the optional fault layer
//! (`faults`), which sits on the delivery path as a set of filters — each
//! the identity when no layer is attached — rather than beside it as a
//! second path. The shard lanes and their crew live in [`crate::shard`].
//! Together the parts keep every per-slot B-tree/hash lookup and allocation
//! off the hot path while producing byte-identical results to the map-based
//! fabric they replaced (pinned by `reference_equiv` and
//! `wide_fabric_equiv`).

mod agenda;
mod circuits;
mod ctrl;
mod digest;
mod faults;
mod host;
#[cfg(test)]
mod host_tests;

pub use ctrl::CtrlCounters;
pub use faults::FaultCounters;

use crate::shard::{self, Crew, Delivery, Lane, ShardLayout};
use agenda::{Agenda, Event};
use an2_cells::signal::TrafficClass;
use an2_cells::{Cell, CellKind, VcId};
use an2_sim::metrics::Histogram;
use an2_sim::SimRng;
use an2_switch::{Switch, SwitchConfig};
use an2_topology::{LinkId, LinkState, Node, SwitchId, Topology};
use an2_trace::{DropReason, Entity, Hop, MetricId, TraceEvent, TraceLane, Tracer};
use circuits::CircuitTable;
use ctrl::CtrlTransport;
use faults::FaultLayer;
use host::HostState;

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Slots per guaranteed-traffic frame in every switch (§4). A switch's
    /// width is not configured: each is built as wide as the topology
    /// cables it ([`Topology::cabled_ports`]).
    pub frame_slots: u32,
    /// Link propagation delay in cell slots (uniform across links). At
    /// least 1: a cell needs a slot to reach the next switch.
    pub link_latency_slots: u64,
    /// Downstream buffers (= initial credits) per best-effort circuit per
    /// hop. Full-rate flow needs at least `2 * link_latency_slots + 3`
    /// (§5): a credit returns one link each way plus the switch's 3-slot
    /// pipeline after its cell left (E10a). The default, 8 on 2-slot links,
    /// covers the 7-slot round trip with one to spare.
    pub be_credits: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            frame_slots: SwitchConfig::default().frame_slots,
            link_latency_slots: 2,
            be_credits: 8,
        }
    }
}

/// Line-card software time, in slots, to process one signaling cell (§2:
/// setup cells "are passed to the processor on the line card").
pub const SIGNAL_PROCESSING_SLOTS: u64 = 30;

/// Per-circuit statistics.
#[derive(Debug, Clone, Default)]
pub struct VcStats {
    /// Cells injected by the source controller.
    pub sent_cells: u64,
    /// Cells delivered to the destination controller.
    pub delivered_cells: u64,
    /// Cells dropped by reroutes.
    pub dropped_cells: u64,
    /// Host-to-host cell latency, in slots.
    pub latency_slots: Histogram,
    /// Packets fully reassembled at the destination.
    pub packets_delivered: u64,
    /// Packets lost to drops (detected by the reassembler's checks).
    pub packets_corrupted: u64,
    /// Times the circuit was paged out (§2's resource reclamation).
    pub pages_out: u64,
    /// Times the circuit was paged back in.
    pub pages_in: u64,
    /// Cells destroyed by injected faults (wire loss, flapped links,
    /// line-card crashes) — distinct from `dropped_cells`, which counts
    /// cells discarded by reroutes and teardowns.
    pub lost_cells: u64,
    /// Cells hit by injected bit corruption. Header hits are discarded by
    /// the receiving port's HEC check; payload hits are delivered and must
    /// be caught end-to-end by the reassembler.
    pub corrupted_cells: u64,
}

/// The far end of a wire: the node a cell put on `link` arrives at and, at
/// a switch, the input port it arrives on (unused at a host). The port map holds
/// one per cabled switch output, so a departure pays no topology look-up
/// (2 % of `tree_sat` when it did).
#[derive(Debug, Clone, Copy)]
struct Attachment {
    link: LinkId,
    to: Node,
    input: usize,
}

/// The slot-stepped network data plane: switches, links, host controllers
/// and credit flow control, advanced one cell slot at a time.
pub struct Fabric {
    topo: Topology,
    cfg: FabricConfig,
    switches: Vec<Switch>,
    hosts: Vec<HostState>,
    circuits: CircuitTable,
    /// `(switch, port)` → what the port connects to, flattened at
    /// `switch * port_stride + port`. Rebuilt on link failures.
    port_map: Vec<Option<Attachment>>,
    port_stride: usize,
    agenda: Agenda,
    /// Cells waiting in every host outbox together: the sum of their
    /// lengths, so a slot can tell that no host has anything to send
    /// without visiting one.
    outbox_cells: usize,
    slot: u64,
    /// One RNG stream per switch, forked from the seed in switch-id order.
    /// Giving every switch its own stream (instead of one fabric-wide
    /// generator consumed in step order) is what makes the sharded data
    /// plane byte-identical to the sequential one: a switch's draws depend
    /// only on its own history, never on which thread stepped it.
    switch_rngs: Vec<SimRng>,
    /// The shard plan compiled for the slot loop (one run covering every
    /// switch until [`Fabric::set_shards`]).
    layout: ShardLayout,
    /// One lane per shard: the switch phase's inboxes, departure buffers
    /// and per-slot counters, reused across slots and `step` calls.
    lanes: Vec<Lane>,
    /// Threads a `step` call may put on the lanes, the lead included:
    /// `min(shards, available_parallelism)`, sampled by `set_shards`.
    /// Spinning hand-offs with more threads than cores are a livelock in
    /// waiting, so surplus shards are multiplexed instead.
    crew_threads: usize,
    /// Busy switch-steps accumulated per shard: a count of where the
    /// switch-phase work landed (sum / max = the balance of the plan).
    shard_work: Vec<u64>,
    /// Deterministic fault layer (`None` until [`Fabric::attach_faults`]).
    /// The delivery path consults it through filters that answer "yes,
    /// unchanged" without one, so a fault-free fabric runs byte-identically
    /// to one that never had the field.
    fault: Option<Box<FaultLayer>>,
    /// Flight recorder + metrics (`None` until [`Fabric::attach_tracer`]);
    /// every emission is gated on it being present. Emission happens after
    /// every decision and consumes no randomness, so a traced run is
    /// byte-identical to an untraced one.
    trace: Option<Box<FabricTrace>>,
    /// Reconfiguration protocol messages on the wires and off them.
    ctrl: CtrlTransport,
    // Reused per-slot buffers.
    events_scratch: Vec<(u64, Event)>,
    /// Wall-clock phase breakdown (`None` until
    /// [`Fabric::enable_profiling`]); the hot path pays one branch per phase
    /// when disabled. Timing reads the OS clock but feeds nothing back into
    /// the simulation, so profiled runs stay byte-identical.
    profile: Option<Box<PhaseProfile>>,
}

/// Wall-clock breakdown of the data-plane hot path, accumulated per phase
/// across every stepped slot while profiling is enabled.
///
/// The phases mirror the slot pipeline: **enqueue** (agenda deliveries,
/// control messages, host injection), **schedule** (switch compute — crossbar
/// scheduling and dequeue), **commit** (departure propagation back into the
/// agenda), and **fast-forward** (deciding and performing watermark jumps).
#[derive(Debug, Default, Clone)]
pub struct PhaseProfile {
    /// Nanoseconds delivering agenda events, control traffic and host cells.
    pub enqueue_ns: u64,
    /// Nanoseconds in the switch compute phase (PIM + dequeue).
    pub schedule_ns: u64,
    /// Nanoseconds committing departures into the agenda.
    pub commit_ns: u64,
    /// Nanoseconds spent deciding and performing quiet-stretch jumps.
    pub fast_forward_ns: u64,
    /// Whole fabric slots skipped by the quiet-stretch fast-forward.
    pub skipped_slots: u64,
    /// Per-switch steps skipped by the next-event watermark.
    pub skipped_switch_steps: u64,
    /// Per-switch steps actually executed.
    pub stepped_switch_steps: u64,
}

/// The fabric's own trace lane and the handles of the series it writes per
/// cell, resolved once at [`Fabric::attach_tracer`]. Everything the fabric
/// records goes through the lane — the cold sites too, so one holder has
/// one emission path and its records keep their order.
struct FabricTrace {
    /// The lane's tracer again, so a flush can hold its lock (`sink`)
    /// while the lane and the switches' output drain through it.
    tracer: Tracer,
    lane: TraceLane,
    /// `link.cells` and `fabric.credits_sent`, indexed by link id.
    link_cells: Vec<MetricId>,
    credits_sent: Vec<MetricId>,
    /// `fabric.cells_injected` and `fabric.cells_delivered`, by host id.
    cells_injected: Vec<MetricId>,
    cells_delivered: Vec<MetricId>,
    cell_latency: MetricId,
}

impl FabricTrace {
    /// Adds to a counter that is written too rarely to keep a handle for.
    fn count(&mut self, name: &'static str, entity: Entity, n: u64) {
        let id = self.lane.resolve(name, entity);
        self.lane.add(id, n);
    }

    /// `n` cells of `vc` destroyed for `reason`.
    fn cells_dropped(&mut self, vc: VcId, reason: DropReason, n: u64) {
        for _ in 0..n {
            self.lane.emit(TraceEvent::CellDrop {
                vc: vc.raw(),
                reason,
            });
        }
        self.count("fabric.cells_dropped", Entity::Vc(vc.raw()), n);
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.switches.len())
            .field("hosts", &self.hosts.len())
            .field("circuits", &self.circuits.iter().count())
            .field("slot", &self.slot)
            .finish()
    }
}

impl Fabric {
    /// Builds the data plane for a topology.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.link_latency_slots` is 0: a cell launched in a slot
    /// is due after that slot's deliveries have run, so it needs at least
    /// one slot on the wire to ever arrive.
    pub fn new(topo: Topology, cfg: FabricConfig, seed: u64) -> Self {
        assert!(
            cfg.link_latency_slots >= 1,
            "FabricConfig::link_latency_slots must be at least 1"
        );
        // A switch is as wide as its cabling (an uncabled one keeps a
        // single idle port): traffic only ever names cabled ports, and a
        // switch's behaviour does not depend on ports it never sees.
        let switches: Vec<Switch> = topo
            .switches()
            .map(|s| {
                Switch::new(SwitchConfig {
                    ports: topo.cabled_ports(s).max(1),
                    frame_slots: cfg.frame_slots,
                })
            })
            .collect();
        let hosts = (0..topo.host_count())
            .map(|_| HostState::default())
            .collect();
        let port_stride = switches.iter().map(Switch::ports).max().unwrap_or(0);
        let horizon = SIGNAL_PROCESSING_SLOTS + cfg.link_latency_slots;
        let switch_rngs = SimRng::new(seed).fork_n(topo.switch_count());
        let mut fabric = Fabric {
            port_map: vec![None; topo.switch_count() * port_stride],
            port_stride,
            agenda: Agenda::new(horizon),
            layout: ShardLayout::from_plan(&vec![0; topo.switch_count()], 1),
            lanes: vec![Lane::default()],
            crew_threads: 1,
            topo,
            cfg,
            switches,
            hosts,
            circuits: CircuitTable::default(),
            outbox_cells: 0,
            slot: 0,
            switch_rngs,
            shard_work: vec![0],
            fault: None,
            trace: None,
            ctrl: CtrlTransport::default(),
            events_scratch: Vec::new(),
            profile: None,
        };
        fabric.rebuild_port_map();
        fabric
    }

    /// Splits the data plane into `shards` groups of switches (contiguous
    /// id blocks dealt round-robin) and lets [`Fabric::step`] work them on
    /// persistent threads: started once per call, the caller's thread
    /// taking shard 0, at most one thread per available core. Per slot the
    /// calling thread drains the agenda, serves the hosts and routes switch
    /// deliveries into per-shard inboxes; one atomic release later every
    /// shard applies its inbox and steps its switches; after one atomic
    /// join the calling thread commits all departures in global switch-id
    /// order. A cell needs at least one slot of link latency to reach
    /// another switch, so one hand-off per slot is conservative, and
    /// results are byte-identical at any shard count: switches draw from
    /// per-switch RNG streams and the commit order never changes.
    ///
    /// Runs that need the caller's state mid-slot — a fault layer attached,
    /// a signalled set-up in flight — or that have a single core to run on
    /// step the same shards inline instead. A tracer is no such state:
    /// switches record into lanes of their own, which the calling thread
    /// flushes in switch-id order after the join.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.clamp(1, self.switches.len().max(1));
        let plan = shard::block_plan(self.switches.len(), shards);
        self.layout = ShardLayout::from_plan(&plan, shards);
        self.lanes = (0..shards)
            .map(|_| Lane {
                traced: self.trace.is_some(),
                ..Lane::default()
            })
            .collect();
        self.crew_threads = shards.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
        self.shard_work = vec![0; shards];
    }

    /// The configured shard count (1 = sequential).
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Busy switch-steps accumulated per shard since construction (or the
    /// last [`Fabric::set_shards`]). A count, not a timing: `sum / max` is
    /// the balance of the plan, an upper bound on what the switch phase
    /// alone could gain from the threads.
    pub fn shard_work(&self) -> &[u64] {
        &self.shard_work
    }

    /// Starts recording the wall-clock phase breakdown of every subsequent
    /// slot into a [`PhaseProfile`]. Timing feeds nothing back into the
    /// simulation, so a profiled run stays byte-identical to an unprofiled
    /// one.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The phase breakdown accumulated since [`Fabric::enable_profiling`],
    /// if profiling is on.
    pub fn profile(&self) -> Option<&PhaseProfile> {
        self.profile.as_deref()
    }

    fn rebuild_port_map(&mut self) {
        self.port_map.fill(None);
        for link in self.topo.links() {
            if self.topo.link_state(link) != LinkState::Working {
                continue;
            }
            let (ea, eb) = self.topo.endpoints(link);
            for (near, far) in [(ea, eb), (eb, ea)] {
                if let Node::Switch(s) = near.node {
                    self.port_map[s.0 as usize * self.port_stride + near.port.0 as usize] =
                        Some(Attachment {
                            link,
                            to: far.node,
                            input: far.port.0 as usize,
                        });
                }
            }
        }
    }

    /// Current slot.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The physical topology (reflecting injected failures).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to a switch's data plane (for schedule surgery).
    pub fn switch_mut(&mut self, s: SwitchId) -> &mut Switch {
        &mut self.switches[s.0 as usize]
    }

    fn port_on(&self, link: LinkId, node: Node) -> usize {
        self.topo.near_end(link, node).port.0 as usize
    }

    /// The end of `link` at `to`, read off the topology.
    fn attachment(&self, link: LinkId, to: Node) -> Attachment {
        let input = match to {
            Node::Switch(_) => self.port_on(link, to),
            Node::Host(_) => 0,
        };
        Attachment { link, to, input }
    }

    /// Marks a link dead: in-flight traffic on it is lost and it disappears
    /// from the port map. Circuit repair is the `Network` layer's job.
    pub fn fail_link(&mut self, link: LinkId) {
        if self.topo.link_state(link) != LinkState::Working {
            return;
        }
        self.topo.set_link_state(link, LinkState::Dead);
        self.rebuild_port_map();
        // Cells and credits in flight on the failed link are lost. Account
        // drops against their circuits so latency queues stay aligned.
        for event in self.agenda.drain_where(|e| e.link() == link) {
            if let Some(c) = event
                .data_cell_vc()
                .and_then(|vc| self.circuits.get_mut(vc))
            {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
        }
        self.ctrl.purge_on(link);
    }

    /// Reverses a [`Fabric::fail_link`] verdict: the link carries traffic
    /// again. Returns false if the link was not dead. Circuit re-attachment
    /// is the `Network` layer's job.
    pub fn revive_link(&mut self, link: LinkId) -> bool {
        if self.topo.link_state(link) == LinkState::Working {
            return false;
        }
        self.topo.set_link_state(link, LinkState::Working);
        self.rebuild_port_map();
        true
    }

    /// In-flight events (cells, credits, markers, replies) on `link`.
    pub fn inflight_on_link(&self, link: LinkId) -> usize {
        self.agenda.count_matching(|e| e.link() == link)
    }

    /// Advances the fabric by `slots` cell slots, stepping only what can
    /// change. Every switch keeps a *next-event watermark* — the earliest
    /// slot at which stepping it could change anything — and a switch whose
    /// watermark lies in the future only has its clock moved: its step
    /// would draw no randomness and move no cell. When no cell, credit or
    /// control message is queued or in flight anywhere either, the only
    /// per-slot work is clock bookkeeping, so the fabric jumps straight to
    /// the next scheduled event (clamped to the next guaranteed-token frame
    /// boundary, which must still execute, and under a fault layer to its
    /// next scripted transition and periodic resync). `Network::step` cuts
    /// its calls at the network layer's own deadlines — ping rounds,
    /// control arrivals — so one mechanism fast-forwards faulted and
    /// fault-free runs alike.
    ///
    /// With shards configured ([`Fabric::set_shards`]) the call starts its
    /// worker threads once, here, and keeps them until it returns.
    pub fn step(&mut self, slots: u64) {
        let end = self.slot + slots;
        // Outside calls may have moved any watermark since the last call;
        // inside it, the lanes report them after every stepped slot.
        let bound = self.switches_quiet_bound();
        // Everything that needs the lead's state in the middle of a slot
        // keeps the switches with the lead. None of these can change while
        // the call runs: attaching is an outside call, and set-ups only
        // complete.
        let lead_only = self.fault.is_some() || self.circuits.setups_in_flight() != 0;
        if self.crew_threads > 1 && !lead_only && slots > 0 {
            self.step_with_crew(end, bound);
        } else {
            self.run_slots(end, bound, None);
        }
        // What the fabric records between `step` calls (control sends,
        // forced resyncs) happens at the slot about to run, the instant
        // the network layer's own records carry.
        if let Some(t) = &mut self.trace {
            // A call that ended in a jump left the tracer's own clock at
            // the last slot stepped. Bring it to the last slot passed, as
            // stepping leaves it: what other holders of the tracer record
            // between calls (ping rounds, the injector) is then stamped,
            // and falls on the side of each scrape boundary, as it would
            // have without the jump. Once per call, not per skipped slot.
            if slots > 0 {
                t.tracer.set_slot(self.slot - 1);
            }
            t.lane.set_slot(self.slot);
        }
    }

    /// The slot loop every shard count shares: fast-forward when the whole
    /// fabric is quiet, otherwise step one slot. `bound` is the earliest
    /// switch watermark: after a stepped slot the lanes, which saw every
    /// switch, report it afresh, and a jump moves no watermark.
    fn run_slots(&mut self, end: u64, mut bound: u64, mut crew: Option<&mut Crew<'_, '_>>) {
        while self.slot < end {
            let t0 = self.profile.is_some().then(std::time::Instant::now);
            let target = self.quiet_until(end, bound).filter(|&t| t > self.slot);
            if let Some(t0) = t0 {
                let p = self.profile.as_mut().expect("profiling enabled");
                p.fast_forward_ns += t0.elapsed().as_nanos() as u64;
                if let Some(target) = target {
                    p.skipped_slots += target - self.slot;
                }
            }
            if let Some(target) = target {
                self.skip_to(target, crew.as_deref_mut());
                continue;
            }
            self.step_one(crew.as_deref_mut());
            bound = self
                .lanes
                .iter()
                .map(|l| l.quiet_bound)
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Runs the slot loop with the shard lanes dealt to a crew of
    /// `crew_threads` threads (this one included) for the whole call. The
    /// switches leave `self` for the duration.
    fn step_with_crew(&mut self, end: u64, bound: u64) {
        let mut switches = std::mem::take(&mut self.switches);
        let mut rngs = std::mem::take(&mut self.switch_rngs);
        let hands = shard::deal(
            &self.layout.runs,
            self.lanes.len(),
            self.crew_threads,
            &mut switches,
            &mut rngs,
        );
        Crew::run(hands, |crew| self.run_slots(end, bound, Some(crew)));
        self.switches = switches;
        self.switch_rngs = rngs;
    }

    /// If the fabric is provably quiet at the current slot, the furthest
    /// slot (≤ `end`) it may fast-forward to; `None` when anything at all
    /// is pending. Checks are ordered cheapest-first so busy slots pay two
    /// flag tests and one counter read; the fault layer's bound
    /// ([`Fabric::fault_quiet_bound`]) is asked last.
    ///
    /// A backlogged switch does not block the jump: `switch_bound`, the
    /// earliest switch watermark, bounds it like the agenda's next
    /// deadline, the next token refill and `end` do.
    fn quiet_until(&self, end: u64, switch_bound: u64) -> Option<u64> {
        if !self.ctrl.is_idle() {
            return None; // a control message is on a wire
        }
        if self.outbox_cells != 0 {
            return None; // some host outbox still holds cells
        }
        let wake = match self.agenda.next_due() {
            Some(due) if due <= self.slot => return None, // imminent
            Some(due) => due,
            None => u64::MAX,
        };
        if switch_bound <= self.slot {
            return None;
        }
        // Token buckets refill in the slot before each frame boundary;
        // that slot must run normally, so never skip past it.
        let frame = self.cfg.frame_slots as u64;
        let refill = self.slot + (frame - 1 - self.slot % frame);
        // An attached fault layer bounds the jump like everything above
        // does (no layer, no bound); asked last, it is the dearest.
        let fault = self.fault_quiet_bound()?;
        Some(wake.min(switch_bound).min(end).min(refill).min(fault))
    }

    /// The earliest slot at which some switch needs stepping (`u64::MAX` =
    /// none scheduled), read off the switches themselves at the start of a
    /// [`Fabric::step`] call; gives up at the first switch that is due now.
    /// Within the call the lanes keep it ([`Lane::quiet_bound`]).
    fn switches_quiet_bound(&self) -> u64 {
        let mut bound = u64::MAX;
        for s in &self.switches {
            bound = bound.min(s.next_event_slot());
            if bound <= self.slot {
                break;
            }
        }
        bound
    }

    /// Advances every clock to `target` as if `target - slot` quiet slots
    /// had been stepped one by one: switch slot counters move, each host's
    /// injection rotor makes its per-slot idle advance, and nothing else
    /// changes — which is exactly what stepping a quiet fabric does.
    /// `target` never exceeds any switch's next-event watermark, so even a
    /// backlogged switch is provably unchanged by the skipped steps.
    fn skip_to(&mut self, target: u64, crew: Option<&mut Crew<'_, '_>>) {
        match crew {
            None => {
                for sw in &mut self.switches {
                    sw.advance_to(target);
                }
            }
            Some(crew) => crew.skip_to(target),
        }
        let n = target - self.slot;
        for h in &mut self.hosts {
            h.idle_slots(n);
        }
        if let Some(f) = &mut self.fault {
            f.idle_slots(n);
        }
        self.slot = target;
    }

    fn step_one(&mut self, crew: Option<&mut Crew<'_, '_>>) {
        // 0. Stamp the recorder's clock so every event this slot carries
        // the right virtual time.
        if let Some(t) = &mut self.trace {
            t.tracer.set_slot(self.slot);
            t.lane.set_slot(self.slot);
        }
        // 0b. Fault layer: crashes, flaps and scheduled resync markers take
        // effect before this slot's deliveries.
        self.fault_begin_slot();
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        // 1. Deliveries scheduled for this slot.
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        self.agenda.take_due(self.slot, &mut events);
        for (_, event) in events.drain(..) {
            match event {
                Event::CellToSwitch {
                    switch,
                    input,
                    cell,
                    trace,
                    ..
                } => {
                    if !self.cell_arrives(switch, &cell) {
                        continue;
                    }
                    if cell.header.kind == CellKind::Signal {
                        // Under a crew no set-up is pending, so this is a
                        // stale signal and dropped before it touches a
                        // switch.
                        self.handle_signal_at_switch(switch, cell);
                        continue;
                    }
                    self.trace_hop(trace, cell.vc(), Hop::SwitchIn { switch: switch.0 });
                    if crew.is_some() {
                        let home = self.layout.home[switch.0 as usize];
                        self.lanes[home.lane as usize].inbox.push(Delivery::Cell {
                            home,
                            input,
                            cell,
                            trace,
                        });
                    } else {
                        self.switches[switch.0 as usize]
                            .enqueue_traced(input, cell, trace)
                            .expect("port map produced a valid input port");
                    }
                }
                Event::CellToHost {
                    host, cell, trace, ..
                } => {
                    if cell.header.kind == CellKind::Signal {
                        // Setup complete: the destination controller
                        // acknowledges by accepting the circuit.
                        self.circuits.clear_setup(cell.vc());
                    } else {
                        self.deliver_to_host(host, cell, trace);
                    }
                }
                Event::CreditToSwitch {
                    switch,
                    vc,
                    link,
                    epoch,
                } => {
                    if !self.admit_credit(Some(switch), vc, link, epoch) {
                        continue;
                    }
                    if crew.is_some() {
                        let home = self.layout.home[switch.0 as usize];
                        self.lanes[home.lane as usize]
                            .inbox
                            .push(Delivery::Credit { home, vc });
                    } else {
                        self.switches[switch.0 as usize].try_add_credit(vc);
                    }
                }
                Event::CreditToHost { vc, link, epoch } => {
                    if !self.admit_credit(None, vc, link, epoch) {
                        continue;
                    }
                    if let Some(credits) = self
                        .circuits
                        .get_mut(vc)
                        .and_then(|c| c.host_credits.as_mut())
                    {
                        *credits += 1;
                        if *credits == 1 {
                            self.refresh_ready_of(vc);
                        }
                    }
                }
                Event::ResyncMarker { vc, link, marker } => self.deliver_marker(vc, link, marker),
                Event::ResyncReply { vc, link, reply } => self.deliver_reply(vc, link, reply),
            }
        }
        self.events_scratch = events;
        // 1b. Control-plane protocol messages due this slot surface in the
        // arrival buffer for the Network layer's pump.
        let fault = &self.fault;
        self.ctrl.deliver_due(
            self.slot,
            |s| fault.as_ref().is_some_and(|f| f.crashed(s)),
            self.trace.as_deref_mut(),
        );
        // 2. Hosts inject (one cell per host per slot: the link rate).
        self.inject_from_hosts();
        if let Some(t0) = t0 {
            self.profile.as_mut().expect("profiling enabled").enqueue_ns +=
                t0.elapsed().as_nanos() as u64;
        }
        // 3. Switches advance (switch phase), then departures propagate in
        // global switch-id order (commit). The split is safe because a
        // propagation only schedules future deliveries and touches state no
        // same-slot `step_into` reads — and it is what lets the switch
        // phase run on shard threads while commits stay canonical.
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        self.step_switches(crew);
        let t1 = self.profile.is_some().then(std::time::Instant::now);
        self.commit_departures();
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let p = self.profile.as_mut().expect("profiling enabled");
            p.schedule_ns += (t1 - t0).as_nanos() as u64;
            p.commit_ns += t1.elapsed().as_nanos() as u64;
        }
        // 4. Refill guaranteed token buckets at frame boundaries.
        let frame = self.cfg.frame_slots as u64;
        if (self.slot + 1).is_multiple_of(frame) {
            for ci in 0..self.circuits.len() {
                if self.circuits.refill_tokens(ci) {
                    self.refresh_ready_of(self.circuits.vc_at(ci));
                }
            }
        }
        // 5. Invariant check (with a fault layer): every gate and buffer is
        // settled now, before the slot counter advances.
        self.count_invariant_violations();
        // 6. Everything the slot recorded reaches the tracer now, so the
        // observatory's scrape at the next `set_slot` reads a settled
        // registry.
        if self.trace.is_some() {
            self.flush_slot_trace();
        }
        self.slot += 1;
    }

    /// The slot-end flush, booked as commit time: it is the trace's commit.
    /// Kept out of line: inlined, its lock and profiling code cost the
    /// untraced slot loop over 10 % (chaos schedules, 125 ns per slot).
    #[inline(never)]
    fn flush_slot_trace(&mut self) {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        self.flush_trace();
        if let Some(t0) = t0 {
            self.profile.as_mut().expect("profiling enabled").commit_ns +=
                t0.elapsed().as_nanos() as u64;
        }
    }

    /// Applies everything recorded since the last flush to the tracer under
    /// one lock, in the canonical order: the fabric's own lane, then the
    /// switches' output in ascending switch id. The record stream is thus a
    /// function of (slot, emitter, emission order) alone — the same at any
    /// shard count or `step` chunking.
    fn flush_trace(&mut self) {
        let Some(t) = self.trace.as_mut() else {
            return;
        };
        if t.lane.is_empty() && !shard::trace_pending(&self.lanes) {
            return;
        }
        let mut sink = t.tracer.sink();
        t.lane.flush_into(&mut sink);
        shard::flush_traces(&mut self.lanes, &mut sink);
    }

    /// The switch phase: every lane steps its switches into its own
    /// departure buffer. Without a crew the lead walks the runs itself, in
    /// ascending switch order (deliveries were applied straight from the
    /// agenda); with one the lanes go through [`Crew::step`].
    fn step_switches(&mut self, crew: Option<&mut Crew<'_, '_>>) {
        if let Some(crew) = crew {
            return crew.step(&mut self.lanes, self.slot);
        }
        for lane in &mut self.lanes {
            lane.begin();
        }
        for run in &self.layout.runs {
            let span = run.base as usize..(run.base + run.len) as usize;
            self.lanes[run.lane as usize].step_chunk(
                run.base,
                &mut self.switches[span.clone()],
                &mut self.switch_rngs[span],
                self.slot,
            );
        }
    }

    /// The canonical commit: departures propagate in ascending switch id
    /// whichever lane produced them. Each lane's bounds are already
    /// ascending, so this is a merge by cursor over the lanes.
    fn commit_departures(&mut self) {
        let mut lanes = std::mem::take(&mut self.lanes);
        while let Some((switch, l)) = lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| lane.bounds.get(lane.committed).map(|b| (b.0, l)))
            .min()
        {
            let lane = &mut lanes[l];
            let start = lane
                .committed
                .checked_sub(1)
                .map_or(0, |prev| lane.bounds[prev].1);
            let end = lane.bounds[lane.committed].1;
            lane.committed += 1;
            for d in &lane.departures[start as usize..end as usize] {
                self.propagate(
                    SwitchId(switch as u16),
                    d.output,
                    d.cell,
                    d.trace,
                    d.enqueued_slot,
                );
            }
        }
        for (work, lane) in self.shard_work.iter_mut().zip(&lanes) {
            *work += lane.busy;
        }
        if let Some(p) = self.profile.as_mut() {
            p.skipped_switch_steps += lanes.iter().map(|l| l.skipped).sum::<u64>();
            p.stepped_switch_steps += lanes.iter().map(|l| l.stepped).sum::<u64>();
        }
        self.lanes = lanes;
    }

    /// A cell leaves switch `from` through `output`: the buffer it held is
    /// credited back upstream and the cell goes onto the wire the port is
    /// cabled to.
    fn propagate(
        &mut self,
        from: SwitchId,
        output: usize,
        cell: Cell,
        trace: u32,
        enqueued_slot: u64,
    ) {
        let vc = cell.vc();
        // The circuit and the hop that ended at `from`, looked up once for
        // everything below.
        let at = self.circuits.locate(vc, from);
        if let Some((ci, hop)) = at {
            // The hardware gate at `from` spent a credit inside `step_into`.
            self.ledger_cell_sent(ci, hop + 1);
        }
        self.trace_hop(
            trace,
            vc,
            Hop::SwitchOut {
                switch: from.0,
                queued_slots: self.slot - enqueued_slot,
            },
        );
        let Some(wire) = self.port_map[from.0 as usize * self.port_stride + output] else {
            // The outbound link died after the cell was scheduled: lost,
            // and no credit is returned on a dead link (resync recovers
            // the buffer it freed).
            if let Some(t) = &mut self.trace {
                t.cells_dropped(vc, DropReason::DeadLink, 1);
            }
            if let Some(c) = self.circuits.get_mut(vc) {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
            return;
        };
        // §5: forwarding this cell freed a buffer in `from`; return a credit
        // to the upstream hop (only best-effort circuits are gated).
        if let Some((ci, hop)) = at {
            self.return_credit(ci, hop);
        }
        let (arrives, corrupted) = self.launch(wire, cell, self.slot, trace);
        if corrupted || !arrives {
            if let Some(c) = self.circuits.get_mut(vc) {
                if corrupted {
                    c.stats.corrupted_cells += 1;
                }
                if !arrives {
                    c.stats.lost_cells += 1;
                    c.inject_slots.pop_front();
                }
            }
        }
    }

    /// Puts `cell` on a wire, leaving at slot `depart`: the one place a cell
    /// enters the agenda. The wire may destroy it, flip a
    /// payload bit or delay it ([`Fabric::wire_cross`]); returns
    /// `(arrives, corrupted)` for the caller's per-circuit accounting.
    #[inline]
    fn launch(
        &mut self,
        Attachment { link, to, input }: Attachment,
        mut cell: Cell,
        depart: u64,
        trace: u32,
    ) -> (bool, bool) {
        let base_due = depart + self.cfg.link_latency_slots;
        let (arrives, corrupted, due) = self.wire_cross(link, to, &mut cell, base_due);
        if arrives {
            self.trace_hop(trace, cell.vc(), Hop::Wire { link: link.0 });
            let event = match to {
                Node::Switch(switch) => Event::CellToSwitch {
                    switch,
                    input,
                    cell,
                    link,
                    trace,
                },
                Node::Host(host) => Event::CellToHost {
                    host,
                    cell,
                    link,
                    trace,
                },
            };
            self.agenda.push(due, event);
        }
        (arrives, corrupted)
    }

    /// Records one hop of a sampled cell's journey (ids are nonzero only
    /// with a tracer attached).
    #[inline]
    fn trace_hop(&mut self, trace: u32, vc: VcId, hop: Hop) {
        if trace != 0 {
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::CellHop {
                    trace_id: trace,
                    vc: vc.raw(),
                    hop,
                });
            }
        }
    }

    /// Returns a credit for one buffer freed on hop `hop` of circuit slot
    /// `ci` to the hop's upstream end: a data cell left the switch's
    /// queues, or the line card processed a setup cell.
    fn return_credit(&mut self, ci: usize, hop: usize) {
        let Some(c) = self.circuits.at(ci) else {
            return;
        };
        if !matches!(c.class, TrafficClass::BestEffort) {
            return;
        }
        let link = c.hop_link(hop);
        let upstream = hop.checked_sub(1).map(|up| c.switches[up]);
        let vc = self.circuits.vc_at(ci);
        let Some(epoch) = self.credit_crosses(ci, hop, link) else {
            return;
        };
        if let Some(t) = &mut self.trace {
            t.lane.emit(TraceEvent::CreditSend {
                vc: vc.raw(),
                link: link.0,
                epoch,
            });
            t.lane.add(t.credits_sent[link.0 as usize], 1);
        }
        let event = match upstream {
            None => Event::CreditToHost { vc, link, epoch },
            Some(switch) => Event::CreditToSwitch {
                switch,
                vc,
                link,
                epoch,
            },
        };
        self.agenda
            .push(self.slot + self.cfg.link_latency_slots, event);
    }

    /// Attaches a flight recorder + metrics registry to every layer of the
    /// data plane: the fabric itself, each switch, and — if one is attached
    /// in either order — the fault injector. Tracing records decisions
    /// after they are made and never draws randomness, so the traced run is
    /// byte-identical to the untraced one.
    ///
    /// The fabric and its switches record into trace lanes of their own and
    /// flush them at the end of every stepped slot — the fabric's lane,
    /// then each switch's in ascending id — and before any other public
    /// method that records returns: whatever a call produced is readable
    /// through `tracer` once the call is back. (A cell enqueued by hand
    /// through [`Fabric::switch_mut`] surfaces with the next stepped slot,
    /// or at that switch's `flush_trace`.)
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        for (idx, sw) in self.switches.iter_mut().enumerate() {
            sw.attach_tracer(tracer.clone(), idx as u16);
        }
        if let Some(fault) = self.fault.as_mut() {
            fault.attach_tracer(tracer.clone());
        }
        for lane in &mut self.lanes {
            lane.traced = true;
        }
        let mut lane = TraceLane::new(tracer.clone());
        lane.set_slot(self.slot);
        let (links, hosts) = (self.topo.link_count(), self.topo.host_count());
        let per = |name: &'static str, n: usize, entity: fn(usize) -> Entity| -> Vec<MetricId> {
            (0..n).map(|i| lane.resolve(name, entity(i))).collect()
        };
        let link = |l| Entity::Link(l as u32);
        let host = |h| Entity::Host(h as u16);
        self.trace = Some(Box::new(FabricTrace {
            link_cells: per("link.cells", links, link),
            credits_sent: per("fabric.credits_sent", links, link),
            cells_injected: per("fabric.cells_injected", hosts, host),
            cells_delivered: per("fabric.cells_delivered", hosts, host),
            cell_latency: lane.resolve("fabric.cell_latency_slots", Entity::Global),
            tracer,
            lane,
        }));
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref().map(|t| &t.tracer)
    }
}
