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
//! ## Storage layout
//!
//! The fabric interns VC ids into a slab: a flat `lookup` table maps the
//! 24-bit id to a slot holding the circuit, its pending setup plan, and the
//! source host's credit/token gate. Host outboxes are id-sorted vectors of
//! [`CellQueue`] handles into one shared [`CellPool`] with a ready bitset
//! over them (see [`crate::host`]), each circuit carries its own packet
//! under reassembly, the switch port map
//! is a flat array indexed by `(switch, port)`, and the event agenda is a
//! calendar queue — a power-of-two ring of due-stamped buckets sized to the
//! maximum scheduling horizon (signal processing + link latency). Together
//! these remove every per-slot B-tree/hash lookup and allocation from the
//! hot path while producing byte-identical results to the preserved
//! map-based oracle in [`crate::reference`] (enforced by property tests).

use crate::host::HostState;
use crate::shard::{self, Chunk, Cmd, Delivery, Lane, Lead, ShardLayout};
use an2_cells::signal::{SignalMsg, TrafficClass};
use an2_cells::{Cell, CellKind, CellPool, CellQueue, Packet, PartialPacket, VcId};
use an2_faults::{Fate, FaultInjector, FaultSpec, HEADER_BITS};
use an2_flow::{resync, CreditReceiver, CreditSender};
use an2_reconfig::protocol::ProtocolMsg as CtrlMsg;
use an2_sim::metrics::Histogram;
use an2_sim::SimRng;
use an2_switch::{Switch, SwitchConfig};
use an2_topology::{HostId, LinkId, LinkState, Node, SwitchId, Topology};
use an2_trace::{DropReason, Entity, Hop, MetricId, TraceEvent, TraceLane, Tracer};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-switch configuration, except `ports`, which a fabric does not
    /// read: it builds each switch as wide as the topology cables it
    /// ([`Topology::cabled_ports`]).
    pub switch: SwitchConfig,
    /// Link propagation delay in cell slots (uniform across links).
    pub link_latency_slots: u64,
    /// Downstream buffers (= initial credits) per best-effort circuit per
    /// hop. Should be at least `2 * link_latency_slots` for full-rate flow
    /// (§5); the default leaves headroom.
    pub be_credits: u32,
    /// Line-card software time, in slots, to process one signaling cell
    /// (§2: setup cells "are passed to the processor on the line card").
    pub signal_processing_slots: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            switch: SwitchConfig::default(),
            link_latency_slots: 2,
            be_credits: 8,
            signal_processing_slots: 30,
        }
    }
}

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

#[derive(Debug, Clone, Copy)]
enum Attachment {
    ToSwitch {
        switch: SwitchId,
        input: usize,
        link: LinkId,
    },
    ToHost {
        host: HostId,
        link: LinkId,
    },
}

#[derive(Debug, Clone, Copy)]
enum Event {
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
    /// is what makes the lossy reply sound — see
    /// [`an2_flow::resync::handle_marker_lossy`].
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
    fn link(&self) -> LinkId {
        match *self {
            Event::CellToSwitch { link, .. }
            | Event::CellToHost { link, .. }
            | Event::CreditToSwitch { link, .. }
            | Event::CreditToHost { link, .. }
            | Event::ResyncMarker { link, .. }
            | Event::ResyncReply { link, .. } => link,
        }
    }
}

/// A calendar queue over the fabric's bounded scheduling horizon: a
/// power-of-two ring of buckets holding `(due_slot, Event)` pairs. Pushes
/// and per-slot drains are O(bucket length); purges scan every bucket, like
/// the `BTreeMap` agenda they replaced. Entries whose due slot has already
/// passed (possible only with `link_latency_slots == 0`, where the old
/// agenda stranded same-slot pushes after the slot was drained) simply stay
/// in their bucket, preserving the oracle's semantics.
#[derive(Debug)]
struct Agenda {
    buckets: Vec<Vec<(u64, Event)>>,
    mask: u64,
}

impl Agenda {
    /// A calendar sized for events at most `horizon` slots in the future.
    fn new(horizon: u64) -> Self {
        let len = (horizon + 2).next_power_of_two().max(2);
        Agenda {
            buckets: (0..len).map(|_| Vec::new()).collect(),
            mask: len - 1,
        }
    }

    fn push(&mut self, due: u64, event: Event) {
        self.buckets[(due & self.mask) as usize].push((due, event));
    }

    /// Moves every event due exactly at `slot` into `out` (which must be
    /// empty), in push order, keeping other entries. With nonzero link
    /// latency every entry in the bucket is due — the calendar ring is
    /// wider than the scheduling horizon — so the whole bucket is swapped
    /// out without copying; entries whose slot already passed (only with
    /// `link_latency_slots == 0`) take the stable in-place compaction path.
    fn take_due(&mut self, slot: u64, out: &mut Vec<(u64, Event)>) {
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

    /// Keeps only the events `f` accepts (teardown/failure purges).
    fn retain(&mut self, mut f: impl FnMut(&Event) -> bool) {
        for bucket in &mut self.buckets {
            bucket.retain(|(_, e)| f(e));
        }
    }

    /// Counts scheduled events matching `f` (soak/test observability).
    fn count_matching(&self, mut f: impl FnMut(&Event) -> bool) -> usize {
        self.buckets
            .iter()
            .map(|b| b.iter().filter(|(_, e)| f(e)).count())
            .sum()
    }

    /// The earliest due slot of any scheduled event, scanning every bucket.
    /// Only called from the quiet-slot fast-forward, where the agenda is
    /// nearly empty; the hot path never pays for this.
    fn next_due(&self) -> Option<u64> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|&(due, _)| due))
            .min()
    }
}

/// One credit-gated hop's §5 flow-control endpoints, shadowing the hardware
/// gates when the fault layer is attached (see [`Circuit::hops`]).
#[derive(Debug)]
struct HopFlow {
    sender: CreditSender,
    receiver: CreditReceiver,
    /// The link this hop's cells cross (credits cross it the other way).
    link: LinkId,
    /// Epoch of a resync still in flight on this hop, if any.
    pending_epoch: Option<u32>,
}

#[derive(Debug)]
struct Circuit {
    src: HostId,
    dst: HostId,
    class: TrafficClass,
    switches: Vec<SwitchId>,
    /// Inter-switch links, `links[i]` connecting `switches[i]` to
    /// `switches[i+1]`.
    links: Vec<LinkId>,
    src_link: LinkId,
    dst_link: LinkId,
    /// Injection slot of every undelivered cell, oldest first.
    inject_slots: VecDeque<u64>,
    stats: VcStats,
    /// Slot of the most recent injection or delivery (idleness clock for
    /// the §2 page-out optimization).
    last_activity: u64,
    /// Whether the circuit is paged out: routing entries and buffers
    /// released, state retained so it can be paged back in.
    paged_out: bool,
    /// Credits toward the first switch (best-effort only; `None` when
    /// ungated or paged out). Lives here rather than in a per-host map —
    /// a circuit has exactly one source host.
    host_credits: Option<u32>,
    /// Per-frame token bucket (guaranteed only): the controller "prevents a
    /// host from sending more than its reserved bandwidth" (§5).
    gt_tokens: Option<u32>,
    /// Shadow credit gates, one per gated hop (fault mode, best-effort
    /// only; empty otherwise). `hops[0]`'s sender mirrors `host_credits`
    /// over `src_link`; `hops[k]`'s sender mirrors switch `switches[k-1]`'s
    /// hardware gate over `links[k-1]`; every hop's receiver mirrors the
    /// cells buffered at `switches[k]`. The shadows carry what the hardware
    /// gates cannot: the absolute sent/forwarded counters and the resync
    /// epoch that §5's recovery protocol needs.
    hops: Vec<HopFlow>,
    /// The packet the destination controller is reassembling. Kept with
    /// the circuit, not in a per-host table: a delivered cell has already
    /// looked its circuit up. Holds no capacity between packets (see
    /// [`PartialPacket`]) — a fabric carries tens of thousands of circuits.
    partial: PartialPacket,
}

impl Circuit {
    /// Whether the source controller's gate lets a cell through now: a
    /// credit toward the first switch (best-effort) or a token left in this
    /// frame's bucket (guaranteed). Closed while paged out.
    fn gate_open(&self) -> bool {
        match self.class {
            TrafficClass::BestEffort => self.host_credits.unwrap_or(0) > 0,
            TrafficClass::Guaranteed { .. } => self.gt_tokens.unwrap_or(0) > 0,
        }
    }
}

/// The route a travelling setup cell will install, hop by hop.
#[derive(Debug, Clone)]
struct SetupPlan {
    class: TrafficClass,
    switches: Vec<SwitchId>,
    links: Vec<LinkId>,
    dst_link: LinkId,
}

/// The interned slot-number a VC id maps to; `NO_IDX` = never seen.
const NO_IDX: u32 = u32::MAX;

/// Everything keyed by one VC id. Slots are never freed (ids are interned
/// monotonically); a closed circuit leaves `circuit: None` behind.
#[derive(Debug)]
struct VcEntry {
    vc: VcId,
    circuit: Option<Circuit>,
    /// Set while a signaled setup cell is still travelling: routing
    /// entries are installed hop by hop as the cell passes (§2).
    setup: Option<SetupPlan>,
}

/// Aggregate fault-layer observations for one run (all zero until faults
/// are attached; queried via [`Fabric::fault_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Cells destroyed on wires: loss draws, flapped links, header hits
    /// caught by the HEC check, and arrivals at crashed line cards.
    pub cells_lost: u64,
    /// Cells hit by bit corruption (header or payload).
    pub cells_corrupted: u64,
    /// Credit messages lost on wires or addressed to crashed switches.
    pub credits_lost: u64,
    /// Resync markers emitted (§5).
    pub markers_sent: u64,
    /// Resync markers destroyed before reaching the downstream end.
    pub markers_lost: u64,
    /// Resync replies destroyed before reaching the upstream end.
    pub replies_lost: u64,
    /// Resyncs whose reply matched the in-flight epoch and was applied.
    pub resyncs_completed: u64,
    /// Cells destroyed inside switch buffers by line-card crashes.
    pub crash_dropped_cells: u64,
    /// Invariant-checker violations (credit conservation, buffer bounds,
    /// shadow/hardware divergence). Zero in a correct run.
    pub invariant_violations: u64,
}

/// The attached fault layer: injector plus policy knobs and counters.
#[derive(Debug)]
struct FaultLayer {
    injector: FaultInjector,
    resync_interval: u64,
    check_invariants: bool,
    counters: FaultCounters,
}

/// Counters for the reconfiguration control-cell transport. Unlike
/// [`FaultCounters`] these exist even without a fault layer — control cells
/// are a first-class fabric citizen; only their *loss* needs the injector.
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

/// A reconfiguration protocol message in flight on an inter-switch wire.
///
/// Control payloads (tags, edge lists) are kept out-of-band rather than
/// serialized into the Copy [`Event`] agenda: the message occupies the wire
/// for its cell count and arrives whole at `due`, mirroring how AN2's
/// switch software reassembles a multi-cell protocol unit before acting.
#[derive(Debug, Clone)]
struct CtrlInFlight {
    due: u64,
    to: SwitchId,
    link: LinkId,
    msg: CtrlMsg,
}

/// The slot-stepped network data plane: switches, links, host controllers
/// and credit flow control, advanced one cell slot at a time.
pub struct Fabric {
    topo: Topology,
    cfg: FabricConfig,
    switches: Vec<Switch>,
    hosts: Vec<HostState>,
    /// Raw VC id → slot in `vcs` (`NO_IDX` when unseen).
    lookup: Vec<u32>,
    vcs: Vec<VcEntry>,
    /// `(switch, port)` → what the port connects to, flattened at
    /// `switch * port_stride + port`. Rebuilt on link failures.
    port_map: Vec<Option<Attachment>>,
    port_stride: usize,
    agenda: Agenda,
    /// Shared arena for outbox cells.
    pool: CellPool,
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
    /// Signalled set-ups whose cell is still travelling. Their line-card
    /// processing edits switch tables from the agenda drain, so while any
    /// is in flight the switches stay with the lead.
    setups_in_flight: usize,
    /// Deterministic fault layer (`None` until [`Fabric::attach_faults`]);
    /// every hot-path hook is gated on it being present, so a fault-free
    /// fabric runs byte-identically to one that never had the field.
    fault: Option<Box<FaultLayer>>,
    /// Flight recorder + metrics (`None` until [`Fabric::attach_tracer`]);
    /// gated exactly like the fault layer. Emission happens after every
    /// decision and consumes no randomness, so a traced run is
    /// byte-identical to an untraced one.
    trace: Option<Box<FabricTrace>>,
    /// Reconfiguration protocol messages in flight (empty unless an
    /// embedded control plane is sending; the hot path gates on that).
    ctrl_inflight: Vec<CtrlInFlight>,
    /// Messages that reached their destination switch this slot, awaiting
    /// the control plane's pump.
    ctrl_arrivals: Vec<(SwitchId, LinkId, CtrlMsg)>,
    ctrl_counters: CtrlCounters,
    // Reused per-slot buffers.
    events_scratch: Vec<(u64, Event)>,
    /// Watermark-driven batching: per-switch idle skips and wide quiet-slot
    /// jumps (default on; [`Fabric::set_batching`] turns it off to force the
    /// slot-by-slot legacy path, which must stay byte-identical).
    batching: bool,
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

/// The lead's view of a running crew (see [`Fabric::step_with_crew`]).
struct Crew<'a, 'sw> {
    lead: &'a Lead<'a>,
    /// Where lanes worked by other threads cross over and back.
    cells: &'a [Mutex<Lane>],
    /// The lanes the lead works itself, with their switches.
    own: &'a mut [(usize, Vec<Chunk<'sw>>)],
    threads: usize,
    /// Minimum of the lanes' quiet bounds as of the last switch phase.
    quiet_bound: u64,
}

impl Crew<'_, '_> {
    /// Swaps every lane another thread works with its cell: called before
    /// the release (lane out, with its inbox filled) and after the join
    /// (lane back, with its departures).
    fn exchange_lanes(&self, lanes: &mut [Lane]) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if l % self.threads != 0 {
                let mut cell = self.cells[l].lock().expect("workers are between rounds");
                std::mem::swap(lane, &mut cell);
            }
        }
    }
}

/// Moves the clocks of a thread's switches to `target` (a proven-quiet
/// stretch; see [`Fabric::skip_to`]).
fn advance_chunks(lanes: &mut [(usize, Vec<Chunk<'_>>)], target: u64) {
    for (_, chunks) in lanes {
        for sw in chunks.iter_mut().flat_map(|c| c.switches.iter_mut()) {
            sw.advance_to(target);
        }
    }
}

#[cfg(test)]
mod host_tests;

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.switches.len())
            .field("hosts", &self.hosts.len())
            .field(
                "circuits",
                &self.vcs.iter().filter(|e| e.circuit.is_some()).count(),
            )
            .field("slot", &self.slot)
            .finish()
    }
}

impl Fabric {
    /// Builds the data plane for a topology.
    pub fn new(topo: Topology, cfg: FabricConfig, seed: u64) -> Self {
        // A switch is as wide as its cabling (an uncabled one keeps a
        // single idle port): traffic only ever names cabled ports, and a
        // switch's behaviour does not depend on ports it never sees.
        let switches: Vec<Switch> = topo
            .switches()
            .map(|s| {
                Switch::new(SwitchConfig {
                    ports: topo.cabled_ports(s).max(1),
                    ..cfg.switch.clone()
                })
            })
            .collect();
        let hosts = (0..topo.host_count())
            .map(|_| HostState::default())
            .collect();
        let port_stride = switches.iter().map(Switch::ports).max().unwrap_or(0);
        let horizon = cfg.signal_processing_slots + cfg.link_latency_slots;
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
            lookup: Vec::new(),
            vcs: Vec::new(),
            pool: CellPool::new(),
            slot: 0,
            switch_rngs,
            shard_work: vec![0],
            setups_in_flight: 0,
            fault: None,
            trace: None,
            ctrl_inflight: Vec::new(),
            ctrl_arrivals: Vec::new(),
            ctrl_counters: CtrlCounters::default(),
            events_scratch: Vec::new(),
            batching: true,
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
    /// a signalled set-up in flight, zero link latency — or that have a
    /// single core to run on step the same shards inline instead. A tracer
    /// is no such state: switches record into lanes of their own, which the
    /// calling thread flushes in switch-id order after the join.
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

    /// Turns watermark-driven batching on or off (on by default).
    ///
    /// With batching on, every switch maintains a *next-event watermark* —
    /// the earliest slot at which stepping it could change anything — and
    /// the fabric skips `step` for switches whose watermark lies in the
    /// future, jumping whole quiet stretches when every switch and the
    /// agenda agree. An idle switch's step draws no randomness and moves no
    /// cell, so the skip is byte-identical to stepping; the
    /// `watermark_equiv` tests pin that down. Turning batching off forces
    /// the legacy slot-by-slot path, which the N7 experiment benchmarks
    /// against.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
        for sw in &mut self.switches {
            sw.set_batched(on);
        }
    }

    /// Whether watermark-driven batching is enabled.
    pub fn batching(&self) -> bool {
        self.batching
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
                    let attachment = match far.node {
                        Node::Switch(t) => Attachment::ToSwitch {
                            switch: t,
                            input: far.port.0 as usize,
                            link,
                        },
                        Node::Host(h) => Attachment::ToHost { host: h, link },
                    };
                    self.port_map[s.0 as usize * self.port_stride + near.port.0 as usize] =
                        Some(attachment);
                }
            }
        }
    }

    /// The interned slot for `vc`, creating it on first sight.
    fn ensure_vc(&mut self, vc: VcId) -> usize {
        let raw = vc.raw() as usize;
        if raw >= self.lookup.len() {
            self.lookup.resize(raw + 1, NO_IDX);
        }
        if self.lookup[raw] == NO_IDX {
            self.lookup[raw] = self.vcs.len() as u32;
            self.vcs.push(VcEntry {
                vc,
                circuit: None,
                setup: None,
            });
        }
        self.lookup[raw] as usize
    }

    /// The interned slot for `vc`, if it has ever been seen.
    fn idx_of(&self, vc: VcId) -> Option<usize> {
        self.lookup
            .get(vc.raw() as usize)
            .copied()
            .filter(|&i| i != NO_IDX)
            .map(|i| i as usize)
    }

    fn circuit(&self, vc: VcId) -> Option<&Circuit> {
        self.idx_of(vc).and_then(|i| self.vcs[i].circuit.as_ref())
    }

    fn circuit_mut(&mut self, vc: VcId) -> Option<&mut Circuit> {
        self.idx_of(vc).and_then(|i| self.vcs[i].circuit.as_mut())
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

    /// Per-circuit statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit; [`Fabric::try_stats`] does not.
    pub fn stats(&self, vc: VcId) -> &VcStats {
        self.try_stats(vc).expect("unknown circuit")
    }

    /// Per-circuit statistics, or `None` for a circuit that was never
    /// opened or is already closed.
    pub fn try_stats(&self, vc: VcId) -> Option<&VcStats> {
        self.circuit(vc).map(|c| &c.stats)
    }

    /// Whether the circuit exists.
    pub fn has_circuit(&self, vc: VcId) -> bool {
        self.circuit(vc).is_some()
    }

    /// The switch path of a circuit.
    pub fn circuit_path(&self, vc: VcId) -> Option<&[SwitchId]> {
        self.circuit(vc).map(|c| c.switches.as_slice())
    }

    fn port_on(&self, link: LinkId, node: Node) -> usize {
        self.topo.near_end(link, node).port.0 as usize
    }

    /// Installs a circuit along an explicit path. `switches` is the switch
    /// path; `links[i]` connects `switches[i]`→`switches[i+1]`; `src_link` /
    /// `dst_link` attach the hosts to the first and last switch.
    ///
    /// For guaranteed circuits, `cells_per_frame` slots are inserted into
    /// every on-path switch's frame schedule; for best-effort circuits,
    /// credit gates are installed on every hop.
    ///
    /// # Panics
    ///
    /// Panics if the path is inconsistent with the topology or the vc is
    /// already open — the `Network` layer validates before calling.
    #[allow(clippy::too_many_arguments)] // a path is irreducibly this wide
    pub fn open_circuit(
        &mut self,
        vc: VcId,
        src: HostId,
        dst: HostId,
        class: TrafficClass,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        assert!(!self.has_circuit(vc), "{vc} already open");
        assert_eq!(links.len() + 1, switches.len(), "malformed path");
        // Install routing entries hop by hop, as the setup cell would (§2).
        for (k, &s) in switches.iter().enumerate() {
            let out_port = if k + 1 < switches.len() {
                self.port_on(links[k], Node::Switch(s))
            } else {
                self.port_on(dst_link, Node::Switch(s))
            };
            self.switches[s.0 as usize]
                .install_route(vc, out_port, class)
                .expect("route installation on a validated path");
        }
        let mut host_credits = None;
        let mut gt_tokens = None;
        match class {
            TrafficClass::BestEffort => {
                // Credit gates: host→first switch, and each switch toward
                // its successor. The final hop (last switch → host) is
                // ungated: controllers always accept.
                host_credits = Some(self.cfg.be_credits);
                for &s in &switches[..switches.len().saturating_sub(1)] {
                    self.switches[s.0 as usize].set_credits(vc, self.cfg.be_credits);
                }
            }
            TrafficClass::Guaranteed { cells_per_frame } => {
                // Reserve crossbar slots on every switch (§4). Input port of
                // switch k is where the cell arrives from.
                for (k, &s) in switches.iter().enumerate() {
                    let in_port = if k == 0 {
                        self.port_on(src_link, Node::Switch(s))
                    } else {
                        self.port_on(links[k - 1], Node::Switch(s))
                    };
                    let out_port = if k + 1 < switches.len() {
                        self.port_on(links[k], Node::Switch(s))
                    } else {
                        self.port_on(dst_link, Node::Switch(s))
                    };
                    for _ in 0..cells_per_frame {
                        self.switches[s.0 as usize]
                            .schedule_mut()
                            .insert(in_port, out_port)
                            .expect("admission control guarantees feasibility");
                    }
                }
                gt_tokens = Some(cells_per_frame as u32);
            }
        }
        let hops = if self.fault.is_some() && matches!(class, TrafficClass::BestEffort) {
            Self::make_hops(self.cfg.be_credits, switches.len(), &links, src_link)
        } else {
            Vec::new()
        };
        let slot_now = self.slot;
        let idx = self.ensure_vc(vc);
        self.vcs[idx].circuit = Some(Circuit {
            src,
            dst,
            class,
            switches,
            links,
            src_link,
            dst_link,
            inject_slots: VecDeque::new(),
            stats: VcStats::default(),
            last_activity: slot_now,
            paged_out: false,
            host_credits,
            gt_tokens,
            hops,
            partial: PartialPacket::new(),
        });
        // A reroute or page-in reopens a circuit whose outbox entry (and
        // queued cells) outlived the old path.
        self.refresh_ready_of(vc);
    }

    /// Builds the shadow flow-control gates for a best-effort path (fault
    /// mode): hop 0 crosses `src_link`, hop `k ≥ 1` crosses `links[k-1]`.
    fn make_hops(cap: u32, n_switches: usize, links: &[LinkId], src_link: LinkId) -> Vec<HopFlow> {
        (0..n_switches)
            .map(|k| HopFlow {
                sender: CreditSender::new(cap),
                receiver: CreditReceiver::new(cap),
                link: if k == 0 { src_link } else { links[k - 1] },
                pending_epoch: None,
            })
            .collect()
    }

    /// Removes a circuit: routing entries, schedule slots, credits, queued
    /// and in-flight cells. Returns its final statistics.
    pub fn close_circuit(&mut self, vc: VcId) -> Option<VcStats> {
        let idx = self.idx_of(vc)?;
        let mut circuit = self.vcs[idx].circuit.take()?;
        // Cells the teardown reaps (buffered in switches or in flight) are
        // drops; the returned stats must balance sent against delivered +
        // dropped + lost.
        let reaped = self.teardown_path(vc, &circuit);
        circuit.stats.dropped_cells += reaped;
        let src = circuit.src.0 as usize;
        if let Ok(e) = self.hosts[src].outbox_entry(vc.raw()) {
            let (_, mut q) = self.hosts[src].outbox.remove(e);
            self.pool.clear(&mut q);
            self.rederive_ready_from(src, e);
        }
        // The packet under reassembly goes with the circuit.
        Some(circuit.stats)
    }

    fn teardown_path(&mut self, vc: VcId, circuit: &Circuit) -> u64 {
        // A setup cell still in flight must not resurrect the circuit.
        if let Some(idx) = self.idx_of(vc) {
            self.clear_setup(idx);
        }
        let mut dropped = 0u64;
        for (k, &s) in circuit.switches.iter().enumerate() {
            dropped += self.switches[s.0 as usize].remove_route(vc) as u64;
            self.switches[s.0 as usize].clear_credits(vc);
            if let TrafficClass::Guaranteed { cells_per_frame } = circuit.class {
                let in_port = if k == 0 {
                    self.port_on(circuit.src_link, Node::Switch(s))
                } else {
                    self.port_on(circuit.links[k - 1], Node::Switch(s))
                };
                let out_port = if k + 1 < circuit.switches.len() {
                    self.port_on(circuit.links[k], Node::Switch(s))
                } else {
                    self.port_on(circuit.dst_link, Node::Switch(s))
                };
                for _ in 0..cells_per_frame {
                    if self.switches[s.0 as usize]
                        .schedule_mut()
                        .remove(in_port, out_port)
                        .is_none()
                    {
                        break;
                    }
                }
            }
        }
        // Purge in-flight cells, credits and resync traffic of this circuit.
        self.agenda.retain(|e| match e {
            Event::CellToSwitch { cell, .. } | Event::CellToHost { cell, .. } => {
                if cell.vc() == vc {
                    // Signal cells never entered `sent_cells` or the
                    // `inject_slots` latency queue; counting them as drops
                    // desynced both (the drop count pops one latency entry
                    // per dropped *data* cell).
                    if cell.header.kind != CellKind::Signal {
                        dropped += 1;
                    }
                    false
                } else {
                    true
                }
            }
            Event::CreditToSwitch { vc: cvc, .. }
            | Event::CreditToHost { vc: cvc, .. }
            | Event::ResyncMarker { vc: cvc, .. }
            | Event::ResyncReply { vc: cvc, .. } => *cvc != vc,
        });
        dropped
    }

    /// Moves a circuit onto a new path (§2's rerouting optimization). All
    /// undelivered in-flight cells are dropped — "cells are dropped only
    /// when the path of their virtual circuit goes through a failed link" —
    /// but cells still queued at the source controller survive. A packet
    /// split by the drop is detected and discarded by the destination's
    /// reassembler (higher layers retransmit).
    pub fn reroute_circuit(
        &mut self,
        vc: VcId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let idx = self.idx_of(vc).expect("rerouting unknown circuit");
        let circuit = self.vcs[idx]
            .circuit
            .take()
            .expect("rerouting unknown circuit");
        let dropped = self.teardown_path(vc, &circuit);
        let (src, dst, class) = (circuit.src, circuit.dst, circuit.class);
        let mut stats = circuit.stats;
        stats.dropped_cells += dropped;
        let mut inject_slots = circuit.inject_slots;
        for _ in 0..dropped {
            inject_slots.pop_front();
        }
        // The source outbox entry survives a reroute untouched; the packet
        // the destination was reassembling does not (the reopened circuit
        // starts with none).
        self.open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        let c = self.circuit_mut(vc).expect("just opened");
        c.stats = stats;
        c.inject_slots = inject_slots;
    }

    /// Opens a circuit the way AN2 actually does it (§2): a setup cell is
    /// sent along the chosen path; each line card's software installs the
    /// routing entry as the cell passes; data cells may follow immediately
    /// and are buffered at any switch the setup has not reached yet.
    ///
    /// Credit gates are installed along the whole path up front (the
    /// buffers are reserved by the same software pass; modelling their
    /// staggered installation would only loosen the gate briefly).
    ///
    /// # Panics
    ///
    /// Panics if the vc is already open. Only best-effort circuits use this
    /// path; guaranteed setup goes through bandwidth central first.
    #[allow(clippy::too_many_arguments)] // a path is irreducibly this wide
    pub fn open_circuit_signaled(
        &mut self,
        vc: VcId,
        src: HostId,
        dst: HostId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        assert!(!self.has_circuit(vc), "{vc} already open");
        assert_eq!(links.len() + 1, switches.len(), "malformed path");
        let class = TrafficClass::BestEffort;
        // Credit gates and host state as in open_circuit.
        for &s in &switches[..switches.len().saturating_sub(1)] {
            self.switches[s.0 as usize].set_credits(vc, self.cfg.be_credits);
        }
        let hops = if self.fault.is_some() {
            Self::make_hops(self.cfg.be_credits, switches.len(), &links, src_link)
        } else {
            Vec::new()
        };
        let slot_now = self.slot;
        let idx = self.ensure_vc(vc);
        self.vcs[idx].circuit = Some(Circuit {
            src,
            dst,
            class,
            switches: switches.clone(),
            links: links.clone(),
            src_link,
            dst_link,
            inject_slots: VecDeque::new(),
            stats: VcStats::default(),
            last_activity: slot_now,
            paged_out: false,
            host_credits: Some(self.cfg.be_credits),
            gt_tokens: None,
            hops,
            partial: PartialPacket::new(),
        });
        let plan = SetupPlan {
            class,
            switches,
            links,
            dst_link,
        };
        if self.vcs[idx].setup.replace(plan).is_none() {
            self.setups_in_flight += 1;
        }
        // The setup cell leads the circuit's cell stream from the host.
        let setup = SignalMsg::Setup {
            circuit: vc,
            src_host: src.0 as u32,
            dst_host: dst.0 as u32,
            class,
        };
        self.push_outbox(src, vc, [setup.to_cell(vc)]);
    }

    /// Appends cells to a host's per-circuit outbox queue: one entry
    /// look-up and one ready-bit refresh however many cells.
    fn push_outbox(&mut self, host: HostId, vc: VcId, cells: impl IntoIterator<Item = Cell>) {
        let h = host.0 as usize;
        let e = match self.hosts[h].outbox_entry(vc.raw()) {
            Ok(e) => e,
            Err(pos) => {
                self.hosts[h]
                    .outbox
                    .insert(pos, (vc.raw(), CellQueue::new()));
                self.rederive_ready_from(h, pos);
                pos
            }
        };
        for cell in cells {
            self.pool
                .push_back(&mut self.hosts[h].outbox[e].1, cell, 0, 0);
        }
        self.refresh_ready(h, e);
    }

    /// The readiness predicate, the only place that decides whether a host
    /// may inject from outbox entry `e` now: the circuit is open, its
    /// credit/token gate is open, and a cell is queued. Everything else
    /// reads the answer off the host's ready set, which is kept equal to
    /// this by [`Fabric::refresh_ready`] at every site that changes one of
    /// the three inputs (and checked against it on every injection in debug
    /// builds).
    fn entry_ready(&self, h: usize, e: usize) -> bool {
        let (raw, queue) = &self.hosts[h].outbox[e];
        !queue.is_empty()
            && self
                .circuit(VcId::new(*raw))
                .is_some_and(Circuit::gate_open)
    }

    /// Re-derives the ready bit of entry `e` at host `h`.
    fn refresh_ready(&mut self, h: usize, e: usize) {
        let on = self.entry_ready(h, e);
        self.hosts[h].set_ready(e, on);
    }

    /// Re-derives the ready bit of `vc`'s outbox entry at its source host,
    /// if the circuit is open and has one.
    fn refresh_ready_of(&mut self, vc: VcId) {
        let Some(c) = self.circuit(vc) else { return };
        let h = c.src.0 as usize;
        if let Ok(e) = self.hosts[h].outbox_entry(vc.raw()) {
            self.refresh_ready(h, e);
        }
    }

    /// Re-derives the ready bits of host `h` from entry `from` up, after an
    /// insertion or removal at `from` shifted those entries' positions
    /// (entries below `from` kept theirs).
    fn rederive_ready_from(&mut self, h: usize, from: usize) {
        self.hosts[h].fit_ready_to_outbox();
        for e in from..self.hosts[h].outbox.len() {
            self.refresh_ready(h, e);
        }
    }

    /// Forgets a pending set-up plan: the cell arrived, or the circuit is
    /// being torn down under it.
    fn clear_setup(&mut self, idx: usize) {
        if self.vcs[idx].setup.take().is_some() {
            self.setups_in_flight -= 1;
        }
    }

    /// Whether a signaled circuit's setup cell has reached the destination
    /// (instantly true for circuits opened with [`Fabric::open_circuit`]).
    pub fn is_established(&self, vc: VcId) -> bool {
        self.idx_of(vc).is_some_and(|i| {
            let e = &self.vcs[i];
            e.circuit.is_some() && e.setup.is_none()
        })
    }

    /// Line-card software: handles a signaling cell arriving at a switch.
    /// Installs the routing entry and forwards the setup onward after the
    /// processing delay.
    fn handle_signal_at_switch(&mut self, at: SwitchId, cell: Cell) {
        let vc = cell.vc();
        let Some(plan) = self.idx_of(vc).and_then(|i| self.vcs[i].setup.clone()) else {
            return; // stale or unknown signal: the line card drops it
        };
        let Some(k) = plan.switches.iter().position(|&s| s == at) else {
            return;
        };
        // The link the setup must travel next. If it died while the setup
        // was in flight, the line card drops the setup rather than launching
        // it onto a dead wire (the circuit never establishes; the `Network`
        // repair path reroutes it). Launching anyway was a bug: the cell
        // was pushed after the failure purge and so resurrected downstream
        // state on a link the fabric had already declared dead.
        let fwd_link = if k + 1 < plan.switches.len() {
            plan.links[k]
        } else {
            plan.dst_link
        };
        if self.topo.link_state(fwd_link) != LinkState::Working {
            return;
        }
        let out_port = self.port_on(fwd_link, Node::Switch(at));
        self.switches[at.0 as usize]
            .install_route(vc, out_port, plan.class)
            .expect("signaled path was validated at open");
        // Forward the setup cell out the chosen port, bypassing the data
        // queues (signaling has its own circuit, §2).
        let depart = self.slot + self.cfg.signal_processing_slots;
        let latency = self.cfg.link_latency_slots;
        if k + 1 < plan.switches.len() {
            let next = plan.switches[k + 1];
            let link = plan.links[k];
            let input = self.port_on(link, Node::Switch(next));
            let mut cell = cell;
            let (arrives, _, due) =
                self.wire_cross(link, Node::Switch(next), &mut cell, depart + latency);
            if arrives {
                self.agenda.push(
                    due,
                    Event::CellToSwitch {
                        switch: next,
                        input,
                        cell,
                        link,
                        trace: 0,
                    },
                );
            }
        } else {
            let link = plan.dst_link;
            let host = self.circuit(vc).expect("signaled circuit exists").dst;
            let mut cell = cell;
            let (arrives, _, due) =
                self.wire_cross(link, Node::Host(host), &mut cell, depart + latency);
            if arrives {
                self.agenda.push(
                    due,
                    Event::CellToHost {
                        host,
                        cell,
                        link,
                        trace: 0,
                    },
                );
            }
        }
        // The host consumed one credit to inject the setup cell; the first
        // line card frees that buffer once the cell is processed. No data
        // cell was forwarded, so the shadow receiver has nothing to pop.
        if k == 0 {
            self.return_credit(at, vc, false);
        }
    }

    /// Whether a best-effort circuit is idle enough to page out: nothing
    /// queued at the source, nothing in flight, and no activity for
    /// `idle_slots`.
    pub fn is_idle(&self, vc: VcId, idle_slots: u64) -> bool {
        let Some(c) = self.circuit(vc) else {
            return false;
        };
        c.inject_slots.is_empty()
            && self.outbox_len(vc) == 0
            && self.slot.saturating_sub(c.last_activity) >= idle_slots
    }

    /// Whether the circuit is currently paged out.
    pub fn is_paged_out(&self, vc: VcId) -> bool {
        self.circuit(vc).is_some_and(|c| c.paged_out)
    }

    /// Pages an idle best-effort circuit out (§2): releases its routing
    /// entries, schedule slots and buffers while keeping the circuit's
    /// identity and statistics. Returns `false` (and does nothing) if the
    /// circuit is unknown, already paged out, or not idle.
    pub fn page_out_circuit(&mut self, vc: VcId) -> bool {
        if !self.is_idle(vc, 0) || self.is_paged_out(vc) {
            return false;
        }
        let idx = self.idx_of(vc).expect("checked above");
        let mut circuit = self.vcs[idx].circuit.take().expect("checked above");
        let dropped = self.teardown_path(vc, &circuit);
        debug_assert_eq!(dropped, 0, "idle circuit had in-flight cells");
        circuit.host_credits = None;
        circuit.gt_tokens = None;
        circuit.hops.clear();
        circuit.paged_out = true;
        circuit.stats.pages_out += 1;
        self.vcs[idx].circuit = Some(circuit);
        self.refresh_ready_of(vc);
        true
    }

    /// Pages a circuit back in on a (possibly new) path — "if further cells
    /// for the circuit subsequently arrived, it could be paged in by
    /// generating a setup cell to recreate the circuit" (§2).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not paged out.
    pub fn page_in_circuit(
        &mut self,
        vc: VcId,
        switches: Vec<SwitchId>,
        links: Vec<LinkId>,
        src_link: LinkId,
        dst_link: LinkId,
    ) {
        let idx = self.idx_of(vc).expect("paging in unknown circuit");
        let circuit = self.vcs[idx]
            .circuit
            .take()
            .expect("paging in unknown circuit");
        assert!(circuit.paged_out, "{vc} is not paged out");
        let (src, dst, class) = (circuit.src, circuit.dst, circuit.class);
        let mut stats = circuit.stats;
        stats.pages_in += 1;
        self.open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        let c = self.circuit_mut(vc).expect("just opened");
        c.stats = stats;
        // Paging loses no cell, so a packet half-received stays half-received.
        c.partial = circuit.partial;
    }

    /// Queues cells at the source controller for injection.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn send_cells(&mut self, vc: VcId, cells: impl IntoIterator<Item = Cell>) {
        let src = self.circuit(vc).expect("unknown circuit").src;
        self.push_outbox(src, vc, cells);
    }

    /// Cells still waiting at the source controller.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit; [`Fabric::try_outbox_len`] does not.
    pub fn outbox_len(&self, vc: VcId) -> usize {
        self.try_outbox_len(vc).expect("unknown circuit")
    }

    /// Cells still waiting at the source controller, or `None` for a
    /// circuit that was never opened or is already closed.
    pub fn try_outbox_len(&self, vc: VcId) -> Option<usize> {
        let src = self.circuit(vc)?.src;
        let h = &self.hosts[src.0 as usize];
        Some(
            h.outbox_entry(vc.raw())
                .map(|e| h.outbox[e].1.len())
                .unwrap_or(0),
        )
    }

    /// Takes all packets delivered to a host since the last call.
    pub fn take_received(&mut self, host: HostId) -> Vec<(VcId, Packet)> {
        std::mem::take(&mut self.hosts[host.0 as usize].received)
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
        let mut dropped_by_vc: Vec<VcId> = Vec::new();
        self.agenda.retain(|e| {
            let (l, lost_cell_vc) = match e {
                Event::CellToSwitch { link, cell, .. } | Event::CellToHost { link, cell, .. } => {
                    // Signal cells never entered `sent_cells` or the
                    // latency queue; they vanish without the per-circuit
                    // drop accounting data cells need.
                    let data_vc = (cell.header.kind != CellKind::Signal).then(|| cell.vc());
                    (*link, data_vc)
                }
                Event::CreditToSwitch { link, .. }
                | Event::CreditToHost { link, .. }
                | Event::ResyncMarker { link, .. }
                | Event::ResyncReply { link, .. } => (*link, None),
            };
            if l == link {
                if let Some(vc) = lost_cell_vc {
                    dropped_by_vc.push(vc);
                }
                false
            } else {
                true
            }
        });
        for vc in dropped_by_vc {
            if let Some(c) = self.circuit_mut(vc) {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
        }
        self.purge_ctrl_on(link);
    }

    /// Destroys control messages in flight on `link` (verdict or flap).
    fn purge_ctrl_on(&mut self, link: LinkId) {
        if self.ctrl_inflight.is_empty() {
            return;
        }
        let before = self.ctrl_inflight.len();
        self.ctrl_inflight.retain(|c| c.link != link);
        self.ctrl_counters.messages_lost += (before - self.ctrl_inflight.len()) as u64;
    }

    /// Best-effort circuit count per inter-switch link — the load measure
    /// used by the §2 load-balancing reroute extension.
    pub fn link_circuit_counts(&self) -> Vec<(LinkId, usize)> {
        let mut counts: Vec<(LinkId, usize)> = self
            .topo
            .links()
            .filter(|&l| {
                let (a, b) = self.topo.endpoints(l);
                matches!((a.node, b.node), (Node::Switch(_), Node::Switch(_)))
                    && self.topo.link_state(l) == LinkState::Working
            })
            .map(|l| (l, 0))
            .collect();
        for c in self.vcs.iter().filter_map(|e| e.circuit.as_ref()) {
            if c.paged_out || !matches!(c.class, TrafficClass::BestEffort) {
                continue;
            }
            for &l in &c.links {
                if let Some(entry) = counts.iter_mut().find(|(k, _)| *k == l) {
                    entry.1 += 1;
                }
            }
        }
        counts
    }

    /// The circuits whose current path uses a given link (including host
    /// attachment links) — the set needing reroute after a failure.
    pub fn circuits_using(&self, link: LinkId) -> Vec<VcId> {
        let mut out: Vec<VcId> = self
            .vcs
            .iter()
            .filter_map(|e| e.circuit.as_ref().map(|c| (e.vc, c)))
            .filter(|(_, c)| c.links.contains(&link) || c.src_link == link || c.dst_link == link)
            .map(|(vc, _)| vc)
            .collect();
        out.sort_unstable();
        out
    }

    /// Advances the fabric by `slots` cell slots, fast-forwarding through
    /// provably quiet stretches: when no cell, credit or control message is
    /// queued or in flight anywhere, the only per-slot work is clock
    /// bookkeeping, so the fabric jumps straight to the next scheduled
    /// event (clamped to the next guaranteed-token frame boundary, which
    /// must still execute). This is the data-plane twin of the fault-mode
    /// deadline batching in `Network::step`.
    ///
    /// With shards configured ([`Fabric::set_shards`]) the call starts its
    /// worker threads once, here, and keeps them until it returns.
    pub fn step(&mut self, slots: u64) {
        let end = self.slot + slots;
        // Everything that needs the lead's state in the middle of a slot
        // keeps the switches with the lead. None of these can change while
        // the call runs: attaching is an outside call, and set-ups only
        // complete.
        let lead_only =
            self.fault.is_some() || self.setups_in_flight != 0 || self.cfg.link_latency_slots == 0;
        if self.crew_threads > 1 && !lead_only && slots > 0 {
            self.step_with_crew(end);
        } else {
            self.run_slots(end, None);
        }
        // What the fabric records between `step` calls (control sends,
        // forced resyncs) happens at the slot about to run, the instant
        // the network layer's own records carry.
        if let Some(t) = &mut self.trace {
            t.lane.set_slot(self.slot);
        }
    }

    /// The slot loop every shard count shares: fast-forward when the whole
    /// fabric is quiet, otherwise step one slot.
    fn run_slots(&mut self, end: u64, mut crew: Option<&mut Crew<'_, '_>>) {
        while self.slot < end {
            let t0 = self.profile.is_some().then(std::time::Instant::now);
            let target = match &crew {
                None => self.quiet_until(end, Self::switches_quiet_bound),
                Some(c) => self.quiet_until(end, |_| c.quiet_bound),
            }
            .filter(|&t| t > self.slot);
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
        }
    }

    /// Runs the slot loop with the shard lanes dealt to a crew of
    /// `crew_threads` threads (this one included) for the whole call. The
    /// switches leave `self` for the duration: the lead's slot code cannot
    /// touch one by accident, and each worker holds plain `&mut` borrows.
    fn step_with_crew(&mut self, end: u64) {
        let quiet_bound = self.switches_quiet_bound();
        let mut switches = std::mem::take(&mut self.switches);
        let mut rngs = std::mem::take(&mut self.switch_rngs);
        let threads = self.crew_threads;
        let batching = self.batching;
        // Deal every run's switches to its lane, then lane `l` to thread
        // `l % threads`; thread 0 is this one.
        let mut lane_chunks: Vec<Vec<Chunk<'_>>> = self.lanes.iter().map(|_| Vec::new()).collect();
        let (mut sw_rest, mut rng_rest) = (&mut switches[..], &mut rngs[..]);
        for run in &self.layout.runs {
            let (sw, rest) = std::mem::take(&mut sw_rest).split_at_mut(run.len as usize);
            sw_rest = rest;
            let (rg, rest) = std::mem::take(&mut rng_rest).split_at_mut(run.len as usize);
            rng_rest = rest;
            lane_chunks[run.lane as usize].push(Chunk {
                base: run.base,
                switches: sw,
                rngs: rg,
            });
        }
        let mut hands: Vec<Vec<(usize, Vec<Chunk<'_>>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (lane, chunks) in lane_chunks.into_iter().enumerate() {
            hands[lane % threads].push((lane, chunks));
        }
        let mut own = hands.remove(0);
        // Lanes cross to their worker and back through these cells; the
        // hand-off's release and join say whose turn it is, the mutex makes
        // the exchange safe code.
        let cells: Vec<Mutex<Lane>> = self.lanes.iter().map(|_| Mutex::default()).collect();
        let workers: Vec<_> = hands
            .into_iter()
            .map(|mut mine| {
                let cells = &cells;
                move |cmd| match cmd {
                    Cmd::Step(slot) => {
                        for (lane, chunks) in &mut mine {
                            cells[*lane]
                                .lock()
                                .expect("a lane cell is poisoned only after a crew thread panicked")
                                .work(chunks, slot, batching);
                        }
                    }
                    Cmd::SkipTo(target) => advance_chunks(&mut mine, target),
                }
            })
            .collect();
        shard::run_crew(workers, |lead| {
            let mut crew = Crew {
                lead,
                cells: &cells,
                own: &mut own,
                threads,
                quiet_bound,
            };
            self.run_slots(end, Some(&mut crew));
        });
        self.switches = switches;
        self.switch_rngs = rngs;
    }

    /// If the fabric is provably quiet at the current slot, the furthest
    /// slot (≤ `end`) it may fast-forward to; `None` when anything at all
    /// is pending. Checks are ordered cheapest-first so busy slots pay two
    /// flag tests and one arena counter read; `switch_bound` — the earliest
    /// slot at which some switch needs stepping — is asked last.
    ///
    /// With batching on, a backlogged switch no longer blocks the jump: its
    /// next-event watermark bounds how far the fabric may skip, and the
    /// fabric jumps to the earliest watermark / agenda deadline. With
    /// batching off, any backlog anywhere pins the fabric to slot-by-slot
    /// stepping, as before PR 7.
    fn quiet_until(&self, end: u64, switch_bound: impl FnOnce(&Self) -> u64) -> Option<u64> {
        if self.fault.is_some() || !self.ctrl_inflight.is_empty() {
            return None; // fault layer draws randomness every slot
        }
        if self.pool.live() != 0 {
            return None; // some host outbox still holds cells
        }
        let wake = match self.agenda.next_due() {
            Some(due) if due <= self.slot => return None, // stranded or imminent
            Some(due) => due,
            None => u64::MAX,
        };
        let bound = switch_bound(self);
        if bound <= self.slot {
            return None;
        }
        // Token buckets refill in the slot before each frame boundary;
        // that slot must run normally, so never skip past it.
        let frame = self.cfg.switch.frame_slots as u64;
        let refill = self.slot + (frame - 1 - self.slot % frame);
        Some(wake.min(bound).min(end).min(refill))
    }

    /// The earliest slot at which some switch needs stepping (`u64::MAX` =
    /// none scheduled), read off the switches themselves; gives up at the
    /// first switch that is due now. The crew keeps the same bound per lane
    /// ([`Lane::quiet_bound`]) because it cannot see the switches.
    fn switches_quiet_bound(&self) -> u64 {
        let mut bound = u64::MAX;
        if self.batching {
            for s in &self.switches {
                bound = bound.min(s.next_event_slot());
                if bound <= self.slot {
                    break;
                }
            }
        } else if self.switches.iter().any(|s| s.total_backlog() != 0) {
            bound = 0;
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
        let n = target - self.slot;
        match crew {
            None => {
                for sw in &mut self.switches {
                    sw.advance_to(target);
                }
            }
            Some(crew) => crew
                .lead
                .round(Cmd::SkipTo(target), || advance_chunks(crew.own, target)),
        }
        for h in &mut self.hosts {
            let len = h.outbox.len();
            if len > 0 {
                h.rotor = (h.rotor + (n as usize % len)) % len;
            }
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
        if self.fault.is_some() {
            self.fault_begin_slot();
        }
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
                    if self.switch_is_crashed(switch) {
                        self.account_cell_eaten_by_crash(&cell);
                        continue;
                    }
                    if cell.header.kind == CellKind::Signal {
                        // Under a crew no set-up plan is pending, so this
                        // is a stale signal and dropped before it touches
                        // a switch.
                        self.handle_signal_at_switch(switch, cell);
                    } else {
                        if self.fault.is_some() {
                            self.shadow_on_cell(switch, cell.vc());
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
                }
                Event::CellToHost {
                    host, cell, trace, ..
                } => {
                    if cell.header.kind == CellKind::Signal {
                        // Setup complete: the destination controller
                        // acknowledges by accepting the circuit.
                        if let Some(idx) = self.idx_of(cell.vc()) {
                            self.clear_setup(idx);
                        }
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
                    if self.fault.is_some() {
                        self.apply_credit_to_switch(switch, vc, link, epoch);
                    } else if crew.is_some() {
                        let home = self.layout.home[switch.0 as usize];
                        self.lanes[home.lane as usize]
                            .inbox
                            .push(Delivery::Credit { home, vc });
                    } else {
                        self.switches[switch.0 as usize].try_add_credit(vc);
                    }
                }
                Event::CreditToHost { vc, link, epoch } => {
                    if self.fault.is_some() {
                        self.apply_credit_to_host(vc, link, epoch);
                    } else if let Some(c) =
                        self.circuit_mut(vc).and_then(|c| c.host_credits.as_mut())
                    {
                        *c += 1;
                        if *c == 1 {
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
        // arrival buffer for the Network layer's pump. A message addressed
        // to a crashed line card dies at the port, like any cell.
        if !self.ctrl_inflight.is_empty() {
            let slot = self.slot;
            let mut i = 0;
            while i < self.ctrl_inflight.len() {
                if self.ctrl_inflight[i].due <= slot {
                    let m = self.ctrl_inflight.remove(i);
                    if self.switch_is_crashed(m.to) {
                        self.ctrl_counters.messages_lost += 1;
                    } else {
                        if let Some(t) = &mut self.trace {
                            t.lane.emit(TraceEvent::CtrlRx {
                                switch: m.to.0,
                                link: m.link.0,
                            });
                            t.count("ctrl.messages_received", Entity::Switch(m.to.0), 1);
                        }
                        self.ctrl_arrivals.push((m.to, m.link, m.msg));
                    }
                } else {
                    i += 1;
                }
            }
        }
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
        let frame = self.cfg.switch.frame_slots as u64;
        if (self.slot + 1).is_multiple_of(frame) {
            for i in 0..self.vcs.len() {
                let Some(c) = self.vcs[i].circuit.as_mut() else {
                    continue;
                };
                if c.gt_tokens.is_some() {
                    let k = match c.class {
                        TrafficClass::Guaranteed { cells_per_frame } => cells_per_frame as u32,
                        TrafficClass::BestEffort => 0,
                    };
                    c.gt_tokens = Some(k);
                    self.refresh_ready_of(self.vcs[i].vc);
                }
            }
        }
        // 5. Invariant checkers (soak mode): every gate, shadow and buffer
        // is settled now, before the slot counter advances.
        if self.fault.as_ref().is_some_and(|f| f.check_invariants) {
            self.check_invariants_slot();
        }
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
    /// shard count, batching mode or `step` chunking.
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
    /// agenda); with one it hands the other threads' lanes over, releases
    /// the crew, works its own lanes, and takes the lanes back at the join.
    fn step_switches(&mut self, crew: Option<&mut Crew<'_, '_>>) {
        let (slot, batching) = (self.slot, self.batching);
        let Some(crew) = crew else {
            for lane in &mut self.lanes {
                lane.begin();
            }
            for run in &self.layout.runs {
                let span = run.base as usize..(run.base + run.len) as usize;
                self.lanes[run.lane as usize].step_chunk(
                    run.base,
                    &mut self.switches[span.clone()],
                    &mut self.switch_rngs[span],
                    slot,
                    batching,
                );
            }
            return;
        };
        crew.exchange_lanes(&mut self.lanes);
        let lanes = &mut self.lanes;
        crew.lead.round(Cmd::Step(slot), || {
            for (lane, chunks) in crew.own.iter_mut() {
                lanes[*lane].work(chunks, slot, batching);
            }
        });
        crew.exchange_lanes(&mut self.lanes);
        crew.quiet_bound = self
            .lanes
            .iter()
            .map(|l| l.quiet_bound)
            .min()
            .expect("at least one lane");
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

    /// Every host controller sends at most one cell (the link rate), taken
    /// round-robin from its ready circuits for fairness on the shared host
    /// link: the first ready outbox entry at or after the rotor, which then
    /// moves one past the pick — or one past where it stood when nothing is
    /// ready, the step an idle slot's fruitless look costs.
    fn inject_from_hosts(&mut self) {
        if self.pool.live() == 0 {
            // Every outbox queue is empty (the pool holds exactly the
            // buffered host cells), so no entry is ready: make each host's
            // nothing-ready rotor step without reading its ready set. A
            // fault-mode fabric steps every slot of a mostly idle run, so
            // an idle slot's cost shows (a tenth of chaos-schedule time).
            for h in &mut self.hosts {
                let len = h.outbox.len();
                if len > 0 {
                    h.rotor = (h.rotor % len + 1) % len;
                }
            }
            return;
        }
        for h in 0..self.hosts.len() {
            let host = &self.hosts[h];
            let n = host.outbox.len();
            if n == 0 {
                continue;
            }
            let start = host.rotor % n;
            let pick = host.next_ready(start);
            debug_assert_eq!(
                pick,
                (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&e| self.entry_ready(h, e)),
                "host {h}: ready set disagrees with a walk of the readiness predicate"
            );
            self.hosts[h].rotor = (pick.unwrap_or(start) + 1) % n;
            if let Some(e) = pick {
                self.inject_entry(h, e);
            }
        }
    }

    /// Sends the head cell of host `h`'s ready outbox entry `e` onto the
    /// circuit's source link and spends the credit or token that let it go.
    fn inject_entry(&mut self, h: usize, e: usize) {
        let vc = VcId::new(self.hosts[h].outbox[e].0);
        let idx = self.idx_of(vc).expect("a ready entry's circuit is open");
        let circuit = self.vcs[idx]
            .circuit
            .as_ref()
            .expect("a ready entry's circuit is open");
        let first = circuit.switches[0];
        let link = circuit.src_link;
        let (mut cell, _, _) = self
            .pool
            .pop_front(&mut self.hosts[h].outbox[e].1)
            .expect("a ready entry's queue is non-empty");
        let is_signal = cell.header.kind == CellKind::Signal;
        let input = self.port_on(link, Node::Switch(first));
        let due = self.slot + self.cfg.link_latency_slots;
        let (arrives, corrupted, due) = self.wire_cross(link, Node::Switch(first), &mut cell, due);
        // Sampling happens after the wire's fate is drawn: the
        // tracer's counter is deterministic and independent of the
        // simulation RNG, so tracing never perturbs the run.
        let mut trace = 0;
        if let Some(t) = &mut self.trace {
            if !is_signal {
                trace = t.lane.sample_cell();
                t.lane.emit(TraceEvent::CellInject {
                    vc: cell.vc().raw(),
                    host: h as u16,
                    trace_id: trace,
                });
                t.lane.add(t.cells_injected[h], 1);
                if trace != 0 && arrives {
                    t.lane.emit(TraceEvent::CellHop {
                        trace_id: trace,
                        vc: cell.vc().raw(),
                        hop: Hop::Wire { link: link.0 },
                    });
                }
            }
        }
        if arrives {
            self.agenda.push(
                due,
                Event::CellToSwitch {
                    switch: first,
                    input,
                    cell,
                    link,
                    trace,
                },
            );
        }
        let slot_now = self.slot;
        let c = self.vcs[idx]
            .circuit
            .as_mut()
            .expect("a ready entry's circuit is open");
        match c.class {
            TrafficClass::BestEffort => {
                let hc = c.host_credits.as_mut().expect("gated best-effort");
                *hc -= 1;
                if let Some(t) = &mut self.trace {
                    t.lane.emit(TraceEvent::CreditConsume {
                        vc: vc.raw(),
                        balance: *hc,
                    });
                }
            }
            TrafficClass::Guaranteed { .. } => {
                *c.gt_tokens.as_mut().expect("token bucket exists") -= 1;
            }
        }
        // Mirror the spend into the hop-0 shadow sender (fault mode).
        if let Some(h0) = c.hops.first_mut() {
            if !h0.sender.try_send() {
                self.fault
                    .as_mut()
                    .expect("hops exist only in fault mode")
                    .counters
                    .invariant_violations += 1;
            }
        }
        if !is_signal {
            c.stats.sent_cells += 1;
            if corrupted {
                c.stats.corrupted_cells += 1;
            }
            if arrives {
                c.inject_slots.push_back(slot_now);
            } else {
                c.stats.lost_cells += 1;
            }
        }
        c.last_activity = slot_now;
        // The pop may have emptied the queue, the spend closed the gate.
        self.refresh_ready(h, e);
    }

    fn propagate(
        &mut self,
        from: SwitchId,
        output: usize,
        mut cell: Cell,
        trace: u32,
        enqueued_slot: u64,
    ) {
        let vc = cell.vc();
        let latency = self.cfg.link_latency_slots;
        if self.fault.is_some() {
            // The hardware gate at `from` already spent a credit inside
            // `step_into`; mirror it into the next hop's shadow sender
            // before anything can destroy the cell.
            self.shadow_try_send_from(from, vc);
        }
        self.trace_hop(
            trace,
            vc,
            Hop::SwitchOut {
                switch: from.0,
                queued_slots: self.slot - enqueued_slot,
            },
        );
        let Some(attachment) = self.port_map[from.0 as usize * self.port_stride + output] else {
            // The outbound link died after the cell was scheduled: lost.
            // The shadow receiver still forwards (the hardware freed the
            // buffer); the credit itself is not returned on a dead link —
            // resync recovers it.
            if self.fault.is_some() {
                self.shadow_forward_discard(from, vc);
            }
            if let Some(t) = &mut self.trace {
                t.cells_dropped(vc, DropReason::DeadLink, 1);
            }
            if let Some(c) = self.circuit_mut(vc) {
                c.stats.dropped_cells += 1;
                c.inject_slots.pop_front();
            }
            return;
        };
        // §5: forwarding this cell freed a buffer in `from`; return a credit
        // to the upstream hop (only best-effort circuits are gated).
        self.return_credit(from, vc, true);
        match attachment {
            Attachment::ToSwitch {
                switch,
                input,
                link,
            } => {
                let (arrives, corrupted, due) =
                    self.wire_cross(link, Node::Switch(switch), &mut cell, self.slot + latency);
                if !self.account_mid_path(vc, arrives, corrupted) {
                    return;
                }
                self.trace_hop(trace, vc, Hop::Wire { link: link.0 });
                self.agenda.push(
                    due,
                    Event::CellToSwitch {
                        switch,
                        input,
                        cell,
                        link,
                        trace,
                    },
                );
            }
            Attachment::ToHost { host, link } => {
                let (arrives, corrupted, due) =
                    self.wire_cross(link, Node::Host(host), &mut cell, self.slot + latency);
                if !self.account_mid_path(vc, arrives, corrupted) {
                    return;
                }
                self.trace_hop(trace, vc, Hop::Wire { link: link.0 });
                self.agenda.push(
                    due,
                    Event::CellToHost {
                        host,
                        cell,
                        link,
                        trace,
                    },
                );
            }
        }
    }

    /// Records one hop of a sampled cell's journey (ids are nonzero only
    /// with a tracer attached).
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

    /// Per-circuit stats for a mid-path wire crossing; returns whether the
    /// cell survived to be scheduled.
    fn account_mid_path(&mut self, vc: VcId, arrives: bool, corrupted: bool) -> bool {
        if corrupted || !arrives {
            if let Some(c) = self.circuit_mut(vc) {
                if corrupted {
                    c.stats.corrupted_cells += 1;
                }
                if !arrives {
                    c.stats.lost_cells += 1;
                    c.inject_slots.pop_front();
                }
            }
        }
        arrives
    }

    /// Returns a credit for one buffer freed at `forwarder` to the upstream
    /// hop. `forwarded_data` is true when a data cell left the switch's
    /// queues (the shadow receiver must pop the matching cell); false for
    /// the signal-processing path, where the line card frees the setup
    /// cell's buffer without a data forward.
    fn return_credit(&mut self, forwarder: SwitchId, vc: VcId, forwarded_data: bool) {
        let Some(ci) = self.idx_of(vc) else { return };
        let (pos, link, upstream) = {
            let Some(c) = self.vcs[ci].circuit.as_ref() else {
                return;
            };
            if !matches!(c.class, TrafficClass::BestEffort) {
                return;
            }
            let Some(pos) = c.switches.iter().position(|&s| s == forwarder) else {
                return;
            };
            if pos == 0 {
                (pos, c.src_link, None)
            } else {
                (pos, c.links[pos - 1], Some(c.switches[pos - 1]))
            }
        };
        let mut epoch = 0;
        if self.fault.is_some() {
            let mut violation = false;
            if let Some(h) = self.vcs[ci]
                .circuit
                .as_mut()
                .and_then(|c| c.hops.get_mut(pos))
            {
                epoch = if forwarded_data {
                    match h.receiver.forward() {
                        Some(e) => e,
                        None => {
                            // The hardware forwarded a cell the shadow
                            // never saw: the mirrors have diverged.
                            violation = true;
                            h.receiver.credit_epoch()
                        }
                    }
                } else {
                    h.receiver.credit_epoch()
                };
            }
            if let Some(fault) = self.fault.as_mut() {
                if violation {
                    fault.counters.invariant_violations += 1;
                }
                // Credits are control traffic: the upstream wire may eat
                // them.
                if !fault.injector.transmit_ctrl(link) {
                    fault.counters.credits_lost += 1;
                    return;
                }
            }
        }
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

    // ------------------------------------------------------------------
    // Fault layer (§2 failures + §5 credit resynchronization).
    // ------------------------------------------------------------------

    /// Attaches a deterministic fault layer built from `(spec, seed)`.
    /// Replaying the same pair over the same workload is byte-identical.
    ///
    /// Call before traffic flows: existing best-effort circuits get fresh
    /// shadow gates at full credit, which is only accurate while their
    /// hardware gates are still full.
    pub fn attach_faults(&mut self, spec: &FaultSpec, seed: u64) {
        let mut injector =
            FaultInjector::new(spec, seed, self.topo.link_count(), self.topo.switch_count());
        // A tracer attached before the fault layer still sees fault draws.
        if let Some(t) = &self.trace {
            injector.attach_tracer(t.tracer.clone());
        }
        self.fault = Some(Box::new(FaultLayer {
            injector,
            resync_interval: spec.resync_interval_slots,
            check_invariants: spec.check_invariants,
            counters: FaultCounters::default(),
        }));
        let cap = self.cfg.be_credits;
        for entry in &mut self.vcs {
            if let Some(c) = entry.circuit.as_mut() {
                if matches!(c.class, TrafficClass::BestEffort) && !c.paged_out && c.hops.is_empty()
                {
                    c.hops = Self::make_hops(cap, c.switches.len(), &c.links, c.src_link);
                }
            }
        }
    }

    /// The fault layer's counters, if one is attached.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault.as_ref().map(|f| f.counters)
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
            fault.injector.attach_tracer(tracer.clone());
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

    /// One monitor ping over `link` (§2): true when neither endpoint line
    /// card is crashed and both the request and the ack survive the wire.
    /// Pings probe *physical* health — the topology's working/dead state is
    /// the monitor's output, not its input, so a link voted dead keeps
    /// answering pings once its fault clears and can earn its way back.
    pub fn ping_link(&mut self, link: LinkId) -> bool {
        let ok = self.ping_link_inner(link);
        if let Some(t) = &mut self.trace {
            let name = if ok {
                "monitor.ping_ok"
            } else {
                "monitor.ping_failed"
            };
            t.count(name, Entity::Link(link.0), 1);
            self.flush_trace();
        }
        ok
    }

    fn ping_link_inner(&mut self, link: LinkId) -> bool {
        let (a, b) = self.topo.endpoints(link);
        let Some(fault) = self.fault.as_mut() else {
            return true;
        };
        for end in [a, b] {
            if let Node::Switch(s) = end.node {
                if fault.injector.crashed(s) {
                    return false;
                }
            }
        }
        fault.injector.ping(link)
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

    /// Restores statistics onto a circuit (used by the `Network` layer when
    /// re-opening a circuit that survived a failure administratively).
    pub(crate) fn restore_stats(&mut self, vc: VcId, stats: VcStats) {
        if let Some(c) = self.circuit_mut(vc) {
            c.stats = stats;
        }
    }

    /// In-flight events (cells, credits, markers, replies) on `link`.
    pub fn inflight_on_link(&self, link: LinkId) -> usize {
        self.agenda.count_matching(|e| e.link() == link)
    }

    /// The cell count a protocol message segments into: AN2 signalling
    /// units ride 53-byte cells with 48-byte payloads, so a message of
    /// `b` wire bytes (`ProtocolMsg::wire_bytes`, e.g. `14 + 4(e+p)` for
    /// a topology report listing `e` edges and `p` tree arcs) needs
    /// `⌈b / 48⌉` cells while the fixed-size messages fit in one.
    fn ctrl_cells_for(msg: &CtrlMsg) -> u32 {
        msg.wire_bytes().div_ceil(an2_cells::PAYLOAD_BYTES).max(1) as u32
    }

    /// Puts a reconfiguration protocol message on the wire from `from`
    /// toward `to` over `link`. The message segments into control cells
    /// (`ctrl_cells_for`); the sender's output port is claimed
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
        self.ctrl_counters.messages_sent += 1;
        let cells = Self::ctrl_cells_for(&msg);
        self.ctrl_counters.cells_sent += cells as u64;
        if let Some(t) = &mut self.trace {
            t.lane.emit(TraceEvent::CtrlTx {
                switch: from.0,
                link: link.0,
                cells,
            });
            t.count("ctrl.cells_sent", Entity::Switch(from.0), cells as u64);
            self.flush_trace();
        }
        if self.topo.link_state(link) != LinkState::Working {
            self.ctrl_counters.messages_lost += 1;
            return false;
        }
        let output = self.port_on(link, Node::Switch(from));
        self.switches[from.0 as usize].reserve_output(output, self.slot + cells as u64);
        if let Some(fault) = self.fault.as_mut() {
            if !fault.injector.transmit_ctrl_burst(link, cells) {
                self.ctrl_counters.messages_lost += 1;
                return false;
            }
        }
        let due = self.slot + self.cfg.link_latency_slots + cells as u64 + extra_delay_slots;
        self.ctrl_inflight.push(CtrlInFlight { due, to, link, msg });
        true
    }

    /// The earliest slot a control message in flight is due, if any — the
    /// batching bound for [`crate::Network::step`]'s chunked stepping.
    pub fn next_ctrl_due(&self) -> Option<u64> {
        self.ctrl_inflight.iter().map(|c| c.due).min()
    }

    /// Control messages currently on wires.
    pub fn ctrl_inflight_count(&self) -> usize {
        self.ctrl_inflight.len()
    }

    /// Drains the protocol messages that arrived at their destination
    /// switches, in arrival order, as `(switch, arriving link, message)`.
    pub fn take_ctrl_arrivals(&mut self) -> Vec<(SwitchId, LinkId, CtrlMsg)> {
        std::mem::take(&mut self.ctrl_arrivals)
    }

    /// Control-transport counters (always available, unlike the fault
    /// layer's).
    pub fn ctrl_counters(&self) -> CtrlCounters {
        self.ctrl_counters
    }

    /// Whether `s`'s line card is currently crashed (false without a fault
    /// layer).
    pub fn switch_crashed(&self, s: SwitchId) -> bool {
        self.switch_is_crashed(s)
    }

    /// The circuit's full wiring — switch path, inter-switch links, and the
    /// two host attachment links — for delta comparison at route install.
    pub fn circuit_wiring(&self, vc: VcId) -> Option<(Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId)> {
        self.circuit(vc)
            .map(|c| (c.switches.clone(), c.links.clone(), c.src_link, c.dst_link))
    }

    /// Starts a resync on every hop of `vc` that is missing credits.
    /// Returns false without a fault layer or shadow gates.
    pub fn force_resync(&mut self, vc: VcId) -> bool {
        if self.fault.is_none() {
            return false;
        }
        let Some(ci) = self.idx_of(vc) else {
            return false;
        };
        if self.vcs[ci]
            .circuit
            .as_ref()
            .is_none_or(|c| c.hops.is_empty())
        {
            return false;
        }
        self.emit_markers_for(ci);
        self.flush_trace();
        true
    }

    /// Whether any hop of `vc` has a resync in flight.
    pub fn resync_pending(&self, vc: VcId) -> bool {
        self.circuit(vc)
            .is_some_and(|c| c.hops.iter().any(|h| h.pending_epoch.is_some()))
    }

    /// Whether every gated hop of `vc` holds its full credit capacity —
    /// the post-resync quiescent state.
    pub fn credits_fully_restored(&self, vc: VcId) -> bool {
        self.circuit(vc).is_some_and(|c| {
            !c.hops.is_empty()
                && c.hops
                    .iter()
                    .all(|h| h.sender.balance() == h.sender.capacity())
        })
    }

    /// The first non-working link on the circuit's current path, if any.
    pub fn dead_link_on_path(&self, vc: VcId) -> Option<LinkId> {
        let c = self.circuit(vc)?;
        std::iter::once(c.src_link)
            .chain(c.links.iter().copied())
            .chain(std::iter::once(c.dst_link))
            .find(|&l| self.topo.link_state(l) != LinkState::Working)
    }

    /// Direction index of a transmission on `link` arriving at `to` (0 when
    /// `to` is the link's first endpoint, 1 otherwise).
    fn link_dir(&self, link: LinkId, to: Node) -> usize {
        let (a, _) = self.topo.endpoints(link);
        usize::from(a.node != to)
    }

    /// Runs one cell transmission through the injector (the identity when
    /// no fault layer is attached): returns `(arrives, corrupted, due)`.
    /// A corrupt payload bit is flipped in place; header hits and corrupted
    /// signal cells count as losses (HEC and the signaling checksum catch
    /// them at the receiving port). Global counters are updated here;
    /// per-circuit stats are the caller's job.
    fn wire_cross(
        &mut self,
        link: LinkId,
        to: Node,
        cell: &mut Cell,
        base_due: u64,
    ) -> (bool, bool, u64) {
        if let Some(t) = &mut self.trace {
            t.lane.add(t.link_cells[link.0 as usize], 1);
        }
        if self.fault.is_none() {
            return (true, false, base_due);
        }
        let dir = self.link_dir(link, to);
        let fault = self.fault.as_mut().expect("checked above");
        let fate = fault.injector.transmit_cell(link, dir, base_due);
        let corrupted = matches!(fate, Fate::Corrupt { .. });
        let is_signal = cell.header.kind == CellKind::Signal;
        let arrives = fate.arrives() && !(is_signal && corrupted);
        let due = match fate {
            Fate::Deliver { due } | Fate::Corrupt { due, .. } => due,
            Fate::Lose => base_due,
        };
        if corrupted {
            fault.counters.cells_corrupted += 1;
        }
        if !arrives {
            fault.counters.cells_lost += 1;
        } else if let Fate::Corrupt { bit, .. } = fate {
            let b = (bit - HEADER_BITS) as usize;
            cell.payload[b / 8] ^= 1 << (b % 8);
        }
        (arrives, corrupted, due)
    }

    fn switch_is_crashed(&self, s: SwitchId) -> bool {
        self.fault.as_ref().is_some_and(|f| f.injector.crashed(s))
    }

    /// A cell arrived at a crashed line card: destroyed on arrival.
    fn account_cell_eaten_by_crash(&mut self, cell: &Cell) {
        if cell.header.kind != CellKind::Signal {
            let vc = cell.vc();
            if let Some(t) = &mut self.trace {
                t.cells_dropped(vc, DropReason::Crash, 1);
            }
            if let Some(c) = self.circuit_mut(vc) {
                c.stats.lost_cells += 1;
                c.inject_slots.pop_front();
            }
        }
        self.fault
            .as_mut()
            .expect("crash verdicts exist only in fault mode")
            .counters
            .cells_lost += 1;
    }

    /// Mirrors a data-cell arrival at `switch` into the shadow receiver of
    /// the hop that ends there.
    fn shadow_on_cell(&mut self, switch: SwitchId, vc: VcId) {
        let Some(ci) = self.idx_of(vc) else { return };
        let Some(c) = self.vcs[ci].circuit.as_mut() else {
            return;
        };
        let Some(p) = c.switches.iter().position(|&s| s == switch) else {
            return;
        };
        let Some(h) = c.hops.get_mut(p) else { return };
        if h.receiver.on_cell().is_err() {
            // More cells arrived than the gate ever granted: the credit
            // protocol over-estimated somewhere.
            self.fault
                .as_mut()
                .expect("hops exist only in fault mode")
                .counters
                .invariant_violations += 1;
        }
    }

    /// Mirrors a departure from `from` into the next hop's shadow sender
    /// (hop `j+1` when `from == switches[j]`; the final host-bound hop is
    /// ungated and has no shadow).
    fn shadow_try_send_from(&mut self, from: SwitchId, vc: VcId) {
        let Some(ci) = self.idx_of(vc) else { return };
        let Some(c) = self.vcs[ci].circuit.as_mut() else {
            return;
        };
        if c.hops.is_empty() {
            return;
        }
        let Some(j) = c.switches.iter().position(|&s| s == from) else {
            return;
        };
        let mut violation = false;
        if let Some(h) = c.hops.get_mut(j + 1) {
            // The hardware sent with an empty shadow gate: divergence.
            violation = !h.sender.try_send();
        }
        if violation {
            self.fault
                .as_mut()
                .expect("hops exist only in fault mode")
                .counters
                .invariant_violations += 1;
        }
    }

    /// Pops one cell from the shadow receiver at `from` without returning
    /// a credit (dead-link drop: the hardware freed the buffer; the credit
    /// is recovered later by resync).
    fn shadow_forward_discard(&mut self, from: SwitchId, vc: VcId) {
        let Some(ci) = self.idx_of(vc) else { return };
        let Some(c) = self.vcs[ci].circuit.as_mut() else {
            return;
        };
        let Some(p) = c.switches.iter().position(|&s| s == from) else {
            return;
        };
        if let Some(h) = c.hops.get_mut(p) {
            let _ = h.receiver.forward();
        }
    }

    /// Fault-mode delivery of a credit to the hardware gate at `switch`:
    /// the shadow sender vets it (epoch staleness, over-capacity) before
    /// the gate is topped up.
    fn apply_credit_to_switch(&mut self, switch: SwitchId, vc: VcId, link: LinkId, epoch: u32) {
        if self.switch_is_crashed(switch) {
            self.fault
                .as_mut()
                .expect("crash verdicts exist only in fault mode")
                .counters
                .credits_lost += 1;
            return;
        }
        let mut accept = true;
        let mut violation = false;
        if let Some(ci) = self.idx_of(vc) {
            if let Some(c) = self.vcs[ci].circuit.as_mut() {
                if let Some(h) = c.hops.iter_mut().find(|h| h.link == link) {
                    if h.sender.balance() >= h.sender.capacity() {
                        // A credit beyond capacity: drop it rather than
                        // overflowing the gate.
                        accept = false;
                        violation = true;
                    } else {
                        accept = h.sender.on_credit_with_epoch(epoch);
                    }
                }
            }
        }
        if violation {
            self.fault
                .as_mut()
                .expect("fault mode")
                .counters
                .invariant_violations += 1;
        }
        if accept {
            self.switches[switch.0 as usize].try_add_credit(vc);
        }
    }

    /// Fault-mode delivery of a credit to the source host's gate.
    fn apply_credit_to_host(&mut self, vc: VcId, link: LinkId, epoch: u32) {
        let Some(ci) = self.idx_of(vc) else { return };
        let mut violation = false;
        let mut opened = false;
        if let Some(c) = self.vcs[ci].circuit.as_mut() {
            let mut accept = true;
            if let Some(h) = c.hops.iter_mut().find(|h| h.link == link) {
                if h.sender.balance() >= h.sender.capacity() {
                    accept = false;
                    violation = true;
                } else {
                    accept = h.sender.on_credit_with_epoch(epoch);
                }
            }
            if accept {
                if let Some(hc) = c.host_credits.as_mut() {
                    *hc += 1;
                    opened = *hc == 1;
                }
            }
        }
        if opened {
            self.refresh_ready_of(vc);
        }
        if violation {
            self.fault
                .as_mut()
                .expect("fault mode")
                .counters
                .invariant_violations += 1;
        }
    }

    /// A resync marker reached the downstream end of its hop: compute the
    /// lossy reply and send it back upstream (itself subject to loss).
    fn deliver_marker(&mut self, vc: VcId, link: LinkId, marker: resync::Marker) {
        let mut reply = None;
        if let Some(ci) = self.idx_of(vc) {
            if let Some(c) = self.vcs[ci].circuit.as_mut() {
                if let Some(p) = c.hops.iter().position(|h| h.link == link) {
                    let downstream_dead = self
                        .fault
                        .as_ref()
                        .is_some_and(|f| f.injector.crashed(c.switches[p]));
                    if !downstream_dead {
                        reply = Some(resync::handle_marker_lossy(&mut c.hops[p].receiver, marker));
                    }
                }
            }
        }
        let Some(reply) = reply else {
            self.fault
                .as_mut()
                .expect("markers exist only in fault mode")
                .counters
                .markers_lost += 1;
            return;
        };
        let latency = self.cfg.link_latency_slots;
        let due = self.slot + latency;
        let fault = self
            .fault
            .as_mut()
            .expect("markers exist only in fault mode");
        if fault.injector.transmit_ctrl(link) {
            self.agenda
                .push(due, Event::ResyncReply { vc, link, reply });
        } else {
            fault.counters.replies_lost += 1;
        }
    }

    /// A resync reply reached the upstream end of its hop: apply it and
    /// sync the hardware gate to the recovered balance.
    fn deliver_reply(&mut self, vc: VcId, link: LinkId, reply: resync::Reply) {
        enum Gate {
            Host(u32),
            Switch(SwitchId, u32),
            None,
        }
        let Some(ci) = self.idx_of(vc) else { return };
        let mut gate = Gate::None;
        let mut completed = false;
        let mut upstream_dead = false;
        {
            let Some(c) = self.vcs[ci].circuit.as_mut() else {
                return;
            };
            let Some(p) = c.hops.iter().position(|h| h.link == link) else {
                return;
            };
            if p >= 1 {
                let up = c.switches[p - 1];
                if self.fault.as_ref().is_some_and(|f| f.injector.crashed(up)) {
                    upstream_dead = true;
                }
            }
            if !upstream_dead {
                let h = &mut c.hops[p];
                if reply.epoch == h.sender.epoch() {
                    resync::finish(&mut h.sender, reply);
                    completed = true;
                    if h.pending_epoch == Some(reply.epoch) {
                        h.pending_epoch = None;
                    }
                    let bal = h.sender.balance();
                    gate = if p == 0 {
                        if c.host_credits.is_some() {
                            Gate::Host(bal)
                        } else {
                            Gate::None
                        }
                    } else {
                        Gate::Switch(c.switches[p - 1], bal)
                    };
                }
                // Replies to superseded markers are ignored (§5: any later
                // resync reconciles everything an older one would have).
            }
        }
        let counters = &mut self
            .fault
            .as_mut()
            .expect("replies exist only in fault mode")
            .counters;
        if upstream_dead {
            counters.replies_lost += 1;
            return;
        }
        if completed {
            counters.resyncs_completed += 1;
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::ResyncComplete {
                    vc: vc.raw(),
                    link: link.0,
                    epoch: reply.epoch,
                });
                t.count("flow.resyncs_completed", Entity::Link(link.0), 1);
            }
        }
        match gate {
            Gate::Host(bal) => {
                if let Some(c) = self.vcs[ci].circuit.as_mut() {
                    c.host_credits = Some(bal);
                }
                self.refresh_ready_of(vc);
            }
            Gate::Switch(sw, bal) => self.switches[sw.0 as usize].set_credits(vc, bal),
            Gate::None => {}
        }
    }

    /// Applies this slot's scheduled fault transitions and emits periodic
    /// resync markers. Called at the top of `step_one` in fault mode.
    fn fault_begin_slot(&mut self) {
        let slot = self.slot;
        let sf = self
            .fault
            .as_mut()
            .expect("caller checked")
            .injector
            .begin_slot(slot);
        for s in sf.crashes {
            self.crash_switch(s);
        }
        // Restarts are warm: routes, schedules and credit gates live in
        // the hardware map and survive; only the buffered cells (already
        // dropped at crash time) are gone.
        for l in sf.flaps_down {
            self.flap_down(l);
        }
        // Nothing to do on flaps_up: the fabric keeps transmitting into
        // the void until the monitor's verdict flips (Network layer), and
        // the injector resumes delivering as soon as the link is up.
        let interval = self.fault.as_ref().expect("caller checked").resync_interval;
        if interval > 0 && slot > 0 && slot.is_multiple_of(interval) {
            for ci in 0..self.vcs.len() {
                self.emit_markers_for(ci);
            }
        }
    }

    /// A line card crashes: every cell buffered in the switch vanishes.
    /// Routing tables, schedules and hardware credit gates survive (they
    /// are reloaded from the hardware map on restart).
    fn crash_switch(&mut self, s: SwitchId) {
        let dropped = self.switches[s.0 as usize].drop_queued_cells();
        let mut total = 0u64;
        for (vc, n) in dropped {
            total += n as u64;
            if let Some(t) = &mut self.trace {
                // Queues are credit-bounded, so per-cell drop events stay
                // small even for a full line card.
                t.cells_dropped(vc, DropReason::Crash, n as u64);
            }
            let Some(ci) = self.idx_of(vc) else { continue };
            if let Some(c) = self.vcs[ci].circuit.as_mut() {
                c.stats.lost_cells += n as u64;
                for _ in 0..n {
                    c.inject_slots.pop_front();
                }
                // The shadow receiver loses the same buffered cells; their
                // credits come back via the next lossy-marker resync.
                if let Some(p) = c.switches.iter().position(|&x| x == s) {
                    if let Some(h) = c.hops.get_mut(p) {
                        h.receiver.drop_buffered(n as u32);
                    }
                }
            }
        }
        let counters = &mut self.fault.as_mut().expect("fault mode").counters;
        counters.crash_dropped_cells += total;
        counters.cells_lost += total;
    }

    /// A link goes physically down: everything in flight on it is
    /// destroyed, with per-kind accounting. New transmissions keep being
    /// attempted (and lost) until the monitor's verdict removes the link.
    fn flap_down(&mut self, link: LinkId) {
        let mut lost_cells: Vec<(VcId, bool)> = Vec::new();
        let mut credits = 0u64;
        let mut markers = 0u64;
        let mut replies = 0u64;
        self.agenda.retain(|e| {
            if e.link() != link {
                return true;
            }
            match e {
                Event::CellToSwitch { cell, .. } | Event::CellToHost { cell, .. } => {
                    lost_cells.push((cell.vc(), cell.header.kind == CellKind::Signal));
                }
                Event::CreditToSwitch { .. } | Event::CreditToHost { .. } => credits += 1,
                Event::ResyncMarker { .. } => markers += 1,
                Event::ResyncReply { .. } => replies += 1,
            }
            false
        });
        let cells = lost_cells.len() as u64;
        for (vc, is_signal) in lost_cells {
            if !is_signal {
                if let Some(t) = &mut self.trace {
                    t.cells_dropped(vc, DropReason::LinkDown, 1);
                }
                if let Some(c) = self.circuit_mut(vc) {
                    c.stats.lost_cells += 1;
                    c.inject_slots.pop_front();
                }
            }
        }
        let counters = &mut self.fault.as_mut().expect("fault mode").counters;
        counters.cells_lost += cells;
        counters.credits_lost += credits;
        counters.markers_lost += markers;
        counters.replies_lost += replies;
        self.purge_ctrl_on(link);
    }

    /// Starts a resync on every hop of circuit slot `ci` that is missing
    /// credits or already has one pending (§5: "the upstream switch
    /// periodically trigger[s] a re-synchronization of credits").
    fn emit_markers_for(&mut self, ci: usize) {
        let latency = self.cfg.link_latency_slots;
        let slot = self.slot;
        let n = match self.vcs[ci].circuit.as_ref() {
            Some(c) if !c.paged_out => c.hops.len(),
            _ => return,
        };
        for p in 0..n {
            let vc = self.vcs[ci].vc;
            let (marker, link, to) = {
                let c = self.vcs[ci].circuit.as_mut().expect("checked above");
                let h = &mut c.hops[p];
                if h.sender.balance() == h.sender.capacity() && h.pending_epoch.is_none() {
                    continue; // nothing to reconcile on this hop
                }
                let m = resync::begin(&mut h.sender);
                h.pending_epoch = Some(m.epoch);
                (m, h.link, Node::Switch(c.switches[p]))
            };
            // The marker rides the data channel (same FIFO clamp), which
            // is what makes the lossy reply safe.
            let dir = self.link_dir(link, to);
            let fault = self.fault.as_mut().expect("fault mode");
            fault.counters.markers_sent += 1;
            match fault.injector.transmit_cell(link, dir, slot + latency) {
                Fate::Deliver { due } => {
                    self.agenda
                        .push(due, Event::ResyncMarker { vc, link, marker });
                }
                // A corrupted marker fails its CRC at the far end: lost.
                _ => fault.counters.markers_lost += 1,
            }
            // The epoch opened whether or not the marker survives (a lost
            // marker is retried at the next resync interval).
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::ResyncBegin {
                    vc: vc.raw(),
                    link: link.0,
                    epoch: marker.epoch,
                });
                t.count("flow.resyncs_begun", Entity::Link(link.0), 1);
            }
        }
    }

    /// Soak-mode invariant checks, run once per slot after every phase has
    /// settled: credit conservation per hop, shadow/hardware gate
    /// agreement, and shadow/hardware buffer agreement.
    fn check_invariants_slot(&mut self) {
        let mut violations = 0u64;
        for entry in &self.vcs {
            let Some(c) = entry.circuit.as_ref() else {
                continue;
            };
            if c.hops.is_empty() || c.paged_out {
                continue;
            }
            if let Some(hc) = c.host_credits {
                if hc != c.hops[0].sender.balance() {
                    violations += 1;
                }
            }
            for (p, h) in c.hops.iter().enumerate() {
                // Conservation: credits held plus cells buffered can never
                // exceed the hop's buffer capacity (§5's core guarantee —
                // loss may shrink the sum, never grow it).
                if h.sender.balance() + h.receiver.occupied() > h.sender.capacity() {
                    violations += 1;
                }
                if p >= 1 {
                    let sw = c.switches[p - 1];
                    if self.switches[sw.0 as usize].credit_balance(entry.vc)
                        != Some(h.sender.balance())
                    {
                        violations += 1;
                    }
                }
                let buffered =
                    self.switches[c.switches[p].0 as usize].buffered_cells(entry.vc) as u32;
                if h.receiver.occupied() != buffered {
                    violations += 1;
                }
            }
        }
        if violations > 0 {
            self.fault
                .as_mut()
                .expect("caller checked")
                .counters
                .invariant_violations += violations;
            if let Some(t) = &mut self.trace {
                t.lane
                    .emit(TraceEvent::InvariantViolation { count: violations });
                t.count("faults.invariant_violations", Entity::Global, violations);
            }
        }
    }

    /// A data cell reaches its destination controller: per-circuit
    /// accounting and reassembly, on one circuit look-up. A cell whose
    /// circuit is gone (closed while the cell was beyond the teardown's
    /// reach) has nobody to be reassembled for and is discarded.
    fn deliver_to_host(&mut self, host: HostId, cell: Cell, trace: u32) {
        let vc = cell.vc();
        let slot_now = self.slot;
        let Some(c) = self.circuit_mut(vc) else {
            return;
        };
        c.stats.delivered_cells += 1;
        c.last_activity = slot_now;
        let latency = c.inject_slots.pop_front().map(|injected| {
            let l = slot_now - injected;
            c.stats.latency_slots.record(l);
            l
        });
        let packet = match c.partial.push(&cell) {
            Ok(Some(packet)) => {
                c.stats.packets_delivered += 1;
                Some(packet)
            }
            Ok(None) => None,
            Err(_) => {
                c.stats.packets_corrupted += 1;
                None
            }
        };
        if let Some(l) = latency {
            if let Some(t) = &mut self.trace {
                t.lane.emit(TraceEvent::CellDeliver {
                    vc: vc.raw(),
                    host: host.0,
                    latency_slots: l,
                    trace_id: trace,
                });
                t.lane.add(t.cells_delivered[host.0 as usize], 1);
                t.lane.record(t.cell_latency, l);
            }
        }
        if let Some(packet) = packet {
            self.hosts[host.0 as usize].received.push((vc, packet));
        }
    }
}
