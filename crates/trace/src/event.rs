//! The typed event taxonomy and the entity key space.
//!
//! Events carry plain integer ids (`u16` switch, `u32` link/VC) rather than
//! the typed ids of the upper crates: `an2-trace` sits directly above
//! `an2-sim` so that every other layer — cells, topology, crossbar, flow,
//! faults, switch, fabric, network — can depend on it without a cycle.

use an2_sim::json::{ObjWriter, Text};
use std::fmt;

/// What a metric or event is about: the whole run, one switch, one port of
/// a switch, one link, one virtual circuit, or one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Entity {
    /// The whole installation.
    Global,
    /// One switch, by id.
    Switch(u16),
    /// One port of one switch.
    Port {
        /// The switch the port belongs to.
        switch: u16,
        /// The port number on that switch.
        port: u8,
    },
    /// One link, by id.
    Link(u32),
    /// One virtual circuit, by raw 24-bit id.
    Vc(u32),
    /// One host, by id.
    Host(u16),
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Entity::Global => write!(f, "global"),
            Entity::Switch(s) => write!(f, "switch{s}"),
            Entity::Port { switch, port } => write!(f, "switch{switch}/port{port}"),
            Entity::Link(l) => write!(f, "link{l}"),
            Entity::Vc(v) => write!(f, "vc{v}"),
            Entity::Host(h) => write!(f, "host{h}"),
        }
    }
}

impl Entity {
    /// Prometheus-style label pairs identifying this entity (empty for
    /// [`Entity::Global`]).
    pub fn labels(&self) -> Vec<(&'static str, u64)> {
        match *self {
            Entity::Global => Vec::new(),
            Entity::Switch(s) => vec![("switch", s as u64)],
            Entity::Port { switch, port } => {
                vec![("switch", switch as u64), ("port", port as u64)]
            }
            Entity::Link(l) => vec![("link", l as u64)],
            Entity::Vc(v) => vec![("vc", v as u64)],
            Entity::Host(h) => vec![("host", h as u64)],
        }
    }
}

/// Why a cell was destroyed inside the fabric (wire losses are
/// [`TraceEvent::FaultDraw`] outcomes instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Scheduled onto an output whose link had already been failed.
    DeadLink,
    /// Destroyed in flight when its link flapped down.
    LinkDown,
    /// Buffered inside a line card that crashed.
    Crash,
}

impl DropReason {
    /// Stable lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::DeadLink => "dead_link",
            DropReason::LinkDown => "link_down",
            DropReason::Crash => "crash",
        }
    }
}

/// The fate the fault injector drew for one wire crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Delivered intact.
    Deliver,
    /// Delivered with a flipped payload bit.
    Corrupt,
    /// Destroyed on the wire.
    Lose,
}

impl FaultOutcome {
    /// Stable lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Deliver => "deliver",
            FaultOutcome::Corrupt => "corrupt",
            FaultOutcome::Lose => "lose",
        }
    }
}

/// A reconfiguration phase on the control-plane timeline (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Protocol convergence: epoch opened → every live agent agrees.
    Converge,
    /// Route installation: canonical up*/down* routes pushed switch-by-switch.
    Install,
}

impl Phase {
    /// Stable lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Converge => "converge",
            Phase::Install => "install",
        }
    }
}

/// Which control protocol a [`TraceEvent::ReconfigPhase`] belongs to.
///
/// The protocol arena races several control planes over the same fabric;
/// tagging phase records lets sinks separate their converge/install spans
/// without needing a run-level side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolTag {
    /// The paper's up*/down* three-phase reconfiguration (§2).
    UpDown,
    /// The BPDU-style spanning-tree rival.
    SpanningTree,
    /// The path-vector rival.
    PathVector,
}

impl ProtocolTag {
    /// Stable lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolTag::UpDown => "updown",
            ProtocolTag::SpanningTree => "stp",
            ProtocolTag::PathVector => "pathvector",
        }
    }
}

/// Which streaming watchdog detector raised a [`TraceEvent::HealthAlert`].
///
/// The catalog mirrors the observatory's SLO constants: loss spikes and credit
/// stalls are judged per link, the delivery floor, latency budget and
/// control-storm detectors over the whole installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectorKind {
    /// EWMA/z-score spike in per-link loss events (lost cells + failed
    /// pings) against the link's own recent baseline.
    LossSpike,
    /// Interval delivery ratio (delivered / injected cells) under the SLO
    /// floor while injection is active.
    DeliveryFloor,
    /// Interval p99 end-to-end cell latency over the SLO budget.
    LatencyBudget,
    /// Control-plane cell rate over the storm threshold — a
    /// reconfiguration storm in progress.
    CtrlStorm,
    /// A recently-active link moved no cells and returned no credits for
    /// the stall timeout while hosts kept injecting.
    CreditStall,
}

impl DetectorKind {
    /// Stable snake_case name for sinks and report rows.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::LossSpike => "loss_spike",
            DetectorKind::DeliveryFloor => "delivery_floor",
            DetectorKind::LatencyBudget => "latency_budget",
            DetectorKind::CtrlStorm => "ctrl_storm",
            DetectorKind::CreditStall => "credit_stall",
        }
    }

    /// Every detector, in stable report order.
    pub const ALL: [DetectorKind; 5] = [
        DetectorKind::LossSpike,
        DetectorKind::DeliveryFloor,
        DetectorKind::LatencyBudget,
        DetectorKind::CtrlStorm,
        DetectorKind::CreditStall,
    ];
}

/// Whether a [`TraceEvent::ReconfigPhase`] opens or closes its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEdge {
    /// The phase began.
    Begin,
    /// The phase ended.
    End,
}

/// One step of a sampled cell's hop-by-hop journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The cell arrived at a switch's input buffers.
    SwitchIn {
        /// The switch it arrived at.
        switch: u16,
    },
    /// The cell won a crossbar pairing and left the switch.
    /// `queued_slots` is the in-switch residence time — the cut-through
    /// pipeline depth (≈ 2 µs) when uncontended (§1).
    SwitchOut {
        /// The switch it departed.
        switch: u16,
        /// Slots between enqueue and departure.
        queued_slots: u64,
    },
    /// The cell was put on a wire.
    Wire {
        /// The link it is crossing.
        link: u32,
    },
}

/// One typed, virtual-time-stamped event in the flight recorder.
///
/// Every variant is a plain value: recording copies a few words, consumes
/// no randomness, and never blocks the simulation's control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A cell joined a per-circuit input queue at a switch.
    CellEnqueue {
        /// Receiving switch.
        switch: u16,
        /// Input port it arrived on.
        input: u16,
        /// The cell's circuit.
        vc: u32,
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// A cell won an output and left a switch's buffers.
    CellDequeue {
        /// Departing switch.
        switch: u16,
        /// Output port it left on.
        output: u16,
        /// The cell's circuit.
        vc: u32,
        /// Slots it spent buffered (pipeline depth when uncontended).
        queued_slots: u64,
    },
    /// A cell was destroyed inside the fabric.
    CellDrop {
        /// The cell's circuit.
        vc: u32,
        /// Why it died.
        reason: DropReason,
    },
    /// The crossbar scheduler granted an (input, output) pairing.
    XbarGrant {
        /// The switch whose crossbar matched.
        switch: u16,
        /// Matched input port.
        input: u16,
        /// Matched output port.
        output: u16,
    },
    /// A credit was spent to transmit a best-effort cell (§5).
    CreditConsume {
        /// The gated circuit.
        vc: u32,
        /// Balance after the spend.
        balance: u32,
    },
    /// A freed buffer's credit was sent back upstream (§5).
    CreditSend {
        /// The gated circuit.
        vc: u32,
        /// The link the credit crosses (upstream).
        link: u32,
        /// The resync epoch stamped on the credit.
        epoch: u32,
    },
    /// A credit resynchronization opened a new epoch on a hop (§5).
    ResyncBegin {
        /// The circuit being resynchronized.
        vc: u32,
        /// The hop's link.
        link: u32,
        /// The new epoch.
        epoch: u32,
    },
    /// A resync round-trip completed and the gate was restored.
    ResyncComplete {
        /// The circuit that was resynchronized.
        vc: u32,
        /// The hop's link.
        link: u32,
        /// The completed epoch.
        epoch: u32,
    },
    /// A reconfiguration protocol message left a switch as control cells (§2).
    CtrlTx {
        /// Sending switch.
        switch: u16,
        /// First link of its path.
        link: u32,
        /// 53-byte cells the message segmented into.
        cells: u32,
    },
    /// A reconfiguration protocol message arrived at a switch.
    CtrlRx {
        /// Receiving switch.
        switch: u16,
        /// The link it arrived on.
        link: u32,
    },
    /// The link monitor flipped its verdict for a link (§2).
    MonitorVerdict {
        /// The judged link.
        link: u32,
        /// `true` = declared working, `false` = declared dead.
        up: bool,
    },
    /// The skeptic quarantined a healthy-looking link (its pings pass but
    /// recovery is held back by the exponential holddown) or released it.
    SkepticQuarantine {
        /// The quarantined link.
        link: u32,
        /// `true` = entered quarantine, `false` = left it.
        entered: bool,
        /// The skeptic's escalation level at the edge.
        level: u32,
    },
    /// A reconfiguration phase opened or closed.
    ReconfigPhase {
        /// Which phase.
        phase: Phase,
        /// Open or close.
        edge: PhaseEdge,
        /// The reconfiguration epoch it belongs to.
        epoch: u64,
        /// The control protocol driving the phase.
        protocol: ProtocolTag,
    },
    /// The fault injector drew a fate for a wire crossing.
    FaultDraw {
        /// The crossed link.
        link: u32,
        /// The drawn fate.
        outcome: FaultOutcome,
    },
    /// The per-slot invariant sweep found violations.
    InvariantViolation {
        /// Violations found this slot.
        count: u64,
    },
    /// A host controller put a data cell on its access link.
    CellInject {
        /// The cell's circuit.
        vc: u32,
        /// The injecting host.
        host: u16,
        /// Path-trace id (`0` = not sampled).
        trace_id: u32,
    },
    /// A data cell reached its destination controller.
    CellDeliver {
        /// The cell's circuit.
        vc: u32,
        /// The receiving host.
        host: u16,
        /// End-to-end latency in slots.
        latency_slots: u64,
        /// Path-trace id (`0` = not sampled).
        trace_id: u32,
    },
    /// One hop of a sampled cell's journey.
    CellHop {
        /// The sampled cell's path-trace id.
        trace_id: u32,
        /// Its circuit.
        vc: u32,
        /// The hop.
        hop: Hop,
    },
    /// A watchdog detector crossed its threshold (`raised`) or observed
    /// the metric back under it and re-armed (`!raised`). Emitted by the
    /// observatory's scrape, so the stamp is the interval boundary's
    /// virtual time.
    HealthAlert {
        /// The detector that fired.
        detector: DetectorKind,
        /// What it judged (a link, or the whole installation).
        entity: Entity,
        /// `true` on the rising edge, `false` when the detector re-arms.
        raised: bool,
        /// The measured value, in thousandths (losses, ratio ×1000, …).
        value_milli: i64,
        /// The threshold it was judged against, in thousandths.
        threshold_milli: i64,
    },
}

impl TraceEvent {
    /// Stable snake_case event name (the `"type"` field of both sinks).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CellEnqueue { .. } => "cell_enqueue",
            TraceEvent::CellDequeue { .. } => "cell_dequeue",
            TraceEvent::CellDrop { .. } => "cell_drop",
            TraceEvent::XbarGrant { .. } => "xbar_grant",
            TraceEvent::CreditConsume { .. } => "credit_consume",
            TraceEvent::CreditSend { .. } => "credit_send",
            TraceEvent::ResyncBegin { .. } => "resync_begin",
            TraceEvent::ResyncComplete { .. } => "resync_complete",
            TraceEvent::CtrlTx { .. } => "ctrl_tx",
            TraceEvent::CtrlRx { .. } => "ctrl_rx",
            TraceEvent::MonitorVerdict { .. } => "monitor_verdict",
            TraceEvent::SkepticQuarantine { .. } => "skeptic_quarantine",
            TraceEvent::ReconfigPhase { .. } => "reconfig_phase",
            TraceEvent::FaultDraw { .. } => "fault_draw",
            TraceEvent::InvariantViolation { .. } => "invariant_violation",
            TraceEvent::CellInject { .. } => "cell_inject",
            TraceEvent::CellDeliver { .. } => "cell_deliver",
            TraceEvent::CellHop { .. } => "cell_hop",
            TraceEvent::HealthAlert { .. } => "health_alert",
        }
    }

    /// Writes this event's payload as members of the open object `o` —
    /// shared by both sinks.
    pub fn write_fields(&self, o: &mut ObjWriter<'_>) {
        match *self {
            TraceEvent::CellEnqueue {
                switch,
                input,
                vc,
                depth,
            } => {
                o.field("switch", switch)
                    .field("input", input)
                    .field("vc", vc)
                    .field("depth", depth);
            }
            TraceEvent::CellDequeue {
                switch,
                output,
                vc,
                queued_slots,
            } => {
                o.field("switch", switch)
                    .field("output", output)
                    .field("vc", vc)
                    .field("queued_slots", queued_slots);
            }
            TraceEvent::CellDrop { vc, reason } => {
                o.field("vc", vc).field("reason", reason.name());
            }
            TraceEvent::XbarGrant {
                switch,
                input,
                output,
            } => {
                o.field("switch", switch)
                    .field("input", input)
                    .field("output", output);
            }
            TraceEvent::CreditConsume { vc, balance } => {
                o.field("vc", vc).field("balance", balance);
            }
            TraceEvent::CreditSend { vc, link, epoch }
            | TraceEvent::ResyncBegin { vc, link, epoch }
            | TraceEvent::ResyncComplete { vc, link, epoch } => {
                o.field("vc", vc).field("link", link).field("epoch", epoch);
            }
            TraceEvent::CtrlTx {
                switch,
                link,
                cells,
            } => {
                o.field("switch", switch)
                    .field("link", link)
                    .field("cells", cells);
            }
            TraceEvent::CtrlRx { switch, link } => {
                o.field("switch", switch).field("link", link);
            }
            TraceEvent::MonitorVerdict { link, up } => {
                o.field("link", link).field("up", up);
            }
            TraceEvent::SkepticQuarantine {
                link,
                entered,
                level,
            } => {
                o.field("link", link)
                    .field("entered", entered)
                    .field("level", level);
            }
            TraceEvent::ReconfigPhase {
                phase,
                edge,
                epoch,
                protocol,
            } => {
                let edge = match edge {
                    PhaseEdge::Begin => "begin",
                    PhaseEdge::End => "end",
                };
                o.field("phase", phase.name())
                    .field("edge", edge)
                    .field("epoch", epoch)
                    .field("protocol", protocol.name());
            }
            TraceEvent::FaultDraw { link, outcome } => {
                o.field("link", link).field("outcome", outcome.name());
            }
            TraceEvent::InvariantViolation { count } => {
                o.field("count", count);
            }
            TraceEvent::CellInject { vc, host, trace_id } => {
                o.field("vc", vc)
                    .field("host", host)
                    .field("trace_id", trace_id);
            }
            TraceEvent::CellDeliver {
                vc,
                host,
                latency_slots,
                trace_id,
            } => {
                o.field("vc", vc)
                    .field("host", host)
                    .field("latency_slots", latency_slots)
                    .field("trace_id", trace_id);
            }
            TraceEvent::CellHop { trace_id, vc, hop } => {
                o.field("trace_id", trace_id).field("vc", vc);
                match hop {
                    Hop::SwitchIn { switch } => {
                        o.field("hop", "switch_in").field("switch", switch);
                    }
                    Hop::SwitchOut {
                        switch,
                        queued_slots,
                    } => {
                        o.field("hop", "switch_out")
                            .field("switch", switch)
                            .field("queued_slots", queued_slots);
                    }
                    Hop::Wire { link } => {
                        o.field("hop", "wire").field("link", link);
                    }
                }
            }
            TraceEvent::HealthAlert {
                detector,
                entity,
                raised,
                value_milli,
                threshold_milli,
            } => {
                o.field("detector", detector.name())
                    .field("entity", Text(entity))
                    .field("raised", raised)
                    .field("value_milli", value_milli)
                    .field("threshold_milli", threshold_milli);
            }
        }
    }
}
