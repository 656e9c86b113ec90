//! The public network API: open circuits, send packets, inject failures.

mod control;

use crate::central::BandwidthCentral;
use crate::error::NetError;
use crate::fabric::{CtrlCounters, Fabric, FabricConfig, FaultCounters, PhaseProfile, VcStats};
use an2_cells::signal::TrafficClass;
use an2_cells::{LinkRate, Packet, Segmenter, VcId};
use an2_faults::FaultSpec;
use an2_reconfig::monitor::{LinkMonitor, LinkVerdict};
use an2_reconfig::protocol::ProtocolKind;
use an2_reconfig::ReconfigEvent;
use an2_sim::{Fnv, SimDuration, SimTime};
use an2_topology::{generators, paths, HostId, LinkId, Node, SwitchId, Topology};
use an2_trace::{Entity, TraceConfig, TraceEvent, Tracer};
use control::ControlPlane;
use std::collections::HashMap;

/// The link rate that converts slots to wall-clock time: AN2's 622 Mb/s.
const RATE: LinkRate = LinkRate::Mbps622;

/// Builds a [`Network`].
///
/// ```
/// use an2::Network;
/// let net = Network::builder().ring(4, 8).seed(1).build();
/// assert_eq!(net.topology().switch_count(), 4);
/// assert_eq!(net.topology().host_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    topo: Topology,
    seed: u64,
    fabric: FabricConfig,
    protocol: ProtocolKind,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            topo: generators::src_installation(4, 4),
            seed: 0,
            fabric: FabricConfig::default(),
            protocol: ProtocolKind::default(),
        }
    }
}

impl NetworkBuilder {
    /// Uses an explicit topology.
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// A Figure 1–style installation: redundant backbone, dual-homed hosts.
    pub fn src_installation(mut self, switches: usize, hosts: usize) -> Self {
        self.topo = generators::src_installation(switches, hosts);
        self
    }

    /// A ring of switches with hosts attached round-robin (single-homed).
    ///
    /// # Panics
    ///
    /// Panics if `switches < 3`.
    pub fn ring(mut self, switches: usize, hosts: usize) -> Self {
        let mut topo = generators::ring(switches);
        for k in 0..hosts {
            let h = topo.add_host();
            topo.attach_host(h, SwitchId((k % switches) as u16))
                .expect("ring host attach");
        }
        self.topo = topo;
        self
    }

    /// Seeds all randomness (PIM grant choices, workload draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Slots per guaranteed-traffic frame (default 1024).
    pub fn frame_slots(mut self, slots: u32) -> Self {
        self.fabric.frame_slots = slots;
        self
    }

    /// Link propagation delay in cell slots (default 2).
    pub fn link_latency_slots(mut self, slots: u64) -> Self {
        self.fabric.link_latency_slots = slots;
        self
    }

    /// Selects the control protocol [`Network::enable_control_plane`]
    /// embeds (default: the paper's up\*/down\* reconfiguration). The
    /// rivals — [`ProtocolKind::SpanningTree`] and
    /// [`ProtocolKind::PathVector`] — ride the same control-cell links,
    /// monitors, and retry machinery; the N9 arena races all three.
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.protocol = kind;
        self
    }

    /// Builds the network.
    pub fn build(self) -> Network {
        let frame = self.fabric.frame_slots;
        let central = BandwidthCentral::new(&self.topo, frame);
        let fabric = Fabric::new(self.topo, self.fabric, self.seed);
        Network {
            fabric,
            central,
            meta: HashMap::new(),
            broken: HashMap::new(),
            next_vc: 32, // leave room below for well-known circuits
            faults: None,
            control: None,
            protocol: self.protocol,
        }
    }
}

/// A committed guaranteed reservation: the switch path, the inter-switch
/// links, the host attachment links (with their direction anchors), and the
/// cells per frame.
type Reservation = (Vec<SwitchId>, Vec<LinkId>, Vec<(LinkId, Node)>, u32);

/// Network-layer fault machinery: the per-link monitors that turn ping
/// outcomes into dead/working verdicts (§2), and the reconfiguration log.
#[derive(Debug)]
struct FaultCtl {
    /// One monitor per inter-switch link (host attachments are not
    /// monitored; a dead attachment is the host's problem).
    monitors: Vec<(LinkId, LinkMonitor)>,
    /// Slots between ping rounds, derived from the spec's ping interval at
    /// the configured link rate.
    ping_every_slots: u64,
    /// The typed reconfiguration log: verdicts, epochs, quiescence, route
    /// installs, in slot order.
    log: Vec<ReconfigEvent>,
}

#[derive(Debug, Clone)]
struct CircuitMeta {
    src: HostId,
    dst: HostId,
    class: TrafficClass,
    /// For guaranteed circuits: the committed reservation, for release.
    reservation: Option<Reservation>,
}

/// The AN2 network: topology + switches + controllers + bandwidth central.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Network {
    fabric: Fabric,
    central: BandwidthCentral,
    meta: HashMap<VcId, CircuitMeta>,
    /// Circuits torn down by failures with no repair capacity, with the
    /// statistics they had accumulated.
    broken: HashMap<VcId, VcStats>,
    next_vc: u32,
    faults: Option<FaultCtl>,
    /// The embedded control plane, when
    /// [`Network::enable_control_plane`] has been called: per-switch
    /// reconfiguration agents on the fabric timeline.
    control: Option<Box<ControlPlane>>,
    /// The control protocol [`Network::enable_control_plane`] will embed.
    protocol: ProtocolKind,
}

impl Network {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// The physical topology, including failures injected so far.
    pub fn topology(&self) -> &Topology {
        self.fabric.topology()
    }

    /// The control protocol [`Network::enable_control_plane`] embeds, as
    /// [`NetworkBuilder::protocol`] selected it.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.topology().hosts()
    }

    /// The current cell slot.
    pub fn slot(&self) -> u64 {
        self.fabric.slot()
    }

    /// Virtual time corresponding to the current slot at the configured
    /// link rate.
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + RATE.slot_duration() * self.fabric.slot()
    }

    /// Duration of one cell slot.
    pub fn slot_duration(&self) -> SimDuration {
        RATE.slot_duration()
    }

    /// Splits the data plane into `shards` switch groups worked by threads
    /// that live for each `step` call (see [`Fabric::set_shards`]).
    /// Byte-identical at any shard count; `1` restores sequential stepping.
    /// Safe to call mid-run — the split affects only which thread steps a
    /// switch.
    pub fn set_shards(&mut self, shards: usize) {
        self.fabric.set_shards(shards);
    }

    /// The configured data-plane shard count.
    pub fn shards(&self) -> usize {
        self.fabric.shards()
    }

    /// Busy switch-steps accumulated per shard — a count of how evenly the
    /// shard plan spreads the switch phase.
    pub fn shard_work(&self) -> &[u64] {
        self.fabric.shard_work()
    }

    /// Starts recording the data plane's wall-clock phase breakdown. See
    /// [`Fabric::enable_profiling`].
    pub fn enable_profiling(&mut self) {
        self.fabric.enable_profiling();
    }

    /// The phase breakdown recorded since [`Network::enable_profiling`].
    pub fn profile(&self) -> Option<&PhaseProfile> {
        self.fabric.profile()
    }

    /// Enters a new circuit in the books under a fresh id.
    fn register(
        &mut self,
        src: HostId,
        dst: HostId,
        class: TrafficClass,
        reservation: Option<Reservation>,
    ) -> VcId {
        let vc = VcId::new(self.next_vc);
        self.next_vc += 1;
        let meta = CircuitMeta {
            src,
            dst,
            class,
            reservation,
        };
        self.meta.insert(vc, meta);
        vc
    }

    /// The switch path currently carrying a circuit.
    pub fn circuit_path(&self, vc: VcId) -> Option<&[SwitchId]> {
        self.fabric.circuit_path(vc)
    }

    /// Whether the circuit is currently broken (awaiting repair capacity).
    pub fn is_broken(&self, vc: VcId) -> bool {
        self.broken.contains_key(&vc)
    }

    /// Opens a best-effort virtual circuit from `src` to `dst` (§2): the
    /// route is the shortest working path between the hosts' attachments;
    /// per-hop credit gates are installed.
    ///
    /// # Errors
    ///
    /// [`NetError::NoRoute`] when the hosts are not mutually reachable.
    pub fn open_best_effort(&mut self, src: HostId, dst: HostId) -> Result<VcId, NetError> {
        let (switches, links, src_link, dst_link) = self.best_effort_route(src, dst)?;
        let class = TrafficClass::BestEffort;
        let vc = self.register(src, dst, class, None);
        self.fabric
            .open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        Ok(vc)
    }

    fn best_effort_route(&self, src: HostId, dst: HostId) -> Result<paths::Wiring, NetError> {
        paths::host_wiring(self.topology(), src, dst).ok_or(NetError::NoRoute { src, dst })
    }

    /// Opens a best-effort circuit the way the hardware does it (§2): a
    /// setup cell travels the path installing routing entries at each line
    /// card; packets may be sent immediately and their cells are buffered
    /// at any switch the setup has not yet configured. Use
    /// [`Network::is_established`] to observe setup completion.
    ///
    /// # Errors
    ///
    /// [`NetError::NoRoute`] when the hosts are not mutually reachable.
    pub fn open_best_effort_signaled(
        &mut self,
        src: HostId,
        dst: HostId,
    ) -> Result<VcId, NetError> {
        let (switches, links, src_link, dst_link) = self.best_effort_route(src, dst)?;
        let vc = self.register(src, dst, TrafficClass::BestEffort, None);
        self.fabric
            .open_circuit_signaled(vc, src, dst, switches, links, src_link, dst_link);
        Ok(vc)
    }

    /// Whether a circuit's setup has completed end to end (always true for
    /// circuits opened without signaling).
    pub fn is_established(&self, vc: VcId) -> bool {
        self.fabric.is_established(vc)
    }

    /// Opens a guaranteed virtual circuit with `cells_per_frame` reserved
    /// bandwidth, via bandwidth central (§4).
    ///
    /// # Errors
    ///
    /// [`NetError::NoRoute`] when a host is detached;
    /// [`NetError::InsufficientBandwidth`] when no path can carry the
    /// reservation.
    pub fn open_guaranteed(
        &mut self,
        src: HostId,
        dst: HostId,
        cells_per_frame: u16,
    ) -> Result<VcId, NetError> {
        let (wiring, reservation) = self
            .admit_guaranteed(src, dst, cells_per_frame as u32)
            .ok_or(NetError::InsufficientBandwidth {
                requested: cells_per_frame,
            })?;
        let (switches, links, src_link, dst_link) = wiring;
        let class = TrafficClass::Guaranteed { cells_per_frame };
        let vc = self.register(src, dst, class, Some(reservation));
        self.fabric
            .open_circuit(vc, src, dst, class, switches, links, src_link, dst_link);
        Ok(vc)
    }

    /// Bandwidth central's admission (§4): picks the attachments and the
    /// route with `cells` per frame to spare on today's topology and
    /// commits the reservation. `None` when no path can carry it.
    fn admit_guaranteed(
        &mut self,
        src: HostId,
        dst: HostId,
        cells: u32,
    ) -> Option<(paths::Wiring, Reservation)> {
        // Borrow the topology from the fabric; `central` is a disjoint
        // field, so no clone is needed.
        let topo = self.fabric.topology();
        let (src_link, src_sw) = self.central.best_attachment(topo, src, cells, true)?;
        let (dst_link, dst_sw) = self.central.best_attachment(topo, dst, cells, false)?;
        let (switches, links) = self.central.find_route(topo, src_sw, dst_sw, cells)?;
        let host_links = vec![
            (src_link, Node::Host(src)),
            (dst_link, Node::Switch(dst_sw)),
        ];
        self.central
            .commit(topo, &switches, &links, &host_links, cells);
        Some((
            (switches.clone(), links.clone(), src_link, dst_link),
            (switches, links, host_links, cells),
        ))
    }

    /// Closes a circuit, releasing any reserved bandwidth. Returns its
    /// final statistics.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownCircuit`] if the id was never opened.
    pub fn close(&mut self, vc: VcId) -> Result<VcStats, NetError> {
        let meta = self.meta.remove(&vc).ok_or(NetError::UnknownCircuit(vc))?;
        if let Some((switches, links, host_links, cells)) = meta.reservation {
            self.central.release(
                self.fabric.topology(),
                &switches,
                &links,
                &host_links,
                cells,
            );
        }
        if let Some(stats) = self.broken.remove(&vc) {
            return Ok(stats);
        }
        self.fabric
            .close_circuit(vc)
            .ok_or(NetError::UnknownCircuit(vc))
    }

    /// Queues a packet on a circuit at the source controller, which
    /// segments it into cells (§1). A paged-out circuit is transparently
    /// paged back in first (§2).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownCircuit`] / [`NetError::CircuitDown`], or
    /// [`NetError::NoRoute`] when paging in finds no working path.
    pub fn send_packet(&mut self, vc: VcId, packet: Packet) -> Result<(), NetError> {
        if !self.meta.contains_key(&vc) {
            return Err(NetError::UnknownCircuit(vc));
        }
        if self.broken.contains_key(&vc) {
            return Err(NetError::CircuitDown(vc));
        }
        if self.fabric.is_paged_out(vc) {
            self.page_in(vc)?;
        }
        let cells = Segmenter::new(vc).segment(&packet);
        self.fabric.send_cells(vc, cells);
        Ok(())
    }

    /// Pages out every best-effort circuit that has been idle for at least
    /// `idle_slots` (§2's resource-reclamation optimization), releasing its
    /// routing-table entries and per-hop buffers. Returns the circuits
    /// paged out. They page back in transparently on the next
    /// [`Network::send_packet`].
    pub fn page_out_idle(&mut self, idle_slots: u64) -> Vec<VcId> {
        let mut paged = Vec::new();
        let mut candidates: Vec<VcId> = self
            .meta
            .iter()
            .filter(|(_, m)| matches!(m.class, TrafficClass::BestEffort))
            .map(|(&vc, _)| vc)
            .collect();
        candidates.sort_unstable();
        for vc in candidates {
            if self.fabric.is_paged_out(vc) || self.broken.contains_key(&vc) {
                continue;
            }
            if self.fabric.is_idle(vc, idle_slots) && self.fabric.page_out_circuit(vc) {
                paged.push(vc);
            }
        }
        paged
    }

    /// Whether a circuit is currently paged out.
    pub fn is_paged_out(&self, vc: VcId) -> bool {
        self.fabric.is_paged_out(vc)
    }

    /// Re-establishes a paged-out circuit on the current topology — the §2
    /// "page in" triggered by fresh traffic.
    fn page_in(&mut self, vc: VcId) -> Result<(), NetError> {
        let meta = self
            .meta
            .get(&vc)
            .cloned()
            .ok_or(NetError::UnknownCircuit(vc))?;
        let (switches, links, src_link, dst_link) = self.best_effort_route(meta.src, meta.dst)?;
        self.fabric
            .page_in_circuit(vc, switches, links, src_link, dst_link);
        Ok(())
    }

    /// Advances the network by `slots` cell slots. With a fault layer
    /// attached, switch software pings each inter-switch link every
    /// monitor interval (§2); a monitor verdict transition triggers the
    /// same reconfiguration as an explicit [`Network::fail_link`] (or, on
    /// recovery, re-attaches circuits the failure had stranded). With the
    /// control plane enabled, verdicts instead feed the embedded
    /// reconfiguration agents, whose protocol messages ride the fabric as
    /// control cells.
    ///
    /// Stepping is batched: the fabric runs in one uninterrupted chunk up
    /// to the next *deadline* — the next ping boundary or the next
    /// control-cell arrival, whichever is sooner — so chaos runs keep the
    /// calendar ring's throughput instead of paying per-slot overhead at
    /// the network layer. With neither a fault layer nor the control plane
    /// there is no deadline, and the whole call is one chunk.
    pub fn step(&mut self, slots: u64) {
        let mut remaining = slots;
        while remaining > 0 {
            let every = self
                .faults
                .as_ref()
                .map_or(u64::MAX, |c| c.ping_every_slots.max(1));
            let slot = self.fabric.slot();
            // Run up to (and including) the next ping boundary…
            let to_boundary = if every == u64::MAX {
                u64::MAX
            } else {
                every - slot % every
            };
            // …but never past a control-cell arrival: the slot a message
            // is due must execute so its agent can answer promptly.
            let to_ctrl = if self.control.is_some() {
                self.fabric
                    .next_ctrl_due()
                    .map_or(u64::MAX, |due| due.saturating_sub(slot) + 1)
            } else {
                u64::MAX
            };
            let chunk = remaining.min(to_boundary).min(to_ctrl).max(1);
            self.fabric.step(chunk);
            remaining = remaining.saturating_sub(chunk);
            if self.control.is_some() {
                self.pump_control();
            }
            if every != u64::MAX && self.fabric.slot().is_multiple_of(every) {
                self.run_pings();
            }
        }
    }

    /// One ping round: probe every monitored link, feed each monitor, and
    /// act on verdict transitions.
    fn run_pings(&mut self) {
        // Detach the controller so monitor callbacks can reconfigure
        // through `&mut self` (fail_link / revive_link touch fabric,
        // central, meta, and broken — everything but `faults`).
        let Some(mut ctl) = self.faults.take() else {
            return;
        };
        let slot = self.fabric.slot();
        let now = SimTime::ZERO + RATE.slot_duration() * slot;
        let mut transitions: Vec<(LinkId, LinkVerdict)> = Vec::new();
        for (link, monitor) in ctl.monitors.iter_mut() {
            let ok = self.fabric.ping_link(*link);
            if let Some(t) = monitor.on_ping(ok, now) {
                transitions.push((*link, t.to));
            }
            if let Some(edge) = monitor.take_quarantine_edge() {
                ctl.log.push(ReconfigEvent::LinkQuarantined {
                    slot,
                    at: now,
                    link: *link,
                    entered: edge.entered,
                    level: edge.level,
                });
                if let Some(t) = self.fabric.tracer() {
                    t.emit_at_ns(
                        now.as_nanos(),
                        TraceEvent::SkepticQuarantine {
                            link: link.0,
                            entered: edge.entered,
                            level: edge.level,
                        },
                    );
                    if edge.entered {
                        t.counter_add("skeptic.quarantines", Entity::Link(link.0), 1);
                    }
                }
            }
        }
        for (link, verdict) in transitions {
            if let Some(t) = self.fabric.tracer() {
                t.emit_at_ns(
                    now.as_nanos(),
                    TraceEvent::MonitorVerdict {
                        link: link.0,
                        up: matches!(verdict, LinkVerdict::Working),
                    },
                );
                t.counter_add("monitor.verdicts", Entity::Link(link.0), 1);
            }
            match verdict {
                LinkVerdict::Dead => {
                    ctl.log.push(ReconfigEvent::LinkDead {
                        slot,
                        at: now,
                        link,
                    });
                    if self.control.is_some() {
                        self.on_verdict_dead(link, slot, now, &mut ctl.log);
                    } else {
                        self.fail_link(link);
                    }
                }
                LinkVerdict::Working => {
                    ctl.log.push(ReconfigEvent::LinkWorking {
                        slot,
                        at: now,
                        link,
                    });
                    if self.control.is_some() {
                        self.on_verdict_working(link, slot, now, &mut ctl.log);
                    } else {
                        self.revive_link(link);
                    }
                }
            }
        }
        self.faults = Some(ctl);
    }

    /// Takes packets delivered to `host` since the last call.
    pub fn take_received(&mut self, host: HostId) -> Vec<(VcId, Packet)> {
        self.fabric.take_received(host)
    }

    /// Per-circuit statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown circuit.
    pub fn stats(&self, vc: VcId) -> &VcStats {
        self.fabric.stats(vc)
    }

    /// Cells still queued at a circuit's source controller.
    pub fn outbox_len(&self, vc: VcId) -> usize {
        self.fabric.outbox_len(vc)
    }

    /// Fails a link: in-flight traffic on it is lost, and every circuit
    /// whose path used it is rerouted (or marked broken when no capacity
    /// remains) — §2's "the virtual circuit can be rerouted by sending a
    /// new circuit setup cell from the point where the path was broken".
    pub fn fail_link(&mut self, link: LinkId) {
        let victims = self.fabric.circuits_using(link);
        self.fabric.fail_link(link);
        for vc in victims {
            self.repair(vc);
        }
    }

    /// Pulls the plug on a switch: all its links fail at once (§1's demo).
    pub fn fail_switch(&mut self, victim: SwitchId) {
        let topo = self.topology();
        let incident: Vec<LinkId> = topo
            .links()
            .filter(|&l| {
                let (a, b) = topo.endpoints(l);
                a.node == Node::Switch(victim) || b.node == Node::Switch(victim)
            })
            .collect();
        let mut victims: Vec<VcId> = Vec::new();
        for l in &incident {
            victims.extend(self.fabric.circuits_using(*l));
        }
        victims.sort_unstable();
        victims.dedup();
        for l in incident {
            self.fabric.fail_link(l);
        }
        for vc in victims {
            self.repair(vc);
        }
    }

    /// Attaches a deterministic fault layer: the injector described by
    /// `spec` drives every link's loss/corruption/jitter and the scripted
    /// flaps and line-card crashes, and one [`LinkMonitor`] per
    /// inter-switch link starts pinging at the spec's interval. The same
    /// `(spec, seed)` pair replays byte-identically. Call before driving
    /// traffic; attaching mid-flight leaves earlier cells un-faulted.
    pub fn attach_faults(&mut self, spec: &FaultSpec, seed: u64) {
        self.fabric.attach_faults(spec, seed);
        let topo = self.fabric.topology();
        let monitors: Vec<(LinkId, LinkMonitor)> = topo
            .switch_links()
            .map(|(l, _, _)| (l, LinkMonitor::new(spec.monitor)))
            .collect();
        let slot_ns = RATE.slot_duration().as_nanos().max(1);
        let ping_every_slots = (spec.monitor.ping_interval.as_nanos() / slot_ns).max(1);
        self.faults = Some(FaultCtl {
            monitors,
            ping_every_slots,
            log: Vec::new(),
        });
    }

    /// The fault layer's counters, if one is attached.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fabric.fault_counters()
    }

    /// Attaches a flight recorder + metrics registry to every layer of the
    /// stack: the fabric (and through it each switch and the fault
    /// injector) plus the embedded control plane's
    /// phase transitions — attachable in any order relative to
    /// [`Network::attach_faults`] and [`Network::enable_control_plane`].
    /// The config's `slot_ns` is overridden with this network's link rate
    /// so event timestamps land on the real virtual clock. Tracing records
    /// decisions after they are made and draws no randomness: a traced run
    /// is byte-identical to an untraced one.
    ///
    /// Returns a handle sharing the recorder; clone it freely.
    pub fn attach_tracer(&mut self, cfg: TraceConfig) -> Tracer {
        let mut cfg = cfg;
        cfg.slot_ns = RATE.slot_duration().as_nanos().max(1);
        let tracer = Tracer::new(cfg);
        self.fabric.attach_tracer(tracer.clone());
        if let Some(cp) = self.control.as_mut() {
            cp.attach_tracer(tracer.clone());
        }
        tracer
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.fabric.tracer()
    }

    /// Attaches a tracer (see [`Network::attach_tracer`]) with the
    /// streaming telemetry tier enabled: the observatory scrapes the
    /// registry into interval snapshots on the fabric's virtual clock and
    /// runs the SLO watchdog over every interval, mirroring its
    /// [`an2_trace::HealthEvent`]s into the flight recorder. Scraping reads
    /// the registry and nothing else — an observed run stays byte-identical
    /// to an unobserved (and to an untraced) one.
    pub fn attach_observatory(
        &mut self,
        trace_cfg: TraceConfig,
        cfg: an2_trace::ObservatoryConfig,
    ) -> Tracer {
        let tracer = self.attach_tracer(trace_cfg);
        tracer.enable_observatory(cfg);
        tracer
    }

    /// The typed reconfiguration log: monitor verdicts
    /// ([`ReconfigEvent::LinkDead`] / [`ReconfigEvent::LinkWorking`]) and —
    /// with the control plane enabled — epoch opens, quiescence, and route
    /// installs, in slot order. Empty without a fault layer.
    pub fn reconfig_log(&self) -> &[ReconfigEvent] {
        self.faults.as_ref().map_or(&[], |c| c.log.as_slice())
    }

    /// The skeptic escalation level of `link`'s monitor, or `None` without
    /// a fault layer or for a link with no monitor (host attachments).
    pub fn skeptic_level(&self, link: LinkId) -> Option<u32> {
        let ctl = self.faults.as_ref()?;
        ctl.monitors
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, m)| m.skeptic_level())
    }

    /// Links currently held in skeptic quarantine: their pings look healthy
    /// but recovery is suppressed until the exponential holddown expires.
    pub fn quarantined_links(&self) -> Vec<LinkId> {
        self.faults.as_ref().map_or_else(Vec::new, |c| {
            c.monitors
                .iter()
                .filter(|(_, m)| m.in_quarantine())
                .map(|(l, _)| *l)
                .collect()
        })
    }

    /// Total recovery verdicts suppressed by the skeptic's holddown across
    /// all monitored links so far.
    pub fn suppressed_recoveries(&self) -> u64 {
        self.faults.as_ref().map_or(0, |c| {
            c.monitors
                .iter()
                .map(|(_, m)| m.suppressed_recoveries())
                .sum()
        })
    }

    /// Control-cell transport counters (messages and cells sent, messages
    /// destroyed by loss, dead links, or crashed line cards).
    pub fn ctrl_counters(&self) -> CtrlCounters {
        self.fabric.ctrl_counters()
    }

    /// The replay digest: what "byte-identical" means for two runs of a
    /// network. [`Fabric::digest`]'s walk with every circuit this layer
    /// holds broken standing in `VcId` order as a marker, then the typed
    /// reconfiguration log (per event: slot, kind, and the link, epoch,
    /// message count, route counts or quarantine edge it carries), then
    /// the recoveries the skeptic suppressed. Reads only — two calls are
    /// equal and [`Network::take_received`] afterwards loses nothing — and
    /// equal across shard counts, tracing and `step` chunkings. N8 prints
    /// it and `benchmark/goldens.json` stores it, so the order of terms is
    /// fixed.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::replay();
        self.fabric.digest_into(&mut h, self.broken.keys().copied());
        for e in self.reconfig_log() {
            h.add(e.slot());
            match *e {
                ReconfigEvent::LinkDead { link, .. } => h.add(0x100 | u64::from(link.0)),
                ReconfigEvent::LinkWorking { link, .. } => h.add(0x200 | u64::from(link.0)),
                ReconfigEvent::EpochStarted { tag, .. } => h.add(0x300 | tag.epoch),
                ReconfigEvent::Quiesced { messages, .. } => h.add(0x400_0000 | messages),
                ReconfigEvent::RoutesInstalled {
                    rerouted,
                    kept,
                    unroutable,
                    ..
                } => {
                    h.add(0x500);
                    h.add((rerouted << 20) | (kept << 10) | unroutable);
                }
                ReconfigEvent::LinkQuarantined {
                    link,
                    entered,
                    level,
                    ..
                } => {
                    h.add(0x600 | u64::from(link.0));
                    h.add((u64::from(entered) << 32) | u64::from(level));
                }
            }
        }
        h.add(self.suppressed_recoveries());
        h.finish()
    }

    /// An open circuit's full wiring: switch path, inter-switch links, and
    /// the two host attachment links. `None` for broken or unknown
    /// circuits.
    pub fn circuit_wiring(&self, vc: VcId) -> Option<(Vec<SwitchId>, Vec<LinkId>, LinkId, LinkId)> {
        self.fabric.circuit_wiring(vc)
    }

    /// Declares a dead link working again (the monitor's recovery verdict)
    /// and re-attaches any circuits that were stranded broken for lack of
    /// capacity.
    pub fn revive_link(&mut self, link: LinkId) {
        if !self.fabric.revive_link(link) {
            return;
        }
        self.reattach_stranded(|_| true);
    }

    /// Tries to rebuild the broken circuits whose class `wanted` accepts,
    /// in id order.
    fn reattach_stranded(&mut self, wanted: impl Fn(TrafficClass) -> bool) {
        let mut stranded: Vec<VcId> = self
            .broken
            .keys()
            .copied()
            .filter(|vc| self.meta.get(vc).is_some_and(|m| wanted(m.class)))
            .collect();
        stranded.sort_unstable();
        for vc in stranded {
            self.reattach_broken(vc);
        }
    }

    /// Today's path for a circuit of `meta`'s class: the shortest working
    /// route for best-effort, bandwidth central's admission — committed,
    /// with the reservation to book — for guaranteed.
    fn route_for(&mut self, meta: &CircuitMeta) -> Option<(paths::Wiring, Option<Reservation>)> {
        match meta.class {
            TrafficClass::BestEffort => {
                Some((self.best_effort_route(meta.src, meta.dst).ok()?, None))
            }
            TrafficClass::Guaranteed { cells_per_frame } => {
                let (wiring, reservation) =
                    self.admit_guaranteed(meta.src, meta.dst, cells_per_frame as u32)?;
                Some((wiring, Some(reservation)))
            }
        }
    }

    /// Tries to rebuild one broken circuit on the current topology,
    /// restoring the statistics it had accumulated before the failure.
    fn reattach_broken(&mut self, vc: VcId) {
        let Some(meta) = self.meta.get(&vc).cloned() else {
            return;
        };
        let Some(((switches, links, src_link, dst_link), reservation)) = self.route_for(&meta)
        else {
            return;
        };
        self.fabric.open_circuit(
            vc, meta.src, meta.dst, meta.class, switches, links, src_link, dst_link,
        );
        if let Some(m) = self.meta.get_mut(&vc) {
            m.reservation = reservation;
        }
        if let Some(stats) = self.broken.remove(&vc) {
            self.fabric.restore_stats(vc, stats);
        }
    }

    /// Kicks off an end-to-end credit resynchronization on a circuit (§5):
    /// a marker rides the data channel through every hop; each hop's reply
    /// reports how many cells actually arrived, and the sender's balance is
    /// rebuilt from that count, recovering credits lost to the wire.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownCircuit`] / [`NetError::CircuitDown`] for
    /// unusable circuits; [`NetError::LinkDead`] when a hop of the path is
    /// down (resync over a dead link cannot complete — repair the route
    /// first); [`NetError::ResyncPending`] when an earlier resync is still
    /// in flight.
    pub fn force_resync(&mut self, vc: VcId) -> Result<(), NetError> {
        if !self.meta.contains_key(&vc) {
            return Err(NetError::UnknownCircuit(vc));
        }
        if self.broken.contains_key(&vc) {
            return Err(NetError::CircuitDown(vc));
        }
        if let Some(dead) = self.fabric.dead_link_on_path(vc) {
            return Err(NetError::LinkDead(dead));
        }
        if self.fabric.resync_pending(vc) {
            return Err(NetError::ResyncPending(vc));
        }
        self.fabric.force_resync(vc);
        Ok(())
    }

    /// Whether a credit resynchronization is still in flight on the
    /// circuit.
    pub fn resync_pending(&self, vc: VcId) -> bool {
        self.fabric.resync_pending(vc)
    }

    /// Whether every hop of a best-effort circuit is back at its full
    /// credit allocation (meaningful once traffic has drained).
    pub fn credits_fully_restored(&self, vc: VcId) -> bool {
        self.fabric.credits_fully_restored(vc)
    }

    /// §2's speculative extension: "a more speculative option is to reroute
    /// circuits to balance the load on the network." One rebalancing pass:
    /// find the inter-switch link carrying the most best-effort circuits and
    /// move one of them onto an alternative path that (a) avoids that link
    /// and (b) is no longer than the current path, if such a path exists.
    /// Returns the circuit moved, or `None` when the network is already
    /// balanced (no improving move exists).
    ///
    /// The mechanics are exactly the failure-reroute mechanics — "the
    /// mechanics of rerouting are no more difficult in this case" — so a
    /// moved circuit drops its in-flight cells; callers should rebalance
    /// during lulls.
    pub fn rebalance(&mut self) -> Option<VcId> {
        let counts = self.fabric.link_circuit_counts();
        let (&(hot_link, hot_count), _) = counts
            .iter()
            .map(|e| (e, ()))
            .max_by_key(|((_, c), ())| *c)?;
        if hot_count <= 1 {
            return None; // nothing to gain by moving a lone circuit
        }
        let mut victims = self.fabric.circuits_using(hot_link);
        victims.retain(|vc| {
            self.meta
                .get(vc)
                .is_some_and(|m| matches!(m.class, TrafficClass::BestEffort))
                && !self.fabric.is_paged_out(*vc)
        });
        let load_of = |l: LinkId| counts.iter().find(|&&(k, _)| k == l).map_or(0, |&(_, c)| c);
        for vc in victims {
            let meta = self.meta[&vc].clone();
            let current_len = self.fabric.circuit_path(vc).map_or(usize::MAX, <[_]>::len);
            // Search for an equally short path avoiding the hot link,
            // probing the borrowed topology directly (no clone).
            let topo = self.fabric.topology();
            let Some(route) =
                an2_topology::paths::host_route_avoiding(topo, meta.src, meta.dst, hot_link)
            else {
                continue;
            };
            if route.switches.len() > current_len {
                continue; // only sideways moves: no latency penalty
            }
            // Materialize concrete links, preferring the least-loaded
            // parallel link per hop (never the hot link itself).
            let mut links = Vec::new();
            let mut ok = true;
            for w in route.switches.windows(2) {
                match topo
                    .links_between(w[0], w[1])
                    .into_iter()
                    .filter(|&l| l != hot_link)
                    .min_by_key(|&l| load_of(l))
                {
                    Some(l) => links.push(l),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // Strict improvement only, or rebalancing would oscillate:
            // every link on the new path must end up below the hot link's
            // current load.
            if links.iter().any(|&l| load_of(l) + 1 >= hot_count) {
                continue;
            }
            let src_link = topo
                .host_attachments(meta.src)
                .into_iter()
                .find(|&(_, s)| s == route.switches[0])
                .map(|(l, _)| l);
            let dst_link = topo
                .host_attachments(meta.dst)
                .into_iter()
                .find(|&(_, s)| Some(s) == route.switches.last().copied())
                .map(|(l, _)| l);
            if let (Some(src_link), Some(dst_link)) = (src_link, dst_link) {
                self.fabric
                    .reroute_circuit(vc, route.switches, links, src_link, dst_link);
                return Some(vc);
            }
        }
        None
    }

    /// Best-effort circuit count per working inter-switch link.
    pub fn link_loads(&self) -> Vec<(LinkId, usize)> {
        self.fabric.link_circuit_counts()
    }

    /// Attempts to re-establish a circuit on the current topology.
    fn repair(&mut self, vc: VcId) {
        if self.fabric.is_paged_out(vc) {
            // A paged-out circuit holds no network resources; it will pick
            // a fresh route when it pages back in.
            return;
        }
        let Some(meta) = self.meta.get(&vc).cloned() else {
            return;
        };
        // Release a guaranteed circuit's old reservation (links that died
        // release capacity nobody can use; harmless).
        if let Some((switches, links, host_links, amount)) =
            self.meta.get_mut(&vc).and_then(|m| m.reservation.take())
        {
            let topo = self.fabric.topology();
            self.central
                .release(topo, &switches, &links, &host_links, amount);
        }
        match self.route_for(&meta) {
            Some(((switches, links, src_link, dst_link), reservation)) => {
                self.fabric
                    .reroute_circuit(vc, switches, links, src_link, dst_link);
                if let Some(m) = self.meta.get_mut(&vc) {
                    m.reservation = reservation;
                }
                self.broken.remove(&vc);
            }
            None => {
                if let Some(stats) = self.fabric.close_circuit(vc) {
                    self.broken.insert(vc, stats);
                }
            }
        }
    }
}
