//! The fabric workloads N2, N5, N6 and N7 measure, held once: which hosts
//! talk, the wiring of every circuit, the pre-segmented cells, the
//! open-and-preload loop and the stats digest.
//!
//! Building a scenario and loading a fabric are set-up and belong outside a
//! timed region, so that what an experiment times is the fabric's per-slot
//! data-plane work rather than routing or the AAL5 segmenter.

use an2::{FabricConfig, TrafficClass, VcStats};
use an2_cells::{Cell, Packet, Segmenter, VcId};
use an2_topology::{generators, paths, HostId, Topology};
use std::collections::HashMap;

/// One circuit of a workload: endpoints, wiring and preloaded cells.
struct CircuitLoad {
    vc: VcId,
    src: HostId,
    dst: HostId,
    wiring: paths::Wiring,
    cells: Vec<Cell>,
}

/// A topology plus the best-effort circuits to open on it.
pub struct Scenario {
    topo: Topology,
    circuits: Vec<CircuitLoad>,
}

/// Opens every circuit and preloads its outbox. A macro because the slab and
/// reference fabrics share an API, not a trait.
macro_rules! load {
    ($f:expr, $scenario:expr) => {
        for c in &$scenario.circuits {
            let (sw, links, sl, dl) = c.wiring.clone();
            let class = TrafficClass::BestEffort;
            $f.open_circuit(c.vc, c.src, c.dst, class, sw, links, sl, dl);
            $f.send_cells(c.vc, c.cells.clone());
        }
    };
}

impl Scenario {
    /// Circuit `j` (VC `100 + j`) joins host pair `j` of `pairs` and is
    /// preloaded with `packets` copies of `pkt`. A pair with no route is
    /// skipped. Routes are memoized: the tree workloads repeat a few hundred
    /// pairs up to 100k times.
    fn new(
        topo: Topology,
        pairs: impl IntoIterator<Item = (usize, usize)>,
        pkt: &Packet,
        packets: usize,
    ) -> Self {
        let mut memo: HashMap<(usize, usize), Option<paths::Wiring>> = HashMap::new();
        let mut circuits = Vec::new();
        for (j, (src, dst)) in pairs.into_iter().enumerate() {
            let (s, d) = (HostId(src as u16), HostId(dst as u16));
            let wiring = memo
                .entry((src, dst))
                .or_insert_with(|| paths::host_wiring(&topo, s, d));
            let Some(wiring) = wiring.clone() else {
                continue;
            };
            let vc = VcId::new(100 + j as u32);
            let per_packet = Segmenter::new(vc).segment(pkt);
            let mut cells = Vec::with_capacity(per_packet.len() * packets);
            for _ in 0..packets {
                cells.extend_from_slice(&per_packet);
            }
            circuits.push(CircuitLoad {
                vc,
                src: s,
                dst: d,
                wiring,
                cells,
            });
        }
        Scenario { topo, circuits }
    }

    /// The N2/N5 workload: a 4-switch SRC-style installation with 24
    /// dual-homed hosts (so the aggregate host-link rate keeps the crossbars
    /// busy rather than starving them), `circuits` circuits between
    /// round-robin host pairs, and 24 pre-segmented 7950-byte packets each —
    /// 24 × 166 ≈ 3984 cells, comfortably above the ~10k-slot host-link
    /// budget shared by the circuits of one host, so no outbox runs dry.
    pub fn src_dense(circuits: u32) -> Self {
        let topo = generators::src_installation(4, 24);
        let hosts = topo.host_count();
        // Offset 6 ≡ 2 (mod 4 switches): the destination's two attachment
        // switches are disjoint from the source's, so every route crosses an
        // inter-switch link instead of hairpinning through one crossbar.
        let pairs = (0..circuits as usize).map(|i| (i % hosts, (i + 6) % hosts));
        Self::new(topo, pairs, &Packet::from_bytes(vec![5u8; 7_950]), 24)
    }

    /// The N6 workload on `fat_tree(arity, levels)`: one circuit per host,
    /// to the partner found by flipping host bit `i mod bits` — a mix of
    /// route lengths that exercises every tree level without funnelling all
    /// traffic through one spine switch — with enough packets that no outbox
    /// runs dry inside a window of `slots`.
    pub fn tree_saturating(arity: usize, levels: usize, slots: u64) -> Self {
        let topo = generators::fat_tree(arity, levels);
        let hosts = topo.host_count();
        let host_bits = hosts.trailing_zeros().max(1) as usize;
        let pairs = (0..hosts).map(|i| (i, i ^ (1 << (i % host_bits))));
        let pkt = Packet::from_bytes(vec![5u8; 7_950]);
        // One cell per host per slot is the injection ceiling; round up a
        // packet so the window never drains the outbox.
        let packets = slots as usize / pkt.cell_count() + 1;
        Self::new(topo, pairs, &pkt, packets)
    }

    /// The N7 workload on `fat_tree(arity, levels)` and the slots it needs
    /// to inject and drain. Circuit `j` sources at host `j % hosts`; the
    /// first circuit of every host crosses the tree (`dst = src + hosts/2`),
    /// all later ones are local (`dst = src ^ 1`, the other host on the same
    /// leaf switch). Each carries one ~530-byte packet (12 cells), so total
    /// volume — and with it the injection window — scales linearly with the
    /// circuit count while the busy switch set stays fixed.
    pub fn tree_sparse(arity: usize, levels: usize, n_circuits: usize) -> (Self, u64) {
        let topo = generators::fat_tree(arity, levels);
        let hosts = topo.host_count();
        let pairs = (0..n_circuits).map(|j| {
            let src = j % hosts;
            let dst = if j < hosts {
                (src + hosts / 2) % hosts
            } else {
                src ^ 1
            };
            (src, dst)
        });
        let pkt = Packet::from_bytes(vec![7u8; 530]);
        // One cell per host per slot is the injection ceiling; leave a
        // drain margin for the cross-tree routes' credit round trips.
        let window = (n_circuits * pkt.cell_count()).div_ceil(hosts) as u64;
        (Self::new(topo, pairs, &pkt, 1), window + 700)
    }

    /// The topology the circuits run on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Circuits in the workload.
    pub fn circuits(&self) -> usize {
        self.circuits.len()
    }

    /// A slab fabric with every circuit open and every outbox preloaded.
    /// `configure` runs on the empty fabric first (shards, batching,
    /// profiling).
    pub fn fabric(&self, seed: u64, configure: impl FnOnce(&mut an2::Fabric)) -> an2::Fabric {
        let mut f = an2::Fabric::new(self.topo.clone(), FabricConfig::default(), seed);
        configure(&mut f);
        load!(f, self);
        f
    }

    /// The reference fabric, loaded the same way.
    pub fn reference_fabric(&self, seed: u64) -> an2::reference::Fabric {
        let mut f = an2::reference::Fabric::new(self.topo.clone(), FabricConfig::default(), seed);
        load!(f, self);
        f
    }

    /// Cells delivered over every circuit. `stats` is the fabric's `stats`
    /// method.
    pub fn delivered<'a>(&self, stats: impl Fn(VcId) -> &'a VcStats) -> u64 {
        self.circuits
            .iter()
            .map(|c| stats(c.vc).delivered_cells)
            .sum()
    }

    /// Digest of everything a run observes — per-circuit sent / delivered /
    /// dropped counts and every latency sample, in order (FNV-1a) — and the
    /// delivered-cell total.
    pub fn stats_digest(&self, f: &an2::Fabric) -> (u64, u64) {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |x: u64| {
            for b in x.to_le_bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x1_0000_01b3);
            }
        };
        let mut delivered = 0;
        for c in &self.circuits {
            let s = f.stats(c.vc);
            delivered += s.delivered_cells;
            fnv(s.sent_cells);
            fnv(s.delivered_cells);
            fnv(s.dropped_cells);
            for &sample in s.latency_slots.samples() {
                fnv(sample);
            }
        }
        (digest, delivered)
    }
}
