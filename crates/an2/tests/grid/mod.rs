//! The one grid the pin suites walk: the shapes, named as their pin rows
//! name them; the circuit mix, the loaded-link cut and the host pairs their
//! workloads share; the digest they fold on top of the library's; the
//! engine walk that holds every shard count, tracing and `step` chunking of
//! a grid point to one row; and the pin assertion, which prints both sides.
//!
//! Each suite includes it with `mod grid;`. What only one suite's script
//! does stays in that suite; the helpers here take data (ids, counts,
//! rates), never a name for their caller.

// A suite uses only part of the grid; the rest is dead code in that build.
#![allow(dead_code)]

use std::fmt::{self, Debug};
use std::ops::Range;

use an2::{Fabric, FaultSpec, Network, TraceConfig, Tracer, TrafficClass, VcStats};
use an2_cells::{Packet, Segmenter, VcId};
use an2_sim::{Fnv, SimDuration, SimRng};
use an2_topology::{generators, paths, HostId, LinkId, LinkState, SwitchId, Topology};

/// A grid shape: the label its pin rows carry, and how to build it.
pub type Shape = (&'static str, fn() -> Topology);

/// Three switches in a line, two hosts on each end switch.
pub fn line3() -> Topology {
    let mut t = generators::line(3);
    for s in [0u16, 0, 2, 2] {
        let h = t.add_host();
        t.attach_host(h, SwitchId(s)).expect("line host attach");
    }
    t
}

/// A four-switch ring, one host per switch.
pub fn ring4() -> Topology {
    ring(4, 4)
}

/// A four-switch ring, eight hosts round-robin.
pub fn ring4x8() -> Topology {
    ring(4, 8)
}

/// A single-homed five-switch ring, ten hosts round-robin.
pub fn ring5x10() -> Topology {
    ring(5, 10)
}

/// The paper's SRC installation shape (ring + chords, dual-homed hosts):
/// four switches, six hosts.
pub fn src4x6() -> Topology {
    generators::src_installation(4, 6)
}

/// The SRC installation shape, four switches and eight hosts.
pub fn src4x8() -> Topology {
    generators::src_installation(4, 8)
}

/// The SRC installation shape, six switches and twelve hosts.
pub fn src6x12() -> Topology {
    generators::src_installation(6, 12)
}

/// The twelve-switch fat-tree: radix 2, three levels.
pub fn fat2x3() -> Topology {
    generators::fat_tree(2, 3)
}

/// A ring of `switches` with `hosts` attached round-robin, as
/// `NetworkBuilder::ring` builds it.
fn ring(switches: usize, hosts: usize) -> Topology {
    let mut t = generators::ring(switches);
    for k in 0..hosts {
        let h = t.add_host();
        t.attach_host(h, SwitchId((k % switches) as u16))
            .expect("ring host attach");
    }
    t
}

/// A circuit a grid workload opened: its id and the hosts it joins.
pub type Opened = (VcId, HostId, HostId);

/// Two hosts of `host_count` drawn from `wl`, a source and then a
/// destination; a destination equal to the source becomes the next host.
pub fn draw_pair(wl: &mut SimRng, host_count: usize) -> (HostId, HostId) {
    let src = wl.gen_range(host_count);
    let mut dst = wl.gen_range(host_count);
    if dst == src {
        dst = (src + 1) % host_count;
    }
    (HostId(src as u16), HostId(dst as u16))
}

/// The circuit mix: for each `i` in `ids`, circuit `100 + i` between a
/// [`draw_pair`] — guaranteed at two cells per frame when `i % 4 == 0`,
/// signalled when `i % 4 == 1`, best-effort otherwise. A pair with no path
/// opens nothing (its draws are still taken).
pub fn open_mixed(f: &mut Fabric, wl: &mut SimRng, ids: Range<u32>) -> Vec<Opened> {
    let mut opened = Vec::new();
    for i in ids {
        let vc = VcId::new(100 + i);
        let (src, dst) = draw_pair(wl, f.topology().host_count());
        let Some((sw, links, sl, dl)) = paths::host_wiring(f.topology(), src, dst) else {
            continue;
        };
        match i % 4 {
            0 => {
                let class = TrafficClass::Guaranteed { cells_per_frame: 2 };
                f.open_circuit(vc, src, dst, class, sw, links, sl, dl);
            }
            1 => f.open_circuit_signaled(vc, src, dst, sw, links, sl, dl),
            _ => f.open_circuit(vc, src, dst, TrafficClass::BestEffort, sw, links, sl, dl),
        }
        opened.push((vc, src, dst));
    }
    opened
}

/// What [`cut_loaded_link`] did: the link it failed, and the circuits that
/// crossed it and had no path left, closed, with their statistics at close.
pub struct Cut {
    pub link: LinkId,
    pub closed: Vec<(VcId, VcStats)>,
}

/// Fails the first working inter-switch link some circuit crosses, then
/// reroutes each circuit that crossed it over what survives, or closes it
/// where nothing does. `None` when no link carries a circuit.
pub fn cut_loaded_link(f: &mut Fabric, vcs: &[Opened]) -> Option<Cut> {
    let link = f.topology().switch_links().map(|(l, _, _)| l).find(|&l| {
        f.topology().link_state(l) == LinkState::Working && !f.circuits_using(l).is_empty()
    })?;
    let victims = f.circuits_using(link);
    f.fail_link(link);
    let mut closed = Vec::new();
    for vc in victims {
        let &(_, src, dst) = vcs
            .iter()
            .find(|(v, _, _)| *v == vc)
            .expect("victim was opened by the workload");
        match paths::host_wiring(f.topology(), src, dst) {
            Some((sw, links, sl, dl)) => f.reroute_circuit(vc, sw, links, sl, dl),
            None => closed.extend(f.close_circuit(vc).map(|s| (vc, s))),
        }
    }
    Some(Cut { link, closed })
}

/// The open-loop offer: for each circuit of `vcs` that is open and paged
/// in, `tries` draws, each sending with probability `p` one packet of
/// `40 + rand(spread)` bytes, every byte its length mod 251.
pub fn offer(f: &mut Fabric, wl: &mut SimRng, vcs: &[Opened], tries: usize, p: f64, spread: usize) {
    for &(vc, _, _) in vcs {
        if !f.has_circuit(vc) || f.is_paged_out(vc) {
            continue;
        }
        for _ in 0..tries {
            if wl.gen_bool(p) {
                let len = 40 + wl.gen_range(spread);
                let pkt = Packet::from_bytes(vec![(len % 251) as u8; len]);
                f.send_cells(vc, Segmenter::new(vc).segment(&pkt));
            }
        }
    }
}

/// A circuit between each pair of consecutive hosts (0–1, 2–3, …), at most
/// `pairs` of them, keeping those that open: best-effort, except that with
/// `guaranteed` set every third pair (index 2, 5, …) gets that many cells
/// per frame.
pub fn open_pairs(net: &mut Network, pairs: usize, guaranteed: Option<u16>) -> Vec<VcId> {
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for (i, pair) in hosts.chunks_exact(2).take(pairs).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        let opened = match guaranteed {
            Some(cells) if i % 3 == 2 => net.open_guaranteed(a, b, cells),
            _ => net.open_best_effort(a, b),
        };
        circuits.extend(opened);
    }
    circuits
}

/// `rounds` rounds, `every` slots apart: each sends one `len`-byte packet,
/// every byte the round's number (mod 256), on each circuit not broken,
/// then steps `every` slots.
pub fn send_rounds(net: &mut Network, circuits: &[VcId], rounds: u64, every: u64, len: usize) {
    for round in 0..rounds {
        for &vc in circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![round as u8; len]));
            }
        }
        net.step(every);
    }
}

/// A far-future slot: a flap that never recovers within any grid's run.
pub const NEVER: u64 = 1_000_000_000;

/// A fault layer with nothing scripted yet whose monitor pings every link
/// each millisecond: what every `Network` leg starts from.
pub fn pinged_spec() -> FaultSpec {
    let mut spec = FaultSpec::default();
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec
}

/// Folds a value's every field into `h` through its `Debug` form.
pub fn hash_debug(h: &mut Fnv, value: &impl Debug) {
    h.bytes(format!("{value:?}").as_bytes());
}

/// A hasher holding `digest` and, on top, what its walk leaves out: every
/// payload byte of `received`, in order, and the final `slot`. `digest`
/// must be taken before the hosts are drained — the walk reads each waiting
/// packet's circuit and length, which is what tells these bytes apart.
fn on_top_of(digest: u64, received: Vec<(VcId, Packet)>, slot: u64) -> Fnv {
    let mut h = Fnv::new();
    h.add(digest);
    for (_, p) in received {
        h.bytes(p.as_bytes());
    }
    h.add(slot);
    h
}

/// [`Fabric::digest`] with, on top, every payload byte each host received
/// (hosts in id order) and the final slot; the caller folds in whatever
/// else its grid pins.
pub fn fabric_digest(f: &mut Fabric) -> Fnv {
    let digest = f.digest();
    let hosts: Vec<_> = f.topology().hosts().collect();
    let received = hosts.into_iter().flat_map(|h| f.take_received(h)).collect();
    on_top_of(digest, received, f.slot())
}

/// [`Network::digest`] with the same terms on top as [`fabric_digest`].
pub fn network_digest(net: &mut Network) -> Fnv {
    let digest = net.digest();
    let hosts: Vec<_> = net.hosts().collect();
    let received = hosts
        .into_iter()
        .flat_map(|h| net.take_received(h))
        .collect();
    on_top_of(digest, received, net.slot())
}

/// A run's digest `h`, and with a tracer the same digest with every
/// flight-recorder record folded in after it, in recording order.
pub fn with_records(h: Fnv, tracer: Option<&Tracer>) -> (u64, Option<u64>) {
    let traced = tracer.map(|t| {
        let mut h = h;
        hash_debug(&mut h, &t.records());
        h.finish()
    });
    (h.finish(), traced)
}

/// Attaches a fresh flight recorder to `f`, sampling one cell hop in
/// `sample_every`, and returns it.
pub fn attach_tracer(f: &mut Fabric, sample_every: u32) -> Tracer {
    let t = Tracer::new(TraceConfig {
        sample_every,
        ..TraceConfig::default()
    });
    f.attach_tracer(t.clone());
    t
}

/// Steps `slots` slots in calls of at most `chunk`.
pub fn step_in_chunks(f: &mut Fabric, slots: u64, chunk: u64) {
    let end = f.slot() + slots;
    while f.slot() < end {
        f.step(chunk.min(end - f.slot()));
    }
}

/// A grid's rows against its pin table; the failure prints both.
pub fn assert_pins(grid: &str, actual: &str, pinned: &str) {
    assert!(
        actual == pinned,
        "{grid} moved off the pins.\n--- actual ---\n{actual}--- pinned ---\n{pinned}"
    );
}

/// One setting of the engine axes: the shard count, whether a flight
/// recorder is attached, and the longest `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    pub shards: usize,
    pub traced: bool,
    pub chunk: u64,
}

/// The `chunk` of an engine whose runs step each stretch in one call.
pub const WHOLE: u64 = u64::MAX;

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let traced = if self.traced { "traced" } else { "untraced" };
        write!(f, "{} shard(s), {traced}, ", self.shards)?;
        match self.chunk {
            WHOLE => write!(f, "whole steps"),
            chunk => write!(f, "steps of {chunk}"),
        }
    }
}

/// Every engine of the axes' product, shards outermost, then tracing, then
/// chunk.
pub fn engines(shards: &[usize], traced: &[bool], chunks: &[u64]) -> Vec<Engine> {
    let mut all = Vec::new();
    for &shards in shards {
        for &traced in traced {
            for &chunk in chunks {
                all.push(Engine {
                    shards,
                    traced,
                    chunk,
                });
            }
        }
    }
    all
}

/// What a run of a grid point leaves behind: its row, which no engine
/// setting may move, and what the flight recorder adds to it (`None`
/// untraced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome<L, T = L> {
    pub line: L,
    pub trace: Option<T>,
}

impl<L> Outcome<L> {
    /// The outcome of a run with no flight recorder.
    pub fn untraced(line: L) -> Self {
        Outcome { line, trace: None }
    }
}

/// Runs one grid point at every engine and returns what they agree on:
/// the same `line` from every run, and the same `trace` from every run
/// with the same tracing (a traced run's outcome is returned when there is
/// one). The first run that disagrees fails the walk, naming the point and
/// both engines.
pub fn walk<L, T>(
    at: &str,
    engines: &[Engine],
    mut run: impl FnMut(Engine) -> Outcome<L, T>,
) -> Outcome<L, T>
where
    L: PartialEq + Debug,
    T: PartialEq + Debug,
{
    // The first run of each tracing setting, indexed by `traced`.
    let mut first: [Option<(Engine, Outcome<L, T>)>; 2] = [None, None];
    for &e in engines {
        let out = run(e);
        if let Some((base, row)) = first.iter().flatten().next() {
            assert_eq!(out.line, row.line, "{at}: {e} moved the row off {base}'s");
        }
        match &first[usize::from(e.traced)] {
            Some((base, row)) => {
                assert_eq!(out.trace, row.trace, "{at}: {e} recorded other than {base}");
            }
            None => first[usize::from(e.traced)] = Some((e, out)),
        }
    }
    let [untraced, traced] = first;
    let (_, row) = traced.or(untraced).expect("a walk has an engine");
    row
}
