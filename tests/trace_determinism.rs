//! The flight recorder's central guarantee: observing a run does not change
//! it. A traced network digests byte-identical to an untraced one — same
//! per-circuit stats (including latency samples), same control-transport
//! counters, same fault counters, same reconfiguration log — across
//! topologies and seeds, with faults drawing randomness the whole time.
//! The same holds one tier up: the telemetry observatory (interval scraper
//! plus SLO watchdog) reads the registry every millisecond and runs its
//! detectors live, and still must leave every digest untouched.
//!
//! And the recording itself is deterministic: the record stream and the
//! registry export are pinned per topology × seed, so a change to who
//! emits what, in which order within a slot, shows up here as a diff.

use an2::{sink, FaultSpec, LossModel, Network, NetworkBuilder, TraceConfig, Tracer};
use an2_cells::Packet;
use an2_sim::{Fnv, SimDuration};
use an2_trace::ObservatoryConfig;

/// How much observation the run carries.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No tracer at all.
    Plain,
    /// Flight recorder attached.
    Traced,
    /// Flight recorder plus the observatory scraping every ~0.25 ms with
    /// the SLO watchdog live.
    Observed,
}

/// Lossy links plus a fast monitor, so the run exercises every RNG-adjacent
/// path the tracer instruments: fault draws, credit resync, verdicts.
fn spec() -> FaultSpec {
    let mut spec = FaultSpec::default();
    spec.default_link.loss = LossModel::Independent { p: 0.002 };
    spec.monitor.ping_interval = SimDuration::from_millis(1);
    spec
}

fn builder(topo: usize) -> NetworkBuilder {
    let b = Network::builder();
    match topo {
        0 => b.src_installation(4, 8),
        1 => b.src_installation(6, 12),
        _ => b.ring(4, 8),
    }
}

/// Runs the workload, optionally traced/observed, and digests everything
/// observable. Returns `(digest, delivered, events_recorded)`.
fn run(topo: usize, seed: u64, mode: Mode) -> (u64, u64, u64) {
    let (digest, delivered, tracer) = run_with_tracer(topo, seed, mode);
    let events = tracer.map_or(0, |t| t.events_seen());
    (digest, delivered, events)
}

/// As [`run`], handing back the tracer itself.
fn run_with_tracer(topo: usize, seed: u64, mode: Mode) -> (u64, u64, Option<Tracer>) {
    let mut net = builder(topo).seed(seed).build();
    let hosts: Vec<_> = net.hosts().collect();
    let mut circuits = Vec::new();
    for pair in hosts.chunks(2) {
        if let [a, b] = *pair {
            if let Ok(vc) = net.open_best_effort(a, b) {
                circuits.push(vc);
            }
        }
    }
    net.attach_faults(&spec(), seed);
    let trace_cfg = TraceConfig {
        sample_every: 16,
        ..TraceConfig::default()
    };
    let tracer = match mode {
        Mode::Plain => None,
        Mode::Traced => Some(net.attach_tracer(trace_cfg)),
        Mode::Observed => {
            Some(net.attach_observatory(trace_cfg, ObservatoryConfig { every_slots: 367 }))
        }
    };
    net.enable_control_plane();
    let mut tag = 0u8;
    while net.slot() < 30_000 {
        for &vc in &circuits {
            if !net.is_broken(vc) {
                let _ = net.send_packet(vc, Packet::from_bytes(vec![tag; 300]));
            }
        }
        tag = tag.wrapping_add(1);
        net.step(3_000);
    }
    net.step(10_000);

    let delivered = circuits
        .iter()
        .filter(|&&vc| !net.is_broken(vc))
        .map(|&vc| net.stats(vc).delivered_cells)
        .sum();
    (net.digest(), delivered, tracer)
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// `(topology, seed, records, FNV of the JSONL stream, metrics_json bytes,
/// FNV of metrics_json)` for the traced run of every grid cell, captured
/// at the commit that introduced trace lanes. The stream's order is part of
/// the contract: within a slot, the direct-path holders (fault injector,
/// monitor, control plane) in emission order, then the fabric's lane, then
/// each switch's lane in ascending id.
const PINNED: [(usize, u64, usize, u64, usize, u64); 9] = [
    (0, 3, 3433, 0xca7b8e69e581abdd, 5800, 0xa9b089298539833d),
    (0, 17, 3446, 0xacea45d7a975280b, 5733, 0xd920eaf1bdc7a135),
    (0, 91, 3432, 0xe01915812814dc3c, 5800, 0x19f3f96f75d10128),
    (1, 3, 5281, 0xa9fa4b0361557f56, 8755, 0xd803a7a37fca33ba),
    (1, 17, 5256, 0x7042b10e4c67867e, 8816, 0x22b8137f3ae2ce5c),
    (1, 91, 5273, 0x66e86fdfafc4a383, 8611, 0xa30f1701ec02851d),
    (2, 3, 3544, 0xed49a05cea3a53e9, 4643, 0x6ee0d6512fa57d9c),
    (2, 17, 3546, 0x7736b1d1fbfa1d9c, 4643, 0x3e0e7f3bdeafa5e4),
    (2, 91, 3540, 0xbd25469a7250e707, 4794, 0x6019ebbe50421edf),
];

#[test]
fn record_stream_and_registry_export_are_pinned() {
    let mut rows = Vec::new();
    for topo in 0..3usize {
        for seed in [3u64, 17, 91] {
            let (_, _, tracer) = run_with_tracer(topo, seed, Mode::Traced);
            let tracer = tracer.expect("traced mode attaches a tracer");
            assert_eq!(
                tracer.events_dropped(),
                0,
                "ring evicted records; the pin needs the whole run"
            );
            let records = tracer.records();
            if let Some(w) = records.windows(2).find(|w| w[0].slot > w[1].slot) {
                panic!(
                    "records step back in time (topo {topo}, seed {seed}): {:?} then {:?}",
                    w[0], w[1]
                );
            }
            let stream = sink::jsonl(&records);
            let metrics = tracer.metrics_json();
            rows.push((
                topo,
                seed,
                records.len(),
                fnv_bytes(stream.as_bytes()),
                metrics.len(),
                fnv_bytes(metrics.as_bytes()),
            ));
        }
    }
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "({}, {}, {}, {:#018x}, {}, {:#018x}),",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    assert_eq!(
        rows.as_slice(),
        PINNED.as_slice(),
        "recording changed; if intended, re-pin:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn traced_runs_are_byte_identical_to_untraced() {
    for topo in 0..3usize {
        for seed in [3u64, 17, 91] {
            let (plain, delivered, _) = run(topo, seed, Mode::Plain);
            let (traced, traced_delivered, events) = run(topo, seed, Mode::Traced);
            assert!(
                delivered > 0,
                "workload moved no traffic (topo {topo}, seed {seed})"
            );
            assert!(
                events > 0,
                "tracer recorded nothing (topo {topo}, seed {seed})"
            );
            assert_eq!(
                plain, traced,
                "tracing perturbed the run (topo {topo}, seed {seed})"
            );
            assert_eq!(delivered, traced_delivered);
        }
    }
}

/// `(topology, seed, intervals_seen, FNV of sink::timeseries_jsonl of the
/// retained intervals, health events, FNV of the JSONL record stream)` for
/// the observed run of every grid cell, captured at commit 15a940b (before
/// the interval marks moved into the registry). The record stream would
/// carry the watchdog's `health_alert` records among the rest; no cell of
/// this grid raises one, so it equals the traced stream `PINNED` holds, and
/// alerts are pinned by N10's golden and `golden_trace` instead.
const PINNED_OBSERVED: [(usize, u64, u64, u64, usize, u64); 9] = [
    (0, 3, 108, 0xcc59e82af5b80c5e, 0, 0xca7b8e69e581abdd),
    (0, 17, 108, 0x4961f031b6bc2b9b, 0, 0xacea45d7a975280b),
    (0, 91, 108, 0x7e0afb0957a5deea, 0, 0xe01915812814dc3c),
    (1, 3, 108, 0x1a33f6d1e1885941, 0, 0xa9fa4b0361557f56),
    (1, 17, 108, 0xea68ba61cb61015f, 0, 0x7042b10e4c67867e),
    (1, 91, 108, 0xa9d0085e55e22f9f, 0, 0x66e86fdfafc4a383),
    (2, 3, 108, 0xfde208fbf0fc2155, 0, 0xed49a05cea3a53e9),
    (2, 17, 108, 0x729d4ef171fab0c3, 0, 0x7736b1d1fbfa1d9c),
    (2, 91, 108, 0x57dabfe8afe05a62, 0, 0xbd25469a7250e707),
];

#[test]
fn observed_runs_are_byte_identical_to_untraced() {
    let mut rows = Vec::new();
    for topo in 0..3usize {
        for seed in [3u64, 17, 91] {
            let (plain, delivered, _) = run(topo, seed, Mode::Plain);
            let (observed, observed_delivered, tracer) =
                run_with_tracer(topo, seed, Mode::Observed);
            let tracer = tracer.expect("observed mode attaches a tracer");
            let intervals = tracer.intervals_seen();
            assert!(
                tracer.events_seen() > 0,
                "tracer recorded nothing (topo {topo}, seed {seed})"
            );
            assert!(
                intervals >= 40,
                "observatory scraped only {intervals} intervals (topo {topo}, seed {seed})"
            );
            assert_eq!(
                plain, observed,
                "scraping or the watchdog perturbed the run (topo {topo}, seed {seed})"
            );
            assert_eq!(delivered, observed_delivered);
            assert_eq!(
                tracer.events_dropped(),
                0,
                "ring evicted records; the pin needs the whole run"
            );
            rows.push((
                topo,
                seed,
                intervals,
                fnv_bytes(sink::timeseries_jsonl(&tracer.intervals()).as_bytes()),
                tracer.health_events().len(),
                fnv_bytes(sink::jsonl(&tracer.records()).as_bytes()),
            ));
        }
    }
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "({}, {}, {}, {:#018x}, {}, {:#018x}),",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    assert_eq!(
        rows.as_slice(),
        PINNED_OBSERVED.as_slice(),
        "observation changed; if intended, re-pin:\n{}",
        rendered.join("\n")
    );
}
