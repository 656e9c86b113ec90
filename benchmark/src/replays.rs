//! Layer replays: each layer's public functions driven directly with inputs
//! of the shape the workloads give them, timed from outside. A replay runs
//! batches of calls until its time budget is spent and reports the median
//! batch's nanoseconds per call — the per-op costs the budget table
//! multiplies the layers' own counts by.

use crate::spans::Spans;
use crate::stats;
use an2::TrafficClass;
use an2_cells::{Cell, CellPool, CellQueue, Packet, Reassembler, Segmenter, VcId};
use an2_chaos::{CampaignSpec, Scenario};
use an2_faults::FaultInjector;
use an2_flow::{CreditReceiver, CreditSender};
use an2_reconfig::harness::ReconfigNet;
use an2_schedule::{FrameSchedule, ReservationMatrix};
use an2_sim::metrics::Histogram;
use an2_sim::SimRng;
use an2_switch::{Switch, SwitchConfig};
use an2_topology::{generators, paths, updown, HostId, LinkId, Node, SwitchId, Topology};
use an2_trace::{TraceConfig, TraceEvent, Tracer};
use an2_xbar::{CrossbarScheduler, DemandMatrix, Matching, Pim, Scratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds per `op` call: batches of `batch` calls are timed
/// until `budget` is spent (at least five batches).
fn ns_per_op(budget: Duration, batch: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&samples)
}

fn demand(n: usize, fill: f64, rng: &mut SimRng) -> DemandMatrix {
    let mut d = DemandMatrix::new(n);
    for i in 0..n {
        for o in 0..n {
            if rng.gen_bool(fill) {
                d.add(i, o, 1 + rng.gen_range(3) as u64);
            }
        }
    }
    d
}

/// `(ns per schedule_into, matched ÷ min(active inputs, active outputs))`.
fn pim(budget: Duration, d: &DemandMatrix, seed: u64) -> (f64, f64) {
    let n = d.size();
    let active_in = (0..n).filter(|&i| d.row_mask(i) != 0).count();
    let active_out = (0..n).filter(|&o| d.col_mask(o) != 0).count();
    let (mut pim, mut rng) = (Pim::an2(), SimRng::new(seed));
    let (mut scratch, mut out) = (Scratch::new(), Matching::empty(n));
    let (mut matched, mut calls) = (0u64, 0u64);
    let ns = ns_per_op(budget, 4_096, || {
        pim.schedule_into(black_box(d), &mut rng, &mut scratch, &mut out);
        matched += out.len() as u64;
        calls += 1;
    });
    let bound = active_in.min(active_out).max(1) as f64;
    (ns, matched as f64 / (calls as f64 * bound))
}

const PORTS: usize = 16;
/// Cells kept queued per (input, output) pair of the saturated switch.
const BUSY_DEPTH: usize = 4;

fn pair_vc(input: usize, output: usize) -> VcId {
    VcId::new(1 + (input * PORTS + output) as u32)
}

/// A standalone 16-port switch with one ungated best-effort circuit per
/// (input, output) pair and `BUSY_DEPTH` cells queued on each.
fn busy_switch() -> Switch {
    let mut sw = Switch::new(SwitchConfig::default());
    for i in 0..PORTS {
        for o in 0..PORTS {
            sw.install_route(pair_vc(i, o), o, TrafficClass::BestEffort)
                .expect("fresh route");
            for _ in 0..BUSY_DEPTH {
                sw.enqueue(i, Cell::blank(pair_vc(i, o)))
                    .expect("valid port");
            }
        }
    }
    sw
}

/// `(ns per busy step, ns per departure)`: every departing cell is put
/// straight back on the input it came from, so the queues stay as full as
/// they started and each step pays enqueue + PIM + dequeue.
fn busy_step(budget: Duration, seed: u64) -> (f64, f64) {
    let mut sw = busy_switch();
    let mut rng = SimRng::new(seed);
    let mut departures = Vec::new();
    let (mut departed, mut steps) = (0u64, 0u64);
    let ns = ns_per_op(budget, 1_024, || {
        departures.clear();
        sw.step_into(&mut rng, &mut departures);
        for d in &departures {
            let input = (d.cell.vc().raw() as usize - 1) / PORTS;
            sw.enqueue(input, d.cell).expect("valid port");
        }
        departed += departures.len() as u64;
        steps += 1;
    });
    (ns, ns * steps as f64 / departed.max(1) as f64)
}

fn backbone_edges(topo: &Topology) -> Vec<(SwitchId, SwitchId)> {
    let mut edges: Vec<_> = topo
        .links()
        .filter_map(|l| {
            let (a, b) = topo.endpoints(l);
            match (a.node, b.node) {
                (Node::Switch(x), Node::Switch(y)) => Some((x.min(y), x.max(y))),
                _ => None,
            }
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn forest_us(budget: Duration, topo: &Topology) -> f64 {
    let live: Vec<SwitchId> = topo.switches().collect();
    let edges = backbone_edges(topo);
    ns_per_op(budget, 1, || {
        black_box(updown::canonical_forest(
            topo.switch_count(),
            &live,
            black_box(&edges),
        ));
    }) / 1e3
}

/// Share of route lookups the up*/down* memo answers across one backbone
/// edge failure: every ordered switch pair is routed, one edge is
/// invalidated, every pair is routed again.
fn route_cache_hit_ratio(topo: &Topology) -> f64 {
    let live: Vec<SwitchId> = topo.switches().collect();
    let edges = backbone_edges(topo);
    let mut cache = updown::RouteCache::new();
    cache.set_forest(updown::canonical_forest(topo.switch_count(), &live, &edges));
    for round in 0..2 {
        for &a in &live {
            for &b in &live {
                black_box(cache.route(topo, a, b));
            }
        }
        if round == 0 {
            cache.invalidate_edge(edges[0].0, edges[0].1);
        }
    }
    let (hits, misses) = cache.stats();
    hits as f64 / (hits + misses).max(1) as f64
}

/// N = 16, frame 1024, half of every link's slots reserved.
fn half_full_schedule(rng: &mut SimRng) -> FrameSchedule {
    let (n, frame) = (PORTS, 1_024u32);
    let mut r = ReservationMatrix::new(n, frame);
    let target = n as u32 * frame / 2;
    let (mut placed, mut attempts) = (0, 0);
    while placed < target && attempts < target * 20 {
        attempts += 1;
        if r.reserve(rng.gen_range(n), rng.gen_range(n), 1).is_ok() {
            placed += 1;
        }
    }
    FrameSchedule::build(&r)
}

/// Runs every replay, one span each (named after the metric it yields), and
/// returns `(metric, value)` rows. `tree_levels` sizes the fat-tree the
/// topology replays build.
pub fn run_all(
    budget: Duration,
    tree_levels: usize,
    seed: u64,
    spans: &mut Spans,
) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    let mut replay = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let value = spans.time(name, f).0;
        rows.push((name, value));
    };
    let mut rng = SimRng::new(seed);

    let (d16, d4) = (demand(16, 0.5, &mut rng), demand(4, 1.0, &mut rng));
    let mut match_ratio = 0.0;
    replay("xbar.pim16_ns", &mut || {
        let (ns, ratio) = pim(budget, &d16, seed);
        match_ratio = ratio;
        ns
    });
    replay("xbar.pim4_ns", &mut || pim(budget, &d4, seed).0);

    let mut per_departure = 0.0;
    replay("switch.busy_step_ns", &mut || {
        let (step, departure) = busy_step(budget, seed);
        per_departure = departure;
        step
    });
    replay("switch.idle_step_ns", &mut || {
        let mut sw = Switch::new(SwitchConfig::default());
        let (mut rng, mut out) = (SimRng::new(seed), Vec::new());
        ns_per_op(budget, 4_096, || sw.step_into(&mut rng, &mut out))
    });
    replay("switch.next_event_slot_ns", &mut || {
        let sw = busy_switch();
        ns_per_op(budget, 65_536, || {
            black_box(black_box(&sw).next_event_slot());
        })
    });

    replay("flow.credit_roundtrip_ns", &mut || {
        let (mut tx, mut rx) = (CreditSender::new(8), CreditReceiver::new(8));
        ns_per_op(budget, 65_536, || {
            black_box(tx.try_send());
            rx.on_cell().expect("credit-gated");
            black_box(rx.forward());
            tx.on_credit();
        })
    });

    let vc = VcId::new(7);
    let packet = Packet::from_bytes(vec![5u8; 7_950]);
    let cells = Segmenter::new(vc).segment(&packet);
    let per_cell = cells.len() as f64;
    replay("cells.segment_ns_per_cell", &mut || {
        let seg = Segmenter::new(vc);
        ns_per_op(budget, 16, || {
            black_box(seg.segment(black_box(&packet)));
        }) / per_cell
    });
    replay("cells.reassemble_ns_per_cell", &mut || {
        let mut r = Reassembler::new();
        ns_per_op(budget, 16, || {
            for c in &cells {
                black_box(r.push(c).expect("well-formed packet"));
            }
        }) / per_cell
    });
    replay("cells.pool_pushpop_ns", &mut || {
        let (mut pool, mut q) = (CellPool::new(), CellQueue::new());
        for _ in 0..8 {
            pool.push_back(&mut q, cells[0], 0, 0);
        }
        ns_per_op(budget, 65_536, || {
            pool.push_back(&mut q, black_box(cells[0]), 1, 0);
            black_box(pool.pop_front(&mut q));
        })
    });

    replay("topology.fat_tree_build_ms", &mut || {
        ns_per_op(budget, 1, || {
            black_box(generators::fat_tree(2, tree_levels));
        }) / 1e6
    });
    let tree = generators::fat_tree(2, tree_levels);
    let far = HostId((tree.host_count() / 2) as u16);
    replay("topology.host_route_us", &mut || {
        ns_per_op(budget, 4, || {
            black_box(paths::host_route(&tree, HostId(0), far));
        }) / 1e3
    });
    let src4 = generators::src_installation(4, 8);
    replay("topology.updown_forest_us", &mut || {
        forest_us(budget, &src4)
    });
    replay("topology.updown_forest_tree_us", &mut || {
        forest_us(budget, &tree)
    });
    replay("topology.route_cache_hit_ratio", &mut || {
        route_cache_hit_ratio(&src4)
    });

    replay("schedule.frame_insert_ns", &mut || {
        let mut s = half_full_schedule(&mut rng);
        ns_per_op(budget, 256, || {
            if s.insert(0, 1).is_ok() {
                s.remove(0, 1);
            }
        })
    });

    // The fault layer as chaos_grid's churn-loss schedules configure it:
    // Gilbert–Elliott chains on every link of the 4-switch installation.
    let churn = an2_chaos::generate(
        &CampaignSpec::defaults(
            "churn_loss",
            Scenario::ChurnLoss {
                flapping_links: 2,
                flaps_per_link: 2,
            },
        ),
        seed,
    );
    let links = src4.link_count();
    let injector = || FaultInjector::new(&churn.fault, seed, links, src4.switch_count());
    replay("faults.begin_slot_ns", &mut || {
        let (mut inj, mut slot) = (injector(), 0u64);
        ns_per_op(budget, 4_096, || {
            black_box(inj.begin_slot(slot));
            slot += 1;
        })
    });
    replay("faults.transmit_cell_ns", &mut || {
        let (mut inj, mut k) = (injector(), 0u64);
        ns_per_op(budget, 4_096, || {
            let link = LinkId((k % links as u64) as u32);
            black_box(inj.transmit_cell(link, (k & 1) as usize, k + 2));
            k += 1;
        })
    });

    replay("reconfig.harness_converge_us", &mut || {
        ns_per_op(budget, 1, || {
            let mut net = ReconfigNet::with_defaults(src4.clone(), seed);
            net.run_to_quiescence();
            black_box(net.total_messages());
        }) / 1e3
    });

    replay("trace.emit_ns", &mut || {
        let t = Tracer::new(TraceConfig::default());
        ns_per_op(budget, 65_536, || {
            t.emit(black_box(TraceEvent::XbarGrant {
                switch: 1,
                input: 2,
                output: 3,
            }))
        })
    });

    replay("sim.rng_ns", &mut || {
        let mut r = SimRng::new(seed);
        ns_per_op(budget, 65_536, || {
            black_box(r.next_u64());
        })
    });
    // Exact-mode histograms retain every sample, so each batch records
    // into a fresh one (as each circuit's latency histogram starts empty).
    replay("sim.hist_record_ns", &mut || {
        const BATCH: u64 = 1 << 18;
        ns_per_op(budget, 1, || {
            let mut h = Histogram::new();
            for v in 0..BATCH {
                h.record(black_box(v));
            }
            black_box(h.count());
        }) / BATCH as f64
    });

    replay("chaos.generate_us", &mut || {
        let spec = CampaignSpec::defaults(
            "flap_storm",
            Scenario::FlapStorm {
                links: 2,
                flaps_per_link: 3,
            },
        );
        let mut s = seed;
        ns_per_op(budget, 8, || {
            black_box(an2_chaos::generate(&spec, s));
            s += 1;
        }) / 1e3
    });
    rows.push(("xbar.pim_match_ratio", match_ratio));
    rows.push(("switch.ns_per_departure", per_departure));
    rows
}
