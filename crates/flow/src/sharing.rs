//! Dynamic buffer allocation across the circuits of one link (§5, future
//! work).
//!
//! "The initial AN2 implementation statically allocates this number of
//! buffers to each best-effort virtual circuit. For a lightly-used circuit,
//! this may be more buffers than necessary. More sophisticated schemes,
//! such as dynamically altering buffer allocation based on use, may be
//! considered later. This could allow the link to support more virtual
//! circuits without adversely affecting performance."
//!
//! [`SharedLinkSim`] models one link carrying many best-effort circuits
//! whose downstream buffers come from a common pool of fixed total size.
//! Under [`AllocationPolicy::Static`] every circuit owns `total / vcs`
//! buffers forever; under [`AllocationPolicy::Dynamic`] an allocator
//! periodically redistributes the pool in proportion to each circuit's
//! recent arrivals (with a one-buffer floor so no circuit deadlocks).
//! Reallocations take effect as cells drain: a circuit can never hold more
//! cells than its previous allocation admitted, so the pool is never
//! physically over-committed. It is a side model: the fabric gives every
//! circuit private buffers per hop and has no shared pool, so experiment
//! X1c runs here rather than on `an2::Fabric`.

use an2_sim::SimRng;
use std::collections::VecDeque;

/// How downstream buffers are divided among a link's circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// Equal fixed shares, as in the initial AN2 implementation.
    Static,
    /// Periodic proportional reallocation by recent use (EWMA), floor 1.
    Dynamic {
        /// Slots between allocator runs.
        adapt_interval: u64,
        /// EWMA smoothing for the per-circuit arrival rate, in `(0, 1]`.
        alpha: f64,
    },
}

/// Configuration of a [`SharedLinkSim`].
#[derive(Debug, Clone)]
pub struct SharedLinkConfig {
    /// Circuits sharing the link.
    pub vcs: usize,
    /// Total downstream buffers shared by all circuits.
    pub total_buffers: u32,
    /// One-way latency in slots (cells down, credits back).
    pub latency_slots: u32,
    /// Per-circuit offered load (cells per slot, summing to link demand).
    pub demand: Vec<f64>,
    /// The allocation policy under test.
    pub policy: AllocationPolicy,
}

/// Results of a shared-link run.
#[derive(Debug, Clone)]
pub struct SharedLinkReport {
    /// Slots simulated.
    pub slots: u64,
    /// Cells offered per circuit.
    pub offered: Vec<u64>,
    /// Cells delivered (forwarded downstream) per circuit.
    pub delivered: Vec<u64>,
    /// Aggregate link utilization: delivered / slots.
    pub utilization: f64,
    /// Times the allocator changed the allocation (0 under Static).
    pub reallocations: u64,
}

impl SharedLinkReport {
    /// Delivered cells of circuit `vc` as a fraction of its offered cells.
    pub fn acceptance(&self, vc: usize) -> f64 {
        if self.offered[vc] == 0 {
            1.0
        } else {
            self.delivered[vc] as f64 / self.offered[vc] as f64
        }
    }
}

struct VcState {
    /// Cells queued upstream, by arrival slot.
    queue: VecDeque<u64>,
    /// Cells sent but whose credit has not returned.
    outstanding: u32,
    /// Buffers currently allocated.
    alloc: u32,
    /// EWMA of arrivals per adapt interval.
    rate: f64,
    /// Arrivals since the last allocator run.
    recent: u64,
}

/// A slot-stepped simulation of one link with a shared downstream buffer
/// pool. See the [module docs](self).
pub struct SharedLinkSim {
    cfg: SharedLinkConfig,
    vcs: Vec<VcState>,
    /// (arrival slot, vc) for cells in flight downstream.
    cells_in_flight: VecDeque<(u64, usize)>,
    /// (arrival slot, vc) for credits in flight upstream.
    credits_in_flight: VecDeque<(u64, usize)>,
    now: u64,
    rotor: usize,
}

impl SharedLinkSim {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the demand vector length disagrees with `vcs`, or if the
    /// pool cannot give every circuit at least one buffer.
    pub fn new(cfg: SharedLinkConfig) -> Self {
        assert_eq!(cfg.demand.len(), cfg.vcs, "demand per circuit");
        assert!(
            cfg.total_buffers as usize >= cfg.vcs,
            "need at least one buffer per circuit"
        );
        let equal = cfg.total_buffers / cfg.vcs as u32;
        let vcs = (0..cfg.vcs)
            .map(|_| VcState {
                queue: VecDeque::new(),
                outstanding: 0,
                alloc: equal.max(1),
                rate: 0.0,
                recent: 0,
            })
            .collect();
        SharedLinkSim {
            cfg,
            vcs,
            cells_in_flight: VecDeque::new(),
            credits_in_flight: VecDeque::new(),
            now: 0,
            rotor: 0,
        }
    }

    fn reallocate(&mut self, alpha: f64) -> bool {
        for vc in &mut self.vcs {
            vc.rate = vc.rate * (1.0 - alpha) + vc.recent as f64 * alpha;
            vc.recent = 0;
        }
        let total_rate: f64 = self.vcs.iter().map(|v| v.rate).sum();
        let pool = self.cfg.total_buffers;
        let floor = 1u32;
        let spare = pool - self.cfg.vcs as u32 * floor;
        let mut new_alloc: Vec<u32> = self
            .vcs
            .iter()
            .map(|v| {
                let share = if total_rate > 0.0 {
                    (spare as f64 * v.rate / total_rate).floor() as u32
                } else {
                    spare / self.cfg.vcs as u32
                };
                floor + share
            })
            .collect();
        // Distribute rounding leftovers to the busiest circuits.
        let mut used: u32 = new_alloc.iter().sum();
        let mut order: Vec<usize> = (0..self.cfg.vcs).collect();
        order.sort_by(|&a, &b| self.vcs[b].rate.total_cmp(&self.vcs[a].rate));
        let mut k = 0;
        while used < pool {
            new_alloc[order[k % order.len()]] += 1;
            used += 1;
            k += 1;
        }
        let changed = self.vcs.iter().zip(&new_alloc).any(|(v, &a)| v.alloc != a);
        for (v, a) in self.vcs.iter_mut().zip(new_alloc) {
            v.alloc = a;
        }
        changed
    }

    /// Runs `slots` slots, continuing from the previous state.
    pub fn run(&mut self, slots: u64, rng: &mut SimRng) -> SharedLinkReport {
        let n = self.cfg.vcs;
        let lat = self.cfg.latency_slots as u64;
        let mut offered = vec![0u64; n];
        let mut delivered = vec![0u64; n];
        let mut reallocations = 0u64;
        for _ in 0..slots {
            let now = self.now;
            // Credits return.
            while self
                .credits_in_flight
                .front()
                .is_some_and(|&(t, _)| t <= now)
            {
                let (_, vc) = self.credits_in_flight.pop_front().unwrap();
                self.vcs[vc].outstanding -= 1;
            }
            // Cells land downstream and are forwarded next slot (the
            // crossbar is uncontended in this model): credit heads back.
            while self.cells_in_flight.front().is_some_and(|&(t, _)| t <= now) {
                let (_, vc) = self.cells_in_flight.pop_front().unwrap();
                delivered[vc] += 1;
                self.credits_in_flight.push_back((now + lat, vc));
            }
            // Arrivals.
            for (vc, load) in self.cfg.demand.clone().into_iter().enumerate() {
                if rng.gen_bool(load) {
                    self.vcs[vc].queue.push_back(now);
                    self.vcs[vc].recent += 1;
                    offered[vc] += 1;
                }
            }
            // Allocator.
            if let AllocationPolicy::Dynamic {
                adapt_interval,
                alpha,
            } = self.cfg.policy
            {
                if now > 0 && now.is_multiple_of(adapt_interval) && self.reallocate(alpha) {
                    reallocations += 1;
                }
            }
            // The link carries one cell per slot: round-robin over circuits
            // that have a queued cell and a free downstream buffer.
            let start = self.rotor;
            for k in 0..n {
                let vc = (start + k) % n;
                let st = &mut self.vcs[vc];
                if !st.queue.is_empty() && st.outstanding < st.alloc {
                    st.queue.pop_front();
                    st.outstanding += 1;
                    self.cells_in_flight.push_back((now + lat, vc));
                    self.rotor = (vc + 1) % n;
                    break;
                }
            }
            self.now += 1;
        }
        let total_delivered: u64 = delivered.iter().sum();
        SharedLinkReport {
            slots,
            offered,
            delivered,
            utilization: total_delivered as f64 / slots as f64,
            reallocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Demand: a few hot circuits, many idle — the scenario the paper's
    /// dynamic-allocation remark targets.
    fn skewed_demand(vcs: usize, hot: usize, hot_load: f64) -> Vec<f64> {
        (0..vcs)
            .map(|k| if k < hot { hot_load } else { 0.001 })
            .collect()
    }

    fn run(
        policy: AllocationPolicy,
        vcs: usize,
        buffers: u32,
        demand: Vec<f64>,
    ) -> SharedLinkReport {
        let mut sim = SharedLinkSim::new(SharedLinkConfig {
            vcs,
            total_buffers: buffers,
            latency_slots: 8,
            demand,
            policy,
        });
        sim.run(60_000, &mut SimRng::new(99))
    }

    #[test]
    fn dynamic_beats_static_under_skew_at_tight_memory() {
        // 32 circuits, 64 buffers: static gives each 2 buffers, far below
        // the 16-slot round trip, so the 3 hot circuits are throttled to
        // 2/16 of the link each. Dynamic concentrates buffers on them.
        let vcs = 32;
        let buffers = 64;
        let demand = skewed_demand(vcs, 3, 0.33);
        let stat = run(AllocationPolicy::Static, vcs, buffers, demand.clone());
        let dyna = run(
            AllocationPolicy::Dynamic {
                adapt_interval: 500,
                alpha: 0.3,
            },
            vcs,
            buffers,
            demand,
        );
        assert!(dyna.reallocations > 0);
        assert!(
            dyna.utilization > stat.utilization + 0.3,
            "dynamic {:.3} vs static {:.3}",
            dyna.utilization,
            stat.utilization
        );
        assert!(dyna.utilization > 0.9, "hot circuits should fill the link");
    }

    #[test]
    fn equal_demand_policies_tie() {
        let vcs = 8;
        let buffers = 160; // 20 per circuit > round trip: nobody throttled
        let demand = vec![0.1; vcs];
        let stat = run(AllocationPolicy::Static, vcs, buffers, demand.clone());
        let dyna = run(
            AllocationPolicy::Dynamic {
                adapt_interval: 500,
                alpha: 0.3,
            },
            vcs,
            buffers,
            demand,
        );
        assert!((stat.utilization - dyna.utilization).abs() < 0.02);
    }

    #[test]
    fn floor_prevents_starvation() {
        // Even a nearly idle circuit keeps one buffer and can still move
        // cells under dynamic allocation.
        let vcs = 16;
        let demand = skewed_demand(vcs, 2, 0.45);
        let r = run(
            AllocationPolicy::Dynamic {
                adapt_interval: 250,
                alpha: 0.5,
            },
            vcs,
            32,
            demand,
        );
        for vc in 2..vcs {
            assert!(
                r.acceptance(vc) > 0.5,
                "cold circuit {vc} starved: {:.2} ({} of {})",
                r.acceptance(vc),
                r.delivered[vc],
                r.offered[vc]
            );
        }
    }

    #[test]
    fn conservation_per_circuit() {
        let vcs = 4;
        let r = run(AllocationPolicy::Static, vcs, 16, vec![0.2; vcs]);
        for vc in 0..vcs {
            assert!(r.delivered[vc] <= r.offered[vc]);
            // At this light load everything queued eventually moves.
            assert!(r.acceptance(vc) > 0.95);
        }
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn pool_too_small_rejected() {
        SharedLinkSim::new(SharedLinkConfig {
            vcs: 8,
            total_buffers: 4,
            latency_slots: 1,
            demand: vec![0.1; 8],
            policy: AllocationPolicy::Static,
        });
    }
}
