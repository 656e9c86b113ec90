//! Deterministic random numbers.
//!
//! AN2's crossbar scheduler depends on randomness for fairness (the *grant*
//! step of parallel iterative matching picks a requester uniformly at random),
//! and the paper's iteration-count bound holds *because* of that randomness.
//! For the reproduction we need randomness that is (a) statistically decent
//! and (b) exactly reproducible, so every experiment takes a seed and derives
//! all of its streams from it.
//!
//! The generator is xoshiro256**, seeded through splitmix64 — the standard
//! construction recommended by its authors.

/// A small, fast, seedable PRNG (xoshiro256**) with support for deriving
/// independent child streams.
///
/// ```
/// use an2_sim::SimRng;
/// let mut rng = SimRng::new(7);
/// let a = rng.next_u64();
/// let b = SimRng::new(7).next_u64();
/// assert_eq!(a, b); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) yields
    /// a well-mixed internal state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator, keyed by `stream`.
    ///
    /// Children with different keys (or from generators in different states)
    /// produce effectively independent streams; this is how a simulator
    /// gives each switch or sweep cell its own RNG without
    /// cross-contaminating event orders.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Derives `n` independent child generators, keyed `0..n`.
    ///
    /// This is the canonical way to hand every entity in a collection its
    /// own stream: both data-plane engines fork one stream per switch with
    /// this helper, so a given `(seed, switch index)` pair names the same
    /// stream no matter which engine — or how many shards — consumes it.
    pub fn fork_n(&mut self, n: usize) -> Vec<SimRng> {
        (0..n).map(|i| self.fork(i as u64)).collect()
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `[0, bound)` using Lemire's method (no modulo
    /// bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range: bound must be positive");
        let bound = bound as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(slice.len())])
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_range(i + 1));
        }
    }

    /// A sample from the geometric distribution on {1, 2, ...} with success
    /// probability `p`: the number of Bernoulli(p) trials up to and including
    /// the first success. Used for bursty on/off traffic sources.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn gen_geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "gen_geometric: p must be in (0, 1]");
        if p >= 1.0 {
            return 1;
        }
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_continuation() {
        let mut parent = SimRng::new(9);
        let mut child = parent.fork(0);
        let child_vals: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let parent_vals: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        assert_ne!(child_vals, parent_vals);
    }

    #[test]
    fn fork_streams_with_distinct_keys_differ() {
        let mut p1 = SimRng::new(9);
        let mut p2 = SimRng::new(9);
        let mut a = p1.fork(1);
        let mut b = p2.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_n_matches_sequential_forks() {
        let mut a = SimRng::new(33);
        let streams = a.fork_n(4);
        let mut b = SimRng::new(33);
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(*s, b.fork(i as u64));
        }
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(77);
        let n = 16;
        let draws = 160_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[rng.gen_range(n)] += 1;
        }
        let expect = draws / n;
        for &c in &counts {
            // 10% tolerance is ~13 sigma at this sample size; failures mean a
            // real bias, not noise.
            assert!(
                (c as f64 - expect as f64).abs() < expect as f64 * 0.10,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(42);
        for _ in 0..1_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = SimRng::new(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::new(11);
        assert_eq!(rng.choose::<u32>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
        let mut v: Vec<u32> = (0..32).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(
            v, orig,
            "a 32-element shuffle is astronomically unlikely to be identity"
        );
    }

    #[test]
    fn geometric_mean_close() {
        let mut rng = SimRng::new(21);
        let p = 0.25;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.gen_geometric(p)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1.0 / p).abs() < 0.1,
            "geometric mean {mean} vs {}",
            1.0 / p
        );
    }
}
