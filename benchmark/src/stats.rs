//! Order statistics and the FNV digest shared by every workload.

/// Median and quartiles of `values` by linear interpolation between order
/// statistics (the "inclusive" method); `(q1, median, q3)`.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one rep.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `q`-quantile (nearest rank) of unsorted integer samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).max(1) - 1;
    v[rank.min(v.len() - 1)]
}

/// The highest percentile of the ladder 90 / 99 / 99.9 that still has at
/// least ten samples beyond it (choosing-metrics §1), with its value.
/// Falls back to the maximum (reported as percentile 100) below 100 samples.
pub fn tail(samples: &[u64]) -> (f64, u64) {
    let n = samples.len();
    for permille in [999, 990, 900] {
        if n - (n * permille).div_ceil(1000) >= 10 {
            let q = permille as f64 / 1000.0;
            return (q * 100.0, percentile(samples, q));
        }
    }
    (100.0, samples.iter().copied().max().unwrap_or(0))
}

/// FNV-1a over little-endian `u64`s — the N6 stats digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one value into the digest.
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&s), (90.0, 90));
        let s: Vec<u64> = (1..=6000).collect();
        assert_eq!(tail(&s).0, 99.0);
        assert_eq!(tail(&[3, 9, 5]), (100.0, 9));
    }
}
