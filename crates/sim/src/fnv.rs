//! The one byte-at-a-time hasher behind every digest and pin.
//!
//! Two multipliers are pinned and neither value can move: the pin suites
//! captured their constants under FNV-1a's own prime, and the replay digest
//! (`an2::Network::digest`, printed by N8 and stored in
//! `benchmark/goldens.json`) under one two zeros short of it. Both live here
//! and nowhere else — `ci.sh` greps `crates/` and `tests/` for the prime.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// An FNV-1a hasher: xor a byte in, multiply, repeat.
///
/// ```
/// use an2_sim::Fnv;
/// let mut h = Fnv::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63dc4c8601ec8c); // FNV-1a 64 of "a"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv {
    state: u64,
    prime: u64,
}

impl Fnv {
    /// FNV-1a, 64 bit (prime 2^40 + 0x1b3).
    pub const fn new() -> Self {
        Fnv {
            state: OFFSET_BASIS,
            prime: 0x0000_0100_0000_01b3,
        }
    }

    /// The replay digest's hasher: the same loop under 2^32 + 0x1b3, what
    /// `chaos::oracle` was first written with. Not FNV-1a and not for new
    /// pins — digests taken with it are stored where this workspace cannot
    /// regenerate them. `ci.sh` allows it in `crates/an2/src` only.
    #[doc(hidden)]
    pub const fn replay() -> Self {
        Fnv {
            state: OFFSET_BASIS,
            prime: 0x0000_0001_0000_01b3,
        }
    }

    /// Folds `bytes` in, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(self.prime);
        }
    }

    /// Folds one word in, little end first.
    pub fn add(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_their_little_endian_bytes_and_nothing_hashes_to_the_basis() {
        for mut h in [Fnv::new(), Fnv::replay()] {
            assert_eq!(h.finish(), OFFSET_BASIS);
            let mut by_bytes = h;
            for x in [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
                h.add(x);
                by_bytes.bytes(&x.to_le_bytes());
                assert_eq!(h, by_bytes);
            }
            assert_ne!(h.finish(), OFFSET_BASIS);
        }
    }
}
