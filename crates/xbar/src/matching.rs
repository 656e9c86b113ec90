//! Demand matrices and matchings — the vocabulary of crossbar scheduling.
//!
//! Both types are backed by multi-word port-set bitmasks (bit `i` of word
//! `i / 64` names port `i`). Switches of 64 ports or fewer — every AN2
//! configuration in the paper — fit one `u64` per set, and the schedulers
//! keep a specialized single-word fast path for them that compiles to the
//! same code as the original one-word representation. Wider switches (up to
//! [`MAX_PORTS`]) spread each set over `⌈n/64⌉` words and pay one extra loop
//! level; either way "which unmatched inputs want this output" is a handful
//! of `AND`s instead of an `N`-element scan.

use std::fmt;

/// Largest switch the bitmask representation supports.
pub const MAX_PORTS: usize = 1024;

/// Bits per port-set word.
pub(crate) const WORD_BITS: usize = 64;

/// Words needed for an `n`-port set.
#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS).max(1)
}

/// A mask with bits `0..n` set: the full port set of an `n`-port switch,
/// for `n ≤ 64`.
#[inline]
pub(crate) fn all_ports(n: usize) -> u64 {
    debug_assert!(n <= WORD_BITS);
    if n == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The full-set mask of word `wi` of an `n`-port set: all ones for words
/// entirely below `n`, a partial mask for the word containing `n`, zero
/// above.
#[inline]
pub(crate) fn word_all(n: usize, wi: usize) -> u64 {
    all_ports(n.saturating_sub(wi * WORD_BITS).min(WORD_BITS))
}

/// The index of the `k`-th (0-based) set bit of `mask`, counting from the
/// least significant bit. Used to turn "pick requester `k` of this port
/// set" into the same element an index into the sorted port list would give.
///
/// # Panics
///
/// Debug-asserts that `mask` has more than `k` set bits.
#[inline]
pub(crate) fn nth_set_bit(mask: u64, k: usize) -> usize {
    debug_assert!((mask.count_ones() as usize) > k, "rank out of range");
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1; // clear lowest set bit
    }
    m.trailing_zeros() as usize
}

/// Set bits across a word slice.
#[inline]
pub(crate) fn count_set(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The index of the `k`-th (0-based) set bit across a word slice — the
/// multi-word twin of [`nth_set_bit`], preserving the "same element as an
/// index into the sorted port list" property that keeps the schedulers on
/// the original scan-and-`Vec` implementations' RNG stream.
///
/// # Panics
///
/// Debug-asserts the slice has more than `k` set bits.
#[inline]
pub(crate) fn nth_set(words: &[u64], k: usize) -> usize {
    let mut k = k;
    for (wi, &w) in words.iter().enumerate() {
        let c = w.count_ones() as usize;
        if k < c {
            return wi * WORD_BITS + nth_set_bit(w, k);
        }
        k -= c;
    }
    debug_assert!(false, "rank out of range");
    0
}

/// A set of ports on one switch, packed 64 ports per word.
///
/// This is the public face of the schedulers' internal multi-word masks:
/// switches up to 64 ports use exactly one word (the hot paths specialize on
/// that), larger switches spread over `⌈n/64⌉` words. The set knows its
/// capacity, so complement-style queries ([`Matching::free_input_ports`])
/// stay well-defined past the last port.
///
/// ```
/// use an2_xbar::PortSet;
/// let mut s = PortSet::empty(100);
/// s.insert(3);
/// s.insert(97);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(97) && !s.contains(96));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// assert_eq!(s.nth(1), 97);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSet {
    n: usize,
    words: Vec<u64>,
}

impl PortSet {
    /// The empty set over ports `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n >` [`MAX_PORTS`].
    pub fn empty(n: usize) -> Self {
        assert!(n > 0, "switch size must be positive");
        assert!(
            n <= MAX_PORTS,
            "bitmask port sets support at most {MAX_PORTS} ports (got {n})"
        );
        PortSet {
            n,
            words: vec![0; words_for(n)],
        }
    }

    /// The full set over ports `0..n`.
    ///
    /// # Panics
    ///
    /// As [`PortSet::empty`].
    pub fn full(n: usize) -> Self {
        let mut s = PortSet::empty(n);
        for (wi, w) in s.words.iter_mut().enumerate() {
            *w = word_all(n, wi);
        }
        s
    }

    /// Wraps an existing word slice (little-endian port order).
    pub(crate) fn from_words(n: usize, words: &[u64]) -> Self {
        debug_assert_eq!(words.len(), words_for(n));
        PortSet {
            n,
            words: words.to_vec(),
        }
    }

    /// The number of ports the set ranges over (not the member count).
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Whether `port` is in the set.
    #[inline]
    pub fn contains(&self, port: usize) -> bool {
        port < self.n && self.words[port / WORD_BITS] & (1 << (port % WORD_BITS)) != 0
    }

    /// Adds `port` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn insert(&mut self, port: usize) {
        assert!(port < self.n, "port {port} out of range (size {})", self.n);
        self.words[port / WORD_BITS] |= 1 << (port % WORD_BITS);
    }

    /// Removes `port` from the set (no-op when absent or out of range).
    pub fn remove(&mut self, port: usize) {
        if port < self.n {
            self.words[port / WORD_BITS] &= !(1 << (port % WORD_BITS));
        }
    }

    /// Member count.
    pub fn len(&self) -> usize {
        count_set(&self.words)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The `k`-th (0-based) member in ascending port order — the same
    /// element an index into the sorted member list would give.
    ///
    /// # Panics
    ///
    /// Debug-asserts `k < len()`.
    pub fn nth(&self, k: usize) -> usize {
        nth_set(&self.words, k)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&p| self.contains(p))
    }

    /// The backing words, 64 ports each, little-endian port order.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// The queued demand of a switch at one instant: how many cells wait at each
/// (input, output) virtual output queue.
///
/// Alongside the dense queue-length table, the matrix maintains per-input
/// and per-output request bitmasks so schedulers can intersect "inputs that
/// want output `o`" with "currently unmatched inputs" in a few instructions.
///
/// ```
/// use an2_xbar::DemandMatrix;
/// let mut d = DemandMatrix::new(4);
/// d.add(0, 2, 3);
/// assert!(d.wants(0, 2));
/// assert_eq!(d.queued(0, 2), 3);
/// assert_eq!(d.row_mask(0), 0b100);
/// assert_eq!(d.col_mask(2), 0b001);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandMatrix {
    n: usize,
    /// Words per port set: `words_for(n)`, 1 for every AN2-sized switch.
    words: usize,
    queued: Vec<u64>,
    /// `row_masks[i*words..]`: outputs input `i` has at least one cell for.
    row_masks: Vec<u64>,
    /// `col_masks[o*words..]`: inputs holding at least one cell for `o`.
    col_masks: Vec<u64>,
}

impl DemandMatrix {
    /// An `n × n` matrix with no demand.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n >` [`MAX_PORTS`].
    pub fn new(n: usize) -> Self {
        Self::check_size(n);
        let words = words_for(n);
        DemandMatrix {
            n,
            words,
            queued: vec![0; n * n],
            row_masks: vec![0; n * words],
            col_masks: vec![0; n * words],
        }
    }

    fn check_size(n: usize) {
        assert!(n > 0, "switch size must be positive");
        assert!(
            n <= MAX_PORTS,
            "bitmask port sets support at most {MAX_PORTS} ports (got {n})"
        );
    }

    /// Switch size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Words per port set (1 for switches of ≤ 64 ports — the fast path).
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.words
    }

    /// Cells queued from `input` to `output`.
    pub fn queued(&self, input: usize, output: usize) -> u64 {
        self.queued[input * self.n + output]
    }

    /// Whether any cell waits from `input` to `output`.
    #[inline]
    pub fn wants(&self, input: usize, output: usize) -> bool {
        self.row_masks[input * self.words + output / WORD_BITS] & (1 << (output % WORD_BITS)) != 0
    }

    /// The outputs requested by `input`, as a single-word bitmask. Only
    /// valid on switches of ≤ 64 ports; wider switches use
    /// [`DemandMatrix::row_ports`].
    #[inline]
    pub fn row_mask(&self, input: usize) -> u64 {
        debug_assert_eq!(self.words, 1, "row_mask on a >64-port switch");
        self.row_masks[input]
    }

    /// The inputs requesting `output`, as a single-word bitmask. Only valid
    /// on switches of ≤ 64 ports; wider switches use
    /// [`DemandMatrix::col_ports`].
    #[inline]
    pub fn col_mask(&self, output: usize) -> u64 {
        debug_assert_eq!(self.words, 1, "col_mask on a >64-port switch");
        self.col_masks[output]
    }

    /// The outputs requested by `input`, at any switch width.
    pub fn row_ports(&self, input: usize) -> PortSet {
        PortSet::from_words(self.n, self.row(input))
    }

    /// The inputs requesting `output`, at any switch width.
    pub fn col_ports(&self, output: usize) -> PortSet {
        PortSet::from_words(self.n, self.col(output))
    }

    /// The words of input `i`'s request set.
    #[inline]
    pub(crate) fn row(&self, input: usize) -> &[u64] {
        &self.row_masks[input * self.words..(input + 1) * self.words]
    }

    /// The words of output `o`'s requester set.
    #[inline]
    pub(crate) fn col(&self, output: usize) -> &[u64] {
        &self.col_masks[output * self.words..(output + 1) * self.words]
    }

    /// Adds `cells` of demand.
    pub fn add(&mut self, input: usize, output: usize, cells: u64) {
        let q = &mut self.queued[input * self.n + output];
        *q += cells;
        if *q > 0 {
            self.row_masks[input * self.words + output / WORD_BITS] |= 1 << (output % WORD_BITS);
            self.col_masks[output * self.words + input / WORD_BITS] |= 1 << (input % WORD_BITS);
        }
    }

    /// Resets all demand to zero, keeping the allocation and size. Lets a
    /// caller that rebuilds demand every slot (the switch data plane) reuse
    /// one matrix instead of allocating three vectors per slot. Zeroes only
    /// the entries the row masks mark non-zero (every positive entry has its
    /// mask bit set), so clearing a sparsely used matrix touches a handful
    /// of words instead of memsetting the whole `n × n` table.
    pub fn clear(&mut self) {
        for input in 0..self.n {
            for wi in 0..self.words {
                let mut mask = self.row_masks[input * self.words + wi];
                while mask != 0 {
                    let output = wi * WORD_BITS + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    self.queued[input * self.n + output] = 0;
                }
                self.row_masks[input * self.words + wi] = 0;
            }
        }
        self.col_masks.fill(0);
    }

    /// Resets to an `n × n` matrix with no demand, reusing the allocations:
    /// [`DemandMatrix::clear`] when the size is unchanged, and once the
    /// buffers have held the largest size no reset allocates. For a matrix
    /// shared by switches of different widths.
    ///
    /// # Panics
    ///
    /// As [`DemandMatrix::new`].
    pub fn reset(&mut self, n: usize) {
        self.clear();
        if n == self.n {
            return;
        }
        Self::check_size(n);
        // `clear` left every word zero, so re-striding is a resize.
        self.n = n;
        self.words = words_for(n);
        self.queued.resize(n * n, 0);
        self.row_masks.resize(n * self.words, 0);
        self.col_masks.resize(n * self.words, 0);
    }

    /// Removes one queued cell (used when a matching dispatches it).
    ///
    /// # Panics
    ///
    /// Panics if no cell is queued there.
    pub fn take_one(&mut self, input: usize, output: usize) {
        let q = &mut self.queued[input * self.n + output];
        assert!(*q > 0, "no cell queued at ({input}, {output})");
        *q -= 1;
        if *q == 0 {
            self.row_masks[input * self.words + output / WORD_BITS] &= !(1 << (output % WORD_BITS));
            self.col_masks[output * self.words + input / WORD_BITS] &= !(1 << (input % WORD_BITS));
        }
    }

    /// Outputs requested by `input`, in ascending order.
    pub fn requests_of(&self, input: usize) -> Vec<usize> {
        let row = self.row(input);
        let mut out = Vec::with_capacity(count_set(row));
        for (wi, &w) in row.iter().enumerate() {
            let mut mask = w;
            while mask != 0 {
                out.push(wi * WORD_BITS + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
        out
    }

    /// Total queued cells.
    pub fn total(&self) -> u64 {
        self.queued.iter().sum()
    }

    /// Whether no demand exists at all.
    pub fn is_empty(&self) -> bool {
        self.row_masks.iter().all(|&m| m == 0)
    }

    /// Builds a matrix from a dense row-major table of queue lengths.
    ///
    /// # Panics
    ///
    /// Panics unless `table.len()` is a perfect square matching `n * n`.
    pub fn from_table(n: usize, table: &[u64]) -> Self {
        assert_eq!(table.len(), n * n, "table must be n*n entries");
        let mut d = DemandMatrix::new(n);
        d.queued.copy_from_slice(table);
        for i in 0..n {
            for o in 0..n {
                if d.queued[i * n + o] > 0 {
                    d.row_masks[i * d.words + o / WORD_BITS] |= 1 << (o % WORD_BITS);
                    d.col_masks[o * d.words + i / WORD_BITS] |= 1 << (i % WORD_BITS);
                }
            }
        }
        d
    }
}

/// A crossbar configuration for one slot: each input paired with at most one
/// output and vice versa.
///
/// Matched-port bitmasks make `input_free` / `output_free` single bit tests
/// and give schedulers the free-port sets ([`Matching::free_inputs`] on
/// single-word switches, [`Matching::free_input_ports`] at any width) as
/// whole words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `pair[i] = Some(o)` when input `i` transmits to output `o`.
    pair: Vec<Option<usize>>,
    /// Words per port set.
    words: usize,
    /// Bit `i` set when input `i` is matched.
    matched_in: Vec<u64>,
    /// Bit `o` set when output `o` is matched.
    matched_out: Vec<u64>,
}

impl Matching {
    /// An empty matching for an `n`-port switch.
    ///
    /// # Panics
    ///
    /// Panics if `n > ` [`MAX_PORTS`].
    pub fn empty(n: usize) -> Self {
        assert!(
            n <= MAX_PORTS,
            "bitmask port sets support at most {MAX_PORTS} ports (got {n})"
        );
        let words = words_for(n);
        Matching {
            pair: vec![None; n],
            words,
            matched_in: vec![0; words],
            matched_out: vec![0; words],
        }
    }

    /// Builds from an explicit input→output table.
    ///
    /// # Panics
    ///
    /// Panics if two inputs claim the same output (illegal configuration).
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut m = Matching::empty(n);
        for (i, o) in pairs {
            m.set(i, o);
        }
        m
    }

    /// Resets to the empty matching of size `n`, reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        assert!(
            n <= MAX_PORTS,
            "bitmask port sets support at most {MAX_PORTS} ports (got {n})"
        );
        self.pair.clear();
        self.pair.resize(n, None);
        self.words = words_for(n);
        self.matched_in.clear();
        self.matched_in.resize(self.words, 0);
        self.matched_out.clear();
        self.matched_out.resize(self.words, 0);
    }

    /// Switch size.
    pub fn size(&self) -> usize {
        self.pair.len()
    }

    /// The output matched to `input`, if any.
    pub fn output_of(&self, input: usize) -> Option<usize> {
        self.pair[input]
    }

    /// The input matched to `output`, if any.
    pub fn input_of(&self, output: usize) -> Option<usize> {
        self.pair.iter().position(|&p| p == Some(output))
    }

    /// Whether `input` is unmatched.
    #[inline]
    pub fn input_free(&self, input: usize) -> bool {
        self.matched_in[input / WORD_BITS] & (1 << (input % WORD_BITS)) == 0
    }

    /// Whether `output` is unmatched.
    #[inline]
    pub fn output_free(&self, output: usize) -> bool {
        self.matched_out[output / WORD_BITS] & (1 << (output % WORD_BITS)) == 0
    }

    /// The unmatched inputs, as a single-word bitmask. Only valid on
    /// switches of ≤ 64 ports; wider switches use
    /// [`Matching::free_input_ports`].
    #[inline]
    pub fn free_inputs(&self) -> u64 {
        debug_assert_eq!(self.words, 1, "free_inputs on a >64-port switch");
        !self.matched_in[0] & all_ports(self.pair.len())
    }

    /// The unmatched outputs, as a single-word bitmask. Only valid on
    /// switches of ≤ 64 ports; wider switches use
    /// [`Matching::free_output_ports`].
    #[inline]
    pub fn free_outputs(&self) -> u64 {
        debug_assert_eq!(self.words, 1, "free_outputs on a >64-port switch");
        !self.matched_out[0] & all_ports(self.pair.len())
    }

    /// The unmatched inputs, at any switch width.
    pub fn free_input_ports(&self) -> PortSet {
        let mut s = PortSet::empty(self.pair.len().max(1));
        self.write_free_inputs(&mut s.words);
        s
    }

    /// The unmatched outputs, at any switch width.
    pub fn free_output_ports(&self) -> PortSet {
        let mut s = PortSet::empty(self.pair.len().max(1));
        self.write_free_outputs(&mut s.words);
        s
    }

    /// Writes the free-input words into a caller buffer (alloc-free wide
    /// scheduler path).
    #[inline]
    pub(crate) fn write_free_inputs(&self, out: &mut [u64]) {
        let n = self.pair.len();
        for (wi, w) in out.iter_mut().enumerate().take(self.words) {
            *w = !self.matched_in[wi] & word_all(n, wi);
        }
    }

    /// Writes the free-output words into a caller buffer.
    #[inline]
    pub(crate) fn write_free_outputs(&self, out: &mut [u64]) {
        let n = self.pair.len();
        for (wi, w) in out.iter_mut().enumerate().take(self.words) {
            *w = !self.matched_out[wi] & word_all(n, wi);
        }
    }

    /// Pairs `input` with `output`.
    ///
    /// # Panics
    ///
    /// Panics if either side is already matched — schedulers must only fill
    /// gaps, never overwrite.
    pub fn set(&mut self, input: usize, output: usize) {
        assert!(self.input_free(input), "input {input} already matched");
        assert!(self.output_free(output), "output {output} already matched");
        self.pair[input] = Some(output);
        self.matched_in[input / WORD_BITS] |= 1 << (input % WORD_BITS);
        self.matched_out[output / WORD_BITS] |= 1 << (output % WORD_BITS);
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        count_set(&self.matched_in)
    }

    /// `true` when nothing is matched.
    pub fn is_empty(&self) -> bool {
        self.matched_in.iter().all(|&w| w == 0)
    }

    /// Iterates over `(input, output)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pair
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| o.map(|o| (i, o)))
    }

    /// A matching is *legal* for a demand matrix when every matched pair has
    /// queued demand. (Pair uniqueness is enforced structurally.)
    pub fn is_legal(&self, demand: &DemandMatrix) -> bool {
        self.iter().all(|(i, o)| demand.wants(i, o))
    }

    /// A matching is *maximal* when no unmatched input still has demand for
    /// an unmatched output — "there can be no head-of-line blocking, since
    /// all potential connections are considered at each iteration" (§3).
    pub fn is_maximal(&self, demand: &DemandMatrix) -> bool {
        let n = self.pair.len();
        for input in 0..n {
            if !self.input_free(input) {
                continue;
            }
            let row = demand.row(input);
            for (wi, (&r, &matched)) in row.iter().zip(&self.matched_out).enumerate() {
                let free_out = !matched & word_all(n, wi);
                if r & free_out != 0 {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (i, o) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{i}->{o}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Verifies the structural invariant that no output is matched twice.
/// `Matching::set` makes violations unrepresentable, so this exists for
/// property tests over scheduler outputs.
pub fn outputs_unique(m: &Matching) -> bool {
    let mut seen = vec![false; m.size()];
    for (_, o) in m.iter() {
        if seen[o] {
            return false;
        }
        seen[o] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_basics() {
        let mut d = DemandMatrix::new(3);
        assert!(d.is_empty());
        d.add(0, 1, 2);
        d.add(2, 0, 1);
        assert_eq!(d.total(), 3);
        assert_eq!(d.queued(0, 1), 2);
        assert!(d.wants(2, 0));
        assert!(!d.wants(1, 1));
        assert_eq!(d.requests_of(0), vec![1]);
        d.take_one(0, 1);
        assert_eq!(d.queued(0, 1), 1);
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn masks_track_demand() {
        let mut d = DemandMatrix::new(4);
        d.add(1, 2, 1);
        d.add(1, 3, 2);
        d.add(0, 2, 1);
        assert_eq!(d.row_mask(1), 0b1100);
        assert_eq!(d.col_mask(2), 0b0011);
        d.take_one(1, 2);
        assert_eq!(d.row_mask(1), 0b1000, "bit clears when queue empties");
        assert_eq!(d.col_mask(2), 0b0001);
        d.take_one(1, 3);
        assert_eq!(d.row_mask(1), 0b1000, "two queued: bit survives one take");
        d.take_one(1, 3);
        assert_eq!(d.row_mask(1), 0);
    }

    #[test]
    fn add_zero_cells_leaves_no_demand() {
        let mut d = DemandMatrix::new(2);
        d.add(0, 1, 0);
        assert!(!d.wants(0, 1));
        assert_eq!(d.row_mask(0), 0);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "no cell queued")]
    fn take_from_empty_panics() {
        DemandMatrix::new(2).take_one(0, 0);
    }

    #[test]
    fn from_table() {
        let d = DemandMatrix::from_table(2, &[0, 1, 2, 0]);
        assert_eq!(d.queued(0, 1), 1);
        assert_eq!(d.queued(1, 0), 2);
        assert_eq!(d.row_mask(0), 0b10);
        assert_eq!(d.col_mask(0), 0b10);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn from_table_wrong_len_panics() {
        DemandMatrix::from_table(2, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at most 1024 ports")]
    fn oversized_switch_rejected() {
        DemandMatrix::new(MAX_PORTS + 1);
    }

    #[test]
    fn full_width_switch_supported() {
        let mut d = DemandMatrix::new(64);
        d.add(63, 63, 1);
        assert_eq!(d.row_mask(63), 1 << 63);
        let mut m = Matching::empty(64);
        assert_eq!(m.free_inputs(), u64::MAX);
        m.set(63, 0);
        assert_eq!(m.free_inputs(), u64::MAX >> 1);
    }

    #[test]
    fn wide_switch_demand_and_matching() {
        // Ports past 64 land in the second word and behave identically.
        let n = 130;
        let mut d = DemandMatrix::new(n);
        d.add(0, 129, 1);
        d.add(100, 3, 2);
        d.add(100, 65, 1);
        assert!(d.wants(0, 129) && d.wants(100, 65));
        assert_eq!(d.requests_of(100), vec![3, 65]);
        assert_eq!(d.row_ports(100).iter().collect::<Vec<_>>(), vec![3, 65]);
        assert_eq!(d.col_ports(3).iter().collect::<Vec<_>>(), vec![100]);
        d.take_one(100, 65);
        assert!(!d.wants(100, 65));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.queued(0, 129), 0);

        let mut m = Matching::empty(n);
        assert_eq!(m.free_input_ports().len(), n);
        m.set(129, 64);
        assert!(!m.input_free(129) && !m.output_free(64));
        assert!(m.input_free(128) && m.output_free(65));
        assert_eq!(m.free_output_ports().len(), n - 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.output_of(129), Some(64));
        assert_eq!(m.input_of(64), Some(129));
    }

    #[test]
    fn wide_maximality() {
        let n = 70;
        let mut d = DemandMatrix::new(n);
        d.add(68, 69, 1);
        let m = Matching::empty(n);
        assert!(!m.is_maximal(&d), "68->69 still possible");
        let m2 = Matching::from_pairs(n, [(68, 69)]);
        assert!(m2.is_maximal(&d));
        assert!(m2.is_legal(&d));
    }

    #[test]
    fn port_set_basics() {
        let full = PortSet::full(100);
        assert_eq!(full.len(), 100);
        assert_eq!(full.capacity(), 100);
        assert!(full.contains(99) && !full.contains(100));
        let mut s = PortSet::empty(65);
        assert!(s.is_empty());
        s.insert(64);
        s.insert(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.nth(0), 0);
        assert_eq!(s.nth(1), 64);
        s.remove(0);
        s.remove(64);
        s.remove(1_000); // out of range: no-op
        assert!(s.is_empty());
        assert_eq!(s.as_words().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_set_insert_out_of_range_panics() {
        PortSet::empty(64).insert(64);
    }

    #[test]
    fn matching_set_and_query() {
        let mut m = Matching::empty(4);
        assert!(m.is_empty());
        m.set(0, 2);
        m.set(3, 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.output_of(0), Some(2));
        assert_eq!(m.input_of(1), Some(3));
        assert_eq!(m.input_of(0), None);
        assert!(m.input_free(1));
        assert!(!m.output_free(2));
        assert_eq!(m.free_inputs(), 0b0110);
        assert_eq!(m.free_outputs(), 0b1001);
        assert_eq!(m.to_string(), "{0->2, 3->1}");
        assert!(outputs_unique(&m));
    }

    #[test]
    fn demand_reset_restrides_without_stale_demand() {
        let mut d = DemandMatrix::new(4);
        d.add(3, 2, 5);
        d.add(1, 3, 1);
        // Narrower, wider past a word boundary, and back: always equal to a
        // fresh matrix of that size, whatever was queued before.
        for n in [2, 100, 4, 4] {
            d.reset(n);
            assert_eq!(d, DemandMatrix::new(n));
            d.add(n - 1, 0, 2);
            d.add(0, n - 1, 1);
            assert_eq!(d.queued(n - 1, 0), 2);
            assert_eq!(d.requests_of(0), vec![n - 1]);
        }
        let cap = d.queued.capacity();
        d.reset(100);
        assert_eq!(d.queued.capacity(), cap, "the largest size is kept");
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut m = Matching::empty(4);
        m.set(1, 1);
        m.reset(4);
        assert!(m.is_empty());
        assert_eq!(m.free_outputs(), 0b1111);
        m.reset(2);
        assert_eq!(m.size(), 2);
        assert_eq!(m.free_inputs(), 0b11);
    }

    #[test]
    fn reset_across_word_boundaries() {
        let mut m = Matching::empty(4);
        m.set(0, 0);
        m.reset(100);
        assert_eq!(m.size(), 100);
        assert!(m.is_empty());
        m.set(99, 1);
        m.reset(4);
        assert_eq!(m.free_inputs(), 0b1111);
    }

    #[test]
    #[should_panic(expected = "output 2 already matched")]
    fn double_output_panics() {
        let mut m = Matching::empty(3);
        m.set(0, 2);
        m.set(1, 2);
    }

    #[test]
    #[should_panic(expected = "input 0 already matched")]
    fn double_input_panics() {
        let mut m = Matching::empty(3);
        m.set(0, 2);
        m.set(0, 1);
    }

    #[test]
    fn legality_and_maximality() {
        let mut d = DemandMatrix::new(3);
        d.add(0, 0, 1);
        d.add(0, 1, 1);
        d.add(1, 1, 1);
        // {0->0, 1->1} is legal and maximal.
        let m = Matching::from_pairs(3, [(0, 0), (1, 1)]);
        assert!(m.is_legal(&d));
        assert!(m.is_maximal(&d));
        // {0->0} alone is legal but not maximal: input 1 / output 1 could
        // still be paired.
        let m2 = Matching::from_pairs(3, [(0, 0)]);
        assert!(m2.is_legal(&d));
        assert!(!m2.is_maximal(&d), "1->1 still possible");
        // A matching using a pair with no demand is illegal.
        let m3 = Matching::from_pairs(3, [(2, 2)]);
        assert!(!m3.is_legal(&d));
    }

    #[test]
    fn empty_matching_maximal_iff_no_demand() {
        let d = DemandMatrix::new(2);
        assert!(Matching::empty(2).is_maximal(&d));
        let mut d2 = DemandMatrix::new(2);
        d2.add(1, 1, 1);
        assert!(!Matching::empty(2).is_maximal(&d2));
    }

    #[test]
    fn bit_helpers() {
        assert_eq!(all_ports(64), u64::MAX);
        assert_eq!(all_ports(3), 0b111);
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
        assert_eq!(nth_set_bit(1 << 63, 0), 63);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(1024), 16);
        assert_eq!(word_all(70, 0), u64::MAX);
        assert_eq!(word_all(70, 1), 0b11_1111);
        assert_eq!(word_all(70, 2), 0);
        assert_eq!(nth_set(&[0b100, 0b11], 0), 2);
        assert_eq!(nth_set(&[0b100, 0b11], 1), 64);
        assert_eq!(nth_set(&[0b100, 0b11], 2), 65);
        assert_eq!(count_set(&[0b100, 0b11]), 3);
    }
}
