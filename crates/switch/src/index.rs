//! Which circuits request which crossbar pair.
//!
//! PIM is defined by its requests: "each unmatched input sends a request to
//! every output for which it has a buffered cell" (§3). A [`PairIndex`]
//! keeps that state between steps for one traffic class of one switch:
//!
//! * per (input, output) pair, the circuits with cells queued at `input`
//!   and routed to `output`, ordered by (head-cell stamp, raw VC id) —
//!   oldest head first, a tie to the lowest id, which is the order the
//!   pre-slab switch's B-tree walk resolved ties in;
//! * per input, a `⌈n/64⌉`-word mask of the outputs whose list is
//!   non-empty, so a step visits one list per requesting pair rather than
//!   every queued circuit.
//!
//! An entry comes in when its queue goes non-empty and leaves when it goes
//! empty. A dequeue that leaves the queue non-empty re-keys the entry in
//! place: stamps never decrease along a queue, so the entry only moves
//! right. Credits do not touch membership — a step passes over a starved
//! head, and the credit's return needs no index update.

/// One circuit's place in its pair's list.
///
/// Fields compare in declaration order, so the derived `Ord` is the list
/// order: stamp, then VC id (the slab slot never decides: ids are unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Head {
    /// The slot the circuit's head cell at this input arrived in.
    pub stamp: u64,
    /// The circuit's raw VC id.
    pub vc: u32,
    /// The circuit's slab slot.
    pub si: u32,
}

/// Per-pair request lists and per-input request masks of one traffic class
/// (see the module docs). Both tables are sized once, by the port count.
#[derive(Debug)]
pub(crate) struct PairIndex {
    /// Two `u32`s, so the entry count costs the switch's header nothing and
    /// [`PairIndex::is_empty`] reads no list.
    ports: u32,
    /// Entries across every list: one per non-empty queue, so fewer than
    /// the pool's `u32`-indexed cells.
    entries: u32,
    /// Pair (input, output)'s list at `input * ports + output`.
    lists: Box<[Vec<Head>]>,
    /// Input `i`'s mask at `i * words..(i + 1) * words`: bit `o` set iff
    /// pair (i, o)'s list is non-empty.
    masks: Box<[u64]>,
}

impl PairIndex {
    /// An empty index for an `ports`-port switch.
    pub fn new(ports: usize) -> Self {
        PairIndex {
            ports: u32::try_from(ports).expect("a switch has at most u32::MAX ports"),
            entries: 0,
            lists: vec![Vec::new(); ports * ports].into(),
            masks: vec![0; ports * words(ports)].into(),
        }
    }

    /// The circuits requesting pair (input, output), oldest head first.
    #[inline]
    pub fn list(&self, input: usize, output: usize) -> &[Head] {
        &self.lists[input * self.ports as usize + output]
    }

    /// The outputs `input` holds cells for, ascending.
    #[inline]
    pub fn requests(&self, input: usize) -> Requests<'_> {
        let w = words(self.ports as usize);
        let words = &self.masks[input * w..(input + 1) * w];
        Requests {
            words,
            wi: 0,
            word: words.first().copied().unwrap_or(0),
        }
    }

    /// Whether no circuit of this class has a cell queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// A queue went non-empty: its circuit joins the pair's list.
    pub fn insert(&mut self, input: usize, output: usize, head: Head) {
        let list = &mut self.lists[input * self.ports as usize + output];
        let first = list.is_empty();
        let pos = list.partition_point(|e| *e < head);
        list.insert(pos, head);
        self.entries += 1;
        if first {
            let (word, bit) = self.bit(input, output);
            self.masks[word] |= bit;
        }
    }

    /// A queue was cleared: its circuit, whose head cell was `head`'s,
    /// leaves the pair's list.
    pub fn remove(&mut self, input: usize, output: usize, head: Head) {
        let pos = self
            .list(input, output)
            .binary_search(&head)
            .expect("a non-empty queue is indexed under its head");
        self.advance(input, output, pos, None);
    }

    /// The circuit at `pos` of the pair's list dequeued its head cell: it
    /// leaves the list if its queue is now empty (`next` is `None`), and is
    /// otherwise re-keyed in place to its new head's stamp.
    pub fn advance(&mut self, input: usize, output: usize, pos: usize, next: Option<u64>) {
        let list = &mut self.lists[input * self.ports as usize + output];
        let Some(stamp) = next else {
            list.remove(pos);
            self.entries -= 1;
            if list.is_empty() {
                let (word, bit) = self.bit(input, output);
                self.masks[word] &= !bit;
            }
            return;
        };
        let mut head = list[pos];
        debug_assert!(stamp >= head.stamp, "a queue's stamps never decrease");
        head.stamp = stamp;
        let moved = list[pos + 1..].partition_point(|e| *e < head);
        list.copy_within(pos + 1..=pos + moved, pos);
        list[pos + moved] = head;
    }

    /// Empties every list (a line-card crash dropped every queue).
    pub fn clear(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
        self.masks.fill(0);
        self.entries = 0;
    }

    /// Entries across every list.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// Whether `head` is in pair (input, output)'s list and the pair is in
    /// its input's mask.
    pub fn contains(&self, input: usize, output: usize, head: Head) -> bool {
        let (word, bit) = self.bit(input, output);
        self.masks[word] & bit != 0 && self.list(input, output).binary_search(&head).is_ok()
    }

    /// Asserts that the list of every pair in the masks is non-empty and in
    /// order without repeats, and that those lists hold every entry. As
    /// `insert` and `advance` change a list and the entry count together,
    /// every other list is then empty and the masks are exact. For the
    /// switch's debug-build consistency check, which runs every step.
    pub fn check(&self) {
        let mut total = 0;
        for input in 0..self.ports as usize {
            for output in self.requests(input) {
                let list = self.list(input, output);
                assert!(
                    !list.is_empty(),
                    "pair ({input}, {output}) masked but empty"
                );
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "pair ({input}, {output}) out of order"
                );
                total += list.len();
            }
        }
        assert_eq!(total, self.len(), "entries outside the masked pairs");
    }

    /// The mask word and bit of pair (input, output).
    #[inline]
    fn bit(&self, input: usize, output: usize) -> (usize, u64) {
        (
            input * words(self.ports as usize) + output / 64,
            1 << (output % 64),
        )
    }
}

/// The set bits of one input's mask, ascending: [`PairIndex::requests`].
pub(crate) struct Requests<'a> {
    words: &'a [u64],
    /// The word being consumed, and what is left of it.
    wi: usize,
    word: u64,
}

impl Iterator for Requests<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.wi += 1;
            self.word = *self.words.get(self.wi)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.wi * 64 + bit)
    }
}

/// Mask words per input of an `ports`-port switch.
#[inline]
fn words(ports: usize) -> usize {
    ports.div_ceil(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an2_sim::SimRng;

    /// Re-keys and removals keep a pair's list equal to its entries sorted
    /// afresh, at every list length, and its mask bit and the entry count
    /// in step.
    #[test]
    fn advance_keeps_the_pair_list_sorted() {
        let mut rng = SimRng::new(5);
        for len in [1, 2, 9, 40] {
            let mut index = PairIndex::new(3);
            let mut want: Vec<Head> = (0..len as u32)
                .map(|k| Head {
                    stamp: rng.gen_range(8) as u64,
                    vc: 1000 - k,
                    si: k,
                })
                .collect();
            for &h in &want {
                index.insert(2, 1, h);
            }
            for _ in 0..200 {
                if want.is_empty() {
                    break;
                }
                want.sort_unstable();
                assert_eq!(index.list(2, 1), &want[..], "length {len}");
                let pos = rng.gen_range(want.len());
                let next = rng
                    .gen_bool(0.9)
                    .then(|| want[pos].stamp + rng.gen_range(6) as u64);
                index.advance(2, 1, pos, next);
                match next {
                    Some(stamp) => want[pos].stamp = stamp,
                    None => {
                        want.remove(pos);
                    }
                }
            }
            want.sort_unstable();
            assert_eq!(index.list(2, 1), &want[..]);
            index.check();
            assert_eq!(index.len(), want.len());
            assert_eq!(
                index.requests(2).collect::<Vec<_>>(),
                if want.is_empty() { vec![] } else { vec![1] }
            );
        }
    }
}
