//! Interning of virtual-circuit ids into dense slot numbers.
//!
//! AN2 hardware indexes a routing table directly by the VC id in the cell
//! header (§2). A simulated component that terminates a few hundred of the
//! 2²⁴ possible ids cannot afford a table that wide per instance, so it
//! interns the ids it has seen: [`VcIndex`] maps an id to the order in which
//! it was first seen, and the component keeps its per-circuit state in a
//! plain `Vec` at that position.

use crate::cell::VcId;

/// An insert-only map from [`VcId`] to a dense slot number (`0, 1, 2, …` in
/// order of first sight), sized by the number of circuits seen rather than
/// by the highest id.
///
/// Open addressing with linear probing over a power-of-two table kept at
/// most half full; entries are never removed, so a probe ends at the first
/// empty cell.
///
/// ```
/// use an2_cells::{VcId, VcIndex};
/// let mut ix = VcIndex::new();
/// assert_eq!(ix.intern(VcId::new(900)), 0);
/// assert_eq!(ix.intern(VcId::new(7)), 1);
/// assert_eq!(ix.intern(VcId::new(900)), 0);
/// assert_eq!(ix.get(VcId::new(7)), Some(1));
/// assert_eq!(ix.get(VcId::new(8)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VcIndex {
    /// `(raw id + 1, slot)`; a zero key marks an empty cell (ids are 24-bit,
    /// so `id + 1` never wraps). Empty until the first intern.
    table: Vec<(u32, u32)>,
    /// `32 - log2(table.len())`: the hash keeps that many top bits. Zero
    /// while the table is unallocated, when any index misses it.
    shift: u32,
    /// Ids interned so far: the slot the next new id gets.
    len: u32,
}

/// Smallest allocated table: room for four circuits at half load.
const MIN_TABLE: usize = 8;

impl VcIndex {
    /// An empty index (allocates nothing until the first intern).
    pub fn new() -> Self {
        VcIndex::default()
    }

    /// Where `key`'s probe sequence starts: the top bits of a Fibonacci
    /// multiply, so runs of sequential or strided ids — what the fabric
    /// hands out — scatter instead of clustering.
    fn home(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// Walks `key`'s probe sequence to the cell holding it (`Ok`) or to the
    /// empty cell where it belongs (`Err`; also the answer, with an index
    /// past the end, while the table is unallocated).
    #[inline]
    fn probe(&self, key: u32) -> Result<u32, usize> {
        let mut i = self.home(key);
        loop {
            match self.table.get(i) {
                Some(&(k, slot)) if k == key => return Ok(slot),
                Some(&(0, _)) | None => return Err(i),
                Some(_) => i = (i + 1) & (self.table.len() - 1),
            }
        }
    }

    /// The slot of `vc`, if it has been interned.
    #[inline]
    pub fn get(&self, vc: VcId) -> Option<u32> {
        self.probe(vc.raw() + 1).ok()
    }

    /// The slot of `vc`, assigning the next unused one (the number of ids
    /// interned before the call) on first sight.
    pub fn intern(&mut self, vc: VcId) -> u32 {
        let key = vc.raw() + 1;
        let mut at = match self.probe(key) {
            Ok(slot) => return slot,
            Err(at) => at,
        };
        if (self.len as usize + 1) * 2 > self.table.len() {
            self.grow();
            at = self
                .probe(key)
                .expect_err("the key was absent before the resize");
        }
        self.table[at] = (key, self.len);
        self.len += 1;
        self.len - 1
    }

    /// Doubles the table (or allocates the first one) and re-places every
    /// entry.
    fn grow(&mut self) {
        let new_len = (self.table.len() * 2).max(MIN_TABLE);
        let old = std::mem::replace(&mut self.table, vec![(0, 0); new_len]);
        self.shift = 32 - new_len.trailing_zeros();
        for (key, slot) in old.into_iter().filter(|e| e.0 != 0) {
            let at = self.probe(key).expect_err("keys are distinct");
            self.table[at] = (key, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_ids_intern() {
        let mut ix = VcIndex::new();
        assert_eq!(ix.get(VcId::new(0)), None);
        assert_eq!(ix.intern(VcId::new(0)), 0);
        assert_eq!(ix.intern(VcId::new(VcId::MAX)), 1);
        assert_eq!(ix.get(VcId::new(0)), Some(0));
        assert_eq!(ix.get(VcId::new(VcId::MAX)), Some(1));
        assert_eq!(ix.get(VcId::new(1)), None);
        assert_eq!(ix.len, 2);
    }

    #[test]
    fn colliding_run_probes_past_occupied_cells() {
        // Ids whose keys share one home cell in the smallest table: they can
        // only coexist by probing linearly past each other.
        let mut ix = VcIndex::new();
        ix.grow();
        assert_eq!(ix.table.len(), MIN_TABLE);
        let colliding: Vec<VcId> = (0..VcId::MAX)
            .filter(|raw| ix.home(raw + 1) == 3)
            .take(4)
            .map(VcId::new)
            .collect();
        for (slot, &vc) in colliding.iter().enumerate() {
            assert_eq!(ix.intern(vc), slot as u32);
        }
        assert_eq!(ix.table.len(), MIN_TABLE, "four entries fit at half load");
        for (slot, &vc) in colliding.iter().enumerate() {
            assert_eq!(ix.get(vc), Some(slot as u32));
            assert_eq!(ix.intern(vc), slot as u32, "re-interning finds the entry");
        }
    }

    #[test]
    fn slots_survive_growth_across_resizes() {
        let mut ix = VcIndex::new();
        // Sparse, non-monotone ids; 1000 of them cross seven resizes.
        let ids: Vec<VcId> = (0..1000u32)
            .map(|i| VcId::new((i * 7919 + 13) % (VcId::MAX + 1)))
            .collect();
        for (slot, &vc) in ids.iter().enumerate() {
            assert_eq!(ix.intern(vc), slot as u32);
            assert!(
                ix.len as usize * 2 <= ix.table.len(),
                "load stays at or under 50 %"
            );
        }
        assert!(ix.table.len().is_power_of_two());
        assert_eq!(ix.table.len(), 2048);
        for (slot, &vc) in ids.iter().enumerate() {
            assert_eq!(ix.get(vc), Some(slot as u32));
        }
        assert_eq!(ix.get(VcId::new(5)), None);
    }
}
