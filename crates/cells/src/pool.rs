//! A slab-backed pool of [`Cell`]s with intrusive FIFO queues.
//!
//! A switch keeps tens of queues per port (one per virtual circuit), and
//! each switch owns one pool; a host controller's outbox needs none, as it
//! adopts the buffers its cells were handed over in. Backing each switch
//! queue with its own `VecDeque<Cell>` would give every queue a separate
//! allocation and let every enqueue reallocate. The pool flips that
//! around: **one** growable arena of nodes shared by all queues, with a
//! free list, so that in steady state cells move between queues by
//! relinking `u32` indices — zero allocator traffic per slot.
//!
//! A [`CellQueue`] is a 12-byte handle (`head`, `tail`, `len`); all
//! operations go through the pool that owns the storage. Each node carries
//! the cell plus two scalars the data plane needs alongside it:
//!
//! * `stamp` — the slot at which the cell entered the queue (the switch's
//!   `enqueued_slot`, used for cut-through latency accounting and the
//!   oldest-cell tie-break in the guaranteed scheduler);
//! * `aux` — a small tag (the switch uses it for the arrival input port of
//!   cells parked before their route is installed).
//!
//! Queues from the same pool must not share nodes; the pool does not check
//! this (it would need per-node owner tags), but every use in the tree
//! moves nodes with `pop_front`/`push_back`, which preserves the invariant.

use crate::Cell;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    cell: Cell,
    stamp: u64,
    aux: u32,
    next: u32,
}

/// A FIFO queue handle into a [`CellPool`]. Cheap to create and move; all
/// storage lives in the pool.
#[derive(Debug, Clone)]
pub struct CellQueue {
    head: u32,
    tail: u32,
    len: u32,
    /// Stamp of the head node, mirrored here so readers of queue heads (the
    /// switch re-keys its request index from it after every dequeue) read
    /// one struct instead of chasing into the arena. Meaningless when the
    /// queue is empty.
    front_stamp: u64,
}

impl Default for CellQueue {
    fn default() -> Self {
        CellQueue::new()
    }
}

impl CellQueue {
    /// An empty queue.
    pub fn new() -> Self {
        CellQueue {
            head: NIL,
            tail: NIL,
            len: 0,
            front_stamp: 0,
        }
    }

    /// Number of cells queued.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no cells are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stamp of the head cell without touching the pool. Returns the
    /// last head's stamp (or zero) on an empty queue — callers gate on
    /// [`CellQueue::is_empty`] first.
    pub fn front_stamp(&self) -> u64 {
        self.front_stamp
    }
}

/// A growable arena of cell nodes shared by many [`CellQueue`]s.
///
/// ```
/// use an2_cells::{Cell, CellPool, CellQueue, VcId};
/// let mut pool = CellPool::new();
/// let mut q = CellQueue::new();
/// pool.push_back(&mut q, Cell::blank(VcId::new(1)), 7, 0);
/// pool.push_back(&mut q, Cell::blank(VcId::new(2)), 8, 0);
/// let (cell, stamp, _aux) = pool.pop_front(&mut q).unwrap();
/// assert_eq!(cell.vc(), VcId::new(1));
/// assert_eq!(stamp, 7);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CellPool {
    nodes: Vec<Node>,
    free: u32,
    live: u32,
}

impl CellPool {
    /// An empty pool.
    pub fn new() -> Self {
        CellPool {
            nodes: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// A pool with room for `cells` nodes before the arena regrows.
    pub fn with_capacity(cells: usize) -> Self {
        let mut pool = CellPool {
            nodes: Vec::with_capacity(cells),
            free: NIL,
            live: 0,
        };
        for _ in 0..cells {
            let idx = pool.nodes.len() as u32;
            pool.nodes.push(Node {
                cell: Cell::blank(crate::VcId::new(0)),
                stamp: 0,
                aux: 0,
                next: pool.free,
            });
            pool.free = idx;
        }
        pool
    }

    /// Cells currently enqueued across all queues of this pool.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Total nodes in the arena (live + free).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    fn alloc(&mut self, cell: Cell, stamp: u64, aux: u32) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.cell = cell;
            node.stamp = stamp;
            node.aux = aux;
            node.next = NIL;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "cell pool exhausted the u32 index space");
            self.nodes.push(Node {
                cell,
                stamp,
                aux,
                next: NIL,
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.live -= 1;
    }

    /// Appends a cell to the tail of `q`.
    pub fn push_back(&mut self, q: &mut CellQueue, cell: Cell, stamp: u64, aux: u32) {
        let idx = self.alloc(cell, stamp, aux);
        if q.tail == NIL {
            q.head = idx;
            q.front_stamp = stamp;
        } else {
            self.nodes[q.tail as usize].next = idx;
        }
        q.tail = idx;
        q.len += 1;
    }

    /// Removes and returns the head of `q` as `(cell, stamp, aux)`.
    pub fn pop_front(&mut self, q: &mut CellQueue) -> Option<(Cell, u64, u32)> {
        if q.head == NIL {
            return None;
        }
        let idx = q.head;
        let node = &self.nodes[idx as usize];
        let out = (node.cell, node.stamp, node.aux);
        q.head = node.next;
        if q.head == NIL {
            q.tail = NIL;
        } else {
            q.front_stamp = self.nodes[q.head as usize].stamp;
        }
        q.len -= 1;
        self.release(idx);
        Some(out)
    }

    /// The head of `q` without removing it, as `(cell, stamp, aux)`.
    pub fn front<'a>(&'a self, q: &CellQueue) -> Option<(&'a Cell, u64, u32)> {
        if q.head == NIL {
            return None;
        }
        let node = &self.nodes[q.head as usize];
        Some((&node.cell, node.stamp, node.aux))
    }

    /// Iterates `q` head-to-tail as `(cell, stamp, aux)`.
    pub fn iter<'a>(&'a self, q: &CellQueue) -> CellQueueIter<'a> {
        CellQueueIter {
            pool: self,
            cursor: q.head,
        }
    }

    /// Drops every cell in `q`, returning how many were freed.
    pub fn clear(&mut self, q: &mut CellQueue) -> usize {
        let dropped = q.len as usize;
        let mut cursor = q.head;
        while cursor != NIL {
            let next = self.nodes[cursor as usize].next;
            self.release(cursor);
            cursor = next;
        }
        q.head = NIL;
        q.tail = NIL;
        q.len = 0;
        dropped
    }
}

/// Iterator over a [`CellQueue`]; see [`CellPool::iter`].
pub struct CellQueueIter<'a> {
    pool: &'a CellPool,
    cursor: u32,
}

impl<'a> Iterator for CellQueueIter<'a> {
    type Item = (&'a Cell, u64, u32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.pool.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some((&node.cell, node.stamp, node.aux))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VcId;

    fn cell(n: u32) -> Cell {
        Cell::blank(VcId::new(n))
    }

    #[test]
    fn fifo_order_and_len() {
        let mut pool = CellPool::new();
        let mut q = CellQueue::new();
        for i in 0..5 {
            pool.push_back(&mut q, cell(i), i as u64, i);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(pool.live(), 5);
        for i in 0..5 {
            let (c, stamp, aux) = pool.pop_front(&mut q).unwrap();
            assert_eq!(c.vc().raw(), i);
            assert_eq!(stamp, i as u64);
            assert_eq!(aux, i);
        }
        assert!(q.is_empty());
        assert!(pool.pop_front(&mut q).is_none());
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn nodes_are_reused_not_grown() {
        let mut pool = CellPool::new();
        let mut q = CellQueue::new();
        for i in 0..8 {
            pool.push_back(&mut q, cell(i), 0, 0);
        }
        let arena = pool.capacity();
        for round in 0..100u32 {
            pool.pop_front(&mut q).unwrap();
            pool.push_back(&mut q, cell(round), 0, 0);
        }
        assert_eq!(pool.capacity(), arena, "steady state must not allocate");
    }

    #[test]
    fn independent_queues_share_one_arena() {
        let mut pool = CellPool::new();
        let mut a = CellQueue::new();
        let mut b = CellQueue::new();
        pool.push_back(&mut a, cell(1), 0, 0);
        pool.push_back(&mut b, cell(2), 0, 0);
        pool.push_back(&mut a, cell(3), 0, 0);
        assert_eq!(pool.pop_front(&mut b).unwrap().0.vc().raw(), 2);
        assert_eq!(pool.pop_front(&mut a).unwrap().0.vc().raw(), 1);
        assert_eq!(pool.pop_front(&mut a).unwrap().0.vc().raw(), 3);
    }

    #[test]
    fn clear_frees_all_and_counts() {
        let mut pool = CellPool::new();
        let mut q = CellQueue::new();
        for i in 0..4 {
            pool.push_back(&mut q, cell(i), 0, 0);
        }
        assert_eq!(pool.clear(&mut q), 4);
        assert!(q.is_empty());
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.clear(&mut q), 0);
        // Freed nodes are reusable.
        pool.push_back(&mut q, cell(9), 0, 0);
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn front_and_iter_do_not_consume() {
        let mut pool = CellPool::new();
        let mut q = CellQueue::new();
        pool.push_back(&mut q, cell(7), 3, 1);
        pool.push_back(&mut q, cell(8), 4, 2);
        let (c, stamp, aux) = pool.front(&q).unwrap();
        assert_eq!((c.vc().raw(), stamp, aux), (7, 3, 1));
        let seen: Vec<u32> = pool.iter(&q).map(|(c, _, _)| c.vc().raw()).collect();
        assert_eq!(seen, vec![7, 8]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn front_stamp_tracks_head() {
        let mut pool = CellPool::new();
        let mut q = CellQueue::new();
        pool.push_back(&mut q, cell(1), 11, 0);
        pool.push_back(&mut q, cell(2), 12, 0);
        assert_eq!(q.front_stamp(), 11);
        pool.pop_front(&mut q).unwrap();
        assert_eq!(q.front_stamp(), 12);
        pool.pop_front(&mut q).unwrap();
        // Re-fill after empty: stamp must come from the new head.
        pool.push_back(&mut q, cell(3), 30, 0);
        assert_eq!(q.front_stamp(), 30);
        assert_eq!(q.front_stamp(), pool.front(&q).unwrap().1);
    }

    #[test]
    fn with_capacity_prefills_free_list() {
        let mut pool = CellPool::with_capacity(16);
        assert_eq!(pool.capacity(), 16);
        assert_eq!(pool.live(), 0);
        let mut q = CellQueue::new();
        for i in 0..16 {
            pool.push_back(&mut q, cell(i), 0, 0);
        }
        assert_eq!(pool.capacity(), 16);
    }
}
