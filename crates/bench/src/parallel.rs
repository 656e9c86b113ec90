//! Parallel sweep execution for the experiment grids.
//!
//! The E3/E5 sweeps are (load × pattern × discipline) grids and E4/E7 are
//! multi-size sweeps; every cell is an independent simulation with its own
//! deterministically-derived [`an2_sim::SimRng`] stream, so the grid is
//! embarrassingly parallel. [`par_map`] fans the cells across
//! [`std::thread::scope`] threads while preserving input order, which keeps
//! the harness output byte-identical to a single-thread run (asserted by the
//! determinism tests).

/// Maps `f` over `items` on as many scoped threads as the machine has
/// cores, returning results in input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_threads(items, threads, f)
}

/// [`par_map`] with an explicit thread count. `threads <= 1` runs serially
/// on the calling thread; either way the result order (and, because every
/// cell owns its RNG stream, every result) is identical.
pub fn par_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunks (sizes differing by at most one) keep result order
    // trivially equal to input order after concatenation.
    let len = items.len();
    let base = len / threads;
    let extra = len % threads;
    let mut remaining = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..threads)
        .map(|t| {
            let take = base + usize::from(t < extra);
            remaining.by_ref().take(take).collect()
        })
        .collect();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map_threads((0..101).collect(), 7, |x: i32| x * 2);
        assert_eq!(out, (0..101).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |x: u64| {
            let mut rng = an2_sim::SimRng::new(x);
            (0..100).map(|_| rng.gen_range(1000) as u64).sum::<u64>()
        };
        let items: Vec<u64> = (0..40).collect();
        let serial = par_map_threads(items.clone(), 1, work);
        let parallel = par_map_threads(items, 8, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = par_map_threads(Vec::new(), 4, |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(par_map_threads(vec![9], 4, |x: u32| x + 1), vec![10]);
    }
}
