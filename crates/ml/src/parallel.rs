//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! Grid search (144 hyper-parameter combinations in the paper, Fig. 6), K-fold
//! cross-validation, GSO fitness evaluation, batch region evaluation and the per-feature
//! histograms of large tree nodes are embarrassingly parallel; this module provides the two
//! small primitives they need without pulling in a full task runtime (the build environment
//! has no registry access, and scoped threads have been in `std` since Rust 1.63).

use std::num::NonZeroUsize;

/// Applies `f` to every item, fanning work out over up to `threads` OS threads, and returns
/// the results in the original order.
///
/// With `threads <= 1` (or a single item) the map runs inline on the calling thread, which
/// keeps call sites deterministic and easy to debug.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let n = items.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Split results into per-thread chunks so each thread writes disjoint slices.
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for (item_chunk, result_chunk) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in item_chunk.iter().zip(result_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot written"))
        .collect()
}

/// Applies `f` to every item in place, fanning the items out over up to `threads` OS threads
/// in contiguous chunks. With `threads <= 1` (or a single item) it runs inline.
pub(crate) fn parallel_for_each<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for group in items.chunks_mut(chunk) {
            scope.spawn(move || group.iter_mut().for_each(f));
        }
    });
}

/// Number of worker threads to use by default: the machine's available parallelism, capped at
/// `cap`.
pub fn default_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(cap.max(1))
}

/// Resolves a user-facing thread-count knob: `0` means "automatic" (available parallelism,
/// capped at 8), any other value is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads(8)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..103).collect();
        let out = parallel_map(items.clone(), 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path_matches_parallel_path() {
        let items: Vec<u64> = (0..37).collect();
        let seq = parallel_map(items.clone(), 1, |x| x + 1);
        let par = parallel_map(items, 8, |x| x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |x| *x);
        assert!(out.is_empty());
        let out = parallel_map(vec![9u64], 4, |x| x * x);
        assert_eq!(out, vec![81]);
    }

    #[test]
    fn parallel_for_each_matches_the_inline_pass() {
        let mut seq: Vec<u64> = (0..37).collect();
        parallel_for_each(&mut seq, 1, |x| *x = *x * 3 + 1);
        for threads in [2, 4, 8] {
            let mut par: Vec<u64> = (0..37).collect();
            parallel_for_each(&mut par, threads, |x| *x = *x * 3 + 1);
            assert_eq!(par, seq, "{threads} threads");
        }
        parallel_for_each(&mut Vec::<u64>::new(), 4, |x| *x += 1);
    }

    #[test]
    fn default_threads_is_at_least_one_and_capped() {
        assert!(default_threads(4) >= 1);
        assert!(default_threads(4) <= 4);
        assert_eq!(default_threads(0), 1);
    }

    #[test]
    fn zero_threads_runs_inline() {
        let items: Vec<u64> = (0..20).collect();
        let out = parallel_map(items.clone(), 0, |x| x + 5);
        assert_eq!(out, items.iter().map(|x| x + 5).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_preserves_order() {
        let items: Vec<u64> = (0..3).collect();
        let out = parallel_map(items, 16, |x| x * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn empty_input_with_many_threads() {
        let out: Vec<String> = parallel_map(Vec::<u8>::new(), 32, |x| x.to_string());
        assert!(out.is_empty());
    }

    #[test]
    fn order_is_preserved_under_uneven_work() {
        // Later items finish first if scheduling leaked into result order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items.clone(), 8, |x| {
            if *x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn resolve_threads_maps_zero_to_automatic() {
        assert!(resolve_threads(0) >= 1);
        assert!(resolve_threads(0) <= 8);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
    }
}
