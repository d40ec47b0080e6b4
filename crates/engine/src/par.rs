//! Deterministic data-parallel helpers on `std::thread::scope`.
//!
//! The workspace's parallelism contract: every output is written back
//! to its item's *position*, so the assembled result is bit-identical
//! at every thread count no matter which worker computed what, or in
//! what order. Two schedulers honor that contract:
//!
//! * [`map_chunked`] — static strided assignment (worker `w` takes
//!   items `w, w+W, w+2W, …`). Zero coordination; good when item costs
//!   are roughly uniform or unknown.
//! * [`map_stealing`] — cost-aware work stealing. Items are seeded into
//!   per-worker deques largest-first (LPT), each worker drains its own
//!   deque from the front and, when empty, *steals from the back* of
//!   the fullest other deque. Each `(index, output)` pair lands in its
//!   indexed slot during assembly, so scheduling nondeterminism never
//!   reaches the output — the parallel==sequential differential suite
//!   stays the oracle.
//!
//! Used by the matcher's sharded drivers (contiguous chunks of probe
//! candidates or of the first edge's pool, one chunk per worker) and
//! Algorithm 1's pairwise merges (stealing, cost-sized).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Caps a requested worker count at the host's available parallelism.
///
/// Oversubscribing a small host only adds scheduling overhead — outputs
/// are identical at every thread count by construction, so trimming
/// workers is purely a performance guard. A floor of two is kept
/// whenever callers ask for parallelism at all, so the parallel code
/// path (and the determinism suite that exercises it) still runs on
/// single-CPU machines.
pub fn effective_threads(requested: usize) -> usize {
    if requested <= 1 {
        return requested.max(1);
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.min(hw.max(2))
}

/// Maps `f` over `items` on up to `threads` scoped workers, preserving
/// input order in the output. Falls back to a plain sequential map when
/// `threads <= 1` or there are fewer than two items. `f` runs exactly
/// once per item either way.
pub fn map_chunked<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(threads);
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    items
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(f)
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        let per_worker: Vec<Vec<U>> = handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect();
        // Inverse of the strided assignment: item i was the
        // (i / workers)-th job of worker (i % workers).
        let mut iters: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
        (0..items.len())
            .map(|i| iters[i % workers].next().expect("stride exhausted early"))
            .collect()
    })
}

/// Maps `f` over `items` on up to `threads` workers with cost-aware
/// work stealing, preserving input order in the output.
///
/// `cost(i)` estimates the work of item `i` (any non-negative scale;
/// only relative magnitudes matter). Items are sorted largest-first and
/// dealt round-robin into per-worker deques — the classic LPT seeding —
/// then idle workers steal from the back of the fullest other deque, so
/// one oversized item can no longer serialize the whole batch the way a
/// fixed stride can. Outputs are written to indexed slots during
/// assembly: **which** worker computes an item never affects **where**
/// its result lands, so results are bit-identical to the sequential map
/// for every thread count.
///
/// Falls back to a plain sequential map when `threads <= 1` or there
/// are fewer than two items. `f` runs exactly once per item either way.
pub fn map_stealing<T, U, F>(
    items: &[T],
    cost: impl Fn(usize) -> u64,
    threads: usize,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(threads);
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    // LPT seeding: largest items first, dealt round-robin. Ties keep
    // index order (stable sort) — not that order matters for output.
    let mut by_cost: Vec<usize> = (0..items.len()).collect();
    by_cost.sort_by_key(|&i| std::cmp::Reverse(cost(i)));
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (rank, &i) in by_cost.iter().enumerate() {
        deques[rank % workers]
            .lock()
            .expect("deque poisoned")
            .push_back(i);
    }
    let f = &f;
    let deques = &deques;
    let mut out: Vec<Option<U>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut done: Vec<(usize, U)> = Vec::new();
                    loop {
                        // Own work first (front = largest remaining seed).
                        let next = deques[w].lock().expect("deque poisoned").pop_front();
                        let i = match next {
                            Some(i) => i,
                            None => {
                                // Steal from the back of the fullest victim.
                                let victim = (0..workers).filter(|&v| v != w).max_by_key(|&v| {
                                    deques[v].lock().expect("deque poisoned").len()
                                });
                                match victim.and_then(|v| {
                                    deques[v].lock().expect("deque poisoned").pop_back()
                                }) {
                                    Some(i) => i,
                                    None => break,
                                }
                            }
                        };
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
        for h in handles {
            for (i, u) in h.join().expect("stealing worker panicked") {
                debug_assert!(slots[i].is_none(), "item {i} computed twice");
                slots[i] = Some(u);
            }
        }
        slots
    });
    out.iter_mut()
        .map(|slot| slot.take().expect("every item is computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(map_chunked(&items, threads, |&x| x * x), expect);
        }
    }

    #[test]
    fn effective_threads_keeps_sequential_and_parallel_distinct() {
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(1), 1);
        // Any request for parallelism yields at least two workers, so the
        // parallel code path is exercised even on single-CPU hosts…
        assert!(effective_threads(2) >= 2);
        assert!(effective_threads(1024) >= 2);
        // …but never more than asked for.
        assert!(effective_threads(2) <= 2);
        assert!(effective_threads(8) <= 8);
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunked(&empty, 8, |&x| x).is_empty());
        assert_eq!(map_chunked(&[7], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn stealing_preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..53).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            // Skewed costs: one huge item, the rest tiny — the shape
            // that defeats static striding.
            let got = map_stealing(
                &items,
                |i| if i == 7 { 1_000_000 } else { 1 },
                threads,
                |&x| x * 3 + 1,
            );
            assert_eq!(got, expect, "diverged at threads={threads}");
        }
    }

    #[test]
    fn stealing_runs_each_item_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counters: Vec<AtomicU32> = (0..40).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..40).collect();
        let out = map_stealing(
            &items,
            |i| (i as u64 % 5) + 1,
            8,
            |&i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out, items);
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stealing_handles_empty_single_and_zero_costs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_stealing(&empty, |_| 1, 8, |&x| x).is_empty());
        assert_eq!(map_stealing(&[9], |_| 0, 8, |&x| x - 1), vec![8]);
        let items = [5u8, 6, 7];
        assert_eq!(map_stealing(&items, |_| 0, 2, |&x| x), vec![5, 6, 7]);
    }
}
