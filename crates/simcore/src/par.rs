//! Order-preserving parallel maps on scoped threads.
//!
//! The experiment sweeps and forest training are embarrassingly
//! parallel: independent jobs, each seeded
//! through [`crate::seed_stream`], whose results are collected in input
//! order. [`par_map`] covers that shape with `std::thread::scope` — no work
//! stealing, no external dependency — using *chunked self-scheduling*:
//! workers repeatedly pull small batches of jobs off a shared queue, so
//! skewed per-item costs (trees of different depth, scenarios of different
//! size) do not serialise the whole map on whichever contiguous chunk
//! happened to be slowest. Determinism is unaffected: job `i` computes the
//! same value regardless of which thread runs it, and outputs are
//! reassembled in input order.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

/// Cached worker parallelism: the `GSIGHT_WORKERS` environment override
/// when set to a positive integer, the hardware parallelism otherwise.
///
/// `std::thread::available_parallelism()` is a syscall (it reads cgroup
/// quotas on Linux); per-batch callers on the prediction and training hot
/// paths were paying it once per call. The value cannot change for the
/// lifetime of the process in any environment we run in, so it is resolved
/// once and memoised — which also means `GSIGHT_WORKERS` is read exactly
/// once, at the first call: CI and benchmarks set it before launch to pin
/// thread counts reproducibly (see README "Determinism").
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        workers_from(std::env::var("GSIGHT_WORKERS").ok().as_deref(), hw)
    })
}

/// Resolve the worker count from the `GSIGHT_WORKERS` override and the
/// hardware parallelism. A positive integer wins — even above the core
/// count, so oversubscription is testable — anything absent, empty,
/// malformed, or zero falls back to the hardware value. Pure so the
/// resolution rules stay regression-testable despite the memoised,
/// process-global reader above.
fn workers_from(env_override: Option<&str>, hw: usize) -> usize {
    match env_override
        .map(str::trim)
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => hw.max(1),
    }
}

/// Number of worker threads to use for `n` jobs.
fn threads_for(n: usize) -> usize {
    available_workers().min(n).max(1)
}

/// Map `f` over `items` in parallel, preserving input order.
///
/// `f` must be `Sync` (it is shared by reference across workers) and is
/// called exactly once per item. Panics in `f` propagate to the caller with
/// the worker's original panic payload.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = threads_for(items.len());
    par_map_workers(items, workers, f)
}

/// [`par_map`] with an explicit worker count (capped at the item count);
/// `workers == 1` runs inline without spawning. Separate from `par_map`
/// only so the unit tests below can pin the thread count.
fn par_map_workers<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // Chunked self-scheduling: small batches amortise the queue lock while
    // keeping enough grains in flight that a few expensive items cannot
    // leave the other workers idle (the failure mode of the previous
    // one-contiguous-chunk-per-core split).
    let chunk = (n / (workers * 8)).max(1);
    let f = &f;
    let queue = Mutex::new(items.into_iter().enumerate());
    let queue = &queue;
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        // A panicking worker poisons the lock mid-drain; the
                        // survivors keep draining and the payload is
                        // re-thrown at join time.
                        let batch: Vec<(usize, T)> = {
                            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                            q.by_ref().take(chunk).collect()
                        };
                        if batch.is_empty() {
                            break;
                        }
                        for (i, item) in batch {
                            local.push((i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        let mut acc: Vec<(usize, U)> = Vec::with_capacity(n);
        let mut panic_payload = None;
        for h in handles {
            match h.join() {
                Ok(part) => acc.extend(part),
                Err(payload) => panic_payload = Some(payload),
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        acc
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

/// Map `f` over `0..n` in parallel, preserving index order — the common
/// "generate the i-th sample" shape of the corpus sweeps.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_workers_cached_and_positive() {
        let w = available_workers();
        assert!(w >= 1);
        // Memoised: repeated calls agree (and cost no further syscalls).
        assert_eq!(available_workers(), w);
    }

    #[test]
    fn gsight_workers_override_rules() {
        // The memoised reader resolves through this pure function, so the
        // override contract is pinned here without racing other tests on
        // process-global environment state.
        assert_eq!(workers_from(Some("3"), 8), 3);
        assert_eq!(workers_from(Some(" 2 "), 8), 2, "whitespace is trimmed");
        assert_eq!(workers_from(Some("16"), 2), 16, "override may exceed hw");
        assert_eq!(workers_from(Some("0"), 8), 8, "zero is rejected");
        assert_eq!(workers_from(Some(""), 8), 8, "empty is rejected");
        assert_eq!(workers_from(Some("four"), 8), 8, "garbage is rejected");
        assert_eq!(workers_from(Some("-1"), 8), 8, "negatives are rejected");
        assert_eq!(workers_from(None, 8), 8, "absent falls back to hw");
        assert_eq!(workers_from(None, 0), 1, "hw floor is 1");
    }

    #[test]
    fn preserves_order() {
        let out = par_map((0..1000).collect::<Vec<i64>>(), |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn range_variant() {
        assert_eq!(par_map_range(5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn non_copy_items_moved_once() {
        let items: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
        let out = par_map(items, |s| s.len());
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], 2);
        assert_eq!(out[10], 3);
    }

    #[test]
    fn matches_sequential_for_seeded_work() {
        let seq: Vec<u64> = (0..100u64).map(|i| crate::seed_stream(42, i)).collect();
        let par = par_map_range(100, |i| crate::seed_stream(42, i as u64));
        assert_eq!(seq, par);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<i64> = (0..257).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * x - 3).collect();
        for workers in [1, 2, 3, 5, 8, 64, 1000] {
            let got = par_map_workers(items.clone(), workers, |x| x * x - 3);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn skewed_item_costs_complete() {
        // A few items are far more expensive than the rest; the chunked
        // queue must still return every result in order.
        let out = par_map_workers((0..64u64).collect::<Vec<u64>>(), 4, |i| {
            let spins = if i % 16 == 0 { 200_000 } else { 10 };
            let mut acc = i;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 64);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, idx as u64);
        }
    }

    #[test]
    #[should_panic(expected = "boom at 7")]
    fn worker_panic_payload_propagates() {
        // The caller must see the worker's own message, not a generic
        // "worker panicked" wrapper.
        par_map_workers((0..64).collect::<Vec<i32>>(), 4, |x| {
            if x == 7 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "boom inline")]
    fn inline_panic_propagates_too() {
        par_map_workers(vec![1], 1, |_| -> i32 { panic!("boom inline") });
    }
}
