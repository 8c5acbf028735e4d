//! Generic content-addressed task execution for analysis workloads.
//!
//! The simulation path pairs [`crate::ParallelExecutor`] with a
//! [`crate::SimCache`], both specialised to `SimJob -> f64`. Static
//! analysis wants the same discipline — deterministic keyed fan-out plus
//! content-addressed reuse — for arbitrary task and result types (e.g.
//! per-component critical-cycle enumeration, whose results are cycle
//! *sets*, not scalars). [`run_cached_tasks`] provides that seam over the
//! same [`TaskCache<V>`] store the simulation cache is an instance of:
//! batch execution through the same scoped-thread scheduler as simulation
//! jobs. Keys are computed on the pool, cache hits resolve up front,
//! misses fan out via [`crate::run_keyed`], and results return **in
//! submission order** — output is bit-identical at any worker count.

use crate::cache::TaskCache;
use crate::scheduler::run_keyed;

/// Run `tasks` through the scoped-thread scheduler with content-addressed
/// reuse, returning results **in submission order** (bit-identical at any
/// worker count).
///
/// Keys are computed on the pool first (they can themselves be nontrivial
/// hashes of large inputs); hits resolve from `cache` without executing;
/// misses fan out together and are stored back. Without a cache every
/// task simply runs.
pub fn run_cached_tasks<T, V, K, F>(
    tasks: &[T],
    threads: usize,
    cache: Option<&TaskCache<V>>,
    key_of: K,
    run: F,
) -> Vec<V>
where
    T: Sync,
    V: Clone + Send,
    K: Fn(&T) -> u128 + Sync,
    F: Fn(&T) -> V + Sync,
{
    let Some(cache) = cache else {
        return run_keyed(tasks, threads, run);
    };
    let keys = run_keyed(tasks, threads, key_of);
    let mut slots: Vec<Option<V>> = keys.iter().map(|&k| cache.get(k)).collect();
    // One representative per distinct missing key: duplicates inside a
    // batch (repeated program shapes) compute once and fan out.
    let mut rep_idx: Vec<usize> = vec![];
    for i in (0..tasks.len()).filter(|&i| slots[i].is_none()) {
        if !rep_idx.iter().any(|&r| keys[r] == keys[i]) {
            rep_idx.push(i);
        }
    }
    let fresh = run_keyed(&rep_idx, threads, |&i| run(&tasks[i]));
    for (&r, value) in rep_idx.iter().zip(fresh) {
        cache.put(keys[r], &value);
        for i in 0..tasks.len() {
            if slots[i].is_none() && keys[i] == keys[r] {
                slots[i] = Some(value.clone());
            }
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every task resolved or computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_submission_order_at_any_worker_count() {
        let tasks: Vec<u64> = (0..97).collect();
        let serial = run_cached_tasks(&tasks, 1, None, |&t| u128::from(t), |&t| t * 3);
        for threads in [2, 4, 7] {
            let parallel = run_cached_tasks(&tasks, threads, None, |&t| u128::from(t), |&t| t * 3);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn cache_resolves_repeats_without_recomputing() {
        let cache = TaskCache::in_memory();
        let executed = AtomicUsize::new(0);
        let tasks: Vec<u64> = vec![1, 2, 1, 3, 2, 1];
        let run = |&t: &u64| {
            executed.fetch_add(1, Ordering::Relaxed);
            t + 100
        };
        // Duplicate keys within one batch compute once and fan out; across
        // batches every repeat is a hit.
        let first = run_cached_tasks(&tasks, 2, Some(&cache), |&t| u128::from(t), run);
        assert_eq!(first, vec![101, 102, 101, 103, 102, 101]);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        let second = run_cached_tasks(&tasks, 2, Some(&cache), |&t| u128::from(t), run);
        assert_eq!(second, first);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.puts), (3, 3));
        assert_eq!((stats.hits, stats.misses), (6, 6));
        assert_eq!(stats.disk_appends, 0, "in-memory cache never appends");
    }
}
