//! The deterministic parallel scheduler.
//!
//! A batch of independent jobs is drained by `std::thread::scope` workers
//! claiming indices off a shared atomic counter; each result is recorded
//! under the index (the *key*) of the job that produced it, and the batch
//! returns results in job order. Because every job is deterministic in its
//! own inputs and keys restore submission order, the output of a batch is
//! bit-identical whether it ran on one worker or sixteen.
//!
//! Beyond results, the executor aggregates the simulator's own telemetry:
//! every freshly simulated job's [`ExecStats`] is folded — in job order, so
//! float sums are bit-identical across worker counts — into a campaign-wide
//! [`SimTotals`]. Everything the executor counts (batches, jobs, hits,
//! simulated jobs, job latencies, batch wall times) it counts once, into
//! `wmm-obs` metric handles; [`ParallelExecutor::telemetry`] is a read-out
//! of them. Per-batch/per-job wall timings can also be recorded in a
//! [`SpanLog`] for Chrome-trace export.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wmm_obs::{Class, Counter, Gauge, Histogram, MetricsRegistry, SpanLog};
use wmm_sim::stats::ExecStats;
use wmm_sim::MachineScratch;
use wmmbench::exec::{Executor, JobOutcome, SimJob};

use crate::artifact::{SimTotals, Telemetry, Timing};
use crate::cache::{job_key, CacheStats, SimCache};
use crate::trace::TraceEvent;

/// Resolve the worker-thread count: an explicit request wins, then the
/// `WMM_THREADS` environment variable (parsed by [`thread_count`], so a
/// mistyped value stops the program), then the machine's available
/// parallelism. A resolved count is always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    let n = requested
        .or_else(|| {
            std::env::var_os("WMM_THREADS")
                .map(|v| thread_count("WMM_THREADS", Some(&v.to_string_lossy())))
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    n.max(1)
}

/// The worker-thread count that `source` (`--threads` or `WMM_THREADS`)
/// gave as `value`. A missing or non-numeric value stops the program with
/// exit status 2 and a message naming it: a mistyped count must not
/// silently become every core. `0` parses (and resolves to 1).
pub fn thread_count(source: &str, value: Option<&str>) -> usize {
    parse_thread_count(source, value).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_thread_count(source: &str, value: Option<&str>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{source} needs a thread count"))?;
    value
        .parse()
        .map_err(|_| format!("{source}: `{value}` is not a thread count"))
}

/// Run `f` over every item, on up to `threads` scoped workers, and return
/// the results **in item order** — the keyed-queue primitive underneath
/// [`ParallelExecutor`].
///
/// Workers claim item indices from a shared counter and push `(index,
/// result)` pairs; the pairs are re-keyed into submission order before
/// returning, so the caller cannot observe scheduling.
pub fn run_keyed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_keyed_indexed(items, threads, |_, item| f(item))
}

/// [`run_keyed`], with the claiming worker's index (0-based) passed to `f`
/// alongside each item — used to attribute trace slices to worker tracks.
pub fn run_keyed_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(|item| f(0, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let keyed: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let (next, keyed, f) = (&next, &keyed, &f);
        for worker in 0..threads.min(n) {
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let result = f(worker, &items[idx]);
                keyed
                    .lock()
                    .expect("collector poisoned")
                    .push((idx, result));
            });
        }
    });
    let mut keyed = keyed.into_inner().expect("collector poisoned");
    keyed.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(keyed.len(), n);
    keyed.into_iter().map(|(_, r)| r).collect()
}

thread_local! {
    /// Per-worker-thread simulation scratch: every job a worker claims
    /// resets this arena in place instead of reallocating core/memory/heap
    /// state. Results are bit-identical to fresh-state runs (see
    /// `MachineScratch`), so reuse is invisible to the determinism contract.
    static SIM_SCRATCH: RefCell<MachineScratch> = RefCell::new(MachineScratch::new());
}

/// The executor's counter store: the only place it counts anything.
///
/// Structural metrics (batch/job/hit/simulated counts, queue depth) are
/// updated only on the calling thread from count-derived values, so their
/// values — and therefore the registry's structural snapshot — are
/// byte-identical across worker counts. Observational metrics carry
/// wall-clock readings: the job-latency histogram (whose sum is the
/// simulated time) and per-worker counters, updated from worker threads,
/// and the batch wall-time metrics behind [`Timing`].
struct ExecMetrics {
    batches: Arc<Counter>,
    jobs: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    job_latency_ns: Arc<Histogram>,
    worker_jobs: Vec<Arc<Counter>>,
    worker_busy_ns: Vec<Arc<Counter>>,
    wall_ns: Arc<Counter>,
    max_batch_ns: Arc<Gauge>,
    max_batch_jobs: Arc<Gauge>,
}

impl ExecMetrics {
    fn register(registry: &MetricsRegistry, threads: usize) -> Self {
        let worker = |w: usize, what: &str| {
            registry.counter(&format!("harness.worker.{w}.{what}"), Class::Observational)
        };
        ExecMetrics {
            batches: registry.counter("harness.exec.batches", Class::Structural),
            jobs: registry.counter("harness.exec.jobs", Class::Structural),
            cache_hits: registry.counter("harness.exec.cache_hits", Class::Structural),
            cache_misses: registry.counter("harness.exec.cache_misses", Class::Structural),
            queue_depth: registry.gauge("harness.exec.queue_depth", Class::Structural),
            job_latency_ns: registry.histogram(
                "harness.exec.job_latency_ns",
                Class::Observational,
                &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8],
            ),
            worker_jobs: (0..threads).map(|w| worker(w, "jobs")).collect(),
            worker_busy_ns: (0..threads).map(|w| worker(w, "busy_ns")).collect(),
            wall_ns: registry.counter("harness.exec.wall_ns", Class::Observational),
            max_batch_ns: registry.gauge("harness.exec.max_batch_ns", Class::Observational),
            max_batch_jobs: registry.gauge("harness.exec.max_batch_jobs", Class::Observational),
        }
    }
}

/// The parallel, caching [`Executor`].
///
/// Wraps the scheduler around an optional content-addressed [`SimCache`]:
/// each batch first resolves cache hits on the calling thread, fans the
/// misses out across workers, then stores the fresh results. Alongside the
/// results the executor aggregates campaign telemetry — batch/job counts,
/// wall and simulated time, and the [`SimTotals`] merged from every freshly
/// simulated job's [`ExecStats`] — for the run manifest's telemetry
/// section, and (when enabled) a Chrome-trace timeline of batches and jobs.
pub struct ParallelExecutor {
    threads: usize,
    cache: Option<SimCache>,
    progress: bool,
    trace: Option<SpanLog>,
    sim_totals: Mutex<SimTotals>,
    metrics: ExecMetrics,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (see [`resolve_threads`]) and no
    /// cache. Its metric handles are registered in a private registry;
    /// [`Self::with_metrics`] registers them in the caller's instead.
    pub fn new(threads: Option<usize>) -> Self {
        let threads = resolve_threads(threads);
        ParallelExecutor {
            threads,
            cache: None,
            progress: false,
            trace: None,
            sim_totals: Mutex::new(SimTotals::default()),
            metrics: ExecMetrics::register(&MetricsRegistry::new(), threads),
        }
    }

    /// Attach a result cache.
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enable progress/ETA lines on stderr for long batches.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Enable Chrome-trace event collection (see [`Self::write_trace`]).
    pub fn with_trace(mut self, tracing: bool) -> Self {
        self.trace = tracing.then(SpanLog::new);
        self
    }

    /// Count into `registry`: the executor registers its `harness.exec.*`
    /// and `harness.worker.*` metrics there, in place of its private
    /// registry, and indexes the attached cache's own counters as
    /// `harness.cache.sim.*`. Call it after [`Self::with_cache`] and
    /// before the first batch. Executors sharing a registry share these
    /// counters, so each one's [`Self::telemetry`] reports their sum.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = ExecMetrics::register(registry, self.threads);
        if let Some(cache) = &self.cache {
            cache.index_metrics(registry, "harness.cache.sim");
        }
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counter read-out of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SimCache::stats)
    }

    /// Telemetry for the campaign so far: a read-out of the executor's
    /// metric handles, plus the aggregated simulator totals.
    pub fn telemetry(&self) -> Telemetry {
        let m = &self.metrics;
        Telemetry {
            batches: m.batches.get(),
            jobs: m.jobs.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            sim: self.sim_totals.lock().expect("totals poisoned").clone(),
            sites: None,
            timing: Timing {
                threads: self.threads,
                sim_ms: m.job_latency_ns.sum() / 1e6,
                wall_ms: m.wall_ns.get() as f64 / 1e6,
                max_batch_ms: m.max_batch_ns.get() / 1e6,
                max_batch_jobs: m.max_batch_jobs.get() as u64,
            },
        }
    }

    /// Snapshot of the trace events collected so far (empty unless
    /// [`Self::with_trace`] enabled collection).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map(SpanLog::records)
            .unwrap_or_default()
    }

    /// Write the collected Chrome-trace timeline to `path`.
    pub fn write_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::trace::write_chrome_trace(path, &self.trace_events())
    }

    /// One-line campaign summary (jobs, hit rate, speed-up proxy).
    pub fn summary(&self) -> String {
        let t = self.telemetry();
        format!(
            "{} jobs in {} batches on {} threads: {:.0} ms wall, {:.0} ms simulated, {:.0}% cache hits",
            t.jobs,
            t.batches,
            t.timing.threads,
            t.timing.wall_ms,
            t.timing.sim_ms,
            100.0 * t.hit_rate()
        )
    }
}

impl Executor for ParallelExecutor {
    fn run_batch_stats(&self, jobs: Vec<SimJob<'_>>) -> Vec<JobOutcome> {
        let start = Instant::now();
        let m = &self.metrics;
        let batch_id = m.batches.get();
        let n = jobs.len();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();

        // Resolve cache hits up front; content keys hash entire programs,
        // so they are computed on the worker pool (in submission order) and
        // the hits then resolve on the calling thread.
        let mut misses: Vec<usize> = Vec::with_capacity(n);
        let keys: Option<Vec<u128>> = self.cache.as_ref().map(|cache| {
            let keys = run_keyed(&jobs, self.threads, job_key);
            for (i, (job, &key)) in jobs.iter().zip(&keys).enumerate() {
                // Sited jobs must surface their per-site stall map, which
                // the wall-time-only cache cannot answer — always simulate
                // them (their wall times are identical, so the result is
                // still stored for non-sited consumers).
                if job.sited {
                    misses.push(i);
                    continue;
                }
                match cache.get(key) {
                    Some(t) => outcomes[i] = Some(JobOutcome::cached(t)),
                    None => misses.push(i),
                }
            }
            keys
        });
        if keys.is_none() {
            misses = (0..n).collect();
        }

        // Fan the misses out across workers, observing progress and
        // (optionally) recording one trace slice per simulated job.
        let done = AtomicUsize::new(0);
        let total = misses.len();
        let stats: Vec<ExecStats> = run_keyed_indexed(&misses, self.threads, |worker, &slot| {
            let t0 = Instant::now();
            let stats = SIM_SCRATCH.with(|s| jobs[slot].run_stats_with(&mut s.borrow_mut()));
            let dur = t0.elapsed();
            // Observational side only: latency and worker attribution are
            // wall-clock facts, never part of the structural snapshot.
            let ns = dur.as_nanos() as u64;
            m.job_latency_ns.observe(ns as f64);
            m.worker_jobs[worker].inc();
            m.worker_busy_ns[worker].add(ns);
            if let Some(log) = &self.trace {
                log.record_interval(format!("job {slot}"), "job", worker as u64 + 1, t0, dur);
            }
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.progress && (d.is_multiple_of(16) || d == total) {
                let elapsed = start.elapsed().as_secs_f64();
                let eta = elapsed / d as f64 * (total - d) as f64;
                eprintln!(
                    "[wmm-harness] {d}/{total} jobs ({} queued), {elapsed:.1}s elapsed, ETA {eta:.1}s",
                    total - d
                );
            }
            stats
        });

        // Fold the fresh statistics into the campaign totals in job order
        // (run_keyed_indexed restored submission order), so the aggregated
        // float sums are bit-identical across worker counts.
        {
            let mut totals = self.sim_totals.lock().expect("totals poisoned");
            for s in &stats {
                totals.merge_stats(s);
            }
        }
        for (&slot, s) in misses.iter().zip(stats) {
            if let (Some(cache), Some(keys)) = (&self.cache, &keys) {
                cache.put(keys[slot], &s.wall_ns);
            }
            outcomes[slot] = Some(JobOutcome::observed(s));
        }

        // Structural side, on the calling thread with count-derived
        // values: identical whatever the worker count. Every simulated
        // job, sited ones included, is a cache miss.
        m.batches.inc();
        m.jobs.add(n as u64);
        m.cache_hits.add((n - total) as u64);
        m.cache_misses.add(total as u64);
        m.queue_depth.set(n as f64);

        let batch = start.elapsed();
        m.wall_ns.add(batch.as_nanos() as u64);
        m.max_batch_ns.max(batch.as_nanos() as f64);
        m.max_batch_jobs.max(n as f64);
        if let Some(log) = &self.trace {
            let name = format!("batch {batch_id} ({total}/{n} simulated)");
            log.record_interval(name, "batch", 0, start, batch);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every job slot resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::{Program, WorkloadCtx};
    use wmm_sim::Machine;
    use wmmbench::exec::SerialExecutor;

    fn jobs(machine: &Machine, n: usize) -> Vec<SimJob<'_>> {
        (0..n)
            .map(|i| SimJob {
                machine,
                program: Program::new(vec![vec![
                    Instr::Compute {
                        cycles: 100 + (i as u32 % 7) * 900,
                    },
                    Instr::Fence(FenceKind::DmbIsh),
                ]]),
                ctx: WorkloadCtx::default(),
                seed: i as u64,
                sited: false,
            })
            .collect()
    }

    #[test]
    fn run_keyed_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(run_keyed(&items, threads, |x| x * x), serial);
        }
    }

    #[test]
    fn run_keyed_indexed_reports_valid_workers() {
        let items: Vec<u64> = (0..64).collect();
        let workers = run_keyed_indexed(&items, 4, |worker, _| worker);
        assert!(workers.iter().all(|&w| w < 4));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let machine = Machine::new(armv8_xgene1());
        let serial = SerialExecutor.run_batch(jobs(&machine, 37));
        for threads in [1, 3, 8] {
            let par = ParallelExecutor::new(Some(threads)).run_batch(jobs(&machine, 37));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn sim_totals_identical_across_worker_counts() {
        let machine = Machine::new(armv8_xgene1());
        let base = ParallelExecutor::new(Some(1));
        base.run_batch(jobs(&machine, 37));
        let base_t = base.telemetry();
        assert_eq!(base_t.sim.jobs_observed, 37);
        assert!(base_t.sim.counters.fence_counts[&FenceKind::DmbIsh] >= 37);
        for threads in [2, 8] {
            let exec = ParallelExecutor::new(Some(threads));
            exec.run_batch(jobs(&machine, 37));
            let t = exec.telemetry();
            // Bit-identical, including the f64 stall-cycle sums.
            assert_eq!(t.sim, base_t.sim, "threads = {threads}");
            assert_eq!(
                t.deterministic_json().to_string(),
                base_t.deterministic_json().to_string()
            );
        }
    }

    #[test]
    fn cached_executor_matches_and_hits() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(4)).with_cache(SimCache::in_memory());
        let first = exec.run_batch(jobs(&machine, 20));
        let second = exec.run_batch(jobs(&machine, 20));
        assert_eq!(first, second);
        let t = exec.telemetry();
        assert_eq!(t.cache_hits, 20);
        assert_eq!(t.cache_misses, 20);
        assert_eq!(t.jobs, 40);
        assert_eq!(t.batches, 2);
        // Only the simulated jobs contribute to the totals.
        assert_eq!(t.sim.jobs_observed, 20);
        assert_eq!(t.timing.max_batch_jobs, 20);
    }

    fn sited_jobs(machine: &Machine, n: usize) -> Vec<SimJob<'_>> {
        jobs(machine, n)
            .into_iter()
            .map(|mut j| {
                j.sited = true;
                j
            })
            .collect()
    }

    #[test]
    fn sited_jobs_simulate_even_on_warm_cache() {
        // Regression: the cache stores wall times only, so a cache hit
        // cannot answer a sited job's per-site stall query. Sited jobs must
        // bypass the hit path and carry full stats even when an identical
        // program's result is already cached.
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let cold = exec.run_batch_stats(jobs(&machine, 6));
        let warm_sited = exec.run_batch_stats(sited_jobs(&machine, 6));
        for (c, s) in cold.iter().zip(&warm_sited) {
            let stats = s.stats.as_ref().expect("sited job simulated, not cached");
            assert!(stats.per_site.is_some(), "sited stats carry the site map");
            // Sited and unsited runs of the same program agree on time.
            assert_eq!(c.wall_ns, s.wall_ns);
        }
        // The unsited batch populated the cache; the sited batch neither
        // hit it nor corrupted it.
        assert_eq!(exec.telemetry().cache_hits, 0);
    }

    #[test]
    fn sited_jobs_count_as_simulated_in_telemetry() {
        // Regression: sited jobs simulate without a cache lookup, and
        // telemetry once read its simulated-job count off the cache's
        // lookup misses, so a sited batch reported 0 simulated jobs.
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        exec.run_batch_stats(jobs(&machine, 4));
        exec.run_batch_stats(jobs(&machine, 4));
        let before = exec.telemetry();
        exec.run_batch_stats(sited_jobs(&machine, 6));
        let t = exec.telemetry();
        assert_eq!(
            t.cache_misses - before.cache_misses,
            6,
            "sited jobs simulated"
        );
        assert_eq!(t.sim.jobs_observed - before.sim.jobs_observed, 6);
        assert_eq!(t.cache_misses, t.sim.jobs_observed);
        assert_eq!(t.jobs, t.cache_hits + t.cache_misses);
        // The cache counts lookups only: the unsited batches' eight.
        let c = exec.cache_stats().expect("cache attached");
        assert_eq!((c.hits, c.misses), (4, 4));
    }

    #[test]
    fn warm_cache_sited_profile_matches_cold_run() {
        let machine = Machine::new(armv8_xgene1());
        // Cold: sited campaign on a fresh executor.
        let cold_exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let cold = cold_exec.run_batch_stats(sited_jobs(&machine, 5));
        // Warm: same sited campaign after the cache saw the same programs.
        let warm_exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        warm_exec.run_batch_stats(jobs(&machine, 5));
        let warm = warm_exec.run_batch_stats(sited_jobs(&machine, 5));
        for (c, w) in cold.iter().zip(&warm) {
            let (cs, ws) = (c.stats.as_ref().unwrap(), w.stats.as_ref().unwrap());
            // Bit-identical per-site profiles: cache warmth is invisible.
            assert_eq!(cs.per_site, ws.per_site);
            assert_eq!(c.wall_ns, w.wall_ns);
        }
    }

    #[test]
    fn cache_hits_carry_no_stats() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let first = exec.run_batch_stats(jobs(&machine, 5));
        assert!(first.iter().all(|o| o.stats.is_some()));
        let second = exec.run_batch_stats(jobs(&machine, 5));
        assert!(second.iter().all(|o| o.stats.is_none()));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.wall_ns, b.wall_ns);
        }
    }

    #[test]
    fn trace_collects_batch_and_job_slices() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_trace(true);
        exec.run_batch(jobs(&machine, 6));
        let events = exec.trace_events();
        assert_eq!(events.iter().filter(|e| e.cat == "batch").count(), 1);
        assert_eq!(events.iter().filter(|e| e.cat == "job").count(), 6);
        assert!(events.iter().all(|e| e.dur_us >= 0.0));
        // Tracing off by default: no events collected.
        let silent = ParallelExecutor::new(Some(2));
        silent.run_batch(jobs(&machine, 3));
        assert!(silent.trace_events().is_empty());
    }

    #[test]
    fn exec_metrics_count_batches_jobs_and_cache_traffic() {
        let machine = Machine::new(armv8_xgene1());
        let reg = MetricsRegistry::new();
        let exec = ParallelExecutor::new(Some(2))
            .with_cache(SimCache::in_memory())
            .with_metrics(&reg);
        exec.run_batch(jobs(&machine, 20));
        exec.run_batch(jobs(&machine, 20));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("harness.exec.batches"), Some(2));
        assert_eq!(snap.counter("harness.exec.jobs"), Some(40));
        assert_eq!(snap.counter("harness.exec.cache_hits"), Some(20));
        assert_eq!(snap.counter("harness.exec.cache_misses"), Some(20));
        assert_eq!(snap.gauge("harness.exec.queue_depth"), Some(20.0));
        // The registry indexes the cache's own counters: one count, read
        // the same through the snapshot and through `cache_stats`.
        assert_eq!(snap.counter("harness.cache.sim.entries"), Some(20));
        assert_eq!(snap.counter("harness.cache.sim.puts"), Some(20));
        assert_eq!(snap.counter("harness.cache.sim.hits"), Some(20));
        assert_eq!(snap.counter("harness.cache.sim.misses"), Some(20));
        // Every simulated job landed in the latency histogram and on some
        // worker track.
        let lat = snap.get("harness.exec.job_latency_ns").expect("registered");
        match &lat.value {
            wmm_obs::MetricValue::Histogram { count, .. } => assert_eq!(*count, 20),
            other => panic!("latency should be a histogram, got {other:?}"),
        }
        let worker_jobs: u64 = (0..2)
            .map(|w| {
                snap.counter(&format!("harness.worker.{w}.jobs"))
                    .expect("worker track registered")
            })
            .sum();
        assert_eq!(worker_jobs, 20);
        assert_eq!(exec.cache_stats().expect("cache attached").puts, 20);
    }

    #[test]
    fn metrics_structural_snapshot_is_identical_across_worker_counts() {
        let machine = Machine::new(armv8_xgene1());
        let structural_json = |threads: usize| {
            let reg = MetricsRegistry::new();
            let exec = ParallelExecutor::new(Some(threads))
                .with_cache(SimCache::in_memory())
                .with_metrics(&reg);
            exec.run_batch(jobs(&machine, 24));
            exec.run_batch(jobs(&machine, 24));
            use wmmbench::json::ToJson as _;
            reg.snapshot().structural().to_json().to_string_pretty()
        };
        let base = structural_json(1);
        for threads in [2, 4] {
            assert_eq!(structural_json(threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn thread_counts_parse_or_name_the_bad_value() {
        assert_eq!(parse_thread_count("--threads", Some("4")), Ok(4));
        assert_eq!(parse_thread_count("WMM_THREADS", Some("0")), Ok(0));
        let bad = parse_thread_count("WMM_THREADS", Some("two")).unwrap_err();
        assert!(
            bad.contains("WMM_THREADS") && bad.contains("`two`"),
            "{bad}"
        );
        let missing = parse_thread_count("--threads", None).unwrap_err();
        assert!(missing.contains("--threads"), "{missing}");
        for junk in ["", "-1", "2.5", " 2"] {
            assert!(
                parse_thread_count("--threads", Some(junk)).is_err(),
                "{junk:?}"
            );
        }
    }

    #[test]
    fn thread_resolution_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
