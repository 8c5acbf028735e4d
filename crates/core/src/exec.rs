//! The execution seam: how batches of independent simulations are run.
//!
//! Every experiment in the methodology — a [`crate::runner::measure`] call,
//! a [`crate::sensitivity::sweep`], a ranking matrix, a turnkey evaluation —
//! bottoms out in a set of *independent, deterministic* simulations: each is
//! one `(machine, program, ctx, seed)` cell, and cells never depend on each
//! other's results. [`Executor`] abstracts over how such a batch is driven:
//! the in-crate [`SerialExecutor`] runs cells in order on the calling
//! thread; the `wmm-harness` crate provides a parallel, caching executor
//! that fans cells out across worker threads and skips already-simulated
//! cells via a content-addressed result cache.
//!
//! The contract that makes this safe to parallelise: `run_batch` must return
//! wall-times **in job order**, and each job's result must depend only on
//! that job's inputs. The simulator guarantees the latter (`Machine::run` is
//! deterministic in `(program, ctx, seed)`), so any executor that preserves
//! order produces bit-identical experiment output regardless of worker
//! count.
//!
//! # Telemetry through the seam
//!
//! The simulator counts every fence execution and stall cycle
//! ([`ExecStats`]), and discarding that ground truth at the seam would make
//! the methodology's Eq. 2 cost estimates impossible to audit. So the
//! primitive batch operation is [`Executor::run_batch_stats`], which returns
//! one [`JobOutcome`] per job: always the wall time, plus the full
//! [`ExecStats`] whenever the job was actually simulated. A caching executor
//! answers repeat jobs from a wall-time-only store, so a cache hit carries
//! `stats: None` — callers that aggregate telemetry count only the observed
//! (freshly simulated) jobs. [`Executor::run_batch`] is the scalar
//! projection every measurement path uses.

use wmm_sim::machine::{MachineScratch, Program, WorkloadCtx};
use wmm_sim::stats::ExecStats;
use wmm_sim::{Machine, NullProbe, SiteStallProbe};

/// One independent simulation cell: everything `Machine::run` needs.
///
/// Jobs own their program and context so a batch can outlive the image it
/// was linked from and cross thread boundaries freely.
pub struct SimJob<'a> {
    /// The machine to simulate on.
    pub machine: &'a Machine,
    /// The linked program.
    pub program: Program,
    /// Workload execution context.
    pub ctx: WorkloadCtx,
    /// Sample seed.
    pub seed: u64,
    /// Collect per-site stall attribution ([`SimJob::run_stats_with`]). Sited
    /// runs produce identical wall times and counters to unsited ones, but
    /// their [`ExecStats`] additionally carries the per-site stall map —
    /// caching executors must treat them as always-miss so the stats are
    /// guaranteed present.
    pub sited: bool,
}

impl SimJob<'_> {
    /// Run this job to completion, returning the simulated wall time (ns).
    pub fn run(&self) -> f64 {
        self.run_stats().wall_ns
    }

    /// Run this job to completion, returning the full execution statistics
    /// (wall time, per-core cycles, event counters, fence stall cycles).
    pub fn run_stats(&self) -> ExecStats {
        self.run_stats_with(&mut MachineScratch::new())
    }

    /// [`SimJob::run_stats`] reusing a [`MachineScratch`] arena across jobs
    /// — the executor hot path. Results are bit-identical to
    /// [`SimJob::run_stats`]; only the per-run allocations disappear.
    ///
    /// A sited job runs through a [`SiteStallProbe`] and its statistics
    /// carry `per_site: Some(..)`; every other field is bit-identical to
    /// the unsited run, which stays monomorphized over [`NullProbe`].
    pub fn run_stats_with(&self, scratch: &mut MachineScratch) -> ExecStats {
        let (program, ctx, seed) = (&self.program, &self.ctx, self.seed);
        if self.sited {
            let mut probe = SiteStallProbe::new();
            let mut stats = self.machine.run_in(program, ctx, seed, &mut probe, scratch);
            stats.per_site = Some(probe.finish());
            stats
        } else {
            self.machine
                .run_in(program, ctx, seed, &mut NullProbe, scratch)
        }
    }
}

/// The result of one job through the seam: the wall time that defines the
/// experiment's output, plus the simulator's full statistics when the job
/// was freshly simulated (`None` means the wall time came from a result
/// cache, which stores only the scalar).
pub struct JobOutcome {
    /// Simulated wall-clock time, ns — identical to what `run_batch`
    /// returns for this job.
    pub wall_ns: f64,
    /// Full execution statistics, when observed.
    pub stats: Option<ExecStats>,
}

impl JobOutcome {
    /// An outcome observed by actually running the simulation.
    pub fn observed(stats: ExecStats) -> Self {
        JobOutcome {
            wall_ns: stats.wall_ns,
            stats: Some(stats),
        }
    }

    /// An outcome answered from a wall-time-only cache.
    pub fn cached(wall_ns: f64) -> Self {
        JobOutcome {
            wall_ns,
            stats: None,
        }
    }
}

/// Strategy for draining a batch of independent simulation jobs.
pub trait Executor: Sync {
    /// Run every job and return one [`JobOutcome`] per job **in job
    /// order**. Wall times must be bit-identical to what direct
    /// `SimJob::run` calls would produce.
    fn run_batch_stats(&self, jobs: Vec<SimJob<'_>>) -> Vec<JobOutcome>;

    /// Run every job and return the wall times (ns) **in job order** — the
    /// scalar projection of [`Executor::run_batch_stats`].
    fn run_batch(&self, jobs: Vec<SimJob<'_>>) -> Vec<f64> {
        self.run_batch_stats(jobs)
            .into_iter()
            .map(|o| o.wall_ns)
            .collect()
    }
}

/// The default executor: runs jobs sequentially on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_batch_stats(&self, jobs: Vec<SimJob<'_>>) -> Vec<JobOutcome> {
        // One scratch arena serves the whole batch: per-run state is reset
        // in place instead of reallocated per job.
        let mut scratch = MachineScratch::new();
        jobs.iter()
            .map(|j| JobOutcome::observed(j.run_stats_with(&mut scratch)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};

    #[test]
    fn serial_executor_matches_direct_runs() {
        let machine = Machine::new(armv8_xgene1());
        let ctx = WorkloadCtx::default();
        let mk = |cycles: u32, seed: u64| SimJob {
            machine: &machine,
            program: Program::new(vec![vec![Instr::Compute { cycles }]]),
            ctx: ctx.clone(),
            seed,
            sited: false,
        };
        let jobs = vec![mk(100, 1), mk(5_000, 2), mk(700, 3)];
        let direct: Vec<f64> = jobs.iter().map(SimJob::run).collect();
        let batched = SerialExecutor.run_batch(jobs);
        assert_eq!(batched, direct);
        assert!(batched[1] > batched[0]);
    }

    #[test]
    fn stats_batch_carries_full_exec_stats() {
        let machine = Machine::new(armv8_xgene1());
        let job = SimJob {
            machine: &machine,
            program: Program::new(vec![vec![
                Instr::Compute { cycles: 100 },
                Instr::Fence(FenceKind::DmbIsh),
                Instr::Fence(FenceKind::DmbIsh),
            ]]),
            ctx: WorkloadCtx::default(),
            seed: 9,
            sited: false,
        };
        let outcomes = SerialExecutor.run_batch_stats(vec![job]);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        let stats = o.stats.as_ref().expect("serial runs always observe");
        assert_eq!(o.wall_ns, stats.wall_ns);
        assert_eq!(stats.fences(FenceKind::DmbIsh), 2);
        assert!(stats.fence_stall_cycles(FenceKind::DmbIsh) > 0.0);
    }

    #[test]
    fn cached_outcome_has_no_stats() {
        let o = JobOutcome::cached(12.5);
        assert_eq!(o.wall_ns, 12.5);
        assert!(o.stats.is_none());
    }
}
