//! The multicore machine: interleaves per-core execution in global time
//! order through the shared memory system.

use crate::arch::ArchSpec;
use crate::exec::CoreState;
use crate::isa::Instr;
use crate::mem::MemSys;
use crate::probe::{NullProbe, Probe};
use crate::rng::SplitMix64;
use crate::sched::CoreHeap;
use crate::stats::{Counters, ExecStats};

/// A multithreaded program: one instruction stream per simulated thread.
/// Threads beyond the machine's core count are rejected — the platforms and
/// workload generators handle scheduling decisions above this layer.
///
/// Instruction streams are fixed at construction ([`Program::new`] is the
/// only way to build one), which is what lets the total length be cached
/// instead of recomputed by hot-loop callers.
#[derive(Debug, Clone)]
pub struct Program {
    /// One instruction stream per thread.
    pub threads: Vec<Vec<Instr>>,
    /// Cached total instruction count (the streams are immutable).
    len: usize,
}

impl Program {
    /// Build a program from per-thread instruction streams.
    pub fn new(threads: Vec<Vec<Instr>>) -> Self {
        assert!(!threads.is_empty(), "program needs at least one thread");
        let len = threads.iter().map(Vec::len).sum();
        Program { threads, len }
    }

    /// Total instruction count across threads (cached at construction).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Workload-level execution context: locality and pipeline-pressure
/// characteristics that belong to the *application*, not the machine.
///
/// These are the knobs through which the synthetic workloads reproduce the
/// paper's observed micro/macro divergences (see `wmm-workloads`).
#[derive(Debug, Clone)]
pub struct WorkloadCtx {
    /// Descriptive name (propagated into reports).
    pub name: String,
    /// Mispredict probability of `Mispredict::Workload` branches — the
    /// branch-predictor pressure of the surrounding application. The paper
    /// speculates exactly this effect for the kernel `ctrl` strategy (§4.3.1).
    pub bp_pressure: f64,
    /// Load-queue pressure observed by `dmb ishld` at fence sites (0..1):
    /// lmbench-style syscall-dense code keeps the load queue hot; most
    /// macrobenchmarks do not.
    pub load_pressure: f64,
    /// L1 miss rate of private/read-only data.
    pub l1_miss_rate: f64,
    /// Fraction of those misses that go all the way to DRAM.
    pub dram_frac: f64,
    /// Per-run multiplicative noise amplitude (scheduling, SMT, frequency):
    /// the workload "stability" of the paper. Applied once per run.
    pub noise_amp: f64,
}

impl Default for WorkloadCtx {
    fn default() -> Self {
        WorkloadCtx {
            name: "default".to_string(),
            bp_pressure: 0.05,
            load_pressure: 0.15,
            l1_miss_rate: 0.02,
            dram_frac: 0.1,
            noise_amp: 0.0,
        }
    }
}

impl WorkloadCtx {
    /// Check that every numeric field is finite and non-negative.
    ///
    /// A NaN or negative pressure/rate would poison core clocks mid-run and
    /// detonate deep inside a batch; [`Machine::run_in`] rejects
    /// such contexts up front with the offending field named instead.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("bp_pressure", self.bp_pressure),
            ("load_pressure", self.load_pressure),
            ("l1_miss_rate", self.l1_miss_rate),
            ("dram_frac", self.dram_frac),
            ("noise_amp", self.noise_amp),
        ];
        for (field, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "workload ctx `{}`: {field} must be finite and non-negative, got {value}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Reusable per-run simulation state: core states (including their
/// store-buffer queues), per-core RNG streams, the memory system's line
/// maps, and the scheduler heap.
///
/// `Machine::run` rebuilds all of this per run; executors that drain
/// thousands of jobs instead keep one scratch per worker thread and call
/// [`Machine::run_in`], which resets the state in place and reuses every
/// allocation. A scratch is freely reusable across machines and
/// architectures — each run fully re-initialises the spec-dependent
/// fields — and results are bit-identical to the allocate-fresh path.
#[derive(Debug, Default)]
pub struct MachineScratch {
    cores: Vec<CoreState>,
    rngs: Vec<SplitMix64>,
    mem: MemSys,
    heap: CoreHeap,
}

impl MachineScratch {
    /// An empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A simulated multicore machine.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: ArchSpec,
}

impl Machine {
    /// Build a machine from an architecture spec.
    pub fn new(spec: ArchSpec) -> Self {
        Machine { spec }
    }

    /// The architecture spec this machine models.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Execute `program` to completion and return timing statistics.
    ///
    /// Deterministic: the same `(program, ctx, seed)` triple always produces
    /// identical results. Different seeds vary the stochastic components
    /// (cache misses on private data, branch mispredicts, run-level noise) —
    /// one seed corresponds to one of the paper's benchmark samples.
    pub fn run(&self, program: &Program, ctx: &WorkloadCtx, seed: u64) -> ExecStats {
        self.run_in(
            program,
            ctx,
            seed,
            &mut NullProbe,
            &mut MachineScratch::new(),
        )
    }

    /// The run loop: [`Machine::run`] driving execution events through
    /// `probe` (the observability seam; see [`crate::probe`]) with every
    /// per-run allocation drawn from (and returned to) `scratch`. Results
    /// are bit-identical regardless of the probe or scratch supplied.
    ///
    /// Generic over the probe so statically-known probes monomorphize: a
    /// [`NullProbe`] run — the executor hot path — carries zero
    /// observation overhead, no virtual dispatch per instruction. Being
    /// generic, the loop is compiled in the calling crate, which is why
    /// the per-instruction helpers it reaches in this crate (store buffer,
    /// memory system, scheduler heap, RNG, counters) are `#[inline]`:
    /// without that they stay out-of-line calls across the crate boundary.
    ///
    /// Scheduling is discrete-event: a `CoreHeap` keyed on `(clock, core)`
    /// always surfaces the core with the smallest local clock, so cross-core
    /// coherence interactions happen in global time order, and a stepped
    /// core whose clock is still minimal keeps running without touching the
    /// other cores at all.
    pub fn run_in<P: Probe + ?Sized>(
        &self,
        program: &Program,
        ctx: &WorkloadCtx,
        seed: u64,
        probe: &mut P,
        scratch: &mut MachineScratch,
    ) -> ExecStats {
        assert!(
            program.threads.len() <= self.spec.cores * self.spec.smt as usize,
            "program has {} threads but machine exposes {} hardware contexts",
            program.threads.len(),
            self.spec.cores * self.spec.smt as usize
        );
        // Reject hostile contexts before any simulation: a NaN or negative
        // rate would otherwise poison clocks mid-run, failing an entire
        // campaign batch from deep inside the hot loop.
        if let Err(why) = ctx.validate() {
            panic!("rejected before simulation: {why}");
        }
        let mut root = SplitMix64::new(seed ^ 0x5DEE_CE66_D1CE_5EED);
        // Run-level noise factor: models scheduling/SMT/frequency jitter that
        // shifts a whole sample, the dominant term in unstable benchmarks.
        let run_noise = root.jitter(ctx.noise_amp);
        // SMT contention: when more threads run than physical cores, or the
        // machine time-slices SMT contexts, cores interfere. POWER7's 4-way
        // SMT adds extra jitter even for modest thread counts.
        let smt_noise = if self.spec.smt > 1 {
            root.jitter(ctx.noise_amp * 0.5)
        } else {
            1.0
        };

        let n = program.threads.len();
        let MachineScratch {
            cores,
            rngs,
            mem,
            heap,
        } = scratch;
        mem.clear();
        let mut counters = Counters::default();
        cores.truncate(n);
        for (id, core) in cores.iter_mut().enumerate() {
            core.reset(id, &self.spec);
        }
        for id in cores.len()..n {
            cores.push(CoreState::new(id, &self.spec));
        }
        rngs.clear();
        rngs.extend((0..n).map(|_| root.split()));
        // Stagger thread start times slightly, as a real scheduler would.
        // Each core lands in its own disjoint range [i*20, i*20+10], so
        // initial clocks never tie.
        for (i, core) in cores.iter_mut().enumerate() {
            core.clock = (i as f64) * 20.0 + rngs[i].next_f64() * 10.0;
        }

        // Interleave: always step the core with the smallest local clock so
        // cross-core coherence interactions happen in global time order.
        heap.clear();
        for (i, core) in cores.iter().enumerate() {
            if !program.threads[i].is_empty() {
                heap.push(core.clock, i);
            }
        }
        while let Some(idx) = heap.peek() {
            let core = &mut cores[idx];
            let thread = &program.threads[idx];
            let rng = &mut rngs[idx];
            // Step this core while it remains the globally-minimal one; the
            // common case (one straggler core, or a core far behind the
            // pack) never re-consults the other cores.
            loop {
                let instr = &thread[core.pc];
                probe.begin(idx, core.pc, instr);
                let before = core.clock;
                core.step_probed(instr, &self.spec, ctx, mem, rng, &mut counters, probe);
                probe.retire(idx, core.pc, core.clock - before, core.clock);
                core.pc += 1;
                if core.pc >= thread.len() {
                    heap.pop_root();
                    break;
                }
                heap.update_root(core.clock);
                if heap.peek() != Some(idx) {
                    break;
                }
            }
        }

        let mut sb_stall_cycles = 0.0;
        let mut sb_stalls = 0;
        for core in cores.iter() {
            sb_stall_cycles += core.sbuf.stall_cycles;
            sb_stalls += core.sbuf.stalls;
        }
        let max_cycles = cores.iter().map(|c| c.clock).fold(0.0_f64, f64::max);
        ExecStats {
            wall_ns: self.spec.ns(max_cycles) * run_noise * smt_noise,
            core_cycles: cores.iter().map(|c| c.clock).collect(),
            counters,
            sb_stall_cycles,
            sb_stalls,
            per_site: None,
        }
    }

    /// Convenience micro-harness: time a tight loop of `n` repetitions of
    /// `body` on a single core, returning mean nanoseconds per repetition.
    ///
    /// This is the "basic microbenchmarking" of §4.2.1 (e.g. measuring
    /// `sync` at 18.9 ns and `lwsync` at 6.1 ns) — and it demonstrates the
    /// limits the paper highlights: run it on `dmb ish` vs `dmb ishst` and
    /// you will see no difference, because the machine is otherwise idle.
    pub fn time_sequence_ns(&self, body: &[Instr], n: usize, seed: u64) -> f64 {
        let mut stream = Vec::with_capacity(body.len() * n);
        for _ in 0..n {
            stream.extend_from_slice(body);
        }
        let ctx = WorkloadCtx {
            name: "micro".to_string(),
            bp_pressure: 0.0,
            load_pressure: 0.0,
            l1_miss_rate: 0.0,
            dram_frac: 0.0,
            noise_amp: 0.0,
        };
        let stats = self.run(&Program::new(vec![stream]), &ctx, seed);
        stats.wall_ns / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{armv8_xgene1, power7};
    use crate::isa::{AccessOrd, FenceKind, Loc};
    use crate::probe::SiteStallProbe;

    fn store(line: u64) -> Instr {
        Instr::Store {
            loc: Loc::SharedRw(line),
            ord: AccessOrd::Plain,
        }
    }

    fn load(line: u64) -> Instr {
        Instr::Load {
            loc: Loc::SharedRw(line),
            ord: AccessOrd::Plain,
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![store(1), Instr::Fence(FenceKind::DmbIsh), load(2)],
            vec![store(2), Instr::Fence(FenceKind::DmbIsh), load(1)],
        ]);
        let ctx = WorkloadCtx::default();
        let a = m.run(&prog, &ctx, 99);
        let b = m.run(&prog, &ctx, 99);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.core_cycles, b.core_cycles);
    }

    #[test]
    fn different_seeds_vary_with_noise() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![vec![load(1); 100]]);
        let ctx = WorkloadCtx {
            l1_miss_rate: 0.3,
            noise_amp: 0.02,
            ..WorkloadCtx::default()
        };
        let a = m.run(&prog, &ctx, 1);
        let b = m.run(&prog, &ctx, 2);
        assert_ne!(a.wall_ns, b.wall_ns);
    }

    #[test]
    fn rejects_too_many_threads() {
        let m = Machine::new(armv8_xgene1()); // 8 cores, no SMT
        let threads = vec![vec![Instr::Nop]; 9];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(&Program::new(threads), &WorkloadCtx::default(), 0)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn power7_smt_accepts_many_threads() {
        let m = Machine::new(power7()); // 12 cores x 4 SMT
        let threads = vec![vec![Instr::Nop]; 16];
        let stats = m.run(&Program::new(threads), &WorkloadCtx::default(), 0);
        assert_eq!(stats.core_cycles.len(), 16);
    }

    #[test]
    fn micro_timing_of_power_fences_matches_paper() {
        // §4.2.1: "Basic microbenchmarking of sync and lwsync determines
        // their execution times to be 6.1ns and 18.9ns respectively."
        let m = Machine::new(power7());
        let lw = m.time_sequence_ns(&[Instr::Fence(FenceKind::LwSync)], 2000, 1);
        let hw = m.time_sequence_ns(&[Instr::Fence(FenceKind::HwSync)], 2000, 1);
        assert!((lw - 6.1).abs() < 0.5, "lwsync micro {lw} ns");
        assert!((hw - 18.9).abs() < 1.0, "sync micro {hw} ns");
    }

    #[test]
    fn micro_timing_cannot_distinguish_dmb_variants() {
        let m = Machine::new(armv8_xgene1());
        let ish = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIsh)], 2000, 1);
        let ishst = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIshSt)], 2000, 1);
        let ishld = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIshLd)], 2000, 1);
        assert!((ish - ishst).abs() / ish < 0.05, "{ish} vs {ishst}");
        assert!((ish - ishld).abs() / ish < 0.05, "{ish} vs {ishld}");
    }

    #[test]
    fn contended_line_slower_than_private() {
        let m = Machine::new(armv8_xgene1());
        let ctx = WorkloadCtx::default();
        // Paced ping-pong keeps both threads concurrently active so the
        // line genuinely bounces between caches.
        let paced = |line: u64, tid: u64| -> Vec<Instr> {
            (0..150)
                .flat_map(|i| {
                    vec![
                        Instr::Compute { cycles: 40 },
                        if (i + tid).is_multiple_of(2) {
                            store(line)
                        } else {
                            load(line)
                        },
                    ]
                })
                .collect()
        };
        let contended = Program::new(vec![paced(7, 0), paced(7, 1)]);
        let disjoint = Program::new(vec![paced(8, 0), paced(9, 1)]);
        let c = m.run(&contended, &ctx, 3);
        let d = m.run(&disjoint, &ctx, 3);
        assert!(
            c.wall_ns > d.wall_ns,
            "contention should cost: {} vs {}",
            c.wall_ns,
            d.wall_ns
        );
        assert!(c.counters.coherence_transfers > d.counters.coherence_transfers);
    }

    #[test]
    fn wall_time_is_max_core_time() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![Instr::Compute { cycles: 10_000 }],
            vec![Instr::Compute { cycles: 10 }],
        ]);
        let stats = m.run(&prog, &WorkloadCtx::default(), 0);
        let max_c = stats.core_cycles.iter().cloned().fold(0.0, f64::max);
        assert!((stats.wall_ns - m.spec().ns(max_c)).abs() < 1e-9);
    }

    #[test]
    fn program_len_counts_all_threads() {
        let p = Program::new(vec![vec![Instr::Nop; 3], vec![Instr::Nop; 2]]);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn workload_ctx_validation_names_the_offending_field() {
        let mut ctx = WorkloadCtx::default();
        assert!(ctx.validate().is_ok());
        ctx.noise_amp = f64::NAN;
        let err = ctx.validate().unwrap_err();
        assert!(err.contains("noise_amp"), "{err}");
        ctx.noise_amp = 0.0;
        ctx.l1_miss_rate = -0.5;
        let err = ctx.validate().unwrap_err();
        assert!(err.contains("l1_miss_rate"), "{err}");
        ctx.l1_miss_rate = f64::INFINITY;
        assert!(ctx.validate().is_err());
    }

    #[test]
    fn hostile_ctx_is_rejected_up_front_not_mid_run() {
        // A NaN noise amplitude used to detonate mid-batch at the scheduler's
        // `partial_cmp(..).expect("clocks are finite")`; now the run refuses
        // to start, naming the poisoned field.
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![vec![load(1); 50], vec![store(1); 50]]);
        let ctx = WorkloadCtx {
            noise_amp: f64::NAN,
            ..WorkloadCtx::default()
        };
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(&prog, &ctx, 0)));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("rejected before simulation"), "{msg}");
        assert!(msg.contains("noise_amp"), "{msg}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_state() {
        // One scratch across dissimilar jobs — different thread counts,
        // shapes, architectures — must reproduce the allocate-fresh results
        // exactly, including stats populated from reused buffers.
        let arm = Machine::new(armv8_xgene1());
        let pow = Machine::new(power7());
        let progs = [
            Program::new(vec![vec![
                store(1),
                Instr::Fence(FenceKind::DmbIsh),
                load(2),
            ]]),
            Program::new(vec![
                vec![store(1); 40],
                vec![load(1); 40],
                vec![store(2), load(2), store(2), load(2)],
            ]),
            Program::new(vec![
                vec![Instr::Compute { cycles: 500 }],
                vec![load(9); 10],
            ]),
        ];
        let ctx = WorkloadCtx {
            l1_miss_rate: 0.2,
            noise_amp: 0.01,
            ..WorkloadCtx::default()
        };
        let mut scratch = MachineScratch::new();
        for round in 0..3 {
            for (i, prog) in progs.iter().enumerate() {
                for machine in [&arm, &pow] {
                    let seed = (round * 10 + i) as u64;
                    let fresh = machine.run(prog, &ctx, seed);
                    let reused = machine.run_in(prog, &ctx, seed, &mut NullProbe, &mut scratch);
                    assert_eq!(fresh.wall_ns, reused.wall_ns);
                    assert_eq!(fresh.core_cycles, reused.core_cycles);
                    assert_eq!(fresh.sb_stall_cycles, reused.sb_stall_cycles);
                    assert_eq!(fresh.sb_stalls, reused.sb_stalls);
                    assert_eq!(fresh.counters, reused.counters);
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_for_sited_runs() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![store(1), Instr::Fence(FenceKind::DmbIsh), load(2)],
            vec![store(2), Instr::Fence(FenceKind::DmbIsh), load(1)],
        ]);
        let ctx = WorkloadCtx::default();
        let mut scratch = MachineScratch::new();
        // Warm the scratch with an unrelated job first.
        m.run_in(
            &Program::new(vec![vec![load(5); 30]; 4]),
            &ctx,
            1,
            &mut NullProbe,
            &mut scratch,
        );
        let sited = |scratch: &mut MachineScratch| {
            let mut probe = SiteStallProbe::new();
            let mut stats = m.run_in(&prog, &ctx, 42, &mut probe, scratch);
            stats.per_site = Some(probe.finish());
            stats
        };
        let fresh = sited(&mut MachineScratch::new());
        let reused = sited(&mut scratch);
        assert_eq!(fresh.wall_ns, reused.wall_ns);
        assert_eq!(fresh.per_site, reused.per_site);
    }
}
