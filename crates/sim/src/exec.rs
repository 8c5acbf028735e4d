//! Per-core execution state and instruction timing semantics.
//!
//! Each core advances a local clock (in cycles). Cheap instructions add
//! width-amortised time and *earn* out-of-order overlap credit; expensive
//! events (cache misses, fences, mispredicts) *spend* credit, which hides a
//! bounded fraction of their latency. Fences additionally consult the store
//! buffer and the workload context, which is where every context-dependent
//! cost in the paper comes from:
//!
//! * `dmb ish` / `sync`: wait for the store buffer to drain, pay the full
//!   base cost, and kill overlap credit.
//! * `dmb ishst` / `lwsync`: pay a partial drain wait (the FIFO buffer
//!   already orders stores, so there is little left to wait for).
//! * `dmb ishld`: pay in proportion to outstanding loads — heavy in
//!   load-dense kernel paths (lmbench), nearly free elsewhere. This is the
//!   paper's "complex behaviour, and not simply mapping to dmb ish".
//! * `isb`: flush the pipeline — a large, *context-independent* cost, which
//!   is why the paper finds `ctrl+isb` stable across micro and macro runs.
//! * back-to-back fences serialise at `fence_serial` cycles, which is why a
//!   fence-timing microbenchmark cannot tell the `dmb` variants apart.

use crate::arch::ArchSpec;
use crate::isa::{AccessOrd, FenceKind, Instr, Loc, Mispredict};
use crate::machine::WorkloadCtx;
use crate::mem::{line_key, AccessOutcome, MemSys};
use crate::probe::{NullProbe, Probe};
use crate::rng::SplitMix64;
use crate::sbuf::StoreBuffer;
use crate::stats::Counters;

/// Mutable state of one simulated core.
#[derive(Debug)]
pub struct CoreState {
    /// Core index within the machine.
    pub id: usize,
    /// Local clock, cycles.
    pub clock: f64,
    /// Store buffer.
    pub sbuf: StoreBuffer,
    /// Out-of-order overlap credit, cycles.
    pub credit: f64,
    /// Completion time of the most recent long-latency load (the load-queue
    /// pressure a `dmb ishld` observes).
    pub load_outstanding_until: f64,
    /// Time the last barrier instruction retired (fence serialisation).
    pub last_fence_retired: f64,
    /// Instructions still to issue through the post-fence frontend refill
    /// (dispatch is serialised in the shadow of a barrier).
    pub fence_shadow: f64,
    /// Index of the next instruction to execute.
    pub pc: usize,
    /// Precomputed `1.0 / spec.issue_width` — charged on every cheap
    /// instruction, and an `fdiv` per step is measurable in nop-dense
    /// streams. Halving and whole multiples of it are exact, so every cost
    /// derived from it is bit-identical to dividing in place.
    inv_issue: f64,
    /// Precomputed `spec.l1_hit / spec.issue_width` (the [`Instr::StackPop`]
    /// cost), stored as the divided value so it is bit-identical too.
    pop_cost: f64,
}

impl CoreState {
    /// A fresh core.
    pub fn new(id: usize, spec: &ArchSpec) -> Self {
        CoreState {
            id,
            clock: 0.0,
            sbuf: StoreBuffer::new(spec.sb_capacity),
            credit: 0.0,
            load_outstanding_until: 0.0,
            last_fence_retired: f64::NEG_INFINITY,
            fence_shadow: 0.0,
            pc: 0,
            inv_issue: 1.0 / spec.issue_width,
            pop_cost: spec.l1_hit / spec.issue_width,
        }
    }

    /// Reset to exactly the state [`CoreState::new`] produces, reusing the
    /// store-buffer allocation. The spec is re-applied in full, so a scratch
    /// core can move between machines (e.g. ARM and POWER jobs in one batch).
    pub fn reset(&mut self, id: usize, spec: &ArchSpec) {
        self.id = id;
        self.clock = 0.0;
        self.sbuf.reset(spec.sb_capacity);
        self.credit = 0.0;
        self.load_outstanding_until = 0.0;
        self.last_fence_retired = f64::NEG_INFINITY;
        self.fence_shadow = 0.0;
        self.pc = 0;
        self.inv_issue = 1.0 / spec.issue_width;
        self.pop_cost = spec.l1_hit / spec.issue_width;
    }

    #[inline]
    fn earn(&mut self, spec: &ArchSpec, amount: f64) {
        self.credit = (self.credit + amount).min(spec.ooo_window);
    }

    /// Post-fence frontend refill: cheap instructions dispatched in the
    /// shadow of a barrier are serialised, paying extra cycles. This is what
    /// makes even `nop` padding at barrier sites measurably expensive
    /// (§4.2.1's 1.9% mean for nop injection).
    #[inline]
    fn shadow_tax(&mut self, spec: &ArchSpec) {
        if self.fence_shadow > 0.0 {
            self.clock += spec.fence_shadow_cost;
            self.fence_shadow -= 1.0;
        }
    }

    /// Spend overlap credit against a latency, returning the exposed cost.
    #[inline]
    fn hide(&mut self, spec: &ArchSpec, cost: f64) -> f64 {
        let hideable = cost * spec.ooo_hide_frac;
        let hidden = hideable.min(self.credit);
        self.credit -= hidden;
        cost - hidden
    }

    /// Execute one instruction; advances `self.clock` and updates counters.
    pub fn step(
        &mut self,
        instr: &Instr,
        spec: &ArchSpec,
        ctx: &WorkloadCtx,
        mem: &mut MemSys,
        rng: &mut SplitMix64,
        counters: &mut Counters,
    ) {
        self.step_probed(instr, spec, ctx, mem, rng, counters, &mut NullProbe);
    }

    /// [`CoreState::step`] with an observation [`Probe`]. The probe only
    /// receives values the timing model already computed — no arithmetic is
    /// added or reordered — so the resulting state and counters are
    /// bit-identical to an unprobed step.
    /// The probe parameter is generic so statically-known probes
    /// monomorphize: with [`NullProbe`] every probe call compiles away
    /// entirely, which is what keeps the unprobed hot path free of virtual
    /// dispatch per instruction. `?Sized` keeps `&mut dyn Probe` callers
    /// working unchanged.
    #[allow(clippy::too_many_arguments)]
    pub fn step_probed<P: Probe + ?Sized>(
        &mut self,
        instr: &Instr,
        spec: &ArchSpec,
        ctx: &WorkloadCtx,
        mem: &mut MemSys,
        rng: &mut SplitMix64,
        counters: &mut Counters,
        probe: &mut P,
    ) {
        match *instr {
            Instr::Nop => {
                // Nops still occupy issue slots.
                self.shadow_tax(spec);
                self.clock += self.inv_issue * 0.5;
            }
            Instr::MovImm | Instr::Alu | Instr::CmpImm => {
                self.shadow_tax(spec);
                self.clock += self.inv_issue;
                self.earn(spec, spec.ooo_gain);
            }
            Instr::CondBranch(model) => {
                self.shadow_tax(spec);
                self.clock += self.inv_issue;
                let p = match model {
                    Mispredict::Never => 0.0,
                    Mispredict::Rate(r) => r,
                    Mispredict::Workload => ctx.bp_pressure,
                };
                if p > 0.0 && rng.chance(p) {
                    counters.mispredicts += 1;
                    let cost = self.hide(spec, spec.mispredict_penalty);
                    self.clock += cost;
                    self.credit = 0.0; // wrong-path work is discarded
                } else {
                    self.earn(spec, spec.ooo_gain);
                }
            }
            Instr::StackPush => {
                // A store to the core's own stack line: buffered, cheap.
                let key = line_key(self.id, Loc::Private(0));
                let stalled = self.sbuf.stall_cycles;
                self.clock = self.sbuf.push(self.clock, key, spec.sb_drain_local);
                if self.sbuf.stall_cycles > stalled {
                    probe.sb_stall(self.sbuf.stall_cycles - stalled);
                }
                self.clock += self.inv_issue;
                counters.stores += 1;
            }
            Instr::StackPop => {
                // Reload of the freshly spilled value: forwarded from the
                // store buffer or an L1 hit.
                self.clock += self.pop_cost;
                counters.loads += 1;
            }
            Instr::Load { loc, ord } => {
                let key = line_key(self.id, loc);
                counters.loads += 1;
                let (mut cost, outcome) = if self.sbuf.forwards(self.clock, key) {
                    (spec.l1_hit * 0.5, AccessOutcome::L1Hit)
                } else {
                    mem.load(self.id, loc, spec, ctx.l1_miss_rate, ctx.dram_frac, rng)
                };
                counters.record_access(outcome);
                if ord == AccessOrd::Acquire {
                    counters.acquires += 1;
                    cost += spec.acquire_extra;
                    // An acquire orders later accesses: spend the window.
                    self.credit *= 0.5;
                }
                let exposed = self.hide(spec, cost);
                probe.access(outcome, exposed);
                self.clock += exposed;
                if cost > spec.llc_hit * 0.5 {
                    self.load_outstanding_until =
                        self.load_outstanding_until.max(self.clock + cost * 0.05);
                }
            }
            Instr::Store { loc, ord } => {
                let key = line_key(self.id, loc);
                counters.stores += 1;
                let drain = mem.store_drain(self.id, loc, spec);
                if ord == AccessOrd::Release {
                    counters.releases += 1;
                    // A release makes prior writes visible first: wait for a
                    // fraction of the pending drain, then pay the extra.
                    let wait = self.sbuf.pending_wait(self.clock) * spec.release_drain_frac;
                    let exposed = self.hide(spec, wait + spec.release_extra);
                    self.clock += exposed;
                    self.credit *= 0.5;
                }
                let stalled = self.sbuf.stall_cycles;
                self.clock = self.sbuf.push(self.clock, key, drain);
                if self.sbuf.stall_cycles > stalled {
                    probe.sb_stall(self.sbuf.stall_cycles - stalled);
                }
                self.clock += self.inv_issue;
            }
            Instr::Cas { loc, success_prob } => {
                counters.atomics += 1;
                let (acq_cost, outcome) = mem.rmw(self.id, loc, spec);
                counters.record_access(outcome);
                let mut cost = acq_cost + spec.cas_base;
                // Failed reservations retry; each retry re-pays the base.
                let p = success_prob.clamp(0.01, 1.0);
                while !rng.chance(p) {
                    cost += spec.cas_base;
                    counters.cas_retries += 1;
                }
                let exposed = self.hide(spec, cost);
                probe.access(outcome, exposed);
                self.clock += exposed;
            }
            Instr::Fence(kind) => {
                self.fence(kind, spec, ctx, counters, probe);
            }
            Instr::CostLoop { iters, stack_spill } => {
                counters.cost_loop_invocations += 1;
                counters.cost_loop_iters += iters;
                let cycles = spec.costfn_cycles(iters, stack_spill);
                // The loop is serial (each subs depends on the last): only a
                // small prefix overlaps, already in the closed form. It also
                // monopolises the window.
                self.clock += cycles;
                self.credit = 0.0;
            }
            Instr::Compute { cycles } => {
                self.clock += cycles as f64;
                self.earn(spec, spec.ooo_gain * (cycles as f64).min(8.0));
            }
        }
    }

    /// Fence timing semantics — the heart of the model.
    fn fence<P: Probe + ?Sized>(
        &mut self,
        kind: FenceKind,
        spec: &ArchSpec,
        ctx: &WorkloadCtx,
        counters: &mut Counters,
        probe: &mut P,
    ) {
        counters.record_fence(kind);
        if kind == FenceKind::Compiler {
            // No instruction emitted; it only constrains the (unmodelled)
            // compiler. Zero hardware cost.
            probe.fence_retired(kind, 0.0);
            return;
        }

        // Semantic cost, depending on machine state.
        let pending = self.sbuf.pending_wait(self.clock);
        let ldq = (self.load_outstanding_until - self.clock).max(0.0)
            + ctx.load_pressure * spec.fence_ld_queue_penalty;
        let semantic = match kind {
            FenceKind::DmbIsh | FenceKind::HwSync => {
                // Full barrier: drain everything, order loads, global ack.
                // Out-of-order state survives partially (the barrier orders
                // memory, it does not flush the pipeline like isb).
                self.credit *= 0.25;
                spec.fence_full_base + pending * spec.full_fence_drain_frac + ldq * 0.5
            }
            FenceKind::DmbIshSt => {
                // Store-store: the FIFO buffer already orders stores; only a
                // fraction of the pending drain is exposed.
                self.credit *= 0.5;
                spec.fence_st_base + pending * spec.st_fence_drain_frac
            }
            FenceKind::LwSync => {
                // Orders everything except store->load: partial drain plus
                // load ordering.
                self.credit *= 0.5;
                spec.fence_st_base + pending * spec.st_fence_drain_frac + ldq * 0.5
            }
            FenceKind::DmbIshLd => {
                // Load barrier: cost tracks outstanding loads.
                self.credit *= 0.5;
                spec.fence_ld_base + ldq
            }
            FenceKind::Isb => {
                // Pipeline flush: big, and independent of memory state.
                self.credit = 0.0;
                spec.isb_flush
            }
            FenceKind::Compiler => unreachable!(),
        };

        // Serialisation with the previous fence: a tight loop of barriers
        // retires one per `fence_serial` cycles minimum (except isb and the
        // compiler barrier). `sync`'s serial window is its own base cost.
        let serial_floor = match kind {
            FenceKind::Isb => 0.0,
            FenceKind::HwSync => spec.fence_full_base,
            _ => spec.fence_serial,
        };
        let since_last = self.clock - self.last_fence_retired;
        let serial_wait = (serial_floor - since_last).max(0.0);

        let cost = semantic.max(serial_wait);
        counters.record_fence_cycles(kind, cost);
        probe.fence_retired(kind, cost);
        self.clock += cost;
        self.last_fence_retired = self.clock;
        // Store-side and full barriers stall the frontend while the store
        // queue is reconciled; `dmb ishld` gates only the load queue, so
        // dispatch continues (part of why its in-vivo cost is so low).
        if matches!(
            kind,
            FenceKind::DmbIsh
                | FenceKind::HwSync
                | FenceKind::Isb
                | FenceKind::DmbIshSt
                | FenceKind::LwSync
        ) {
            self.fence_shadow = spec.fence_shadow_instrs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{armv8_xgene1, power7};

    fn harness() -> (ArchSpec, WorkloadCtx, MemSys, SplitMix64, Counters) {
        (
            armv8_xgene1(),
            WorkloadCtx::default(),
            MemSys::new(),
            SplitMix64::new(7),
            Counters::default(),
        )
    }

    fn run_one(
        core: &mut CoreState,
        i: Instr,
        spec: &ArchSpec,
        ctx: &WorkloadCtx,
        mem: &mut MemSys,
        rng: &mut SplitMix64,
        c: &mut Counters,
    ) -> f64 {
        let before = core.clock;
        core.step(&i, spec, ctx, mem, rng, c);
        core.clock - before
    }

    #[test]
    fn fences_on_empty_machine_cost_their_base() {
        let (spec, mut ctx, mut mem, mut rng, mut c) = harness();
        ctx.load_pressure = 0.0;
        let mut core = CoreState::new(0, &spec);
        let t = run_one(
            &mut core,
            Instr::Fence(FenceKind::DmbIsh),
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert!((t - spec.fence_full_base).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_dmb_variants_are_indistinguishable() {
        // The paper could not tell dmb ish / ishld / ishst apart by
        // microbenchmarking: a tight fence loop serialises at fence_serial.
        let (spec, ctx, _, _, _) = harness();
        let mut per_kind = vec![];
        for kind in [FenceKind::DmbIsh, FenceKind::DmbIshLd, FenceKind::DmbIshSt] {
            let mut mem = MemSys::new();
            let mut rng = SplitMix64::new(3);
            let mut c = Counters::default();
            let mut core = CoreState::new(0, &spec);
            let n = 1000;
            for _ in 0..n {
                core.step(&Instr::Fence(kind), &spec, &ctx, &mut mem, &mut rng, &mut c);
            }
            per_kind.push(core.clock / n as f64);
        }
        let min = per_kind.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_kind.iter().cloned().fold(0.0, f64::max);
        assert!(
            (max - min) / max < 0.05,
            "variants distinguishable in micro loop: {per_kind:?}"
        );
        assert!((max - spec.fence_serial).abs() / spec.fence_serial < 0.1);
    }

    #[test]
    fn full_fence_waits_for_store_buffer() {
        let (spec, ctx, mut mem, mut rng, mut c) = harness();
        let mut core = CoreState::new(0, &spec);
        // Fill the buffer with remote stores (expensive drains).
        for i in 0..8 {
            core.step(
                &Instr::Store {
                    loc: Loc::SharedRw(100 + i),
                    ord: AccessOrd::Plain,
                },
                &spec,
                &ctx,
                &mut mem,
                &mut rng,
                &mut c,
            );
        }
        let t_busy = run_one(
            &mut core,
            Instr::Fence(FenceKind::DmbIsh),
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert!(
            t_busy > spec.fence_full_base * 2.0,
            "fence should wait for drains: {t_busy}"
        );
    }

    #[test]
    fn store_fence_cheaper_than_full_fence_under_load() {
        let (spec, ctx, _, _, _) = harness();
        let cost = |kind: FenceKind| {
            let mut mem = MemSys::new();
            let mut rng = SplitMix64::new(11);
            let mut c = Counters::default();
            let mut core = CoreState::new(0, &spec);
            for i in 0..8 {
                core.step(
                    &Instr::Store {
                        loc: Loc::SharedRw(200 + i),
                        ord: AccessOrd::Plain,
                    },
                    &spec,
                    &ctx,
                    &mut mem,
                    &mut rng,
                    &mut c,
                );
            }
            let before = core.clock;
            core.step(&Instr::Fence(kind), &spec, &ctx, &mut mem, &mut rng, &mut c);
            core.clock - before
        };
        let full = cost(FenceKind::DmbIsh);
        let st = cost(FenceKind::DmbIshSt);
        assert!(
            st < full,
            "ishst ({st}) should be cheaper than ish ({full}) with a busy buffer"
        );
    }

    #[test]
    fn lwsync_cheaper_than_hwsync() {
        let spec = power7();
        let ctx = WorkloadCtx::default();
        let cost = |kind: FenceKind| {
            let mut mem = MemSys::new();
            let mut rng = SplitMix64::new(5);
            let mut c = Counters::default();
            let mut core = CoreState::new(0, &spec);
            for i in 0..6 {
                core.step(
                    &Instr::Store {
                        loc: Loc::SharedRw(300 + i),
                        ord: AccessOrd::Plain,
                    },
                    &spec,
                    &ctx,
                    &mut mem,
                    &mut rng,
                    &mut c,
                );
            }
            let before = core.clock;
            core.step(&Instr::Fence(kind), &spec, &ctx, &mut mem, &mut rng, &mut c);
            core.clock - before
        };
        assert!(cost(FenceKind::LwSync) < cost(FenceKind::HwSync));
    }

    #[test]
    fn isb_cost_is_context_independent() {
        let (spec, ctx, _, _, _) = harness();
        // Empty machine.
        let mut mem = MemSys::new();
        let mut rng = SplitMix64::new(2);
        let mut c = Counters::default();
        let mut core = CoreState::new(0, &spec);
        let empty = run_one(
            &mut core,
            Instr::Fence(FenceKind::Isb),
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        // Busy machine.
        let mut core2 = CoreState::new(0, &spec);
        for i in 0..8 {
            core2.step(
                &Instr::Store {
                    loc: Loc::SharedRw(400 + i),
                    ord: AccessOrd::Plain,
                },
                &spec,
                &ctx,
                &mut mem,
                &mut rng,
                &mut c,
            );
        }
        let busy = run_one(
            &mut core2,
            Instr::Fence(FenceKind::Isb),
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert!((busy - empty).abs() < 1e-9, "isb: {empty} vs {busy}");
    }

    #[test]
    fn compiler_barrier_is_free() {
        let (spec, ctx, mut mem, mut rng, mut c) = harness();
        let mut core = CoreState::new(0, &spec);
        let t = run_one(
            &mut core,
            Instr::Fence(FenceKind::Compiler),
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert_eq!(t, 0.0);
    }

    #[test]
    fn ishld_cost_scales_with_load_pressure() {
        let (spec, _, _, _, _) = harness();
        let cost = |pressure: f64| {
            let ctx = WorkloadCtx {
                load_pressure: pressure,
                ..WorkloadCtx::default()
            };
            let mut mem = MemSys::new();
            let mut rng = SplitMix64::new(9);
            let mut c = Counters::default();
            let mut core = CoreState::new(0, &spec);
            // Space out from any previous fence.
            core.clock = 1000.0;
            let before = core.clock;
            core.step(
                &Instr::Fence(FenceKind::DmbIshLd),
                &spec,
                &ctx,
                &mut mem,
                &mut rng,
                &mut c,
            );
            core.clock - before
        };
        let light = cost(0.1);
        let heavy = cost(1.0);
        assert!(
            heavy > light * 2.0,
            "ishld should track load pressure: {light} vs {heavy}"
        );
    }

    #[test]
    fn cost_loop_time_matches_closed_form() {
        let (spec, ctx, mut mem, mut rng, mut c) = harness();
        let mut core = CoreState::new(0, &spec);
        let t = run_one(
            &mut core,
            Instr::CostLoop {
                iters: 1024,
                stack_spill: true,
            },
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert!((t - spec.costfn_cycles(1024, true)).abs() < 1e-9);
        assert_eq!(c.cost_loop_invocations, 1);
        assert_eq!(c.cost_loop_iters, 1024);
    }

    #[test]
    fn release_store_waits_on_pending_drains() {
        let (spec, ctx, mut mem, mut rng, mut c) = harness();
        let mut core = CoreState::new(0, &spec);
        for i in 0..8 {
            core.step(
                &Instr::Store {
                    loc: Loc::SharedRw(500 + i),
                    ord: AccessOrd::Plain,
                },
                &spec,
                &ctx,
                &mut mem,
                &mut rng,
                &mut c,
            );
        }
        let rel = run_one(
            &mut core,
            Instr::Store {
                loc: Loc::SharedRw(600),
                ord: AccessOrd::Release,
            },
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        let mut core2 = CoreState::new(1, &spec);
        let plain = run_one(
            &mut core2,
            Instr::Store {
                loc: Loc::SharedRw(601),
                ord: AccessOrd::Plain,
            },
            &spec,
            &ctx,
            &mut mem,
            &mut rng,
            &mut c,
        );
        assert!(rel > plain, "release {rel} vs plain {plain}");
    }
}
