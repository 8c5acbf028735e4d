//! Architecture specifications.
//!
//! Two concrete machines are modelled, matching §4.1 of the paper:
//!
//! * [`armv8_xgene1`] — an Applied Micro X-Gene 1: 8 cores at 2.4 GHz,
//!   out-of-order, with `dmb ish`/`ishld`/`ishst`, `isb` and
//!   load-acquire/store-release instructions.
//! * [`power7`] — a 12-core POWER7 at 3.7 GHz with `sync`/`lwsync` and
//!   4-way simultaneous multithreading (the SMT is what the paper blames for
//!   xalan's instability on POWER).
//!
//! All timing knobs live in [`ArchSpec`] so that calibration tests can assert
//! the micro-measured fence costs land near the paper's numbers
//! (`lwsync` ≈ 6.1 ns, `sync` ≈ 18.9 ns, …) and ablation benches can vary
//! individual parameters.

/// Which of the two modelled architectures a spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// ARMv8-A (X-Gene 1 class).
    ArmV8,
    /// POWER7 class.
    Power7,
}

impl Arch {
    /// Short lower-case label used in figures ("arm" / "power").
    pub fn label(self) -> &'static str {
        match self {
            Arch::ArmV8 => "arm",
            Arch::Power7 => "power",
        }
    }
}

/// Full parameter set of a simulated machine.
///
/// Cycle counts are `f64` so that sub-cycle amortised costs (dual-issued ALU
/// ops, pipelined L1 hits) can be expressed directly.
#[derive(Debug, Clone)]
pub struct ArchSpec {
    /// Architecture family.
    pub arch: Arch,
    /// Human-readable model name.
    pub name: &'static str,
    /// Number of hardware cores the machine exposes.
    pub cores: usize,
    /// Core clock in GHz; converts cycles to nanoseconds.
    pub freq_ghz: f64,
    /// Degree of simultaneous multithreading. SMT > 1 adds scheduling jitter
    /// (POWER7's xalan instability in Fig. 5).
    pub smt: u32,

    // --- pipeline ---
    /// Sustained issue width for simple ALU ops (cycles are divided by this).
    pub issue_width: f64,
    /// Maximum out-of-order overlap credit, in cycles, that can hide latency.
    pub ooo_window: f64,
    /// Fraction of a long-latency event that overlap may hide at most.
    pub ooo_hide_frac: f64,
    /// Credit gained per executed instruction (cycles).
    pub ooo_gain: f64,
    /// Branch mispredict penalty, cycles.
    pub mispredict_penalty: f64,

    // --- memory hierarchy ---
    /// L1 hit latency (pipelined, amortised), cycles.
    pub l1_hit: f64,
    /// Shared last-level cache hit latency, cycles.
    pub llc_hit: f64,
    /// DRAM access latency, cycles.
    pub dram: f64,
    /// Dirty-line transfer between cores, cycles.
    pub coherence_transfer: f64,
    /// Cost for a store to invalidate remote copies when it drains, cycles.
    pub invalidate: f64,

    // --- store buffer ---
    /// Store buffer capacity, entries.
    pub sb_capacity: usize,
    /// Drain cycles for a store whose line is already exclusively owned.
    pub sb_drain_local: f64,
    /// Drain cycles for a store that must fetch/invalidate the line.
    pub sb_drain_remote: f64,

    // --- fences ---
    /// Serialisation cost between back-to-back barrier instructions: a tight
    /// loop of fences cannot retire one more often than this many cycles.
    /// This is why microbenchmarks cannot tell `dmb ish` variants apart.
    pub fence_serial: f64,
    /// Base (empty-machine) cost of a full fence (`dmb ish` / `sync`).
    pub fence_full_base: f64,
    /// Base cost of a store-store fence (`dmb ishst` / part of `lwsync`).
    pub fence_st_base: f64,
    /// Base cost of a load fence (`dmb ishld`).
    pub fence_ld_base: f64,
    /// Penalty scale for a load fence when the load queue is busy, cycles.
    pub fence_ld_queue_penalty: f64,
    /// `isb` pipeline-flush cost, cycles.
    pub isb_flush: f64,
    /// Instructions dispatched serially in the shadow of a retired fence.
    pub fence_shadow_instrs: f64,
    /// Extra cycles per instruction dispatched in the fence shadow.
    pub fence_shadow_cost: f64,
    /// Extra latency of a load-acquire over a plain load, cycles.
    pub acquire_extra: f64,
    /// Extra latency of a store-release over a plain store, cycles; also
    /// waits on a fraction of pending drains.
    pub release_extra: f64,
    /// Fraction of the pending store-buffer drain a store-release waits for.
    pub release_drain_frac: f64,
    /// Fraction of the pending drain a store-store fence waits for.
    pub st_fence_drain_frac: f64,
    /// Fraction of the pending drain a *full* fence exposes: miss-handling
    /// parallelism lets part of the residual drain overlap with the fence's
    /// own serialisation. POWER's `sync` waits for a global acknowledgement
    /// and exposes more of it than ARM's `dmb ish`.
    pub full_fence_drain_frac: f64,
    /// Atomic (ll/sc or larx/stcx) base cost, cycles.
    pub cas_base: f64,

    // --- cost-function (spin loop) timing, Figs. 2-4 ---
    /// Cycles per loop iteration once the loop dominates (linear region).
    pub costfn_cycles_per_iter: f64,
    /// Number of iterations the out-of-order engine can overlap with
    /// surrounding code (sub-linear region of Fig. 4).
    pub costfn_overlap_iters: f64,
    /// Effective cycles per iteration inside the overlapped region.
    pub costfn_overlap_cost: f64,
    /// Fixed loop set-up cost (`mov` of N, first branch), cycles.
    pub costfn_setup: f64,
    /// Extra cost of the stack spill/reload pair (Fig. 2 lines 1/5), cycles.
    pub costfn_spill: f64,
}

impl ArchSpec {
    /// Convert cycles to nanoseconds on this machine.
    pub fn ns(&self, cycles: f64) -> f64 {
        cycles / self.freq_ghz
    }

    /// Convert nanoseconds to cycles on this machine.
    pub fn cycles(&self, ns: f64) -> f64 {
        ns * self.freq_ghz
    }

    /// Closed-form cycle cost of a cost-function loop of `iters` iterations
    /// (the native timing of [`crate::isa::Instr::CostLoop`]).
    ///
    /// Matches Fig. 4: flat/sub-linear while the out-of-order engine can
    /// overlap the short loop with surrounding code, then linear in N.
    #[inline]
    pub fn costfn_cycles(&self, iters: u64, stack_spill: bool) -> f64 {
        let n = iters as f64;
        let overlapped = n.min(self.costfn_overlap_iters);
        let exposed = (n - self.costfn_overlap_iters).max(0.0);
        let spill = if stack_spill { self.costfn_spill } else { 0.0 };
        self.costfn_setup
            + spill
            + overlapped * self.costfn_overlap_cost
            + exposed * self.costfn_cycles_per_iter
    }
}

/// The ARMv8 machine of §4.1: X-Gene 1, 8 cores @ 2.4 GHz, 16 GiB RAM.
pub fn armv8_xgene1() -> ArchSpec {
    ArchSpec {
        arch: Arch::ArmV8,
        name: "X-Gene 1 (ARMv8, 8 cores @ 2.4 GHz)",
        cores: 8,
        freq_ghz: 2.4,
        smt: 1,

        issue_width: 2.0,
        ooo_window: 48.0,
        ooo_hide_frac: 0.6,
        ooo_gain: 0.5,
        mispredict_penalty: 38.0,

        l1_hit: 2.0,
        llc_hit: 28.0,
        dram: 220.0,
        coherence_transfer: 55.0,
        invalidate: 10.0,

        sb_capacity: 16,
        sb_drain_local: 0.5,
        sb_drain_remote: 6.0,

        // A tight all-fence loop retires one dmb per ~24 cycles (10 ns)
        // regardless of the ish/ishld/ishst variant — matching the paper's
        // failure to distinguish them by microbenchmarking.
        fence_serial: 24.0,
        fence_full_base: 7.0,
        fence_st_base: 5.0,
        fence_ld_base: 1.0,
        fence_ld_queue_penalty: 24.0,
        isb_flush: 48.0,
        fence_shadow_instrs: 4.0,
        fence_shadow_cost: 2.0,
        acquire_extra: 5.0,
        release_extra: 14.0,
        release_drain_frac: 1.3,
        st_fence_drain_frac: 0.3,
        full_fence_drain_frac: 0.6,
        cas_base: 14.0,

        costfn_cycles_per_iter: 1.0,
        costfn_overlap_iters: 8.0,
        costfn_overlap_cost: 0.25,
        costfn_setup: 2.0,
        costfn_spill: 4.0,
    }
}

/// The POWER7 machine of §4.1: 12 cores @ 3.7 GHz, 128 GiB RAM, 4-way SMT.
pub fn power7() -> ArchSpec {
    ArchSpec {
        arch: Arch::Power7,
        name: "POWER7 (12 cores @ 3.7 GHz)",
        cores: 12,
        freq_ghz: 3.7,
        smt: 4,

        issue_width: 2.5,
        ooo_window: 56.0,
        ooo_hide_frac: 0.5,
        ooo_gain: 0.5,
        mispredict_penalty: 42.0,

        l1_hit: 2.0,
        llc_hit: 26.0,
        dram: 280.0,
        coherence_transfer: 70.0,
        invalidate: 12.0,

        sb_capacity: 24,
        sb_drain_local: 0.7,
        sb_drain_remote: 10.0,

        // Microbenchmarked in the paper: lwsync 6.1 ns, sync 18.9 ns.
        // 6.1 ns * 3.7 GHz = 22.6 cycles; 18.9 ns * 3.7 GHz = 69.9 cycles.
        fence_serial: 22.6,
        fence_full_base: 69.9,
        fence_st_base: 22.6,
        fence_ld_base: 22.6,
        fence_ld_queue_penalty: 18.0,
        isb_flush: 60.0, // isync-class; not exercised by the paper's POWER runs
        fence_shadow_instrs: 4.0,
        fence_shadow_cost: 1.5,
        acquire_extra: 8.0,
        release_extra: 12.0,
        release_drain_frac: 0.4,
        st_fence_drain_frac: 0.25,
        full_fence_drain_frac: 1.4,
        cas_base: 18.0,

        costfn_cycles_per_iter: 1.0,
        costfn_overlap_iters: 8.0,
        costfn_overlap_cost: 0.3,
        costfn_setup: 2.0,
        costfn_spill: 4.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_roundtrip() {
        let a = armv8_xgene1();
        let ns = a.ns(24.0);
        assert!((a.cycles(ns) - 24.0).abs() < 1e-12);
        assert!((ns - 10.0).abs() < 1e-9, "24 cycles @2.4GHz = 10 ns");
    }

    #[test]
    fn costfn_linear_for_large_n() {
        let a = armv8_xgene1();
        let t1 = a.costfn_cycles(1 << 10, true);
        let t2 = a.costfn_cycles(1 << 11, true);
        // Doubling N roughly doubles time in the linear region.
        let ratio = t2 / t1;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn costfn_sublinear_for_small_n() {
        let a = armv8_xgene1();
        let t1 = a.costfn_cycles(1, true);
        let t4 = a.costfn_cycles(4, true);
        // Far less than 4x growth while overlapped.
        assert!(t4 / t1 < 2.0, "t1={t1} t4={t4}");
    }

    #[test]
    fn nostack_variant_is_cheaper() {
        let a = armv8_xgene1();
        for n in [1u64, 16, 256, 4096] {
            assert!(a.costfn_cycles(n, false) < a.costfn_cycles(n, true));
        }
    }

    #[test]
    fn costfn_monotonic_in_n() {
        let p = power7();
        let mut prev = 0.0;
        for e in 0..14 {
            let t = p.costfn_cycles(1 << e, true);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn power_fence_bases_match_paper_micro() {
        let p = power7();
        // lwsync ~6.1 ns, sync ~18.9 ns (§4.2.1).
        assert!((p.ns(p.fence_serial) - 6.1).abs() < 0.05);
        assert!((p.ns(p.fence_full_base) - 18.9).abs() < 0.05);
    }

    #[test]
    fn specs_describe_the_papers_machines() {
        let a = armv8_xgene1();
        assert_eq!(a.cores, 8);
        assert_eq!(a.freq_ghz, 2.4);
        assert_eq!(a.arch.label(), "arm");
        let p = power7();
        assert_eq!(p.cores, 12);
        assert_eq!(p.freq_ghz, 3.7);
        assert_eq!(p.smt, 4);
        assert_eq!(p.arch.label(), "power");
    }
}
