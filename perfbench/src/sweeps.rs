//! `sweep_cold` and `sweep_warm`: the paper's sensitivity sweeps (Eq. 1
//! fitted per benchmark) through the caching parallel executor.
//!
//! One pass is one campaign over the item list: every fig. 5 sweep on
//! ARMv8 and POWER7 (all barriers), every fig. 9 `rbd` sweep and every
//! dstruct `HpProtect` sweep (single code path), with the seed as the
//! sampling protocol's base seed. Each pass gets a fresh executor with a
//! disk-backed cache, as a `--cache` campaign run in a new process would.
//! Cold passes each write a new cache file, so every lookup misses; warm
//! passes reopen the file set-up filled, so every lookup hits.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use wmm_bench::experiments::{
    dstruct_envelope, jvm_base_strategy, jvm_costfn_spill, jvm_envelope, kernel_envelope, machine,
    ExpConfig,
};
use wmm_harness::{ParallelExecutor, SimCache};
use wmm_jvm::jit::JitConfig;
use wmm_kernel::macros::{default_arm_strategy, KMacro};
use wmm_obs::SpanLog;
use wmm_sim::arch::Arch;
use wmm_sim::Machine;
use wmm_workloads::dacapo::dacapo_suite;
use wmm_workloads::kernel::{kernel_profile, KernelBench};
use wmmbench::costfn::Calibration;
use wmmbench::exec::{Executor, JobOutcome, SimJob};
use wmmbench::image::Image;
use wmmbench::runner::{BenchSpec, RunConfig};
use wmmbench::sensitivity::{pow2_targets, sweep_with, SweepResult, SweepTarget};
use wmmbench::strategy::FencingStrategy;

use crate::closed_loop::{add, Layers, Workload};
use crate::stats::{Fnv, SplitMix};
use crate::trace::span;

/// The fig. 9 benchmarks (the paper's six most interesting kernel ones).
const FIG9_BENCHES: [&str; 6] = [
    "ebizzy",
    "xalan",
    "netperf_udp",
    "osm_stack",
    "lmbench",
    "netperf_tcp",
];

/// One figure's sweeps: machine, strategy, injection target, calibration,
/// envelope and cost-size axis shared by its benchmarks.
trait Family: Sync {
    fn label(&self) -> &'static str;
    fn bench_names(&self) -> Vec<String>;
    fn points(&self) -> usize;
    fn sweep(
        &self,
        bench: usize,
        run: RunConfig,
        exec: &dyn Executor,
        log: Option<&SpanLog>,
    ) -> SweepResult;
}

struct Fam<P, B, S> {
    label: &'static str,
    machine: Machine,
    strategy: S,
    target: fn() -> SweepTarget<P>,
    cal: Calibration,
    env: HashMap<P, u64>,
    targets: Vec<f64>,
    benches: Vec<B>,
}

impl<P, B, S> Family for Fam<P, B, S>
where
    P: Clone + Eq + Hash + Send + Sync,
    B: BenchSpec<P> + Sync,
    S: FencingStrategy<P> + Sync,
{
    fn label(&self) -> &'static str {
        self.label
    }

    fn bench_names(&self) -> Vec<String> {
        self.benches.iter().map(|b| b.name().to_string()).collect()
    }

    fn points(&self) -> usize {
        self.targets.len()
    }

    fn sweep(
        &self,
        bench: usize,
        run: RunConfig,
        exec: &dyn Executor,
        log: Option<&SpanLog>,
    ) -> SweepResult {
        let inner = &self.benches[bench];
        let traced;
        let spec: &(dyn BenchSpec<P> + Sync) = match log {
            Some(log) => {
                traced = TracedBench { inner, log };
                &traced
            }
            None => inner,
        };
        let _s = span(log, "core.sweep");
        sweep_with(
            &self.machine,
            spec,
            &self.strategy,
            (self.target)(),
            &self.cal,
            &self.targets,
            self.env.clone(),
            run,
            exec,
        )
    }
}

/// Times image generation at the `BenchSpec::image` seam.
struct TracedBench<'a, B> {
    inner: &'a B,
    log: &'a SpanLog,
}

impl<P, B: BenchSpec<P>> BenchSpec<P> for TracedBench<'_, B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn image(&self, seed: u64) -> Image<P> {
        let _s = self.log.span("workloads.image", "layer");
        self.inner.image(seed)
    }
}

/// Instruction counts seen at the executor seam on traced passes.
#[derive(Debug, Default)]
struct SeamTotals {
    linked: u64,
    simulated: u64,
    simulated_ns: f64,
}

/// Times batches at the `Executor::run_batch_stats` seam and counts the
/// instructions linked into them and actually simulated.
struct TracedExec<'a> {
    inner: &'a ParallelExecutor,
    log: &'a SpanLog,
    totals: &'a Mutex<SeamTotals>,
}

impl Executor for TracedExec<'_> {
    fn run_batch_stats(&self, jobs: Vec<SimJob<'_>>) -> Vec<JobOutcome> {
        let lens: Vec<u64> = jobs.iter().map(|j| j.program.len() as u64).collect();
        let out = {
            let _s = self.log.span("harness.batch", "layer");
            self.inner.run_batch_stats(jobs)
        };
        let mut t = self.totals.lock().expect("seam totals poisoned");
        for (len, o) in lens.iter().zip(&out) {
            t.linked += len;
            if let Some(stats) = &o.stats {
                t.simulated += len;
                t.simulated_ns += stats.wall_ns;
            }
        }
        out
    }
}

fn fig5(arch: Arch, label: &'static str, scale: f64) -> Box<dyn Family> {
    let m = machine(arch);
    Box::new(Fam {
        label,
        cal: Calibration::measure(&m, jvm_costfn_spill(arch), 12),
        machine: m,
        strategy: jvm_base_strategy(arch),
        target: || SweepTarget::AllSites,
        env: jvm_envelope(arch),
        targets: pow2_targets(0, 8),
        benches: dacapo_suite(JitConfig::jdk8(arch), scale),
    })
}

fn fig9(scale: f64) -> Box<dyn Family> {
    let m = machine(Arch::ArmV8);
    Box::new(Fam {
        label: "fig9-rbd",
        cal: Calibration::measure(&m, true, 12),
        machine: m,
        strategy: default_arm_strategy(),
        target: || SweepTarget::Path(KMacro::ReadBarrierDepends),
        env: kernel_envelope(),
        targets: pow2_targets(0, 9),
        benches: FIG9_BENCHES
            .iter()
            .map(|n| KernelBench::new(kernel_profile(n).expect("fig. 9 profile exists"), scale))
            .collect(),
    })
}

fn dstruct(scale: f64) -> Box<dyn Family> {
    let m = machine(Arch::ArmV8);
    Box::new(Fam {
        label: "dstruct-hp",
        cal: Calibration::measure(&m, true, 12),
        machine: m,
        strategy: wmm_dstruct::hp_dmb_strategy(),
        target: || SweepTarget::Path(wmm_dstruct::DSite::HpProtect),
        env: dstruct_envelope(),
        targets: pow2_targets(0, 8),
        benches: wmm_dstruct::dstruct_suite(scale),
    })
}

/// Checksum of one sweep: FNV over its points and fit bits.
pub fn sweep_checksum(s: &SweepResult) -> u64 {
    let mut h = Fnv::default();
    h.bytes(s.benchmark.as_bytes());
    h.bytes(s.arch.as_bytes());
    h.bytes(s.code_path.as_bytes());
    for p in &s.points {
        for f in [p.target_ns, p.actual_ns, p.rel_perf, p.rel_min, p.rel_max] {
            h.f64(f);
        }
        h.u64(p.iters);
    }
    match &s.fit {
        Some(fit) => {
            for f in [fit.k, fit.k_std_err, fit.r_squared] {
                h.f64(f);
            }
        }
        None => h.bytes(b"nofit"),
    }
    h.finish()
}

/// Whether a sweep is well formed: one point per cost size, finite
/// positive ratios inside their bounds, and a finite fit if any.
pub fn sweep_is_sane(s: &SweepResult, points: usize) -> bool {
    s.points.len() == points
        && s.points.iter().all(|p| {
            p.rel_perf.is_finite()
                && p.rel_perf > 0.0
                && p.rel_min <= p.rel_perf
                && p.rel_perf <= p.rel_max
        })
        && s.fit
            .as_ref()
            .is_none_or(|f| f.k.is_finite() && f.r_squared.is_finite())
}

/// Whether one sweep output passes: well formed, and bit-identical to the
/// checksum recorded for its item and seed.
pub fn sweep_passes(sane: bool, sum: u64, recorded: u64) -> bool {
    sane && sum == recorded
}

/// The sweep workloads' state.
pub struct Sweeps {
    fams: Vec<Box<dyn Family>>,
    items: Vec<(usize, usize)>,
    run: RunConfig,
    threads: usize,
    dir: PathBuf,
    record: PathBuf,
    warm: bool,
    pass: u64,
    exec: Option<ParallelExecutor>,
    loaded_bytes: u64,
    seam: Mutex<SeamTotals>,
    /// `(checksum, sane)` per item run, pass-major.
    outputs: Vec<(u64, bool)>,
    /// Warm only: the checksums of set-up's cold fill.
    filled: Vec<u64>,
    /// Calibration time of set-up, ms.
    pub calibrate_ms: f64,
}

/// The protocol for a seed: the paper's full sampling protocol, with the
/// seed setting the base seed of the per-sample images.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        base_seed: SplitMix::new(seed).next_u64(),
        ..ExpConfig::full().run
    }
}

impl Sweeps {
    /// Build the families and item list for `seed`; per-pass cache files
    /// live in `dir`, and the per-seed checksum record in `out`. A warm
    /// set-up also runs the cold fill its measured passes will read.
    pub fn setup(seed: u64, threads: usize, dir: &Path, out: &Path, warm: bool) -> Sweeps {
        let scale = ExpConfig::full().scale;
        let t = std::time::Instant::now();
        let fams = vec![
            fig5(Arch::ArmV8, "fig5-arm", scale),
            fig5(Arch::Power7, "fig5-power", scale),
            fig9(scale),
            dstruct(scale),
        ];
        let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
        let items = fams
            .iter()
            .enumerate()
            .flat_map(|(f, fam)| (0..fam.bench_names().len()).map(move |b| (f, b)))
            .collect();
        let mut s = Sweeps {
            fams,
            items,
            run: run_config(seed),
            threads,
            dir: dir.to_path_buf(),
            record: out.join(format!("sweeps-seed{seed}.sums")),
            warm,
            pass: 0,
            exec: None,
            loaded_bytes: 0,
            seam: Mutex::new(SeamTotals::default()),
            outputs: vec![],
            filled: vec![],
            calibrate_ms,
        };
        if warm {
            let exec = ParallelExecutor::new(Some(threads)).with_cache(s.open_cache());
            s.filled = (0..s.items.len())
                .map(|i| sweep_checksum(&s.sweep(i, &exec, None)))
                .collect();
        }
        s
    }

    /// `family/benchmark` label of every item, with the protocol's base
    /// seed: the item list a seed produces.
    pub fn item_labels(&self) -> Vec<String> {
        self.items
            .iter()
            .map(|&(f, b)| {
                let fam = &self.fams[f];
                format!(
                    "{}/{}@{:016x}",
                    fam.label(),
                    fam.bench_names()[b],
                    self.run.base_seed
                )
            })
            .collect()
    }

    fn kind(&self) -> &'static str {
        if self.warm {
            "sweep_warm"
        } else {
            "sweep_cold"
        }
    }

    fn cache_path(&self) -> PathBuf {
        if self.warm {
            self.dir.join("fill.cache")
        } else {
            self.dir.join(format!("pass{}.cache", self.pass))
        }
    }

    fn open_cache(&self) -> SimCache {
        SimCache::with_disk(self.cache_path()).expect("open the sweep cache in the run directory")
    }

    fn sweep(&self, i: usize, exec: &dyn Executor, log: Option<&SpanLog>) -> SweepResult {
        let (f, b) = self.items[i];
        self.fams[f].sweep(b, self.run, exec, log)
    }
}

impl Workload for Sweeps {
    fn pass_len(&self) -> usize {
        self.items.len()
    }

    fn begin_pass(&mut self, log: Option<&SpanLog>) {
        self.loaded_bytes = std::fs::metadata(self.cache_path()).map_or(0, |m| m.len());
        let cache = {
            let _s = span(log, "harness.cache_open");
            self.open_cache()
        };
        self.exec = Some(ParallelExecutor::new(Some(self.threads)).with_cache(cache));
    }

    fn run_item(&mut self, i: usize, log: Option<&SpanLog>, _layers: &mut Layers) -> u64 {
        let exec = self.exec.as_ref().expect("pass begun");
        let result = match log {
            Some(log) => {
                let traced = TracedExec {
                    inner: exec,
                    log,
                    totals: &self.seam,
                };
                self.sweep(i, &traced, Some(log))
            }
            None => self.sweep(i, exec, None),
        };
        let points = self.fams[self.items[i].0].points();
        self.outputs
            .push((sweep_checksum(&result), sweep_is_sane(&result, points)));
        ((points + 1) * (self.run.warmups + self.run.samples)) as u64
    }

    fn end_pass(&mut self, log: Option<&SpanLog>, layers: &mut Layers) {
        let exec = self.exec.take().expect("pass begun");
        if log.is_some() {
            let t = exec.telemetry();
            let c = exec.cache_stats().unwrap_or_default();
            let seam = std::mem::take(&mut *self.seam.lock().expect("seam totals poisoned"));
            let sim = &t.sim;
            for (name, v) in [
                ("harness.batches", t.batches as f64),
                ("harness.cache_hits", c.hits as f64),
                ("harness.cache_misses", c.misses as f64),
                (
                    "harness.cache_disk_bytes",
                    (c.disk_append_bytes + self.loaded_bytes) as f64,
                ),
                ("harness.cache_lock_wait_ms", c.lock_wait_ns as f64 / 1e6),
                ("sim.jobs", sim.jobs_observed as f64),
                ("sim.busy_ms", t.timing.sim_ms),
                ("sim.fences", sim.total_fences() as f64),
                ("sim.sb_stalls", sim.sb_stalls as f64),
                ("sim.cost_loop_iters", sim.counters.cost_loop_iters as f64),
                ("sim.dram_accesses", sim.counters.dram_accesses as f64),
                (
                    "sim.coherence_transfers",
                    sim.counters.coherence_transfers as f64,
                ),
                ("sim.instrs", seam.simulated as f64),
                ("sim.simulated_s", seam.simulated_ns / 1e9),
                ("core.instrs_linked", seam.linked as f64),
            ] {
                add(layers, name, v);
            }
        }
        drop(exec);
        if !self.warm {
            // Best effort: the run directory is removed at exit anyway.
            let _ = std::fs::remove_file(self.cache_path());
        }
        self.pass += 1;
    }

    fn check(&mut self) -> u64 {
        let n = self.items.len();
        let first: Vec<u64> = if self.warm {
            self.filled.clone()
        } else {
            self.outputs.iter().take(n).map(|&(sum, _)| sum).collect()
        };
        let labels = self.item_labels();
        // A first pass with a malformed sweep must not become the record.
        let sane = self.warm || self.outputs.iter().take(n).all(|&(_, sane)| sane);
        let recorded = reconcile_record(&self.record, &labels, &first, sane);
        let mut failed = 0;
        for (k, &(sum, sane)) in self.outputs.iter().enumerate() {
            let i = k % n;
            if !(sweep_passes(sane, sum, first[i]) && recorded[i]) {
                eprintln!("{}: sweep {} failed its check", self.kind(), labels[i]);
                failed += 1;
            }
        }
        failed
    }
}

/// Compare this run's per-item checksums with the record kept for the
/// seed by earlier runs (cold or warm) in the same output directory, or
/// start the record when `writable`. Returns per item whether it agrees.
fn reconcile_record(path: &Path, labels: &[String], sums: &[u64], writable: bool) -> Vec<bool> {
    let lines: Vec<String> = labels
        .iter()
        .zip(sums)
        .map(|(l, s)| format!("{l} {s:016x}"))
        .collect();
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let old: HashMap<&str, &str> =
                text.lines().filter_map(|l| l.rsplit_once(' ')).collect();
            lines
                .iter()
                .map(|l| {
                    let (label, sum) = l.rsplit_once(' ').expect("label and sum");
                    old.get(label).is_none_or(|&o| o == sum)
                })
                .collect()
        }
        Err(_) if writable => {
            let tmp = path.with_extension("tmp");
            let mut text = lines.join("\n");
            text.push('\n');
            if std::fs::write(&tmp, text).is_ok() {
                let _ = std::fs::rename(&tmp, path);
            }
            vec![true; labels.len()]
        }
        Err(_) => vec![true; labels.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmmbench::exec::SerialExecutor;

    fn setup(seed: u64) -> Sweeps {
        let dir =
            std::env::temp_dir().join(format!("perfbench-test-{}-{seed}", std::process::id()));
        Sweeps::setup(seed, 1, &dir, &dir, false)
    }

    /// The cheapest item: the last dstruct sweep.
    fn cheapest(s: &Sweeps) -> SweepResult {
        s.sweep(s.items.len() - 1, &SerialExecutor, None)
    }

    #[test]
    fn a_pass_is_every_figure_sweep() {
        let s = setup(1);
        assert_eq!(s.pass_len(), 8 + 8 + FIG9_BENCHES.len() + 3);
        // At least 100 sweeps take four passes.
        assert_eq!(100usize.div_ceil(s.pass_len()), 4);
    }

    #[test]
    fn seed_sets_item_list_and_checksum() {
        let (a, b, c) = (setup(1), setup(1), setup(2));
        assert_eq!(a.item_labels(), b.item_labels());
        assert_ne!(a.item_labels(), c.item_labels());
        let (ra, rb, rc) = (cheapest(&a), cheapest(&b), cheapest(&c));
        assert_eq!(sweep_checksum(&ra), sweep_checksum(&rb));
        assert_ne!(sweep_checksum(&ra), sweep_checksum(&rc));
    }

    #[test]
    fn corrupted_sweep_fails_its_check() {
        let s = setup(3);
        let good = cheapest(&s);
        let points = s.fams[s.items[s.items.len() - 1].0].points();
        let recorded = sweep_checksum(&good);
        assert!(sweep_passes(
            sweep_is_sane(&good, points),
            recorded,
            recorded
        ));

        let mut flipped = good.clone();
        flipped.points[2].rel_perf = f64::from_bits(flipped.points[2].rel_perf.to_bits() ^ 1);
        assert!(!sweep_passes(
            sweep_is_sane(&flipped, points),
            sweep_checksum(&flipped),
            recorded
        ));

        let mut broken = good.clone();
        broken.points[0].rel_perf = f64::NAN;
        assert!(!sweep_is_sane(&broken, points));
        let mut short = good;
        short.points.pop();
        assert!(!sweep_is_sane(&short, points));
    }

    #[test]
    fn record_catches_a_changed_checksum() {
        let dir = std::env::temp_dir().join(format!("perfbench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("r.sums");
        let labels = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            reconcile_record(&path, &labels, &[9, 9], false),
            vec![true, true]
        );
        assert!(!path.exists(), "an unwritable first pass is not recorded");
        assert_eq!(
            reconcile_record(&path, &labels, &[1, 2], true),
            vec![true, true]
        );
        assert_eq!(
            reconcile_record(&path, &labels, &[1, 2], true),
            vec![true, true]
        );
        assert_eq!(
            reconcile_record(&path, &labels, &[1, 3], true),
            vec![true, false]
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
