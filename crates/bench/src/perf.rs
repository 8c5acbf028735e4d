//! The `wmm_bench` engine: end-to-end campaign throughput measurement with
//! a perf-trajectory gate.
//!
//! A *campaign* is one full figure-producing experiment run cold (fresh
//! executor, fresh cache, every job simulated). Each campaign is run
//! `warmup + iters` times; the warmup iterations prime the allocator and
//! branch predictors and are discarded, the measured iterations yield a
//! wall-time distribution (p50/p95/p99) and a best-iteration throughput in
//! jobs per second — the least noise-sensitive statistic on shared
//! hardware, and the one the gate compares.
//!
//! Alongside timing, every iteration folds its *scientific results* (the
//! sweep fits and points) into an order-sensitive checksum. The checksum
//! must agree across iterations — simulation is deterministic, so any
//! disagreement is a correctness bug, not noise — and is a **structural**
//! field of the report: the gate requires it to match the committed
//! [`BENCH_FILE`] exactly, which pins the simulator's observable behaviour
//! at the moment the perf numbers were recorded.
//!
//! The report deliberately contains no wall-clock timestamps or host
//! identifiers: re-running on the same machine state should reproduce it up
//! to timing jitter.

use std::time::Instant;

use wmm_analyze::{critical_cycles_wps, synthesize_wps, CostModel, CycleCache, SynthConfig};
use wmm_harness::{ParallelExecutor, SimCache};
use wmm_obs::MetricsRegistry;
use wmm_sim::arch::Arch;
use wmmbench::json::Json;
use wmmbench::sensitivity::SweepResult;

use crate::wps::{make_bundles, Bundle, WPS_MODEL};
use crate::{fig5_openjdk_sweeps_with, ExpConfig};

/// Report schema identifier; bump on incompatible layout changes.
pub const BENCH_SCHEMA: &str = "wmm_bench/1";

/// Default committed report path, relative to the repo root.
pub const BENCH_FILE: &str = "BENCH_wmm.json";

/// What to measure and how hard.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Use the quick experiment config (CI-sized) instead of the full one.
    pub quick: bool,
    /// Worker threads (`None` = auto, same resolution as the executors).
    pub threads: Option<usize>,
    /// Discarded priming iterations per campaign.
    pub warmup: usize,
    /// Measured iterations per campaign.
    pub iters: usize,
}

impl BenchOptions {
    /// Defaults for a mode: 1 warmup, 3 measured (quick) / 5 measured
    /// (full).
    pub fn new(quick: bool) -> Self {
        BenchOptions {
            quick,
            threads: None,
            warmup: 1,
            iters: if quick { 3 } else { 5 },
        }
    }

    fn config(&self) -> ExpConfig {
        if self.quick {
            ExpConfig::quick()
        } else {
            ExpConfig::full()
        }
    }

    /// Mode label recorded in (and gated against) the report.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Measured performance of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignPerf {
    /// Campaign name (e.g. `fig5_arm`).
    pub name: String,
    /// Jobs simulated per iteration.
    pub jobs: u64,
    /// Checksum over the campaign's scientific results (hex), identical
    /// across iterations by the determinism contract.
    pub checksum: String,
    /// Measured iteration wall times, ms, in chronological order.
    pub iter_ms: Vec<f64>,
}

impl CampaignPerf {
    fn sorted_ms(&self) -> Vec<f64> {
        let mut v = self.iter_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile of the iteration wall times.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.sorted_ms(), p)
    }

    /// Fastest iteration, ms.
    pub fn best_ms(&self) -> f64 {
        self.sorted_ms().first().copied().unwrap_or(f64::NAN)
    }

    /// Throughput of the fastest iteration, jobs per second.
    pub fn jobs_per_sec_best(&self) -> f64 {
        self.jobs as f64 / (self.best_ms() / 1e3)
    }
}

/// Nearest-rank percentile over an **ascending-sorted** slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Order-sensitive FNV-1a over the deterministic fields of a campaign's
/// sweep results. Floats are folded by their exact bit patterns, so two
/// checksums agree iff the science is bit-identical.
fn results_checksum(sweeps: &[SweepResult]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in sweeps {
        fold(s.benchmark.as_bytes());
        fold(s.arch.as_bytes());
        fold(s.code_path.as_bytes());
        for p in &s.points {
            for f in [p.target_ns, p.actual_ns, p.rel_perf, p.rel_min, p.rel_max] {
                fold(&f.to_bits().to_le_bytes());
            }
            fold(&p.iters.to_le_bytes());
        }
        match &s.fit {
            Some(fit) => {
                for f in [fit.k, fit.k_std_err, fit.r_squared] {
                    fold(&f.to_bits().to_le_bytes());
                }
            }
            None => fold(b"nofit"),
        }
    }
    format!("{h:016x}")
}

/// Run one campaign `warmup + iters` times, cold each time, and collect
/// its perf record. `body` performs one full cold iteration and returns
/// `(jobs, checksum)` — its work-unit count and a checksum over its
/// scientific results. Panics if any iteration's checksum disagrees with
/// the first — that would be a determinism regression, which no amount of
/// timing tolerance should absorb.
fn run_campaign(
    name: &str,
    opts: &BenchOptions,
    run_log: &mut dyn FnMut(&str),
    body: &mut dyn FnMut(&BenchOptions) -> (u64, String),
) -> CampaignPerf {
    let mut checksum = String::new();
    let mut jobs = 0;
    let mut iter_ms = Vec::with_capacity(opts.iters);
    for i in 0..opts.warmup + opts.iters {
        let t0 = Instant::now();
        let (n, sum) = body(opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if checksum.is_empty() {
            checksum = sum;
        } else {
            assert_eq!(
                sum, checksum,
                "{name}: results changed between iterations — determinism bug"
            );
        }
        jobs = n;
        let phase = if i < opts.warmup { "warmup" } else { "measure" };
        run_log(&format!("{name} {phase} {i}: {ms:.1} ms, {jobs} jobs"));
        if i >= opts.warmup {
            iter_ms.push(ms);
        }
    }
    CampaignPerf {
        name: name.to_string(),
        jobs,
        checksum,
        iter_ms,
    }
}

/// One cold fig. 5 sweep iteration: fresh executor, fresh cache, every
/// job simulated.
fn fig5_iteration(arch: Arch, opts: &BenchOptions) -> (u64, String) {
    let exec = ParallelExecutor::new(opts.threads).with_cache(SimCache::in_memory());
    let sweeps = fig5_openjdk_sweeps_with(arch, opts.config(), &exec);
    (exec.telemetry().jobs, results_checksum(&sweeps))
}

/// The fig. 5 iteration with a caller's `wmm-obs` registry attached: a
/// fresh registry per iteration, holding the `harness.exec.*` /
/// `harness.worker.*` metrics and indexing the `harness.cache.sim.*`
/// counters. Same science as [`fig5_iteration`] — metrics observe, they
/// never steer — so its checksum must equal the plain campaign's, which
/// the committed report pins. Both campaigns update the same handles (the
/// plain one in its executor's private registry), so the
/// [`overhead_check`] prices attaching a shared registry.
fn fig5_obs_iteration(arch: Arch, opts: &BenchOptions) -> (u64, String) {
    let registry = MetricsRegistry::new();
    let exec = ParallelExecutor::new(opts.threads)
        .with_cache(SimCache::in_memory())
        .with_metrics(&registry);
    let sweeps = fig5_openjdk_sweeps_with(arch, opts.config(), &exec);
    (exec.telemetry().jobs, results_checksum(&sweeps))
}

/// One WPS enumeration iteration over the generated bundles: several
/// cold rounds (fresh cycle cache each, every conflict component
/// enumerated) so the iteration is long enough to time. Jobs = critical
/// cycles enumerated, so the gated throughput is cycles per second.
fn wps_enum_iteration(bundles: &[Bundle], opts: &BenchOptions) -> (u64, String) {
    let rounds = if opts.quick { 16 } else { 32 };
    let mut h = wmm_harness::Fnv128::new();
    let mut cycles = 0u64;
    for _ in 0..rounds {
        let cache = CycleCache::in_memory();
        for b in bundles {
            let set = critical_cycles_wps(&b.graph, opts.threads, Some(&cache));
            cycles += set.len() as u64;
            h.bytes(format!("{set:?}").as_bytes());
        }
    }
    (cycles, format!("{:016x}", h.finish() as u64))
}

/// One cold WPS solve iteration: the full tiered pipeline (enumerate,
/// approx tier, exact oracle where gated) per bundle. Jobs = solved
/// instances, so the gated throughput is solves per second.
fn wps_solve_iteration(bundles: &[Bundle], opts: &BenchOptions) -> (u64, String) {
    let cache = CycleCache::in_memory();
    let costs = CostModel::priced(crate::streams::NOMINAL_K);
    let wps = wmm_analyze::WpsConfig {
        threads: opts.threads,
        ..wmm_analyze::WpsConfig::default()
    };
    let mut h = wmm_harness::Fnv128::new();
    let mut solves = 0u64;
    for b in bundles {
        let report = synthesize_wps(
            &b.graph,
            SynthConfig::for_model(WPS_MODEL),
            &costs,
            &wps,
            Some(&cache),
        )
        .expect("bundle synthesis");
        solves += 1;
        h.bytes(report.tier.label().as_bytes());
        h.bytes(format!("{:?}", report.placement.instruments).as_bytes());
        h.f64(report.placement.cost_ns);
        h.f64(report.approx_cost_ns);
    }
    (solves, format!("{:016x}", h.finish() as u64))
}

/// Measure every campaign in the suite: the fig. 5 OpenJDK sweep campaign
/// on both architectures — the simulator's end-to-end hot path (image
/// generation, calibration, linking, keying, simulation, fitting) — plus
/// the whole-program synthesis pipeline over the generated bundles, split
/// into its enumeration (cycles/sec) and tiered-solve (solves/sec) rates.
pub fn run_campaigns(opts: &BenchOptions, mut log: impl FnMut(&str)) -> Vec<CampaignPerf> {
    // Bundle packing is input preparation, not the measured pipeline:
    // build once, outside the timed iterations.
    let bundles = make_bundles(if opts.quick { 64 } else { 128 });
    let mut out = vec![
        run_campaign("fig5_arm", opts, &mut log, &mut |o| {
            fig5_iteration(Arch::ArmV8, o)
        }),
        // Measured back-to-back with fig5_arm so the overhead ratio compares
        // iterations taken under the same machine conditions.
        run_campaign("fig5_arm_obs", opts, &mut log, &mut |o| {
            fig5_obs_iteration(Arch::ArmV8, o)
        }),
        run_campaign("fig5_power", opts, &mut log, &mut |o| {
            fig5_iteration(Arch::Power7, o)
        }),
    ];
    out.push(run_campaign("wps_enum", opts, &mut log, &mut |o| {
        wps_enum_iteration(&bundles, o)
    }));
    out.push(run_campaign("wps_solve", opts, &mut log, &mut |o| {
        wps_solve_iteration(&bundles, o)
    }));
    out
}

/// Reference numbers embedded in a report: the same measurement taken with
/// a prior build of the tree (see `--reference` in the CLI).
#[derive(Debug, Clone)]
pub struct Reference {
    /// Human label for the prior build (e.g. a commit id).
    pub label: String,
    /// `(campaign name, best_ms, jobs_per_sec_best)` per campaign.
    pub campaigns: Vec<(String, f64, f64)>,
}

impl Reference {
    /// Extract reference numbers from a prior report.
    pub fn from_report(report: &Json, label: &str) -> Result<Reference, String> {
        let campaigns = report
            .get("campaigns")
            .and_then(Json::as_arr)
            .ok_or("reference report has no campaigns array")?
            .iter()
            .map(|c| {
                let f = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("reference campaign missing {k}"))
                };
                Ok((
                    c.get("name")
                        .and_then(Json::as_str)
                        .ok_or("reference campaign missing name")?
                        .to_string(),
                    f("best_ms")?,
                    f("jobs_per_sec_best")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Reference {
            label: label.to_string(),
            campaigns,
        })
    }
}

/// Render a report. Structural fields (schema, mode, campaign names, job
/// counts, checksums) are exact; timing fields carry measurement noise and
/// are gated with tolerance.
pub fn report_json(opts: &BenchOptions, campaigns: &[CampaignPerf]) -> Json {
    let camp_json = campaigns
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("jobs", Json::Num(c.jobs as f64)),
                ("checksum", Json::Str(c.checksum.clone())),
                (
                    "iter_ms",
                    Json::Arr(c.iter_ms.iter().map(|&m| Json::Num(m)).collect()),
                ),
                ("p50_ms", Json::Num(c.percentile_ms(50.0))),
                ("p95_ms", Json::Num(c.percentile_ms(95.0))),
                ("p99_ms", Json::Num(c.percentile_ms(99.0))),
                ("best_ms", Json::Num(c.best_ms())),
                ("jobs_per_sec_best", Json::Num(c.jobs_per_sec_best())),
            ])
        })
        .collect();
    let total_jobs: u64 = campaigns.iter().map(|c| c.jobs).sum();
    let total_best_ms: f64 = campaigns.iter().map(CampaignPerf::best_ms).sum();
    let fields = vec![
        ("schema", Json::Str(BENCH_SCHEMA.to_string())),
        ("mode", Json::Str(opts.mode().to_string())),
        (
            "threads",
            Json::Num(wmm_harness::resolve_threads(opts.threads) as f64),
        ),
        ("warmup", Json::Num(opts.warmup as f64)),
        ("iters", Json::Num(opts.iters as f64)),
        ("campaigns", Json::Arr(camp_json)),
        (
            "total",
            Json::obj(vec![
                ("jobs", Json::Num(total_jobs as f64)),
                ("best_ms", Json::Num(total_best_ms)),
                (
                    "jobs_per_sec_best",
                    Json::Num(total_jobs as f64 / (total_best_ms / 1e3)),
                ),
            ]),
        ),
    ];
    Json::obj(fields)
}

/// Set (or replace) a report's `reference` section: the same measurement
/// taken with a prior build, plus the derived `speedup_best` — the ratio of
/// summed best-iteration campaign times, prior over current.
pub fn attach_reference(report: &mut Json, r: &Reference) -> Result<(), String> {
    let total_best_ms = report
        .get("total")
        .and_then(|t| t.get("best_ms"))
        .and_then(Json::as_f64)
        .ok_or("report has no total.best_ms")?;
    let ref_total_ms: f64 = r.campaigns.iter().map(|(_, ms, _)| ms).sum();
    let reference = Json::obj(vec![
        ("label", Json::Str(r.label.clone())),
        (
            "campaigns",
            Json::Arr(
                r.campaigns
                    .iter()
                    .map(|(name, ms, jps)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("best_ms", Json::Num(*ms)),
                            ("jobs_per_sec_best", Json::Num(*jps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("best_ms", Json::Num(ref_total_ms)),
        ("speedup_best", Json::Num(ref_total_ms / total_best_ms)),
    ]);
    let Json::Obj(pairs) = report else {
        return Err("report is not an object".to_string());
    };
    match pairs.iter_mut().find(|(k, _)| k == "reference") {
        Some((_, slot)) => *slot = reference,
        None => pairs.push(("reference".to_string(), reference)),
    }
    Ok(())
}

/// Compare a fresh measurement against the committed report. Structural
/// fields must match exactly; `jobs_per_sec_best` must be within a factor
/// of `tol` of the committed value, per campaign. Returns the list of
/// violations (empty = pass).
pub fn gate(
    committed: &Json,
    opts: &BenchOptions,
    current: &[CampaignPerf],
    tol: f64,
) -> Vec<String> {
    let mut bad = Vec::new();
    let stru = |key: &str, want: &str, bad: &mut Vec<String>| match committed
        .get(key)
        .and_then(Json::as_str)
    {
        Some(v) if v == want => {}
        Some(v) => bad.push(format!("{key}: committed {v:?} != current {want:?}")),
        None => bad.push(format!("{key}: missing from committed report")),
    };
    stru("schema", BENCH_SCHEMA, &mut bad);
    stru("mode", opts.mode(), &mut bad);
    let committed_campaigns = committed
        .get("campaigns")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if committed_campaigns.len() != current.len() {
        bad.push(format!(
            "campaign count: committed {} != current {}",
            committed_campaigns.len(),
            current.len()
        ));
        return bad;
    }
    for (c, cur) in committed_campaigns.iter().zip(current) {
        let name = c.get("name").and_then(Json::as_str).unwrap_or("?");
        if name != cur.name {
            bad.push(format!(
                "campaign name: committed {name} != current {}",
                cur.name
            ));
            continue;
        }
        if c.get("jobs").and_then(Json::as_f64) != Some(cur.jobs as f64) {
            bad.push(format!("{name}: job count differs from committed report"));
        }
        match c.get("checksum").and_then(Json::as_str) {
            Some(sum) if sum == cur.checksum => {}
            Some(sum) => bad.push(format!(
                "{name}: results checksum {sum} != current {} — simulator behaviour changed",
                cur.checksum
            )),
            None => bad.push(format!("{name}: committed report has no checksum")),
        }
        if let Some(jps) = c.get("jobs_per_sec_best").and_then(Json::as_f64) {
            let now = cur.jobs_per_sec_best();
            let ratio = now / jps;
            if !(1.0 / tol..=tol).contains(&ratio) {
                bad.push(format!(
                    "{name}: throughput {now:.1} jobs/s vs committed {jps:.1} \
                     (ratio {ratio:.2} outside tolerance {tol:.1})"
                ));
            }
        } else {
            bad.push(format!("{name}: committed report has no jobs_per_sec_best"));
        }
    }
    bad
}

/// Name of the bare campaign the observability overhead is priced against.
pub const OVERHEAD_BASE: &str = "fig5_arm";

/// Name of the metrics-enabled twin of [`OVERHEAD_BASE`].
pub const OVERHEAD_OBS: &str = "fig5_arm_obs";

/// Default ceiling on the observability overhead: the metrics-enabled
/// campaign may be at most 2% slower (in best-iteration jobs/sec) than
/// the bare one.
pub const OVERHEAD_TOL: f64 = 0.02;

/// Check the cost of the metrics layer in a fresh measurement: the
/// metrics-enabled fig. 5 campaign must keep at least `1 - tol` of the
/// bare campaign's best-iteration throughput, and — metrics being purely
/// observational — must reproduce its results checksum exactly. Returns
/// the violations (empty = pass); missing campaigns are themselves a
/// violation, so the check cannot silently pass on a renamed suite.
pub fn overhead_check(current: &[CampaignPerf], tol: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let find = |name: &str| current.iter().find(|c| c.name == name);
    let (base, obs) = match (find(OVERHEAD_BASE), find(OVERHEAD_OBS)) {
        (Some(b), Some(o)) => (b, o),
        (b, o) => {
            for (name, got) in [(OVERHEAD_BASE, b), (OVERHEAD_OBS, o)] {
                if got.is_none() {
                    bad.push(format!("overhead check: campaign `{name}` not measured"));
                }
            }
            return bad;
        }
    };
    if obs.checksum != base.checksum {
        bad.push(format!(
            "overhead check: `{}` checksum {} != `{}` checksum {} — metrics changed the science",
            OVERHEAD_OBS, obs.checksum, OVERHEAD_BASE, base.checksum
        ));
    }
    let ratio = obs.jobs_per_sec_best() / base.jobs_per_sec_best();
    if !ratio.is_finite() || ratio < 1.0 - tol {
        bad.push(format!(
            "overhead check: metrics-enabled throughput {:.1} jobs/s is {:.1}% below bare \
             {:.1} jobs/s (ratio {ratio:.4}, tolerance {:.1}%)",
            obs.jobs_per_sec_best(),
            (1.0 - ratio) * 100.0,
            base.jobs_per_sec_best(),
            tol * 100.0
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camp(name: &str, iter_ms: Vec<f64>) -> CampaignPerf {
        CampaignPerf {
            name: name.to_string(),
            jobs: 320,
            checksum: "deadbeefdeadbeef".to_string(),
            iter_ms,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn best_and_throughput() {
        let c = camp("x", vec![200.0, 100.0, 400.0]);
        assert_eq!(c.best_ms(), 100.0);
        assert_eq!(c.jobs_per_sec_best(), 3200.0);
        assert_eq!(c.percentile_ms(50.0), 200.0);
    }

    #[test]
    fn report_round_trips_through_gate() {
        let opts = BenchOptions::new(true);
        let camps = vec![camp("fig5_arm", vec![120.0, 130.0, 125.0])];
        let report = report_json(&opts, &camps);
        let parsed = Json::parse(&report.to_string_pretty()).expect("parse");
        assert!(gate(&parsed, &opts, &camps, 3.0).is_empty());
    }

    #[test]
    fn gate_rejects_structural_drift() {
        let opts = BenchOptions::new(true);
        let camps = vec![camp("fig5_arm", vec![120.0])];
        let report = Json::parse(&report_json(&opts, &camps).to_string_pretty()).unwrap();
        // Checksum drift is structural: tolerance cannot absorb it.
        let mut changed = camps.clone();
        changed[0].checksum = "0000000000000000".to_string();
        assert!(gate(&report, &opts, &changed, 1e9)
            .iter()
            .any(|v| v.contains("checksum")));
        // Throughput drift beyond tolerance trips the timing check.
        let mut slow = camps.clone();
        slow[0].iter_ms = vec![120.0 * 10.0];
        assert!(gate(&report, &opts, &slow, 3.0)
            .iter()
            .any(|v| v.contains("tolerance")));
        // Within tolerance passes.
        let mut ok = camps;
        ok[0].iter_ms = vec![120.0 * 1.5];
        assert!(gate(&report, &opts, &ok, 3.0).is_empty());
    }

    #[test]
    fn overhead_check_prices_the_metrics_layer() {
        // 1% slower with identical checksum: within the 2% default budget.
        let base = camp(OVERHEAD_BASE, vec![100.0]);
        let mut obs = camp(OVERHEAD_OBS, vec![101.0]);
        assert!(overhead_check(&[base.clone(), obs.clone()], OVERHEAD_TOL).is_empty());
        // 10% slower: over budget, and the message carries the ratio.
        obs.iter_ms = vec![111.2];
        let bad = overhead_check(&[base.clone(), obs.clone()], OVERHEAD_TOL);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("ratio 0.8993"), "{}", bad[0]);
        // A checksum mismatch is flagged even when timing is fine.
        obs.iter_ms = vec![100.0];
        obs.checksum = "0000000000000000".to_string();
        let bad = overhead_check(&[base, obs], OVERHEAD_TOL);
        assert!(bad.iter().any(|v| v.contains("changed the science")));
        // Missing campaigns cannot silently pass.
        let bad = overhead_check(&[], OVERHEAD_TOL);
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn reference_embeds_and_computes_speedup() {
        let opts = BenchOptions::new(true);
        let camps = vec![camp("fig5_arm", vec![100.0])];
        let r = Reference {
            label: "pre".to_string(),
            campaigns: vec![("fig5_arm".to_string(), 250.0, 1280.0)],
        };
        let mut report = Json::parse(&report_json(&opts, &camps).to_string_pretty()).unwrap();
        attach_reference(&mut report, &r).unwrap();
        // Attaching again replaces, not duplicates.
        attach_reference(&mut report, &r).unwrap();
        let speedup = report
            .get("reference")
            .and_then(|x| x.get("speedup_best"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((speedup - 2.5).abs() < 1e-12);
        let back = Reference::from_report(&report, "again").unwrap();
        assert_eq!(back.campaigns[0].0, "fig5_arm");
        assert_eq!(back.campaigns[0].1, 100.0);
    }
}
