//! `wmm-perfbench`: the repository benchmark.
//!
//! One process runs one workload as a closed loop with a single caller:
//! the next item (a sweep, a bundle or a test) starts only after the
//! previous one returned, and inside each item the work fans out over the
//! same worker count the campaign binaries resolve to. Every output is
//! checked; the last line of standard output is one JSON object with the
//! check verdict and the metrics. See `README.md` next to this crate.

mod closed_loop;
mod oracle;
mod stats;
mod sweeps;
mod trace;
mod wps;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use wmm_harness::resolve_threads;
use wmm_obs::SpanLog;
use wmmbench::json::Json;

use closed_loop::{measure, Measured, Workload};
use trace::Attribution;

const USAGE: &str =
    "usage: wmm-perfbench --workload <sweep_cold|sweep_warm|wps_synth|oracle_diff> \
--seed <n> --seconds <s> --trace <0|1>
       wmm-perfbench compare <base-record.json> <new-record.json>
       wmm-perfbench states";

/// Where records, traces and per-run temporary files go, relative to the
/// working directory (the repository root).
const OUT_DIR: &str = ".bench_out";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SweepCold,
    SweepWarm,
    WpsSynth,
    OracleDiff,
}

impl Kind {
    /// Workers an item fans out over. `wps_synth` runs one: its items are
    /// sub-millisecond `synthesize_wps` calls that start a scoped pool twice
    /// per call, and on a host whose cores are shared with other tenants
    /// that pool's cost is how soon the host wakes the second core, not
    /// what the program does (over five seeds its rate spread 24% with two
    /// workers on a 2-vCPU VM, 5% with one).
    fn threads(self) -> usize {
        match self {
            Kind::WpsSynth => 1,
            _ => resolve_threads(None),
        }
    }

    const ALL: [Kind; 4] = [
        Kind::SweepCold,
        Kind::SweepWarm,
        Kind::WpsSynth,
        Kind::OracleDiff,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::SweepCold => "sweep_cold",
            Kind::SweepWarm => "sweep_warm",
            Kind::WpsSynth => "wps_synth",
            Kind::OracleDiff => "oracle_diff",
        }
    }
}

/// A checked command line.
#[derive(Debug, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-run temporary directory, removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare(&args[1..]),
        Some("states") if args.len() == 1 => {
            print!("{}", oracle::state_listing(resolve_threads(None)));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    match parse_args(&args) {
        Ok(a) => run(&a, process_start),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(a: &Args, process_start: Instant) -> ExitCode {
    let threads = a.kind.threads();
    let out = PathBuf::from(OUT_DIR);
    let run_dir = RunDir(out.join(format!("run-{}-{}", a.kind.name(), std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&run_dir.0) {
        eprintln!("cannot create {}: {e}", run_dir.0.display());
        return ExitCode::FAILURE;
    }

    // Set up several times; the first is timed from process start.
    let mut setup_s = vec![];
    let mut calibrate_ms = 0.0;
    let mut workload: Option<Box<dyn Workload>> = None;
    for k in 0..SETUPS {
        drop(workload.take());
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let dir = run_dir.0.join(format!("setup{k}"));
        let built: Box<dyn Workload> = match a.kind {
            Kind::SweepCold | Kind::SweepWarm => {
                let s =
                    sweeps::Sweeps::setup(a.seed, threads, &dir, &out, a.kind == Kind::SweepWarm);
                calibrate_ms = s.calibrate_ms;
                Box::new(s)
            }
            Kind::WpsSynth => Box::new(wps::Wps::setup(a.seed, threads)),
            Kind::OracleDiff => Box::new(oracle::Oracle::setup(a.seed, threads)),
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(built);
    }
    let mut w = workload.expect("at least one set-up");

    let log = SpanLog::new();
    let m = measure(&mut *w, a.seconds, a.trace, &log);
    let failed = w.check();
    drop(w);

    let metrics = if a.trace {
        let spans = log.records();
        let attribution = trace::attribute(&spans);
        let path = out.join(format!("{}-seed{}.trace.json", a.kind.name(), a.seed));
        if let Err(e) = std::fs::write(&path, trace::chrome_json(&spans)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        layer_metrics(&m, &attribution, threads, calibrate_ms)
    } else {
        end_to_end_metrics(&m, &setup_s)
    };
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let record = Json::obj(vec![
        ("host", host_facts(threads, a.seed)),
        ("workload", Json::Str(a.kind.name().into())),
        ("seconds", Json::Num(a.seconds as f64)),
        ("trace", Json::Bool(a.trace)),
        ("items", Json::Num(m.items as f64)),
        ("traced_passes", Json::Num(m.traced_passes as f64)),
        (
            "untraced_pass_s",
            Json::Arr(m.pass_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("failed", Json::Num(failed as f64)),
        (
            "fail_frac",
            Json::Num(failed as f64 / m.items.max(1) as f64),
        ),
        ("metrics", metrics_json.clone()),
    ]);
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        a.kind.name(),
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_string_pretty()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "{} seed {}: {} items in {} + {} passes, {failed} failed, record {}",
        a.kind.name(),
        a.seed,
        m.items,
        m.pass_s.len(),
        m.traced_passes,
        path.display()
    );
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(m.items as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics_json),
        ])
    );
    ExitCode::SUCCESS
}

/// The user-visible metrics, from the untraced passes. Each item's latency
/// is its median over the run's passes ([`stats::item_medians`]): on a
/// shared host, other tenants slow some item of nearly every pass, so a
/// pass time or a percentile over all samples moves with them while the
/// per-item medians hold. A typical pass is those medians plus the median
/// time a pass spends outside its items (opening the cache on sweeps);
/// rates are per typical pass and percentiles are over the item medians.
fn end_to_end_metrics(m: &Measured, setup_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let passes = m.pass_s.len();
    let per_pass = m.item_ms.len() / passes;
    let item_ms = stats::item_medians(&m.item_ms, per_pass);
    let outside_s: Vec<f64> = m
        .pass_s
        .iter()
        .zip(m.item_ms.chunks(per_pass))
        .map(|(wall, items)| wall - items.iter().sum::<f64>() / 1e3)
        .collect();
    let pass_s = item_ms.iter().sum::<f64>() / 1e3 + stats::median(&outside_s);
    let mut sorted = item_ms;
    sorted.sort_by(f64::total_cmp);
    vec![
        ("items_per_s", per_pass as f64 / pass_s, "1/s"),
        ("work_per_s", m.units as f64 / passes as f64 / pass_s, "1/s"),
        ("item_p50_ms", stats::percentile(&sorted, 50.0), "ms"),
        ("item_p90_ms", stats::percentile(&sorted, 90.0), "ms"),
        ("setup_s", stats::median(setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics, per traced pass. Self times of the layer spans plus
/// `trace.unattributed_ms` sum to `trace.wall_ms`; the sweep batch's self
/// time is split into the simulator's share (`sim.wall_ms`, its busy time
/// spread over the workers) and the harness's.
fn layer_metrics(
    m: &Measured,
    a: &Attribution,
    threads: usize,
    calibrate_ms: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let passes = m.traced_passes.max(1) as f64;
    let sum = |name: &str| m.layers.get(name).copied().unwrap_or(0.0) / passes;
    let ms = |name: &str| a.self_us(name) / 1e3 / passes;
    let count = |name: &str| a.count(name) as f64 / passes;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };

    let wall_ms = m.traced_s * 1e3 / passes;
    // The item spans' own self time is benchmark glue, not a layer.
    let attributed = a.roots_us / 1e3 / passes - ms("bench.bundle") - ms("bench.test");
    let busy = sum("sim.busy_ms");
    let sim_wall = busy / threads as f64;
    let batch = ms("harness.batch");
    let sweep_self = ms("core.sweep");
    let (hits, misses) = (sum("harness.cache_hits"), sum("harness.cache_misses"));
    let (solve, nodes) = (ms("analyze.solve"), sum("analyze.solver_nodes"));
    let (explore, states) = (ms("litmus.explore"), sum("litmus.states_visited"));
    let untraced_pass_s = m.pass_s.iter().sum::<f64>() / m.pass_s.len().max(1) as f64;
    vec![
        ("workloads.image_ms", ms("workloads.image"), "ms"),
        ("workloads.images", count("workloads.image"), "count"),
        ("costfn.calibrate_ms", calibrate_ms, "ms"),
        ("core.sweep_self_ms", sweep_self, "ms"),
        ("core.instrs_linked", sum("core.instrs_linked"), "count"),
        (
            "core.link_ns_per_instr",
            ratio(sweep_self * 1e6, sum("core.instrs_linked")),
            "ns",
        ),
        ("harness.batch_ms", batch, "ms"),
        ("harness.batch_self_ms", batch - sim_wall, "ms"),
        ("harness.batches", sum("harness.batches"), "count"),
        (
            "harness.worker_idle_frac",
            if batch > 0.0 {
                1.0 - busy / (threads as f64 * batch)
            } else {
                0.0
            },
            "ratio",
        ),
        ("harness.cache_hits", hits, "count"),
        ("harness.cache_misses", misses, "count"),
        (
            "harness.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "harness.cache_disk_bytes",
            sum("harness.cache_disk_bytes"),
            "bytes",
        ),
        ("harness.cache_open_ms", ms("harness.cache_open"), "ms"),
        (
            "harness.cache_lock_wait_ms",
            sum("harness.cache_lock_wait_ms"),
            "ms",
        ),
        ("sim.jobs", sum("sim.jobs"), "count"),
        ("sim.busy_ms", busy, "ms"),
        ("sim.wall_ms", sim_wall, "ms"),
        (
            "sim.ns_per_instr",
            ratio(busy * 1e6, sum("sim.instrs")),
            "ns",
        ),
        ("sim.simulated_s", sum("sim.simulated_s"), "s"),
        ("sim.fences", sum("sim.fences"), "count"),
        ("sim.sb_stalls", sum("sim.sb_stalls"), "count"),
        ("sim.cost_loop_iters", sum("sim.cost_loop_iters"), "count"),
        ("sim.dram_accesses", sum("sim.dram_accesses"), "count"),
        (
            "sim.coherence_transfers",
            sum("sim.coherence_transfers"),
            "count",
        ),
        ("analyze.enum_ms", ms("analyze.enum"), "ms"),
        ("analyze.solve_ms", solve, "ms"),
        ("analyze.cycles", sum("analyze.cycles"), "count"),
        ("analyze.components", sum("analyze.components"), "count"),
        ("analyze.solver_nodes", nodes, "count"),
        ("analyze.exact_solves", sum("analyze.exact_solves"), "count"),
        ("analyze.ns_per_node", ratio(solve * 1e6, nodes), "ns"),
        ("litmus.explore_ms", explore, "ms"),
        ("litmus.states_visited", states, "count"),
        ("litmus.ns_per_state", ratio(explore * 1e6, states), "ns"),
        ("axiom.check_ms", ms("axiom.check"), "ms"),
        ("axiom.candidates", sum("axiom.candidates"), "count"),
        (
            "axiom.consistent_ratio",
            ratio(sum("axiom.consistent"), sum("axiom.candidates")),
            "ratio",
        ),
        ("trace.wall_ms", wall_ms, "ms"),
        ("trace.unattributed_ms", wall_ms - attributed, "ms"),
        (
            "trace.overhead_frac",
            ratio(wall_ms / 1e3, untraced_pass_s) - 1.0,
            "ratio",
        ),
    ]
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What a result depends on besides the code: recorded with every result.
fn host_facts(threads: usize, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(threads as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Load a run record written by [`run`].
fn load_record(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print each metric of `new` as a ratio to `base`. Records taken with a
/// different thread count, host size or workload do not compare: that is
/// a usage error (exit 2), not a ratio.
fn compare(args: &[String]) -> ExitCode {
    let [base, new] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (base, new) = match (load_record(Path::new(base)), load_record(Path::new(new))) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = comparable(&base, &new) {
        eprintln!("usage error: {e}");
        return ExitCode::from(2);
    }
    let metrics = |r: &Json| match r.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.clone(),
        _ => vec![],
    };
    let base_metrics = metrics(&base);
    for (name, v) in metrics(&new) {
        let value = |j: &Json| j.get("value").and_then(Json::as_f64);
        if let (Some(n), Some(b)) = (
            value(&v),
            base_metrics
                .iter()
                .find(|(k, _)| *k == name)
                .and_then(|(_, j)| value(j)),
        ) {
            println!("{name:32} {b:>14.4} {n:>14.4} {:>8.4}", n / b);
        }
    }
    ExitCode::SUCCESS
}

/// Whether two records were taken under the same structural conditions.
fn comparable(base: &Json, new: &Json) -> Result<(), String> {
    for key in ["threads", "nproc"] {
        let get = |r: &Json| {
            r.get("host")
                .and_then(|h| h.get(key))
                .and_then(Json::as_f64)
        };
        if get(base) != get(new) {
            return Err(format!(
                "records differ in {key} ({:?} vs {:?})",
                get(base),
                get(new)
            ));
        }
    }
    let workload = |r: &Json| r.get("workload").and_then(Json::as_str).map(str::to_string);
    if workload(base) != workload(new) {
        return Err("records are of different workloads".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_is_checked() {
        assert_eq!(
            parse_args(&args(
                "--workload wps_synth --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Args {
                kind: Kind::WpsSynth,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload wps_synth --seed x --seconds 1 --trace 0",
            "--workload wps_synth --seed 1 --seconds 0 --trace 0",
            "--workload wps_synth --seed 1 --seconds 1 --trace 2",
            "--workload wps_synth --seed 1 --seconds 1",
            "--workload wps_synth --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    fn record(threads: f64, workload: &str) -> Json {
        Json::obj(vec![
            (
                "host",
                Json::obj(vec![
                    ("nproc", Json::Num(2.0)),
                    ("threads", Json::Num(threads)),
                ]),
            ),
            ("workload", Json::Str(workload.into())),
        ])
    }

    #[test]
    fn records_of_other_thread_counts_do_not_compare() {
        assert!(comparable(&record(2.0, "wps_synth"), &record(2.0, "wps_synth")).is_ok());
        let err = comparable(&record(2.0, "wps_synth"), &record(1.0, "wps_synth"));
        assert!(err.expect_err("thread mismatch").contains("threads"));
        assert!(comparable(&record(2.0, "wps_synth"), &record(2.0, "sweep_cold")).is_err());
    }
}
