//! `wmm_profile` — per-site stall profiles of whole campaigns.
//!
//! Runs a campaign with per-site observability enabled (every measurement
//! batch runs as sited `SimJob`s), folds the stall records into
//! a per-site profile keyed by stable site names, and reports where the
//! cycles went: fence-kind stall, store-buffer stall, exposed memory time,
//! residual compute.
//!
//! The per-site fold is cross-checked against the per-kind telemetry the
//! attribution campaigns gate: for every `(benchmark, fence kind)` cell,
//! summing per-site fence stall-ns over sites of the kind must reproduce
//! the `ExecStats` per-kind total (exact fence counts, cycles within float
//! reassociation). `--strict` (used in CI) exits non-zero on any
//! disagreement.
//!
//! Flags: `--campaign <id>` (one of `fig5-arm`, `fig9-kernel`, `jdk8-arm`,
//! `jdk9-arm`; default `fig5-arm`), `--quick`, `--threads N`,
//! `--progress`, `--strict`, `--flame <path>` (collapsed-stack export for
//! `flamegraph.pl`), `--trace <path>` (instruction-granular Chrome trace
//! of one exemplar run).
//!
//! Writes `results/runs/wmm_profile-<campaign>.json` (schema v3, per-site
//! telemetry included) for the `bench_gate` regression gate.

use wmm_bench::profiling::{kind_checks, profile_campaign, PROFILE_CAMPAIGNS};
use wmm_bench::{cli_config, cli_flag, cli_threads, runs_dir};
use wmm_harness::{
    instruction_trace_events, write_chrome_trace, ParallelExecutor, RunManifest, SimCache,
};
use wmmbench::report::Table;

/// The value following `name` on the command line, if present.
fn cli_opt(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let cfg = cli_config();
    let campaign = cli_opt("--campaign").unwrap_or_else(|| "fig5-arm".to_string());
    let exec = ParallelExecutor::new(cli_threads())
        .with_progress(cli_flag("--progress"))
        .with_cache(SimCache::in_memory());

    let Some(cp) = profile_campaign(&campaign, cfg, &exec) else {
        eprintln!("unknown campaign `{campaign}`; expected one of {PROFILE_CAMPAIGNS:?}");
        std::process::exit(2);
    };
    println!(
        "Per-site stall profile — campaign {}, {} benchmarks",
        cp.campaign,
        cp.benches.len()
    );

    let merged = cp.merged();
    let ns = |cycles: f64| cycles * cp.ns_per_cycle;

    // Top sites by total cycles (the merged profile iterates name-ordered;
    // re-rank by weight for display).
    let mut ranked: Vec<(&String, &wmm_obs::SiteProfile)> = merged.sites.iter().collect();
    ranked.sort_by(|a, b| {
        b.1.total_cycles
            .partial_cmp(&a.1.total_cycles)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(b.0))
    });
    let mut table = Table::new(&[
        "site",
        "fence",
        "fences",
        "fence_ns",
        "sb_ns",
        "mem_ns",
        "compute_ns",
        "total_ns",
    ]);
    for (name, sp) in ranked.iter().take(15) {
        table.row(vec![
            (*name).clone(),
            sp.fence.map_or("-", |k| k.mnemonic()).to_string(),
            sp.fences.to_string(),
            format!("{:.0}", ns(sp.fence_cycles)),
            format!("{:.0}", ns(sp.sb_stall_cycles)),
            format!("{:.0}", ns(sp.mem_cycles)),
            format!("{:.0}", ns(sp.compute_cycles())),
            format!("{:.0}", ns(sp.total_cycles)),
        ]);
    }
    println!("{}", table.markdown());
    println!(
        "{} sites, {:.0} ns total ({:.0} ns in fences)",
        merged.sites.len(),
        ns(merged.total_cycles()),
        ns(merged.sites.values().map(|s| s.fence_cycles).sum::<f64>()),
    );

    // Per-kind cross-check: the per-site fold must reproduce the per-kind
    // telemetry totals the attribution campaigns gate.
    let checks = kind_checks(&cp);
    let mut check_table = Table::new(&[
        "benchmark",
        "fence",
        "fences",
        "site_ns",
        "kind_ns",
        "rel_err",
        "ok",
    ]);
    let mut all_pass = true;
    for c in &checks {
        all_pass &= c.pass();
        check_table.row(vec![
            c.bench.clone(),
            c.kind.mnemonic().to_string(),
            c.site_fences.to_string(),
            format!("{:.2}", ns(c.site_cycles)),
            format!("{:.2}", ns(c.kind_cycles)),
            format!("{:.1e}", c.rel_err()),
            if c.pass() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", check_table.markdown());
    println!(
        "per-site vs per-kind cross-check over {} cells: {}",
        checks.len(),
        if all_pass { "PASS" } else { "FAIL" }
    );

    if let Some(path) = cli_opt("--flame") {
        std::fs::write(&path, wmm_obs::collapsed_stacks(&merged)).expect("write flamegraph");
        println!("wrote {path} (collapsed stacks; feed to flamegraph.pl)");
    }
    if let Some(path) = cli_opt("--trace") {
        let Some((stalls, map)) = cp.benches.first().and_then(|b| b.batch.exemplar.clone()) else {
            eprintln!("no exemplar run captured; nothing to trace");
            std::process::exit(2);
        };
        let bench = cp.benches[0].bench.clone();
        let events = instruction_trace_events(&stalls, cp.ns_per_cycle, |t, i| {
            match map.name(t as usize, i as usize) {
                Some(n) => format!("{bench}/{n}"),
                None => format!("{bench}/t{t}:#{i}"),
            }
        });
        write_chrome_trace(&path, &events).expect("write trace");
        println!("wrote {path} ({} instruction events)", events.len());
    }

    let mut manifest = RunManifest::new(format!("wmm_profile-{}", cp.campaign), cp.arch);
    for b in &cp.benches {
        manifest.push_cell(format!("{}/wall_ns", b.bench), b.batch.mean_wall_ns());
        manifest.push_cell(
            format!("{}/sites", b.bench),
            b.batch.profile.sites.len() as f64,
        );
    }
    for c in &checks {
        let stem = format!("{}/{}", c.bench, c.kind.mnemonic());
        manifest.push_cell(format!("{stem}/site_fence_ns"), ns(c.site_cycles));
        manifest.push_cell(format!("{stem}/kind_fence_ns"), ns(c.kind_cycles));
    }
    let mut telemetry = exec.telemetry();
    telemetry.sites = Some(cp.site_records());
    manifest.telemetry = Some(telemetry);
    let manifest_path = manifest.write(runs_dir()).expect("write manifest");
    println!("wrote {}", manifest_path.display());
    println!("[wmm-harness] {}", exec.summary());
    if !all_pass && cli_flag("--strict") {
        std::process::exit(1);
    }
}
