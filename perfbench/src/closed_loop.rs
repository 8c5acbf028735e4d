//! The closed loop: one caller starts the next item only after the
//! previous one returned, pass after pass over a workload's item list.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wmm_obs::SpanLog;

/// Per-layer sums over the traced passes, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Add `v` to a layer sum.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// One benchmark workload: an item list run pass after pass.
///
/// A pass is what a user runs once: one campaign over the sweeps, one
/// synthesis run over the bundles, one differential over the tests. Items
/// of a pass are identical from pass to pass, so each pass after the first
/// re-checks the first one's outputs and the deterministic per-layer counts
/// are the same whichever number of passes a run completes.
pub trait Workload {
    /// Items in one pass.
    fn pass_len(&self) -> usize;

    /// Start a pass; `log` is set on traced passes.
    fn begin_pass(&mut self, _log: Option<&SpanLog>) {}

    /// Run item `i` of the current pass and keep its output for
    /// [`Workload::check`]; a traced item (`log` set) adds its layer
    /// counters to `layers`. Returns the work units it completed (sweep
    /// jobs, bundled tests, test x model checks).
    fn run_item(&mut self, i: usize, log: Option<&SpanLog>, layers: &mut Layers) -> u64;

    /// Finish the pass; a traced pass adds its layer counters to `layers`.
    fn end_pass(&mut self, _log: Option<&SpanLog>, _layers: &mut Layers) {}

    /// Check every output kept so far; returns how many items failed.
    fn check(&mut self) -> u64;
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Item latencies of the untraced passes, ms.
    pub item_ms: Vec<f64>,
    /// Wall time of each untraced pass, s.
    pub pass_s: Vec<f64>,
    /// Work units completed in the untraced passes.
    pub units: u64,
    /// Wall time of the traced passes, s.
    pub traced_s: f64,
    /// Traced passes run.
    pub traced_passes: u64,
    /// Items run, traced or not.
    pub items: u64,
    /// Layer sums over the traced passes.
    pub layers: Layers,
}

/// Untraced items a run completes at least.
pub const MIN_ITEMS: usize = 100;

/// Untraced passes a run completes at least, so each item's median latency
/// is a median of three or more.
pub const MIN_PASSES: usize = 3;

/// Run whole passes until `seconds` have elapsed. Untraced, at least
/// [`MIN_ITEMS`] items in [`MIN_PASSES`] passes complete; with `trace`,
/// passes alternate untraced / traced (ending on a traced one), so the
/// tracing overhead compares passes taken under the same conditions.
pub fn measure(w: &mut dyn Workload, seconds: u64, trace: bool, log: &SpanLog) -> Measured {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut m = Measured::default();
    for pass in 0u64.. {
        let traced = trace && pass % 2 == 1;
        let log = traced.then_some(log);
        let t0 = Instant::now();
        w.begin_pass(log);
        for i in 0..w.pass_len() {
            let t = Instant::now();
            let units = w.run_item(i, log, &mut m.layers);
            if !traced {
                m.item_ms.push(t.elapsed().as_secs_f64() * 1e3);
                m.units += units;
            }
            m.items += 1;
        }
        w.end_pass(log, &mut m.layers);
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            m.traced_s += wall;
            m.traced_passes += 1;
        } else {
            m.pass_s.push(wall);
        }
        let done = if trace {
            traced
        } else {
            m.item_ms.len() >= MIN_ITEMS && m.pass_s.len() >= MIN_PASSES
        };
        if start.elapsed() >= budget && done {
            break;
        }
    }
    m
}
