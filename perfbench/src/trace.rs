//! Tracing from the benchmark's side of the layer seams: spans recorded in
//! memory around calls into each layer, and self-time attribution over
//! them.
//!
//! Every span is opened on the calling thread, and spans on one thread
//! nest strictly, so the spans form a forest in start order. A span's self
//! time is its duration minus its direct children's; self times of all
//! spans sum to the roots' durations, which is what lets the per-layer
//! figures plus an `unattributed` remainder add up to the traced wall time.

use std::collections::BTreeMap;

use wmm_obs::{SpanGuard, SpanLog, SpanRecord};

/// Open a span named after its layer when tracing, nothing otherwise.
pub fn span<'l>(log: Option<&'l SpanLog>, layer: &'static str) -> Option<SpanGuard<'l>> {
    log.map(|l| l.span(layer, "layer"))
}

/// Per-name totals over a span forest, microseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// `name -> (self time, span count)`.
    pub by_name: BTreeMap<String, (f64, u64)>,
    /// Summed duration of the root spans (equals the sum of all self
    /// times).
    pub roots_us: f64,
}

impl Attribution {
    /// Self time of `name`, microseconds (0 when it never ran).
    pub fn self_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(us, _)| us)
    }

    /// Number of `name` spans.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, n)| n)
    }
}

/// Attribute self time over the spans of one thread.
pub fn attribute(spans: &[SpanRecord]) -> Attribution {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    let mut out = Attribution::default();
    // Open ancestors: (index into `order`, end time, children's time).
    let mut stack: Vec<(usize, f64, f64)> = vec![];
    let close = |stack: &mut Vec<(usize, f64, f64)>, out: &mut Attribution| {
        let (i, _, children) = stack.pop().expect("non-empty stack");
        let s = order[i];
        let entry = out.by_name.entry(s.name.clone()).or_default();
        entry.0 += s.dur_us - children;
        entry.1 += 1;
        match stack.last_mut() {
            Some(parent) => parent.2 += s.dur_us,
            None => out.roots_us += s.dur_us,
        }
    };
    for (i, s) in order.iter().enumerate() {
        while stack.last().is_some_and(|&(_, end, _)| end <= s.ts_us) {
            close(&mut stack, &mut out);
        }
        stack.push((i, s.ts_us + s.dur_us, 0.0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

/// The spans as a Trace Event Format document (for `chrome://tracing`).
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    wmm_harness::trace::to_chrome_json(&wmm_harness::trace::span_trace_events(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, ts: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "layer",
            ts_us: ts,
            dur_us: dur,
            tid: 0,
        }
    }

    #[test]
    fn self_times_sum_to_root_durations() {
        // item [0,100) holds image [10,30) and batch [40,90); a second
        // root [100,120) has no children.
        let spans = vec![
            rec("image", 10.0, 20.0),
            rec("batch", 40.0, 50.0),
            rec("item", 0.0, 100.0),
            rec("open", 100.0, 20.0),
        ];
        let a = attribute(&spans);
        assert_eq!(a.self_us("item"), 30.0);
        assert_eq!(a.self_us("image"), 20.0);
        assert_eq!(a.self_us("batch"), 50.0);
        assert_eq!(a.self_us("open"), 20.0);
        assert_eq!(a.roots_us, 120.0);
        let total: f64 = a.by_name.values().map(|&(us, _)| us).sum();
        assert_eq!(total, a.roots_us);
        assert_eq!(a.count("item"), 1);
        assert_eq!(a.count("missing"), 0);
    }

    #[test]
    fn live_spans_nest() {
        let log = SpanLog::new();
        {
            let _outer = span(Some(&log), "outer");
            let _inner = span(Some(&log), "inner");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        assert!(span(None, "untraced").is_none());
        let a = attribute(&log.records());
        assert_eq!(a.count("outer") + a.count("inner"), 2);
        let total = a.self_us("outer") + a.self_us("inner");
        assert!((total - a.roots_us).abs() < 1e-6);
    }
}
