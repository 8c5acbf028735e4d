//! `wps_synth`: whole-program fence synthesis over the generated
//! differential corpus, packed into parallel-composition bundles.
//!
//! The seed permutes the corpus before packing, so which tests share a
//! bundle (and hence each bundle's conflict components and cycle set)
//! changes with the seed while the corpus as a whole does not. Each item
//! is one `synthesize_wps` call with a fresh cycle cache, as a user
//! synthesizing one program would run it.

use wmm_analyze::gen::differential_corpus;
use wmm_analyze::{
    analyze, apply_to_graph, critical_cycles_wps, synthesize_wps, CostModel, CycleCache,
    Instrument, ProgramGraph, SynthConfig, SynthError, WpsConfig, WpsReport, WpsTier,
};
use wmm_bench::wps::{MAX_BUNDLE_ACCESSES, MAX_BUNDLE_THREADS, WPS_MODEL};
use wmm_obs::SpanLog;

use crate::closed_loop::{add, Layers, Workload};
use crate::stats::SplitMix;
use crate::trace::span;

/// One packed bundle: the union graph and the corpus tests it holds.
pub struct Bundle {
    /// Union of the constituent tests' graphs.
    pub graph: ProgramGraph,
    /// Constituent test names, in packing order.
    pub names: Vec<String>,
}

/// Permute the differential corpus with `seed` and pack it greedily into
/// bundles under the whole-program thread and access caps.
pub fn pack(seed: u64) -> Vec<Bundle> {
    let mut corpus = differential_corpus();
    SplitMix::new(seed).shuffle(&mut corpus);
    let mut bundles = vec![];
    let mut cur: Vec<(String, ProgramGraph)> = vec![];
    let (mut threads, mut accesses) = (0, 0);
    let flush = |cur: &mut Vec<(String, ProgramGraph)>, bundles: &mut Vec<Bundle>| {
        if cur.is_empty() {
            return;
        }
        let label = format!("bundle{:03}", bundles.len());
        let graph = {
            let parts: Vec<&ProgramGraph> = cur.iter().map(|(_, g)| g).collect();
            ProgramGraph::disjoint_union(&label, &parts)
        };
        let names = cur.drain(..).map(|(n, _)| n).collect();
        bundles.push(Bundle { graph, names });
    };
    for test in &corpus {
        let g = ProgramGraph::from_litmus(test);
        let (nt, na) = (g.threads.len(), g.accesses.len());
        if threads + nt > MAX_BUNDLE_THREADS || accesses + na > MAX_BUNDLE_ACCESSES {
            flush(&mut cur, &mut bundles);
            (threads, accesses) = (0, 0);
        }
        threads += nt;
        accesses += na;
        cur.push((test.name.clone(), g));
    }
    flush(&mut cur, &mut bundles);
    bundles
}

/// The part of a synthesis result the output check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesized {
    /// The placed instruments.
    pub instruments: Vec<Instrument>,
    /// Priced cost, by bits.
    pub cost_bits: u64,
}

/// Whether a bundle's synthesis passes: it succeeded, matches the first
/// synthesis of the same bundle, and `protected` says re-analysing the
/// program with the first placement applied finds no unprotected cycle.
pub fn bundle_passes(
    out: &Result<Synthesized, SynthError>,
    first: &Result<Synthesized, SynthError>,
    protected: bool,
) -> bool {
    matches!((out, first), (Ok(a), Ok(b)) if a == b) && protected
}

/// Re-analyse `g` with `placement` applied: no cycle may stay unprotected.
pub fn placement_protects(g: &ProgramGraph, placement: &[Instrument]) -> bool {
    analyze(&apply_to_graph(g, placement), WPS_MODEL).protected()
}

/// The synthesis workload's state.
pub struct Wps {
    bundles: Vec<Bundle>,
    costs: CostModel,
    wps: WpsConfig,
    /// The first pass's synthesis of each bundle.
    first: Vec<Result<Synthesized, SynthError>>,
    /// Per bundle: runs after the first pass, and how many differed.
    reruns: Vec<(u64, u64)>,
}

impl Wps {
    /// Pack the corpus for `seed`; enumeration fans out over `threads`.
    pub fn setup(seed: u64, threads: usize) -> Wps {
        let bundles = pack(seed);
        Wps {
            reruns: vec![(0, 0); bundles.len()],
            first: vec![],
            bundles,
            costs: CostModel::priced(wmm_bench::streams::NOMINAL_K),
            wps: WpsConfig {
                threads: Some(threads),
                ..WpsConfig::default()
            },
        }
    }

    /// The packed bundles.
    #[cfg(test)]
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Synthesize bundle `i` with a fresh cycle cache. Traced, the cache
    /// is first filled by a timed `critical_cycles_wps` call, so the
    /// `synthesize_wps` span that follows times the solve.
    pub fn synthesize(&self, i: usize, log: Option<&SpanLog>) -> Result<WpsReport, SynthError> {
        let g = &self.bundles[i].graph;
        let cache = CycleCache::in_memory();
        if log.is_some() {
            let _s = span(log, "analyze.enum");
            std::hint::black_box(critical_cycles_wps(g, self.wps.threads, Some(&cache)));
        }
        let _s = span(log, "analyze.solve");
        synthesize_wps(
            g,
            SynthConfig::for_model(WPS_MODEL),
            &self.costs,
            &self.wps,
            Some(&cache),
        )
    }
}

impl Workload for Wps {
    fn pass_len(&self) -> usize {
        self.bundles.len()
    }

    fn run_item(&mut self, i: usize, log: Option<&SpanLog>, layers: &mut Layers) -> u64 {
        let report = {
            let _s = span(log, "bench.bundle");
            self.synthesize(i, log)
        };
        let out = report.map(|r| {
            if log.is_some() {
                add(layers, "analyze.cycles", r.cycles as f64);
                add(layers, "analyze.components", r.components as f64);
                add(layers, "analyze.solver_nodes", r.nodes as f64);
                let exact = r.tier == WpsTier::Exact;
                add(layers, "analyze.exact_solves", f64::from(u8::from(exact)));
            }
            Synthesized {
                instruments: r.placement.instruments,
                cost_bits: r.placement.cost_ns.to_bits(),
            }
        });
        // Later passes are compared on the spot, so memory does not grow
        // with the number of passes a run completes.
        if self.first.len() < self.bundles.len() {
            self.first.push(out);
        } else {
            let differs = !bundle_passes(&out, &self.first[i], true);
            self.reruns[i].0 += 1;
            self.reruns[i].1 += u64::from(differs);
        }
        self.bundles[i].names.len() as u64
    }

    fn check(&mut self) -> u64 {
        let mut failed = 0;
        for (i, first) in self.first.iter().enumerate() {
            let protected = match first {
                Ok(s) => placement_protects(&self.bundles[i].graph, &s.instruments),
                Err(_) => false,
            };
            let (reruns, differed) = self.reruns[i];
            let bad = if bundle_passes(first, first, protected) {
                differed
            } else {
                1 + reruns
            };
            if bad > 0 {
                let names = &self.bundles[i].names;
                eprintln!("wps_synth: bundle {i} of tests {names:?} failed {bad} time(s)");
                failed += bad;
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;

    fn names(b: &[Bundle]) -> Vec<&String> {
        b.iter().flat_map(|b| &b.names).collect()
    }

    /// Checksum over the first bundles' placements.
    fn checksum(w: &Wps) -> u64 {
        let mut h = Fnv::default();
        for i in 0..3 {
            let r = w.synthesize(i, None).expect("bundle synthesis");
            h.bytes(format!("{:?}", r.placement.instruments).as_bytes());
            h.f64(r.placement.cost_ns);
        }
        h.finish()
    }

    #[test]
    fn every_corpus_test_is_packed_under_the_caps() {
        let w = Wps::setup(1, 1);
        let packed = names(w.bundles());
        assert_eq!(packed.len(), differential_corpus().len());
        assert!(w.pass_len() >= 100, "{} bundles", w.pass_len());
        for b in w.bundles() {
            assert!(b.graph.threads.len() <= MAX_BUNDLE_THREADS);
            assert!(b.graph.accesses.len() <= MAX_BUNDLE_ACCESSES);
        }
    }

    #[test]
    fn seed_sets_bundles_and_checksum() {
        let (a, b, c) = (Wps::setup(1, 1), Wps::setup(1, 1), Wps::setup(2, 1));
        assert_eq!(names(a.bundles()), names(b.bundles()));
        assert_ne!(names(a.bundles()), names(c.bundles()));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
    }

    #[test]
    fn corrupted_placement_fails_its_check() {
        let w = Wps::setup(5, 1);
        let (i, r) = (0..w.pass_len())
            .map(|i| (i, w.synthesize(i, None).expect("bundle synthesis")))
            .find(|(_, r)| !r.placement.instruments.is_empty())
            .expect("some bundle needs instruments");
        let g = &w.bundles()[i].graph;
        let good = Ok(Synthesized {
            instruments: r.placement.instruments.clone(),
            cost_bits: r.placement.cost_ns.to_bits(),
        });
        assert!(bundle_passes(
            &good,
            &good,
            placement_protects(g, &r.placement.instruments)
        ));

        let mut dropped = r.placement.instruments.clone();
        dropped.pop();
        assert!(!placement_protects(g, &dropped));
        let bad = Ok(Synthesized {
            instruments: dropped,
            cost_bits: r.placement.cost_ns.to_bits(),
        });
        assert!(!bundle_passes(&bad, &good, true));
        assert!(!bundle_passes(
            &Err(SynthError::Diverged { rounds: 1 }),
            &good,
            true
        ));
    }
}
