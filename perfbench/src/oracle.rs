//! `oracle_diff`: the dual-oracle differential. Each item is one litmus
//! test decided by the operational explorer and the axiomatic checker
//! under every model, fanned out over the worker pool; the two finals
//! sets must be equal.
//!
//! The test set is the hand suite plus a seeded sample of the generated
//! differential corpus, stratified by thread and store count so 3- and
//! 4-thread shapes are always in. Explorer cost within one stratum spans
//! up to three orders of magnitude and grows with the states it visits,
//! so a plain random sample would make a pass's cost (and its latency
//! percentiles) a lottery. The sample is therefore cost matched: each
//! stratum is ordered by explorer state count (recorded in
//! `explorer_states.txt`), cut into groups of [`GROUP`] neighbours, and
//! each slot of an evenly spaced grid over a quantile band of that order
//! draws one member of its group. The seed picks the members; the cost
//! profile of a pass stays put.

use std::collections::{BTreeSet, HashMap};

use wmm_analyze::gen::differential_corpus;
use wmm_axiom::{axiomatic_outcomes, AxOutcomeSet};
use wmm_harness::run_keyed;
use wmm_litmus::explore::{explore, OutcomeSet};
use wmm_litmus::ops::{LitmusTest, ModelKind};
use wmm_litmus::suite::full_suite;
use wmm_obs::SpanLog;

use crate::closed_loop::{add, Layers, Workload};
use crate::stats::SplitMix;
use crate::trace::span;

/// The models every test is decided under.
pub const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// Cost-matched draws pick one of this many state-count neighbours.
pub const GROUP: usize = 3;

/// Explorer states (summed over [`MODELS`]) of every differential-corpus
/// test, one `name states` line each. Regenerate with the benchmark's
/// `states` command.
const STATES: &str = include_str!("../explorer_states.txt");

/// One draw of the sample: `(threads, stores, tests, lo, hi)` draws
/// `tests` tests whose grid spans the `lo..hi` quantile band of the
/// stratum's state-count order.
type Draw = (usize, usize, usize, f64, f64);

/// The draws of a pass: with the hand suite, 100 tests. Latency
/// percentiles are only as steady as the tests at their ranks, so the
/// pass is laid out in cost order around them: the hand suite and the
/// cheap strata (about the 43 cheapest), then a block of 20 3-thread
/// 3-store tests from the plateau in the middle of their stratum's cost
/// curve (about 4,100 states, 30 ms: it holds the p50), 4-thread 2-store
/// and costlier 3-thread tests, 12 3-thread 4-store tests from the
/// plateau around their stratum median (about 22,700 states, 230 ms: it
/// holds the p90), and two 4-thread 3-store tests from the plateau at
/// their median (about 68,600 states, 1 s, which also sets the peak
/// memory). Each stratum's tail (up to 30 s for one test) is left out:
/// one such test would outweigh the rest of a pass.
const PLAN: [Draw; 9] = [
    (2, 2, 5, 0.0, 1.0),
    (2, 3, 4, 0.0, 1.0),
    (2, 4, 4, 0.0, 1.0),
    (3, 2, 3, 0.0, 1.0),
    (3, 3, 20, 0.44, 0.52),
    (4, 2, 10, 0.12, 0.44),
    (3, 3, 10, 0.6, 0.8),
    (3, 4, 12, 0.43, 0.50),
    (4, 3, 2, 0.415, 0.46),
];

/// A finals set in canonical (ordered) form.
pub type Finals = BTreeSet<(Vec<Vec<u32>>, Vec<u32>)>;

/// The recorded state counts, by test name.
pub fn state_table() -> HashMap<&'static str, u64> {
    STATES
        .lines()
        .filter_map(|l| {
            let (name, n) = l.rsplit_once(' ')?;
            Some((name, n.parse().ok()?))
        })
        .collect()
}

fn stores(t: &LitmusTest) -> usize {
    t.threads.iter().flatten().filter(|o| o.is_store()).count()
}

/// The test list for `seed`: the hand suite, then each stratum's draw.
pub fn select(seed: u64) -> Vec<LitmusTest> {
    let mut rng = SplitMix::new(seed);
    let table = state_table();
    let corpus = differential_corpus();
    let mut tests: Vec<LitmusTest> = full_suite().into_iter().map(|e| e.test).collect();
    for (threads, st, k, lo, hi) in PLAN {
        let mut stratum: Vec<&LitmusTest> = corpus
            .iter()
            .filter(|t| t.threads.len() == threads && stores(t) == st)
            .collect();
        // Tests missing from the table sort last, outside every band.
        stratum.sort_by_key(|t| {
            let n = table.get(t.name.as_str()).copied().unwrap_or(u64::MAX);
            (n, &t.name)
        });
        let groups: Vec<&[&LitmusTest]> = stratum.chunks(GROUP).collect();
        for j in 0..k {
            let q = lo + (j as f64 + 0.5) / k as f64 * (hi - lo);
            let g = groups[(q * groups.len() as f64) as usize];
            tests.push(g[rng.below(g.len())].clone());
        }
    }
    tests
}

/// Whether one test passes: under every model the two oracles reached the
/// same finals, and these equal the first decision of the same test.
pub fn test_passes(op: &[Finals], ax: &[Finals], first_op: &[Finals]) -> bool {
    op.len() == MODELS.len() && op == ax && op == first_op
}

/// The explorer's state count for every differential-corpus test, as
/// `name states` lines in corpus order (the cost key of the sample).
/// Explores the whole corpus under every model: minutes of work.
pub fn state_listing(threads: usize) -> String {
    let corpus = differential_corpus();
    let counts = run_keyed(&corpus, threads, |t| {
        MODELS
            .iter()
            .map(|&m| explore(t, m).states_visited as u64)
            .sum::<u64>()
    });
    corpus
        .iter()
        .zip(counts)
        .map(|(t, n)| format!("{} {n}\n", t.name))
        .collect()
}

/// The differential workload's state.
pub struct Oracle {
    tests: Vec<LitmusTest>,
    threads: usize,
    /// The first pass's canonical `(explorer, axiomatic)` finals per model.
    first: Vec<(Vec<Finals>, Vec<Finals>)>,
    /// Per test: runs after the first pass, and how many differed.
    reruns: Vec<(u64, u64)>,
}

impl Oracle {
    /// Draw the test list for `seed`; each test's models fan out over
    /// `threads` workers.
    pub fn setup(seed: u64, threads: usize) -> Oracle {
        let tests = select(seed);
        Oracle {
            reruns: vec![(0, 0); tests.len()],
            first: vec![],
            tests,
            threads,
        }
    }

    /// The drawn tests.
    #[cfg(test)]
    pub fn tests(&self) -> &[LitmusTest] {
        &self.tests
    }

    /// Decide test `i` with both oracles under every model.
    pub fn decide(&self, i: usize, log: Option<&SpanLog>) -> (Vec<OutcomeSet>, Vec<AxOutcomeSet>) {
        let test = &self.tests[i];
        let op = {
            let _s = span(log, "litmus.explore");
            run_keyed(&MODELS, self.threads, |&m| explore(test, m))
        };
        let ax = {
            let _s = span(log, "axiom.check");
            run_keyed(&MODELS, self.threads, |&m| axiomatic_outcomes(test, m))
        };
        (op, ax)
    }
}

/// The canonical finals of both oracles, per model.
pub fn finals(op: &[OutcomeSet], ax: &[AxOutcomeSet]) -> (Vec<Finals>, Vec<Finals>) {
    (
        op.iter().map(OutcomeSet::canonical).collect(),
        ax.iter().map(|a| a.finals.clone()).collect(),
    )
}

impl Workload for Oracle {
    fn pass_len(&self) -> usize {
        self.tests.len()
    }

    fn run_item(&mut self, i: usize, log: Option<&SpanLog>, layers: &mut Layers) -> u64 {
        let (op, ax) = {
            let _s = span(log, "bench.test");
            self.decide(i, log)
        };
        if log.is_some() {
            let states = op.iter().map(|o| o.states_visited as f64).sum();
            add(layers, "litmus.states_visited", states);
            add(
                layers,
                "axiom.candidates",
                ax.iter().map(|a| a.candidates as f64).sum(),
            );
            add(
                layers,
                "axiom.consistent",
                ax.iter().map(|a| a.consistent as f64).sum(),
            );
        }
        // Keep copies made here rather than the workers' sets: a retained
        // worker allocation would pin that worker's heap, and the peak
        // memory would depend on which worker ran the largest tests. Later
        // passes are compared on the spot, so memory does not grow with
        // the number of passes a run completes.
        let (op, ax) = finals(&op, &ax);
        if self.first.len() < self.tests.len() {
            self.first.push((op, ax));
        } else {
            let differs = !test_passes(&op, &ax, &self.first[i].0);
            self.reruns[i].0 += 1;
            self.reruns[i].1 += u64::from(differs);
        }
        MODELS.len() as u64
    }

    fn check(&mut self) -> u64 {
        let mut failed = 0;
        for (i, (op, ax)) in self.first.iter().enumerate() {
            let (reruns, differed) = self.reruns[i];
            let bad = if test_passes(op, ax, op) {
                differed
            } else {
                1 + reruns
            };
            if bad > 0 {
                eprintln!(
                    "oracle_diff: test {} failed {bad} time(s)",
                    self.tests[i].name
                );
                failed += bad;
            }
        }
        failed
    }
}

/// Tests per `(threads, stores)` stratum.
#[cfg(test)]
fn strata(tests: &[LitmusTest]) -> std::collections::BTreeMap<(usize, usize), usize> {
    let mut m = std::collections::BTreeMap::new();
    for t in tests {
        *m.entry((t.threads.len(), stores(t))).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;

    fn names(tests: &[LitmusTest]) -> Vec<&str> {
        tests.iter().map(|t| t.name.as_str()).collect()
    }

    /// Checksum over the names and finals of the cheap 2-thread corpus
    /// tests drawn right after the hand suite. Tests of one cost group
    /// often reach the same finals, so the names are folded in too.
    fn checksum(o: &Oracle) -> u64 {
        let hand = full_suite().len();
        let mut h = Fnv::default();
        for i in hand..hand + 13 {
            h.bytes(o.tests()[i].name.as_bytes());
            let (op, ax) = o.decide(i, None);
            h.bytes(format!("{:?}", finals(&op, &ax)).as_bytes());
        }
        h.finish()
    }

    #[test]
    fn sample_has_every_stratum_and_enough_tests() {
        let tests = select(1);
        let hand = full_suite().len();
        assert_eq!(tests.len(), hand + PLAN.iter().map(|s| s.2).sum::<usize>());
        assert!(tests.len() >= 100, "{} tests", tests.len());
        let mut want = std::collections::BTreeMap::new();
        for (threads, st, k, _, _) in PLAN {
            *want.entry((threads, st)).or_insert(0) += k;
        }
        assert_eq!(strata(&tests[hand..]), want);
        assert!(want.keys().any(|&(threads, _)| threads == 4));
    }

    #[test]
    fn state_table_covers_the_corpus() {
        let table = state_table();
        for t in &differential_corpus() {
            assert!(
                table.contains_key(t.name.as_str()),
                "{} has no state count",
                t.name
            );
        }
    }

    #[test]
    fn seed_sets_tests_and_checksum() {
        let (a, b, c) = (
            Oracle::setup(1, 1),
            Oracle::setup(1, 1),
            Oracle::setup(2, 1),
        );
        assert_eq!(names(a.tests()), names(b.tests()));
        assert_ne!(names(a.tests()), names(c.tests()));
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
    }

    #[test]
    fn corrupted_finals_fail_the_check() {
        let o = Oracle::setup(4, 1);
        let (op, ax) = o.decide(0, None);
        let (op, ax) = finals(&op, &ax);
        assert!(test_passes(&op, &ax, &op));
        let mut dropped = op.clone();
        let any = dropped[3].iter().next().cloned().expect("some final state");
        dropped[3].remove(&any);
        assert!(!test_passes(&dropped, &ax, &dropped), "oracles disagree");
        assert!(
            !test_passes(&dropped, &dropped, &op),
            "first decision differs"
        );
        assert!(
            !test_passes(&op[..3], &ax[..3], &op[..3]),
            "a model is missing"
        );
    }
}
