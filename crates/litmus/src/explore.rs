//! Exhaustive state-space exploration.
//!
//! The executor enumerates every interleaving of *eligible* operations (an
//! operation is eligible when every earlier same-thread operation that the
//! model orders before it has executed) and, on non-multi-copy-atomic
//! models, every store-propagation schedule. Depth-first search with an
//! exact visited set keeps the search finite: every reachable state is
//! expanded once. State counts are not small: they range from 3 (`CoWW`)
//! to about a million for the costliest 4-thread tests of the generated
//! corpus (summed over the four models), so the cost of handling one state
//! is what bounds an oracle pass.
//!
//! ## State encoding
//!
//! A state is one flat `Vec<u32>`, laid out as
//!
//! ```text
//! executed[thread] | regs[thread][reg] | touched[thread][op] | store*
//! store = var, val, owner, mask, nprereq, prereq[nprereq]
//! ```
//!
//! `executed` is a bitmask of executed ops per thread; `touched` holds, per
//! op, the id + 1 of the store it read or wrote (0 = none, or not yet
//! executed); stores appear in coherence (commit) order, and a store's
//! id is its position there. `mask` is the set of threads the store has
//! propagated to, and the prerequisites are the stores that must be visible
//! to a thread before this one may propagate to it (`lwsync`/`sync`
//! cumulativity on POWER). For a fixed test the first three sections have
//! fixed lengths and each store record carries its own length, so the
//! encoding is injective: two states are equal exactly when their vectors
//! are. The prerequisites stay an ordered list (the touched stores in
//! program order, repeats included) rather than a set: a set could merge
//! two states that differ only in the list's order or repeats, and
//! `states_visited` would then count something other than the states of
//! the semantics.
//!
//! Everything that depends only on the test and the model — which earlier
//! ops each op waits for, and which ops' stores become a store's
//! prerequisites — is tabulated once per [`explore`] call, so handling a
//! state touches only the state's own words.

use std::collections::HashSet;

use crate::ops::{FClass, LOp, LitmusTest, ModelKind, Outcome};

/// The set of reachable final states of a litmus test: register files plus
/// the final memory value of every variable (the last store in coherence
/// order; variables never stored keep their initial 0).
#[derive(Debug, Clone)]
pub struct OutcomeSet {
    /// Final `(registers, memory)` pairs: registers are one inner vec per
    /// thread indexed by register; memory is indexed by variable.
    pub finals: HashSet<(Vec<Vec<u32>>, Vec<u32>)>,
    /// Number of distinct states reachable from the initial state, the
    /// initial and final states included. It is an exact property of the
    /// test's state graph under the model, independent of search order, so
    /// tests pin it and the benchmark divides explorer time by it.
    pub states_visited: usize,
}

impl OutcomeSet {
    /// Is the conjunctive register assertion reachable?
    #[must_use]
    pub fn allows(&self, outcome: &Outcome) -> bool {
        self.finals
            .iter()
            .any(|(f, _)| outcome.iter().all(|&(t, r, v)| f[t][r] == v))
    }

    /// Iterate over the final `(registers, memory)` states in unspecified
    /// order. For deterministic consumption use [`OutcomeSet::sorted`].
    pub fn iter(&self) -> impl Iterator<Item = &(Vec<Vec<u32>>, Vec<u32>)> {
        self.finals.iter()
    }

    /// The final states in a canonical (lexicographic) order — the stable
    /// view used for manifests, witness extraction and cross-oracle
    /// comparison, so no caller needs to re-run `explore` just to walk the
    /// same outcome set deterministically.
    #[must_use]
    pub fn sorted(&self) -> Vec<&(Vec<Vec<u32>>, Vec<u32>)> {
        let mut v: Vec<_> = self.finals.iter().collect();
        v.sort();
        v
    }

    /// The final states as an owned ordered set, for set-algebra against
    /// another oracle (equality, inclusion).
    #[must_use]
    pub fn canonical(&self) -> std::collections::BTreeSet<(Vec<Vec<u32>>, Vec<u32>)> {
        self.finals.iter().cloned().collect()
    }

    /// Is the combined register + final-memory assertion reachable?
    /// `memory` entries are `(var, value)` conjuncts — the classic
    /// final-state conditions of the S, R and 2+2W shapes.
    #[must_use]
    pub fn allows_with_memory(&self, outcome: &Outcome, memory: &[(usize, u32)]) -> bool {
        self.finals.iter().any(|(regs, mem)| {
            outcome.iter().all(|&(t, r, v)| regs[t][r] == v)
                && memory
                    .iter()
                    .all(|&(var, v)| mem.get(var).copied().unwrap_or(0) == v)
        })
    }

    /// Number of distinct final states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.finals.len()
    }

    /// True if no execution completed (cannot happen for well-formed tests).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.finals.is_empty()
    }
}

/// Memoising front-end for [`explore`]: callers that query the same test
/// under the same model repeatedly (suite sweeps, differential audits, the
/// `allows`-per-question pattern in `crates/bench`) share one exploration
/// instead of re-running the state-space search per query.
///
/// Keys are *structural* — two tests with identical threads, dependencies
/// and memory conjuncts share an entry even if their names differ — and
/// results are handed out as [`std::sync::Arc`] clones, so a cached outcome
/// set can be kept across further cache use or shipped to another thread.
#[derive(Default)]
pub struct ExploreCache {
    map: std::collections::HashMap<(String, ModelKind), std::sync::Arc<OutcomeSet>>,
    hits: usize,
    misses: usize,
}

impl ExploreCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Structural identity of a test: everything that determines the
    /// outcome set (name excluded on purpose).
    fn key(test: &LitmusTest, model: ModelKind) -> (String, ModelKind) {
        (
            format!("{:?}|{:?}|{:?}", test.threads, test.store_deps, test.memory),
            model,
        )
    }

    /// The outcome set of `test` under `model`, exploring at most once per
    /// structural key.
    pub fn outcomes(&mut self, test: &LitmusTest, model: ModelKind) -> std::sync::Arc<OutcomeSet> {
        let key = Self::key(test, model);
        if let Some(hit) = self.map.get(&key) {
            self.hits += 1;
            return std::sync::Arc::clone(hit);
        }
        self.misses += 1;
        let out = std::sync::Arc::new(explore(test, model));
        self.map.insert(key, std::sync::Arc::clone(&out));
        out
    }

    /// Cache hits served so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Explorations actually run (cache misses).
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of cached outcome sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Exact set of flat states, stored back to back in one arena and found
/// through an open-addressing table of ids, so inserting a state allocates
/// nothing of its own. The hash is a multiply-rotate over the words, two
/// at a time (the `FxHash` scheme): keys are short vectors built by this
/// module, not outside input, so it need not be `SipHash`. Keys are
/// compared word for word, so a collision costs a probe, never a state.
#[derive(Default)]
struct StateSet {
    words: Vec<u32>,
    /// Per id: where its words start (they end where the next id's start).
    starts: Vec<usize>,
    /// Per id: its hash, compared before its words and reused on growth.
    hashes: Vec<u64>,
    /// `id + 1` per slot, 0 for an empty slot; a power of two, at most half
    /// full.
    slots: Vec<u32>,
}

impl StateSet {
    fn hash(key: &[u32]) -> u64 {
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        let mut pairs = key.chunks_exact(2);
        let h = (&mut pairs).fold(key.len() as u64, |h, w| {
            mix(h, u64::from(w[0]) | u64::from(w[1]) << 32)
        });
        pairs
            .remainder()
            .iter()
            .fold(h, |h, &w| mix(h, u64::from(w)))
    }

    /// The first slot to probe: the hash's top bits, its best mixed.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    fn get(&self, id: usize) -> &[u32] {
        let end = self.starts.get(id + 1).copied().unwrap_or(self.words.len());
        &self.words[self.starts[id]..end]
    }

    /// Insert `key`, returning its id, or `None` if it is already present.
    fn insert(&mut self, key: &[u32]) -> Option<usize> {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = Self::hash(key);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while let Some(id) = self.slots[slot].checked_sub(1) {
            let id = id as usize;
            if self.hashes[id] == hash && self.get(id) == key {
                return None;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.len();
        self.slots[slot] = u32::try_from(id + 1).expect("state ids fit in u32");
        self.starts.push(self.words.len());
        self.hashes.push(hash);
        self.words.extend_from_slice(key);
        Some(id)
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(64)];
        let mask = self.slots.len() - 1;
        for id in 0..self.len() {
            let mut slot = self.home(self.hashes[id]);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

/// Offsets of a store record's fields (see the module docs).
const VAR: usize = 0;
const VAL: usize = 1;
const MASK: usize = 3;
const NPREREQ: usize = 4;
const STORE_HEADER: usize = 5;

/// The test and model, tabulated for the search: state layout offsets and,
/// per op, everything that does not depend on the state.
struct Explorer<'t> {
    test: &'t LitmusTest,
    mca: bool,
    all_mask: u32,
    num_vars: usize,
    /// Where each thread's registers start in a state, then where the
    /// registers end (`nthreads + 1` entries).
    reg_base: Vec<usize>,
    /// Where each thread's `touched` entries start, then where they end and
    /// the first store record starts (`nthreads + 1` entries).
    touch_base: Vec<usize>,
    /// Per thread, per op: the earlier ops the model orders before it.
    block: Vec<Vec<u32>>,
    /// Per thread, per op: a store's prerequisites (non-MCA models only)
    /// are the stores touched by the ops before this index — the store
    /// itself when it is a release, else the latest `Full`/`LwSync` marker
    /// before it, or 0 (no prerequisites) when there is none.
    group_a_bound: Vec<Vec<usize>>,
}

impl<'t> Explorer<'t> {
    fn new(test: &'t LitmusTest, model: ModelKind) -> Self {
        let nthreads = test.threads.len();
        let mut reg_base = vec![nthreads];
        for ops in &test.threads {
            let nregs = ops
                .iter()
                .filter_map(|o| match o {
                    LOp::Load { reg, .. } => Some(*reg + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            reg_base.push(reg_base[reg_base.len() - 1] + nregs);
        }
        let mut touch_base = vec![reg_base[nthreads]];
        for ops in &test.threads {
            touch_base.push(touch_base[touch_base.len() - 1] + ops.len());
        }
        let block = (0..nthreads)
            .map(|t| {
                (0..test.threads[t].len())
                    .map(|j| {
                        (0..j)
                            .filter(|&i| test.ordered(model, t, i, j))
                            .fold(0u32, |m, i| m | 1 << i)
                    })
                    .collect()
            })
            .collect();
        let group_a_bound = test
            .threads
            .iter()
            .map(|ops| {
                let cumulative = |op: &LOp| matches!(op, LOp::Fence(FClass::Full | FClass::LwSync));
                (0..ops.len())
                    .map(|j| match ops[j] {
                        LOp::Store { release: true, .. } => j,
                        _ => ops[..j].iter().rposition(cumulative).unwrap_or(0),
                    })
                    .collect()
            })
            .collect();
        Explorer {
            test,
            mca: model.multi_copy_atomic(),
            all_mask: (1u32 << nthreads) - 1,
            num_vars: test.num_vars(),
            reg_base,
            touch_base,
            block,
            group_a_bound,
        }
    }

    /// Offset of the first store record: the length of the initial state.
    fn stores_base(&self) -> usize {
        self.touch_base[self.test.threads.len()]
    }

    /// Group-A store ids of thread `t` before op `upto`: every store the
    /// thread has read or written at earlier executed ops, in program
    /// order. Only executed ops have a non-zero `touched` entry.
    fn group_a<'s>(&self, st: &'s [u32], t: usize, upto: usize) -> impl Iterator<Item = u32> + 's {
        st[self.touch_base[t]..self.touch_base[t] + upto]
            .iter()
            .filter(|&&sid| sid != 0)
            .map(|&sid| sid - 1)
    }

    fn done(&self, st: &[u32]) -> bool {
        self.test
            .threads
            .iter()
            .enumerate()
            .all(|(t, ops)| st[t].count_ones() as usize == ops.len())
    }

    /// Final registers followed by final memory (the last store per
    /// variable in coherence order).
    fn final_key(&self, st: &[u32], stores: &[usize]) -> Vec<u32> {
        let nthreads = self.test.threads.len();
        let mut key = st[nthreads..self.reg_base[nthreads]].to_vec();
        let mem = key.len();
        key.resize(mem + self.num_vars, 0);
        for &o in stores {
            key[mem + st[o + VAR] as usize] = st[o + VAL];
        }
        key
    }

    /// Build every successor of the non-final state `st` in `next` and
    /// hand it to `visit`. `stores` holds the offset of each store record
    /// in `st`.
    fn successors(
        &self,
        st: &[u32],
        stores: &[usize],
        next: &mut Vec<u32>,
        mut visit: impl FnMut(&[u32]),
    ) {
        // 1. Execute any eligible op of any thread.
        for (t, ops) in self.test.threads.iter().enumerate() {
            let executed = st[t];
            for (j, op) in ops.iter().enumerate() {
                let bit = 1u32 << j;
                if executed & bit != 0 || self.block[t][j] & !executed != 0 {
                    continue;
                }
                if let LOp::Fence(FClass::Full) = op {
                    // On POWER a sync waits until its group-A stores have
                    // propagated everywhere (cumulativity). Elsewhere the
                    // condition is vacuous.
                    if !self.mca
                        && !self
                            .group_a(st, t, j)
                            .all(|sid| st[stores[sid as usize] + MASK] == self.all_mask)
                    {
                        continue;
                    }
                }
                next.clear();
                next.extend_from_slice(st);
                next[t] |= bit;
                let touched = self.touch_base[t] + j;
                match *op {
                    // Weak markers are ordering annotations only.
                    LOp::Fence(_) => {}
                    LOp::Load { var, reg, .. } => {
                        let var = var as u32;
                        let latest =
                            stores.iter().enumerate().rev().find(|&(_, &o)| {
                                st[o + VAR] == var && st[o + MASK] & (1 << t) != 0
                            });
                        if let Some((sid, &o)) = latest {
                            next[self.reg_base[t] + reg] = st[o + VAL];
                            next[touched] = sid as u32 + 1;
                        } else {
                            next[self.reg_base[t] + reg] = 0;
                        }
                    }
                    LOp::Store { var, val, .. } => {
                        // Cumulative barriers: a store after an lwsync/sync
                        // may propagate to a thread only after everything its
                        // thread knew before the barrier has. A release store
                        // (lowered as `lwsync; st` on POWER) is cumulative
                        // over everything program-before itself.
                        let (mask, upto) = if self.mca {
                            (self.all_mask, 0)
                        } else {
                            (1 << t, self.group_a_bound[t][j])
                        };
                        next[touched] = stores.len() as u32 + 1;
                        let nprereq = next.len() + NPREREQ;
                        next.extend_from_slice(&[var as u32, val, t as u32, mask, 0]);
                        next.extend(self.group_a(st, t, upto));
                        next[nprereq] = (next.len() - nprereq - 1) as u32;
                    }
                }
                visit(next);
            }
        }

        // 2. Propagate a store to one more thread (non-MCA models only).
        if self.mca {
            return;
        }
        for &o in stores {
            let mask = st[o + MASK];
            if mask == self.all_mask {
                continue;
            }
            let prereqs = &st[o + STORE_HEADER..o + STORE_HEADER + st[o + NPREREQ] as usize];
            for u in 0..self.test.threads.len() {
                let ubit = 1u32 << u;
                if mask & ubit != 0
                    || !prereqs
                        .iter()
                        .all(|&p| st[stores[p as usize] + MASK] & ubit != 0)
                {
                    continue;
                }
                next.clear();
                next.extend_from_slice(st);
                next[o + MASK] |= ubit;
                visit(next);
            }
        }
    }
}

/// Enumerate all final register states of `test` under `model`.
///
/// # Panics
///
/// Panics if the test has more than 32 threads or more than 32 ops on any
/// thread — both are bitmask-width limits of the state encoding.
#[must_use]
pub fn explore(test: &LitmusTest, model: ModelKind) -> OutcomeSet {
    let nthreads = test.threads.len();
    assert!(nthreads <= 32, "thread count limited by bitmask width");
    for t in &test.threads {
        assert!(
            t.len() <= 32,
            "per-thread op count limited by bitmask width"
        );
    }
    let ex = Explorer::new(test, model);
    let mut seen = StateSet::default();
    let mut finals = StateSet::default();
    seen.insert(&vec![0u32; ex.stores_base()]);
    let mut stack = vec![0];
    let (mut st, mut next, mut stores) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(id) = stack.pop() {
        st.clear();
        st.extend_from_slice(seen.get(id));
        stores.clear();
        let mut o = ex.stores_base();
        while o < st.len() {
            stores.push(o);
            o += STORE_HEADER + st[o + NPREREQ] as usize;
        }
        if ex.done(&st) {
            finals.insert(&ex.final_key(&st, &stores));
            continue;
        }
        ex.successors(&st, &stores, &mut next, |s| {
            if let Some(id) = seen.insert(s) {
                stack.push(id);
            }
        });
    }

    // A final key is the state's registers (offset by the `executed`
    // section before them) followed by memory.
    let reg = |t: usize| ex.reg_base[t] - nthreads;
    let finals = (0..finals.len())
        .map(|id| {
            let key = finals.get(id);
            let regs = (0..nthreads)
                .map(|t| key[reg(t)..reg(t + 1)].to_vec())
                .collect();
            (regs, key[reg(nthreads)..].to_vec())
        })
        .collect();
    OutcomeSet {
        states_visited: seen.len(),
        finals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DepKind;

    fn st(var: usize, val: u32) -> LOp {
        LOp::Store {
            var,
            val,
            release: false,
        }
    }

    fn ld(var: usize, reg: usize) -> LOp {
        LOp::Load {
            var,
            reg,
            acquire: false,
            dep: None,
        }
    }

    #[test]
    fn single_thread_reads_own_store() {
        let t = LitmusTest {
            name: "self".into(),
            threads: vec![vec![st(0, 1), ld(0, 0)]],
            interesting: vec![(0, 0, 1)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            let out = explore(&t, model);
            assert_eq!(out.len(), 1, "{model:?}");
            assert!(out.allows(&t.interesting), "{model:?}");
        }
    }

    #[test]
    fn sb_weak_outcome_per_model() {
        // SB: both threads store then read the other's variable.
        let t = LitmusTest {
            name: "SB".into(),
            threads: vec![vec![st(0, 1), ld(1, 0)], vec![st(1, 1), ld(0, 0)]],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            !explore(&t, ModelKind::Sc).allows(&t.interesting),
            "SC forbids SB"
        );
        assert!(
            explore(&t, ModelKind::Tso).allows(&t.interesting),
            "TSO allows SB"
        );
        assert!(explore(&t, ModelKind::ArmV8).allows(&t.interesting));
        assert!(explore(&t, ModelKind::Power).allows(&t.interesting));
    }

    #[test]
    fn sb_with_full_fences_forbidden_everywhere() {
        let t = LitmusTest {
            name: "SB+fences".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::Full), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::Full), ld(0, 0)],
            ],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            assert!(
                !explore(&t, model).allows(&t.interesting),
                "{model:?} must forbid SB+fences"
            );
        }
    }

    #[test]
    fn mp_weak_outcome_needs_relaxed_model() {
        let t = LitmusTest {
            name: "MP".into(),
            threads: vec![vec![st(0, 1), st(1, 1)], vec![ld(1, 0), ld(0, 1)]],
            // Observer sees the flag but not the data.
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(!explore(&t, ModelKind::Sc).allows(&t.interesting));
        assert!(!explore(&t, ModelKind::Tso).allows(&t.interesting));
        assert!(explore(&t, ModelKind::ArmV8).allows(&t.interesting));
        assert!(explore(&t, ModelKind::Power).allows(&t.interesting));
    }

    #[test]
    fn mp_with_lwsync_and_addr_dep_forbidden_on_power() {
        let t = LitmusTest {
            name: "MP+lwsync+addr".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), st(1, 1)],
                vec![
                    ld(1, 0),
                    LOp::Load {
                        var: 0,
                        reg: 1,
                        acquire: false,
                        dep: Some((0, DepKind::Addr)),
                    },
                ],
            ],
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(!explore(&t, ModelKind::Power).allows(&t.interesting));
        assert!(!explore(&t, ModelKind::ArmV8).allows(&t.interesting));
    }

    #[test]
    fn lwsync_does_not_forbid_sb() {
        let t = LitmusTest {
            name: "SB+lwsyncs".into(),
            threads: vec![
                vec![st(0, 1), LOp::Fence(FClass::LwSync), ld(1, 0)],
                vec![st(1, 1), LOp::Fence(FClass::LwSync), ld(0, 0)],
            ],
            interesting: vec![(0, 0, 0), (1, 0, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            explore(&t, ModelKind::Power).allows(&t.interesting),
            "lwsync leaves store->load unordered"
        );
    }

    #[test]
    fn iriw_with_addr_deps_power_only() {
        // Two writers, two readers that disagree about the order of the
        // writes — the canonical non-multi-copy-atomicity witness.
        let reader = |first: usize, second: usize| {
            vec![
                ld(first, 0),
                LOp::Load {
                    var: second,
                    reg: 1,
                    acquire: false,
                    dep: Some((0, DepKind::Addr)),
                },
            ]
        };
        let t = LitmusTest {
            name: "IRIW+addrs".into(),
            threads: vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            interesting: vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            explore(&t, ModelKind::Power).allows(&t.interesting),
            "POWER is non-MCA: IRIW+addrs observable"
        );
        assert!(
            !explore(&t, ModelKind::ArmV8).allows(&t.interesting),
            "ARMv8 is MCA: IRIW+addrs forbidden"
        );
        assert!(!explore(&t, ModelKind::Tso).allows(&t.interesting));
    }

    #[test]
    fn iriw_with_syncs_forbidden_on_power() {
        let reader = |first: usize, second: usize| {
            vec![ld(first, 0), LOp::Fence(FClass::Full), ld(second, 1)]
        };
        let t = LitmusTest {
            name: "IRIW+syncs".into(),
            threads: vec![vec![st(0, 1)], vec![st(1, 1)], reader(0, 1), reader(1, 0)],
            interesting: vec![(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            !explore(&t, ModelKind::Power).allows(&t.interesting),
            "sync restores IRIW order on POWER"
        );
    }

    #[test]
    fn coherence_corr() {
        // CoRR: reads of the same variable by one thread may not go backwards.
        let t = LitmusTest {
            name: "CoRR".into(),
            threads: vec![vec![st(0, 1)], vec![ld(0, 0), ld(0, 1)]],
            interesting: vec![(1, 0, 1), (1, 1, 0)],
            store_deps: vec![],
            memory: vec![],
        };
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::ArmV8,
            ModelKind::Power,
        ] {
            assert!(
                !explore(&t, model).allows(&t.interesting),
                "{model:?} must preserve per-location coherence"
            );
        }
    }
}
