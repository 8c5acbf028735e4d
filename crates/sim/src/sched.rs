//! The run-loop scheduler: an index min-heap over core clocks.
//!
//! `Machine::run_in` must always step the core with the smallest local
//! clock so cross-core coherence interactions happen in global time order.
//! The original implementation re-scanned every live core per retired
//! instruction (O(live) `min_by`); this heap makes each scheduling decision
//! O(log live), and — because a stepped core's clock only ever increases —
//! each decision is a single sift-down of the root rather than a rebuild.
//!
//! Ordering is by `(clock, core index)` under [`f64::total_cmp`]: a total
//! order with no panicking `partial_cmp` path, and a deterministic
//! lowest-index tie-break. Initial core clocks are staggered into disjoint
//! per-core ranges (`i*20 .. i*20+10`), so ties can only arise from mid-run
//! coincidences; the golden-trace tests in `tests/golden_trace.rs` pin the
//! resulting interleavings against the pre-heap scheduler.

/// A binary min-heap of core indices keyed by their clocks.
///
/// The key of the root entry is allowed to go stale while its core is being
/// stepped; callers restore the heap property with [`CoreHeap::update_root`]
/// (clock advanced) or [`CoreHeap::pop_root`] (thread finished) before the
/// next scheduling decision.
#[derive(Debug, Default)]
pub struct CoreHeap {
    /// `(clock, core index)` entries in binary-heap order.
    heap: Vec<(f64, u32)>,
}

/// Min-order: earlier clock first, lower core index on equal clocks.
/// `total_cmp` gives a full order even on non-finite clocks, so a poisoned
/// clock degrades scheduling order instead of panicking the whole campaign.
#[inline]
fn before(a: (f64, u32), b: (f64, u32)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

impl CoreHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of live cores in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no cores remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert a core with its current clock.
    pub fn push(&mut self, clock: f64, idx: usize) {
        self.heap.push((clock, idx as u32));
        self.sift_up(self.heap.len() - 1);
    }

    /// The core with the smallest `(clock, index)` key, if any.
    #[must_use]
    #[inline]
    pub fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&(_, idx)| idx as usize)
    }

    /// Re-key the root with its core's advanced clock and restore the heap
    /// property (a single sift-down: clocks only increase).
    #[inline]
    pub fn update_root(&mut self, clock: f64) {
        debug_assert!(!self.heap.is_empty(), "update_root on empty heap");
        self.heap[0].0 = clock;
        self.sift_down(0);
    }

    /// Remove the root (its thread retired its last instruction).
    #[inline]
    pub fn pop_root(&mut self) {
        debug_assert!(!self.heap.is_empty(), "pop_root on empty heap");
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if before(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let mut least = i;
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            if left < n && before(self.heap[left], self.heap[least]) {
                least = left;
            }
            if right < n && before(self.heap[right], self.heap[least]) {
                least = right;
            }
            if least == i {
                break;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Drain via peek/update-with-huge-clock to read out heap order without
    /// a dedicated pop-min API.
    fn drain(h: &mut CoreHeap) -> Vec<usize> {
        let mut order = vec![];
        while let Some(idx) = h.peek() {
            order.push(idx);
            h.pop_root();
        }
        order
    }

    #[test]
    fn drains_in_clock_order() {
        let mut h = CoreHeap::new();
        for (i, c) in [37.5, 2.0, 19.0, 0.5, 44.0, 3.25].iter().enumerate() {
            h.push(*c, i);
        }
        assert_eq!(drain(&mut h), vec![3, 1, 5, 2, 0, 4]);
    }

    #[test]
    fn equal_clocks_break_ties_by_lowest_index() {
        let mut h = CoreHeap::new();
        for i in [4, 2, 0, 3, 1] {
            h.push(10.0, i);
        }
        assert_eq!(drain(&mut h), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn update_root_reschedules_the_stepped_core() {
        let mut h = CoreHeap::new();
        h.push(1.0, 0);
        h.push(5.0, 1);
        h.push(9.0, 2);
        assert_eq!(h.peek(), Some(0));
        h.update_root(6.0); // core 0 stepped past core 1
        assert_eq!(h.peek(), Some(1));
        h.update_root(6.0); // equal clocks: lower index wins
        assert_eq!(h.peek(), Some(0));
    }

    #[test]
    fn non_finite_clocks_do_not_panic() {
        // total_cmp sorts NaN after +inf; a poisoned clock starves its core
        // instead of aborting the campaign.
        let mut h = CoreHeap::new();
        h.push(f64::NAN, 0);
        h.push(1.0, 1);
        h.push(f64::INFINITY, 2);
        assert_eq!(drain(&mut h), vec![1, 2, 0]);
    }

    #[test]
    fn matches_sorted_order_on_random_clocks() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for round in 0..50 {
            let n = 1 + (rng.next_u64() % 48) as usize;
            let clocks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e4).collect();
            let mut h = CoreHeap::new();
            for (i, &c) in clocks.iter().enumerate() {
                h.push(c, i);
            }
            let mut expect: Vec<usize> = (0..n).collect();
            expect.sort_by(|&a, &b| clocks[a].total_cmp(&clocks[b]).then(a.cmp(&b)));
            assert_eq!(drain(&mut h), expect, "round {round}");
        }
    }

    #[test]
    fn clear_keeps_reusing_the_allocation() {
        let mut h = CoreHeap::new();
        for i in 0..16 {
            h.push(i as f64, i);
        }
        h.clear();
        assert!(h.is_empty());
        h.push(3.0, 7);
        assert_eq!(h.peek(), Some(7));
        assert_eq!(h.len(), 1);
    }
}
