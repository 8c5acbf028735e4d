//! Small numeric helpers: percentiles, the seeded generator every workload
//! draws its inputs from, and the FNV fold the output checksums use.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
/// With `n` samples the p90 is the `ceil(0.9 n)`-th smallest, so at least
/// `n - ceil(0.9 n)` samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Each item's median latency over a run: `samples` holds whole passes
/// of `per_pass` items each, in run order, and item `i` of every pass is
/// the same item. A stretch of contention on a shared host slows some
/// items of nearly every pass, so a whole-pass statistic moves with it;
/// the per-item median moves only if most passes of that item are slowed.
pub fn item_medians(samples: &[f64], per_pass: usize) -> Vec<f64> {
    let passes = samples.len() / per_pass.max(1);
    (0..per_pass)
        .map(|i| {
            let runs: Vec<f64> = (0..passes).map(|p| samples[p * per_pass + i]).collect();
            median(&runs)
        })
        .collect()
}

/// SplitMix64: a tiny, well-mixed generator, so a `--seed` maps to the
/// same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Order-sensitive FNV-1a, folding floats by their exact bit patterns so
/// two checksums agree iff the folded values are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        // Exactly ten samples lie beyond the p90 of 100 items.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90.0)).count(), 10);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn item_medians_take_each_item_across_passes() {
        // Three passes of three items; every pass has one slowed item.
        let v = [1.0, 2.0, 30.0, 10.0, 2.0, 3.0, 1.0, 20.0, 3.0];
        assert_eq!(item_medians(&v, 3), [1.0, 2.0, 3.0]);
        // Even pass counts average the middle two.
        assert_eq!(item_medians(&v[..6], 3), [5.5, 2.0, 16.5]);
        assert_eq!(item_medians(&[4.0, 5.0], 2), [4.0, 5.0]);
    }

    #[test]
    fn generator_is_seeded_and_shuffle_permutes() {
        let draw = |s| {
            let mut r = SplitMix::new(s);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<usize> = (0..50).collect();
        SplitMix::new(1).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
