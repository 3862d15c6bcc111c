//! Order statistics over measured samples.

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the smallest
/// sample with at least `p`% of the samples at or below it. `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank 50th percentile), `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Deterministic generator for benchmark inputs (SplitMix64).
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream depends only on `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_hand_built_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.5), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        // 1000 samples: ten lie strictly beyond the 99th percentile.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!(p99, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn generator_streams_repeat_and_differ() {
        let take = |seed, stream| {
            let mut g = SplitMix::new(seed, stream);
            (0..4).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
    }
}
