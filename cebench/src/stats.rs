//! Order statistics and the seeded generators behind every workload.

/// Fewest samples that must lie beyond a percentile's rank before the
/// benchmark reports it; with fewer, one outlier would decide the value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `sorted` (ascending).
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let rank = ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: a tiny, fully specified PRNG, so a seed means the same
/// inputs on every toolchain and platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf sampler over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Cumulative weights for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let needle = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= needle)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a digest of a string: output identity checks compare digests.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.999), None);
    }

    #[test]
    fn percentile_refuses_with_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        // rank ceil(9.5) = 10 leaves 9 beyond.
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let mut rng = Rng::new(7, 3);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "{mean}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8] && counts[8] > counts[63]);
    }
}
