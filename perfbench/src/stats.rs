//! Exact order statistics over raw samples: no histogram buckets, no
//! best-of-N.  Every timing the benchmark reports is a median or a
//! nearest-rank percentile of the samples it actually took.

/// A seeded SplitMix64 generator: the only source of randomness in the
/// benchmark, so one `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EDA_BE9C_2009_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Median of the samples (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least `q` of all samples at or below it; `0.0` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the nearest-rank percentile `q`.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// FNV-1a, used to fingerprint the generated inputs.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for byte in text.bytes().chain([0xFF]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_exact() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.95), 190.0);
        assert_eq!(beyond(&many, 0.95), 10);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
    }
}
