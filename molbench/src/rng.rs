//! The input generator: SplitMix64 streams derived from `--seed`.
//!
//! Every workload input (rate ratios, sample values, pulse trains, job
//! mixes) is drawn from these streams, so one seed always yields the same
//! inputs, whatever the machine or the number of rounds a run completes.

/// A SplitMix64 stream (Steele, Lea and Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// An independent stream for sub-generator `stream` (a round, a
    /// tenant), derived from this stream's current state without
    /// advancing it.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Rng {
        let mut mixer = Rng::new(self.state ^ stream.wrapping_mul(GOLDEN).rotate_left(17));
        Rng::new(mixer.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`; both bounds positive.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `len` flags of which exactly `ones` are set, at seeded positions.
    pub fn pattern(&mut self, len: usize, ones: usize) -> Vec<bool> {
        let mut flags: Vec<bool> = (0..len).map(|k| k < ones).collect();
        // Fisher–Yates
        for k in (1..len).rev() {
            flags.swap(k, self.int(0, k as u64) as usize);
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_splitmix64_sequence() {
        // the first outputs of the reference SplitMix64 seeded with 0
        let mut rng = Rng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let rng = Rng::new(42);
        assert_eq!(rng.fork(3).next_u64(), rng.fork(3).next_u64());
        assert_ne!(rng.fork(3).next_u64(), rng.fork(4).next_u64());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let x = rng.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let y = rng.log_range(100.0, 1e5);
            assert!((100.0..1e5).contains(&y));
            let k = rng.int(3, 5);
            assert!((3..=5).contains(&k));
        }
        for ones in 0..=6 {
            let p = rng.pattern(6, ones);
            assert_eq!(p.iter().filter(|&&b| b).count(), ones);
        }
    }
}
