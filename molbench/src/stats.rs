//! Order statistics: the median and the tail rule.
//!
//! A timing is reported as its median and as its *tail*: the highest
//! percentile (99.9, or a whole percent from 99 down to 51) that still has
//! at least [`TAIL_MIN_BEYOND`] samples beyond it, so the tail never rests
//! on a handful of outliers, and never falls below the median.
//! Percentiles use the nearest-rank definition.

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first: 99.9, then 99 down to 51.
fn candidates() -> impl Iterator<Item = f64> {
    std::iter::once(99.9).chain((51..=99).rev().map(f64::from))
}

/// A tail reading: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `95.0`).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (mean of the two middle samples for even counts); `None`
/// for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it; `None` for fewer than 21 samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    candidates().find_map(|p| {
        let r = rank(p, n);
        (n - r >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[r - 1],
            beyond: n - r,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_at_every_size() {
        for n in 0..3000 {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1009) as f64).collect();
            match tail(&xs) {
                Some(t) => {
                    assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                    let above = xs.iter().filter(|&&x| x > t.value).count();
                    assert!(above <= t.beyond, "n={n}: {t:?}");
                    assert_eq!(t.samples, n);
                    assert!(t.value >= median(&xs).unwrap(), "n={n}: {t:?}");
                    // no higher candidate would also qualify
                    for p in candidates().filter(|&p| p > t.percentile) {
                        assert!(n - rank(p, n) < TAIL_MIN_BEYOND, "n={n} p={p}");
                    }
                }
                None => assert!(n <= 2 * TAIL_MIN_BEYOND, "n={n} must have a tail"),
            }
        }
    }

    #[test]
    fn tail_picks_the_expected_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly ten samples beyond
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let xs: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 99.9);
        // 30 samples: p66 is rank 20, leaving exactly ten beyond
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (66.0, 20.0, 10));
        assert!(tail(&xs[..20]).is_none());
        assert_eq!(tail(&xs[..21]).unwrap().percentile, 52.0);
    }
}
