//! Order statistics for per-seed latencies.

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`Tail::MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent: the share of samples at or below `value`.
    pub percentile: f64,
    /// How many samples the distribution has.
    pub samples: usize,
    /// How many samples lie beyond `value`.
    pub beyond: usize,
}

impl Tail {
    pub const MIN_BEYOND: usize = 10;

    /// `None` when fewer than `MIN_BEYOND + 1` samples exist, because then
    /// no percentile has enough samples beyond it to be reported.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        let sorted = sorted(samples);
        let n = sorted.len();
        if n <= Self::MIN_BEYOND {
            return None;
        }
        // Ascending order: the sample at index `i` has `n - 1 - i` samples
        // beyond it, so the last index with MIN_BEYOND beyond is this one.
        let index = n - 1 - Self::MIN_BEYOND;
        Some(Tail {
            value: sorted[index],
            percentile: 100.0 * (index + 1) as f64 / n as f64,
            samples: n,
            beyond: Self::MIN_BEYOND,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 600 samples 1..=600: the 590th value has exactly 10 above it.
        let samples: Vec<f64> = (1..=600).rev().map(f64::from).collect();
        let tail = Tail::of(&samples).expect("600 samples have a tail");
        assert_eq!(tail.value, 590.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.samples, 600);
        assert!((tail.percentile - 98.3333).abs() < 1e-3);
        let beyond = samples.iter().filter(|&&s| s > tail.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(Tail::of(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let tail = Tail::of(&eleven).expect("eleven samples have a tail");
        assert_eq!(tail.value, 0.0);
        assert!((tail.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn tail_counts_ties_at_the_value_as_not_beyond() {
        // Twelve equal samples: the value at index 1 has ten after it.
        let tail = Tail::of(&[7.0; 12]).expect("twelve samples");
        assert_eq!(tail.value, 7.0);
        assert_eq!(tail.beyond, 10);
    }
}
