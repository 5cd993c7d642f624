//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is a nearest-rank percentile of
//! the raw samples, never a histogram bucket bound, and travels with its
//! sample count and the number of samples beyond it, so a reader can see
//! how much of the tail it rests on.

/// One nearest-rank percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile value: a sample, never an interpolation.
    pub value: f64,
    /// Number of samples it was taken over.
    pub samples: usize,
    /// Number of samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank `q`-th percentile (`0 < q <= 100`): the smallest sample
/// such that at least `q`% of the samples are less than or equal to it.
/// `None` for an empty sample set. NaN samples sort last.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Some(Pct {
        value,
        samples: n,
        beyond,
    })
}

/// Nearest-rank median, `0.0` for an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Mean summed in ascending order, so the same multiset of values gives
/// the same bits whatever order the values arrived in. `0.0` when empty.
pub fn canonical_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// `num / den`, or `0.0` when the denominator is zero (a layer the
/// workload does not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(canonical_mean(&[]), 0.0);
    }

    #[test]
    fn one_sample_is_every_percentile() {
        for q in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                percentile(&[3.5], q),
                Some(Pct {
                    value: 3.5,
                    samples: 1,
                    beyond: 0
                })
            );
        }
    }

    #[test]
    fn all_ties_have_nothing_beyond() {
        let samples = [2.0; 7];
        for q in [10.0, 50.0, 99.0] {
            let p = percentile(&samples, q).unwrap();
            assert_eq!((p.value, p.samples, p.beyond), (2.0, 7, 0));
        }
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        // 1..=100 shuffled: the q-th percentile is exactly q
        let samples: Vec<f64> = (0..100).map(|k| ((k * 37) % 100 + 1) as f64).collect();
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&samples, 100.0).unwrap().value, 100.0);
        // four samples: p50 is the second, not an average of two
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn partial_ties_count_only_greater_samples() {
        let p = percentile(&[1.0, 2.0, 2.0, 2.0, 5.0], 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (2.0, 1));
    }

    #[test]
    fn canonical_mean_ignores_arrival_order() {
        let a = [0.1, 1e9, 0.2, -1e9, 0.3];
        let b = [0.3, -1e9, 0.2, 1e9, 0.1];
        assert_eq!(canonical_mean(&a).to_bits(), canonical_mean(&b).to_bits());
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
