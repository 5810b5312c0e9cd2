//! Order statistics with an explicit sample-count rule.
//!
//! A percentile is only as good as the samples beyond it. The rule used
//! everywhere in this benchmark: a reported percentile has **at least
//! [`MIN_TAIL`] samples beyond it**. When the population is too small for
//! the requested quantile, the highest quantile that still satisfies the
//! rule is reported instead, and the quantile actually used travels with
//! the value (so a "p99" from 400 samples says it is really a p97.5).

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// One reported percentile: the value, the quantile it really is, and the
/// population it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value at [`Percentile::quantile`].
    pub value: f64,
    /// The quantile actually reported (≤ the one requested).
    pub quantile: f64,
    /// Population size.
    pub samples: usize,
}

/// The highest quantile ≤ `q` with at least [`MIN_TAIL`] of `n` samples
/// strictly beyond its nearest rank; `None` when `n ≤ MIN_TAIL`.
pub fn reportable_quantile(q: f64, n: usize) -> Option<f64> {
    if n <= MIN_TAIL {
        return None;
    }
    let cap = (n - MIN_TAIL) as f64 / n as f64;
    Some(q.clamp(0.0, 1.0).min(cap))
}

/// Nearest-rank percentile of `values` under the sample-count rule.
/// Sorts `values` in place.
pub fn percentile(values: &mut [f64], q: f64) -> Option<Percentile> {
    let n = values.len();
    let quantile = reportable_quantile(q, n)?;
    values.sort_by(f64::total_cmp);
    // Nearest rank, computed in integers where possible so 0.5 · 20 is 10
    // and not 10.000000000000002.
    let rank = ((quantile * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: values[rank - 1],
        quantile,
        samples: n,
    })
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_few_samples_report_nothing() {
        assert_eq!(reportable_quantile(0.5, 0), None);
        assert_eq!(reportable_quantile(0.5, MIN_TAIL), None);
        assert!(percentile(&mut [1.0; MIN_TAIL], 0.5).is_none());
    }

    #[test]
    fn quantile_is_capped_so_ten_samples_lie_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, so p99 stands.
        assert_eq!(reportable_quantile(0.99, 1000), Some(0.99));
        // 400 samples: p99 would leave 4 beyond; the cap is 390/400.
        assert_eq!(reportable_quantile(0.99, 400), Some(0.975));
        // 11 samples: only the minimum has ten beyond it.
        assert_eq!(reportable_quantile(0.5, 11), Some(1.0 / 11.0));
        // The median of 20 samples leaves exactly ten beyond.
        assert_eq!(reportable_quantile(0.5, 20), Some(0.5));
        assert_eq!(reportable_quantile(0.5, 19), Some(9.0 / 19.0));
    }

    #[test]
    fn reported_rank_always_leaves_ten_beyond() {
        for n in 11..600usize {
            for q in [0.5, 0.9, 0.99, 0.999] {
                let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let p = percentile(&mut v, q).expect("n > MIN_TAIL");
                let beyond = n - 1 - p.value as usize;
                assert!(beyond >= MIN_TAIL, "n={n} q={q}: {beyond} beyond");
                assert!(p.quantile <= q);
                assert_eq!(p.samples, n);
            }
        }
    }

    #[test]
    fn nearest_rank_values() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5).unwrap().value, 500.0);
        assert_eq!(percentile(&mut v, 0.99).unwrap().value, 990.0);
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5).unwrap().value, 10.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
