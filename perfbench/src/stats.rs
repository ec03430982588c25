//! Order statistics for timing samples: the median and the tail rule
//! ("the highest percentile that has at least ten samples beyond it").

/// Percentile levels the tail rule chooses from, highest first.
pub const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `level` in
/// `(0, 100]`, with its zero-based index.
fn nearest_rank(sorted: &[f64], level: f64) -> (usize, f64) {
    let n = sorted.len();
    // integer per-mille arithmetic, so 99.9% of 10000 is exactly rank 9990
    // CAST: level is one of TAIL_LEVELS, a whole number of per-mille.
    let per_mille = (level * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    let idx = rank.min(n) - 1;
    (idx, sorted[idx])
}

/// Median of the samples (mean of the middle pair for even counts);
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest level of [`TAIL_LEVELS`] with at least [`MIN_BEYOND`]
/// samples ranked above it, as `(level, value)`; `None` when even the
/// median has fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return None;
    }
    TAIL_LEVELS.iter().find_map(|&level| {
        let (idx, value) = nearest_rank(&s, level);
        (s.len() - 1 - idx >= MIN_BEYOND).then_some((level, value))
    })
}

/// One line describing a timing series: median, tail (when the rule
/// allows one) and the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let med = median(samples).map_or("n/a".to_string(), |m| format!("{m:.4}"));
    let tail = match tail(samples) {
        Some((level, v)) => format!("p{level} {v:.4}"),
        None => format!("no tail (needs {} samples)", MIN_BEYOND + 1),
    };
    format!("{name}: median {med} {unit}, {tail}, n={}", samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: p50 is rank 10, leaving exactly 10 beyond it
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 19 samples: p50 is rank 10, only 9 beyond — no tail at all
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_climbs_with_the_sample_count() {
        // 100 samples: p90 = rank 90, 10 beyond; p95 would leave 5
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }
}
