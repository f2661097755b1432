//! Summary statistics with the benchmark's reporting rules.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Whether the `p`-th percentile of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, i.e. `n·(100−p)/100 ≥ 10`.
/// The median of a single sample qualifies only when `p ≤ 50` and
/// enough samples exist; a p90 needs 100 samples.
pub fn percentile_reportable(p: u32, n: usize) -> bool {
    p < 100 && n * (100 - p as usize) >= MIN_TAIL_SAMPLES * 100
}

/// The `p`-th percentile (linear interpolation between closest ranks),
/// or `None` when [`percentile_reportable`] forbids reporting it.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if !percentile_reportable(p, values.len()) {
        return None;
    }
    let sorted = sorted(values);
    let rank = f64::from(p) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
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
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!percentile_reportable(90, 99));
        assert!(percentile_reportable(90, 100));
        assert!(!percentile_reportable(50, 19));
        assert!(percentile_reportable(50, 20));
        assert!(!percentile_reportable(100, 1_000_000));

        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), None);
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), Some(90.0));
        assert_eq!(percentile(&values, 50), Some(50.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values: Vec<f64> = (0..100).map(|i| f64::from(i) * 2.0).collect();
        // rank 0.9 · 99 = 89.1 → 178 + 0.1·2
        let p90 = percentile(&values, 90).unwrap();
        assert!((p90 - 178.2).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "des.ssa_steps_per_s.dd2",
            "ctmc.transient_s.10",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/s",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
