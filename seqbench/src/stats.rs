//! Summary statistics and the result line the benchmark prints.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count), or
/// `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median, or 0 for an empty set (a layer that did no work).
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest whole percentile with at least
/// [`TAIL_BEYOND`] samples above its nearest-rank value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 1..=99.
    pub percentile: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest whole percentile `p` whose nearest-rank sample (rank
/// `ceil(p * n / 100)`) still has [`TAIL_BEYOND`] samples ranked after
/// it. `None` when there are too few samples for any percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        if rank == 0 || n - rank < TAIL_BEYOND {
            return None;
        }
        Some(Tail {
            percentile: p,
            value: sorted[rank - 1],
            n,
        })
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result line: one JSON object with the correctness verdict,
/// the operation counts, and every metric with its unit. Values keep
/// every digit Rust's shortest round-trip formatting gives them.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        // 1..=100: p90 is rank 90, with exactly ten ranked after it.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!((t.percentile, t.value, t.n), (90, 90.0, 100));

        // 20 samples: only the median has ten beyond it.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&values).expect("20 samples have a tail");
        assert_eq!((t.percentile, t.value), (50, 10.0));

        // 1000 samples: p99 has exactly ten beyond it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values).map(|t| t.percentile), Some(99));

        // Ten or fewer samples leave no percentile with ten beyond it.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&values), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut values: Vec<f64> = (1..=37).map(|v| f64::from(v * 7 % 37)).collect();
        let a = tail(&values);
        values.reverse();
        assert_eq!(a, tail(&values));
        let t = a.expect("37 samples have a tail");
        assert!(t.n - (t.percentile as usize * t.n).div_ceil(100) >= TAIL_BEYOND);
        let next = t.percentile as usize + 1;
        assert!(t.n - (next * t.n).div_ceil(100) < TAIL_BEYOND);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in [
            "job_ms.p50",
            "setup_s",
            "fold.round_ms.p50",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric {
                    name: "job_ms.p50",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"job_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
