//! Metric math: the median, the reported tail percentile and windowed
//! throughput of a sample set.

/// Percentiles in basis points (1/100 of a percent), so rank math
/// stays in integers.
const TAILS_BP: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// 1-based nearest rank of the percentile `bp` (in basis points) in
/// `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    ((bp * n as u64).div_ceil(10_000) as usize).clamp(1, n)
}

/// Nearest-rank percentile `bp` (basis points: 9_900 is p99) of
/// `sorted`, which must be sorted ascending and non-empty.
#[must_use]
pub fn percentile(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), bp) - 1]
}

/// An empty sample buffer whose memory is allocated and written up
/// front, so that how many samples a run takes does not move its peak
/// resident set.
#[must_use]
pub fn sample_buffer(capacity: usize) -> Vec<f64> {
    let mut v = vec![1.0; capacity];
    v.clear();
    v
}

/// Median of `values` (mean of the two middle values for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least
/// ten samples above it, as `(percentile, value)`. `None` when even
/// p50 has fewer than ten samples beyond it.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAILS_BP
        .into_iter()
        .find(|&bp| !v.is_empty() && v.len() - rank(v.len(), bp) >= 10)
        .map(|bp| (bp as f64 / 100.0, percentile(&v, bp)))
}

/// Throughput over consecutive wall-clock windows: operation `i` ends
/// `ends[i]` seconds into the run and contributes `amounts[i]`; a
/// window closes at the first operation ending at least `window`
/// seconds after the previous window closed. A trailing partial window
/// is dropped unless it is the only one.
#[must_use]
pub fn window_rates(ends: &[f64], amounts: &[f64], window: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut opened, mut sum) = (0.0, 0.0);
    for (&end, &amount) in ends.iter().zip(amounts) {
        sum += amount;
        if end - opened >= window {
            rates.push(sum / (end - opened));
            (opened, sum) = (end, 0.0);
        }
    }
    if rates.is_empty() && sum > 0.0 {
        if let Some(&end) = ends.last() {
            rates.push(sum / (end - opened).max(f64::MIN_POSITIVE));
        }
    }
    rates
}

/// Throughput over consecutive groups of `group` operations, with
/// `ends` and `amounts` as for [`window_rates`]: each group's amounts
/// over the wall time from the previous group's end to its own. A
/// trailing partial group is dropped unless it is the only one.
#[must_use]
pub fn group_rates(ends: &[f64], amounts: &[f64], group: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut opened = 0.0;
    let n = ends.len().min(amounts.len());
    for (e, a) in ends[..n].chunks(group).zip(amounts[..n].chunks(group)) {
        let end = e[e.len() - 1];
        if e.len() == group || rates.is_empty() && end > opened {
            rates.push(a.iter().sum::<f64>() / (end - opened));
        }
        opened = end;
    }
    rates
}

/// A latency sample set summarised the way every timing is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples behind the figures.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (see [`tail`]) and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values` (non-empty).
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        Self {
            count: values.len(),
            p50: median(values),
            tail: tail(values),
        }
    }

    /// `"p50=… p99=… n=…"`, for the human-readable report lines.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = self
            .tail
            .map(|(p, v)| format!(" p{p}={v:.3}{unit}"))
            .unwrap_or_default();
        format!("p50={:.3}{unit}{tail} n={}", self.p50, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 5_000), 50.0);
        assert_eq!(percentile(&v, 9_900), 99.0);
        assert_eq!(percentile(&v, 10_000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves 10 above it, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves exactly 10.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 leaves exactly 10.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.9));
        // 999 samples: p99 would leave 9.99, so p90 is reported.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        // Too few samples for any tail.
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.0), Some(50.0));
    }

    #[test]
    fn window_rates_span_whole_operations() {
        // Ten operations of 0.25 s and 5 units each: windows of 1 s
        // close after every fourth, the last two are a partial window.
        let ends: Vec<f64> = (1..=10).map(|i| f64::from(i) * 0.25).collect();
        assert_eq!(window_rates(&ends, &[5.0; 10], 1.0), vec![20.0, 20.0]);
        // A window closes at the first operation past its length.
        assert_eq!(window_rates(&[0.6, 1.5], &[3.0, 3.0], 1.0), vec![4.0]);
        // A run shorter than one window still yields its rate.
        assert_eq!(window_rates(&[0.5], &[10.0], 1.0), vec![20.0]);
        assert!(window_rates(&[], &[], 1.0).is_empty());
    }

    #[test]
    fn group_rates_span_whole_groups() {
        // Groups of two: 4 units over 1 s, then 4 units over 0.5 s; the
        // fifth operation is a partial group and is dropped.
        let ends = [0.5, 1.0, 1.25, 1.5, 1.75];
        assert_eq!(group_rates(&ends, &[2.0; 5], 2), vec![4.0, 8.0]);
        // Fewer operations than one group: their own rate.
        assert_eq!(group_rates(&[0.5], &[3.0], 16), vec![6.0]);
        assert!(group_rates(&[], &[], 16).is_empty());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }
}
