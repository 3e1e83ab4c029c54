//! Order statistics, the tail-percentile rule, `VmHWM` parsing and span
//! self-time arithmetic: the benchmark's own helpers, unit-tested below.

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here matches
/// one computed from the printed values; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The tail percentile a latency report may claim: the 90th percentile,
/// or, when fewer than 100 samples leave fewer than ten beyond it, the
/// highest percentile that still has at least ten samples beyond it.
/// Returns `(percentile, value)`; `None` with ten or fewer samples, where
/// no percentile has ten samples beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    // 0-based rank r has n - 1 - r samples beyond it.
    let p90_rank = ((0.9 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = p90_rank.min(n - 11);
    Some((100.0 * (rank + 1) as f64 / n as f64, v[rank]))
}

/// A size field of `/proc/self/status` in bytes (`VmHWM` is the peak
/// resident set, `VmRSS` the current one; the file gives kB). `None` when
/// the line is missing or malformed: the caller omits the figure rather
/// than reporting 0.
pub fn status_bytes(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut fields = line.split_whitespace().skip(1);
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => kb.checked_mul(1024),
        Some(_) => None,
    }
}

/// A size field of this process's status in bytes, if the host reports
/// it.
pub fn own_status_bytes(field: &str) -> Option<u64> {
    status_bytes(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// One recorded interval: `[start, end)` in nanoseconds since the run's
/// origin, and the index of the span it was opened inside.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children. Children of one parent never overlap (spans are
/// opened and closed in stack order), so their durations simply add.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: the p90 (rank 90) has exactly ten above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: plain p90.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((90.0, 900.0)));
        // 50 samples: p90 would leave five beyond it; fall back to rank 40.
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&fifty), Some((80.0, 40.0)));
        // 11 samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail_percentile(&eleven).expect("eleven samples");
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        assert_eq!(tail_percentile(&[1.0; 10]), None);
    }

    #[test]
    fn vmhwm_parses_kilobytes_and_omits_when_missing() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    3456 kB\nVmRSS:\t 3000 kB\n";
        assert_eq!(status_bytes(status, "VmHWM"), Some(3456 * 1024));
        assert_eq!(status_bytes(status, "VmRSS"), Some(3000 * 1024));
        assert_eq!(status_bytes("Name:\tx\nVmRSS:\t 3000 kB\n", "VmHWM"), None);
        assert_eq!(status_bytes("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(status_bytes("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert_eq!(status_bytes("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) contains a [10, 40) and b [50, 90); a contains
        // c [20, 30). root's self time excludes a and b but not c twice.
        let spans = vec![
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 40,
                parent: Some(0),
            },
            Interval {
                start: 20,
                end: 30,
                parent: Some(1),
            },
            Interval {
                start: 50,
                end: 90,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }
}
