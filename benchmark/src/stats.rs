//! The statistics every reported number goes through.

/// Median of a sample (mean of the middle pair for an even count); NaN for
/// an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Mean of what is left after dropping the lowest and the highest eighth
/// of a sample (rounded down, so below eight values it is the plain mean);
/// NaN for an empty one. The end-to-end timings are reported through this
/// and not through the median: a solve takes a whole number of iterations
/// (7 or 8 on `pdd_membound`), a run's samples are a mixture of the two, and
/// the median of a mixture jumps from one mode to the other as the seed
/// moves the mix, where a mean moves with the mix. The trim keeps the
/// median's indifference to a few preempted samples.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let trim = v.len() / 8;
    mean(&v[trim..v.len() - trim])
}

/// Geometric mean of positive values; NaN for an empty sample or a
/// non-positive member.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; NaN for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail rule: the highest percentile of a fixed ladder that still has
/// at least ten samples beyond it, and the sample value at that
/// percentile. Below forty samples no rung qualifies and the median is
/// returned as percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    // Per mille, so "samples beyond" is exact integer arithmetic.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 750];
    let n = values.len();
    for p in LADDER {
        let beyond = n * (1000 - p) / 1000;
        if beyond >= 10 {
            let mut v = values.to_vec();
            v.sort_by(f64::total_cmp);
            return (p as f64 / 10.0, v[n - beyond - 1]);
        }
    }
    (50.0, median(values))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so `compare` judges spread the way the gate
/// does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    Some((q[2] - q[0]) / median(values).abs())
}

/// `VmHWM` (peak resident set, kB) out of the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_an_eighth_at_each_end() {
        // Sixteen values: the two lowest and the two highest go.
        let mut v: Vec<f64> = (1..=16).map(f64::from).collect();
        v[0] = -1000.0;
        v[15] = 1000.0;
        v.reverse();
        assert_eq!(trimmed_mean(&v), (3..=14).sum::<i32>() as f64 / 12.0);
        // Below eight values nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(trimmed_mean(&[]).is_nan());
        // A mixture of two modes reads between them, in proportion.
        let mix = [7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 8.0, 8.0];
        assert_eq!(trimmed_mean(&mix), (5.0 * 7.0 + 8.0) / 6.0);
    }

    #[test]
    fn geomean_of_powers_and_its_refusals() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_rung_with_ten_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even the median has ten beyond it on the ladder.
        assert_eq!(tail(&v(19)), (50.0, 10.0));
        // 40 samples: p75 leaves exactly ten beyond.
        assert_eq!(tail(&v(40)), (75.0, 30.0));
        // 100 samples: p90 leaves ten beyond, p95 only five.
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves ten beyond, p99.9 only one.
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        // 10000 samples: p99.9 qualifies.
        assert_eq!(tail(&v(10_000)), (99.9, 9990.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_read_from_proc_status_text() {
        let text = "Name:\tbench\nVmPeak:\t  200 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 99 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }
}
