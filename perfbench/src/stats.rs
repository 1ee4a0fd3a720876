//! Order statistics used by the reports.

/// Median of `values` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank `p`-quantile of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Candidate tail percentiles, lowest first.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest ladder percentile that leaves at least ten of `samples`
/// beyond it (p50 when even that is out of reach).
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(TAIL_LADDER[0])
}

/// Label of a percentile, e.g. `p99` or `p99.9`.
pub fn percentile_label(p: f64) -> String {
    format!("p{}", (p * 1000.0).round() / 10.0)
}
