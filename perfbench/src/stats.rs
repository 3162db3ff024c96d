//! Order statistics with an explicit rule for tail percentiles.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, `q` in
/// `(0, 1]`: the smallest sample with at least `q` of all samples at or
/// below it. `NaN` for no samples.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match rank(sorted.len(), q) {
        Some(k) => sorted[k - 1],
        None => f64::NAN,
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = (q * n as f64).ceil() as usize;
    Some(k.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |k| n - k)
}

/// The `q` tail percentile, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it (p99 needs at least
/// 1000 samples).
#[must_use]
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= MIN_SAMPLES_BEYOND).then(|| percentile(sorted, q))
}

/// Median of unsorted values (nearest rank, so always an observed
/// value). `NaN` for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Requests per window of [`windowed_p99`]: the fewest that leave
/// [`MIN_SAMPLES_BEYOND`] samples beyond the 99th percentile.
pub const P99_WINDOW: usize = 1000;

/// The median, over consecutive [`P99_WINDOW`]-request windows of
/// `latencies` (in send order), of each window's p99. A burst of stolen
/// CPU time then moves one window's p99, not the reported value.
/// `None` without one full window.
#[must_use]
pub fn windowed_p99(latencies: &[f64]) -> Option<f64> {
    let p99s: Vec<f64> = latencies
        .chunks_exact(P99_WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            tail_percentile(&w, 0.99).expect("a full window has 10 samples beyond p99")
        })
        .collect();
    (!p99s.is_empty()).then(|| median(&p99s))
}

/// Items completed per second of elapsed time, where `gaps_s` holds
/// each request's seconds since the previous reply and counts each gap
/// with at most `cap` × the median gap (a longer one is taken as a host
/// stall). `NaN` for no gaps.
#[must_use]
pub fn capped_rate(items: u64, gaps_s: &[f64], cap: f64) -> f64 {
    let limit = cap * median(gaps_s);
    let seconds: f64 = gaps_s.iter().map(|g| g.min(limit)).sum();
    items as f64 / seconds
}
