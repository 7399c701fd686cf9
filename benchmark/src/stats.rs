//! Order statistics used for every reported number: medians, quartiles and
//! the best few over the passes or windows of a run.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// How many of a run's passes or windows count as its best.
const BEST_FEW: usize = 3;

/// Mean of the [`BEST_FEW`] best of `values`: the lowest when `lowest`, else
/// the highest. A neighbour on the shared host only ever slows a saturated
/// program down, for seconds at a time, so the undisturbed few of a run
/// repeat between runs where its median and its mean do not (see the
/// README's reference-box section); three of them, so that one odd reading
/// is not the result.
pub fn best_few(values: &[f64], lowest: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lowest {
        v.reverse();
    }
    v.truncate(BEST_FEW);
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) — the rule the acceptance check applies to the
/// spread of repeated runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `q`-quantile (nearest rank) of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples bucketed into consecutive windows of `window_s` seconds by their
/// time stamp; the statistic of a run is taken over the per-window values
/// (their median, or their best few), which one stalled window cannot move.
#[derive(Clone)]
pub struct Windows {
    window_s: f64,
    values: Vec<Vec<f64>>,
}

impl Windows {
    /// `span_s` seconds of run split into equal windows of about `window_s`
    /// (a span shorter than that is one window).
    pub fn new(span_s: f64, window_s: f64) -> Windows {
        let count = (span_s / window_s).round().max(1.0);
        Windows {
            window_s: span_s / count,
            values: vec![Vec::new(); count as usize],
        }
    }

    /// Records `value` at `at_s` seconds into the run; samples beyond the
    /// last window are ignored (they belong to the drain, not the run).
    pub fn record(&mut self, at_s: f64, value: f64) {
        if self.covers(at_s) {
            self.values[(at_s / self.window_s) as usize].push(value);
        }
    }

    /// Whether `at_s` falls inside the measured span.
    pub fn covers(&self, at_s: f64) -> bool {
        at_s >= 0.0 && at_s < self.window_s * self.values.len() as f64
    }

    pub fn merge(&mut self, other: Windows) {
        for (mine, theirs) in self.values.iter_mut().zip(other.values) {
            mine.extend(theirs);
        }
    }

    /// Samples per second in each window.
    pub fn rates(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|w| w.len() as f64 / self.window_s)
            .collect()
    }

    /// The `q`-quantile of each non-empty window.
    pub fn window_quantiles(&self, q: f64) -> Vec<f64> {
        self.values
            .iter()
            .filter_map(|w| {
                let mut sorted = w.clone();
                sorted.sort_by(f64::total_cmp);
                quantile_sorted(&sorted, q)
            })
            .collect()
    }

    /// Median over windows of the per-window `q`-quantile.
    pub fn median_of_quantile(&self, q: f64) -> Option<f64> {
        median(&self.window_quantiles(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn best_few_is_the_mean_of_the_three_best_values() {
        assert_eq!(best_few(&[], true), None);
        assert_eq!(best_few(&[5.0, 1.0], true), Some(3.0));
        let v = [9.0, 1.0, 7.0, 2.0, 3.0, 8.0];
        assert_eq!(best_few(&v, true), Some(2.0));
        assert_eq!(best_few(&v, false), Some(8.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn windows_bucket_by_time_and_take_the_median_window() {
        let mut w = Windows::new(3.0, 1.0);
        for (at, v) in [
            (0.1, 1.0),
            (0.9, 3.0),
            (1.5, 10.0),
            (2.2, 5.0),
            (2.3, 7.0),
            (3.4, 99.0),
        ] {
            w.record(at, v);
        }
        // the sample past the last window is dropped
        assert_eq!(w.rates(), vec![2.0, 1.0, 2.0]);
        // windows tile the span: 0.6 s is one window, 1.3 s three of 0.43 s
        assert_eq!(Windows::new(0.6, 0.5).rates().len(), 1);
        assert!(Windows::new(0.6, 0.5).covers(0.59));
        assert_eq!(Windows::new(1.3, 0.5).rates().len(), 3);
        // per-window medians (nearest rank): 1, 10, 5 → median 5
        assert_eq!(w.median_of_quantile(0.5), Some(5.0));
    }
}
