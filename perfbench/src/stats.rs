//! Exact latency statistics: raw nanoseconds per operation in a
//! pre-allocated vector, nearest-rank order statistics, and the quartile
//! spread the acceptance rule uses. `bess_obs::LatencyHistogram` is not
//! reused: its 64 log2 buckets round every quantile to `2^k - 1`, which
//! hides anything below a 2x change.

use std::time::Instant;

/// Raw per-operation samples in nanoseconds.
pub struct Recorder {
    samples: Vec<u64>,
}

impl Recorder {
    /// Room for `capacity` samples without reallocating inside the
    /// measured phase.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    pub fn push_since(&mut self, start: Instant) {
        self.push(start.elapsed().as_nanos() as u64);
    }

    /// Percentile `p` of each of up to `k` consecutive windows of equally
    /// many samples, in the order the samples arrived, in microseconds.
    pub fn window_percentiles_us(&self, k: usize, p: f64) -> Vec<f64> {
        let len = (self.samples.len() / k.max(1)).max(1);
        self.samples
            .chunks_exact(len)
            .take(k)
            .map(|window| {
                let mut w = window.to_vec();
                w.sort_unstable();
                w[nearest_rank(w.len(), p).expect("a window has samples") - 1] as f64 / 1000.0
            })
            .collect()
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
    }

    pub fn summary(mut self) -> Summary {
        self.samples.sort_unstable();
        Summary {
            sorted: self.samples,
        }
    }
}

/// Sorted samples with nearest-rank percentiles.
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the samples at or below it. `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        nearest_rank(self.sorted.len(), p).map(|r| self.sorted[r - 1])
    }

    /// Samples strictly after the nearest-rank position of `p`.
    pub fn beyond(&self, p: f64) -> usize {
        nearest_rank(self.sorted.len(), p).map_or(0, |r| self.sorted.len() - r)
    }

    /// A percentile is reported as a tail only with ten samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        self.beyond(p) >= 10
    }

    /// Percentile in microseconds with all its digits, 0.0 without samples.
    pub fn us(&self, p: f64) -> f64 {
        self.percentile(p).map_or(0.0, |ns| ns as f64 / 1000.0)
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median of a small set of measurements (set-up times, restarts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// that `--calibrate` computes the spread the acceptance rule computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The decile of `values` on the calm side, by nearest rank: of 3 takes the
/// fastest, of 15 the second, of 48 the fifth. Interference from the host's
/// other tenants only ever adds time, so the fast takes among repeated
/// measurements of one thing are the ones least touched by it, while a
/// change to the program moves every take. `upper` for rates, lower for
/// times; 0.0 when there is no take.
pub fn calm_decile(values: &[f64], upper: bool) -> f64 {
    let Some(rank) = nearest_rank(values.len(), 10.0) else {
        return 0.0;
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if upper {
        v[v.len() - rank]
    } else {
        v[rank - 1]
    }
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(values: impl IntoIterator<Item = u64>) -> Summary {
        let mut r = Recorder::with_capacity(16);
        for v in values {
            r.push(v);
        }
        r.summary()
    }

    #[test]
    fn nearest_rank_order_statistics() {
        // 1..=100 shuffled: pK is exactly K.
        let s = summary_of((1..=100u64).map(|i| (i * 37) % 101));
        assert_eq!(s.count(), 100);
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(0.0), Some(1));
        // Five samples: p50 is the third, p99 the largest.
        let s = summary_of([50, 10, 40, 20, 30]);
        assert_eq!(s.percentile(50.0), Some(30));
        assert_eq!(s.percentile(99.0), Some(50));
        assert_eq!(summary_of([]).percentile(50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s = summary_of(0..1000);
        assert_eq!(s.beyond(99.0), 10);
        assert!(s.supports(99.0));
        let s = summary_of(0..999);
        assert_eq!(s.beyond(99.0), 9);
        assert!(!s.supports(99.0));
        assert!(s.supports(90.0));
        // 2000 timed operations keep twenty samples beyond p99.
        assert_eq!(summary_of(0..2000).beyond(99.0), 20);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windows_are_consecutive_and_equal() {
        let mut r = Recorder::with_capacity(16);
        // Ten fast samples, ten slow ones, and a remainder that is dropped.
        for ns in (1..=10).chain(1001..=1010).chain([7, 7, 7]) {
            r.push(ns * 1000);
        }
        // 23 samples in 2 windows of 11: the first also holds the first slow one.
        assert_eq!(r.window_percentiles_us(2, 50.0), vec![6.0, 1005.0]);
        assert_eq!(r.window_percentiles_us(2, 100.0), vec![1001.0, 1010.0]);
        // Fewer samples than windows: one sample per window.
        assert_eq!(r.window_percentiles_us(100, 50.0).len(), 23);
        assert!(Recorder::with_capacity(0)
            .window_percentiles_us(4, 50.0)
            .is_empty());
    }

    #[test]
    fn calm_decile_takes_the_undisturbed_side() {
        // Twenty windows, fifteen of them disturbed: the decile is calm.
        let mut times = vec![100.0; 5];
        times.extend((0..15).map(|i| 130.0 + f64::from(i)));
        assert_eq!(calm_decile(&times, false), 100.0);
        let rates: Vec<f64> = times.iter().map(|t| 1e6 / t).collect();
        assert_eq!(calm_decile(&rates, true), 1e4);
        // Of three restarts it is the fastest, of fifteen set-ups the second.
        assert_eq!(calm_decile(&[3.0, 1.0, 2.0], false), 1.0);
        let fifteen: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(calm_decile(&fifteen, false), 2.0);
        assert_eq!(calm_decile(&fifteen, true), 14.0);
        assert_eq!(calm_decile(&[5.0], false), 5.0);
        assert_eq!(calm_decile(&[], true), 0.0);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
