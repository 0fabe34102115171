//! Multi-seed robustness analysis.
//!
//! The paper runs each benchmark once (real executions are deterministic
//! enough); our workloads are *sampled*, so any headline number should be
//! shown to be stable across trace seeds. [`over_seeds`] evaluates a
//! metric at several seeds and returns a [`Series`] with a normal-theory
//! 95% confidence interval — the experiment binaries and tests use it to
//! demonstrate that the reported shapes are not seed artifacts.

/// Summary statistics of a sampled metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Series {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub stddev: f64,
    /// Lower bound of the normal-approximation 95% CI of the mean.
    pub ci95_low: f64,
    /// Upper bound of the normal-approximation 95% CI of the mean.
    pub ci95_high: f64,
    /// Number of samples.
    pub n: usize,
}

impl Series {
    /// True if `value` lies inside the 95% CI.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        (self.ci95_low..=self.ci95_high).contains(&value)
    }

    /// Relative CI half-width (0 for a single sample or zero mean).
    #[must_use]
    pub fn relative_halfwidth(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            ((self.ci95_high - self.ci95_low) / 2.0 / self.mean).abs()
        }
    }
}

/// Summarizes raw samples. Returns `None` when `samples` is empty.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Series> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let stddev = if n < 2 {
        0.0
    } else {
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        var.sqrt()
    };
    let half = 1.96 * stddev / (n as f64).sqrt();
    Some(Series {
        mean,
        stddev,
        ci95_low: mean - half,
        ci95_high: mean + half,
        n,
    })
}

/// Evaluates `metric` at each seed and summarizes the results.
///
/// # Example
///
/// ```
/// use cce_sim::seeds::over_seeds;
/// // A metric that barely depends on the seed.
/// let series = over_seeds(0..10, |seed| 5.0 + (seed % 2) as f64 * 0.01);
/// assert!(series.unwrap().contains(5.005));
/// ```
pub fn over_seeds<I, F>(seeds: I, mut metric: F) -> Option<Series>
where
    I: IntoIterator<Item = u64>,
    F: FnMut(u64) -> f64,
{
    let samples: Vec<f64> = seeds.into_iter().map(&mut metric).collect();
    summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basic_statistics() {
        let s = summarize(&[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of 2,4,6,8 = sqrt(20/3).
        assert!((s.stddev - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95_low < 5.0 && 5.0 < s.ci95_high);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(summarize(&[]).is_none());
        let s = summarize(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_low, 7.0);
        assert_eq!(s.ci95_high, 7.0);
        assert!(s.contains(7.0));
    }

    #[test]
    fn constant_metric_has_zero_width() {
        let s = over_seeds(0..20, |_| 3.25).unwrap();
        assert_eq!(s.relative_halfwidth(), 0.0);
        assert!(s.contains(3.25));
        assert!(!s.contains(3.26));
    }

    #[test]
    fn miss_rates_are_stable_across_seeds() {
        use crate::replay::Replay;
        use cce_core::Granularity;
        // A mid-size benchmark: tiny traces (mcf at low scale) are
        // legitimately seed-sensitive, larger ones must not be.
        let model = cce_workloads::by_name("parser").unwrap();
        let series = over_seeds(0..6, |seed| {
            let trace = model.trace(0.2, seed);
            Replay::new(&trace)
                .granularity(Granularity::units(8))
                .pressure(4)
                .run()
                .unwrap()
                .into_solo()
                .stats
                .miss_rate()
        })
        .unwrap();
        assert!(series.mean > 0.0);
        assert!(
            series.relative_halfwidth() < 0.5,
            "miss rate too seed-sensitive: {series:?}"
        );
    }
}
