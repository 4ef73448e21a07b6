//! Empirical CDFs for evaluation output.

/// An empirical cumulative distribution function over collected samples.
///
/// Used to reproduce Fig. 11 (CDF of predictor error ratios).
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in Cdf"));
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or any sample is NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let idx =
            ((q * (self.samples.len() - 1) as f64).round() as usize).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Sample mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Returns `(value, cumulative fraction)` pairs at `points` evenly
    /// spaced quantiles, suitable for plotting the CDF curve.
    pub fn curve(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1).max(1) as f64;
                let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
                (self.samples[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Cdf::new();
        for x in iter {
            c.add(x);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles() {
        let mut c: Cdf = (1..=100).map(|i| i as f64).collect();
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(100.0));
        let median = c.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median));
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let mut c: Cdf = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        let curve = c.curve(5);
        assert_eq!(curve.len(), 5);
        for pair in curve.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_empty_cases() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.mean(), 0.0);
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn cdf_mean() {
        let c: Cdf = [1.0, 2.0, 3.0].into_iter().collect();
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }
}
