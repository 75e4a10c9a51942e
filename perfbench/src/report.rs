//! Metric summaries and the result line.

/// Median of `samples` (sorted in place); NaN when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// with its nearest-rank value, or `None` when there are too few samples.
pub fn highest_supported(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |p: f64| ((p / 100.0) * n as f64).ceil() as usize;
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n >= rank(p) + 10)
        .map(|p| (p, sorted[rank(p).clamp(1, n) - 1]))
}

/// One reported metric: its samples and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Every sample taken in this run (one for exact counts).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric with one exact value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            samples: vec![value],
        }
    }

    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        median(&mut self.samples.clone())
    }
}

/// Human-readable table: name, median, highest supported percentile,
/// sample count and unit.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<26} {:>16} {:>24} {:>4}  unit\n",
        "metric", "median", "max / pXX", "n"
    );
    for m in metrics {
        let tail = match highest_supported(&m.samples) {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => format!(
                "max={:.6}",
                m.samples.iter().copied().fold(f64::NAN, f64::max)
            ),
        };
        out += &format!(
            "{:<26} {:>16.6} {:>24} {:>4}  {}\n",
            m.name,
            m.value(),
            tail,
            m.samples.len(),
            m.unit
        );
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its median value and unit.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value(),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(highest_supported(&few), None);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported(&many), Some((90.0, 90.0)));
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_json(3, 0, &[Metric::exact("wall_s", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
