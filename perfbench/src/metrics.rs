//! The result line: named metrics with units, medians over units, and the
//! `{"correct", "attempted", "failed", "metrics"}` object the benchmark
//! prints last.

use std::fmt::Write as _;

/// One named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit string (`s`, `events/s`, `count`, ...).
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.0.push(Metric { name, value, unit });
    }
}

/// Outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Units (operations) attempted.
    pub attempted: u64,
    /// Units whose correctness gate failed.
    pub failed: u64,
    /// Gate failure messages (printed to stderr).
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record one unit's gate verdict.
    pub fn gate(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// The final result line.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit Rust prints (non-finite values,
/// which no metric should produce, become 0).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for an
/// empty sample.
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.gate(Ok(()));
        o.gate(Err("bad".into()));
        o.metrics.put("setup_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
