//! The run's result: named metrics with units, operation counts, the
//! correctness verdict, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// A correctness check that failed, with what was observed.
#[derive(Debug, Default)]
pub struct Gate {
    violations: Vec<String>,
}

impl Gate {
    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// True when nothing was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in the order found.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Formats a value for JSON with every digit of its shortest exact
/// representation. A miss that reached a percentile is infinite; JSON has
/// no infinity, so it is written as the largest finite double.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("setup_s", 0.5, "s");
        m.set("latency_ms", 1.5, "ms");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
        assert_eq!(json_number(3.0), "3.0");
    }
}
