//! What one benchmark run reports, and how it is printed.

use crate::stats::valid_metric_name;
use crate::trace::json_string;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`crate::stats::valid_metric_name`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `el/s`, `count`.
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` breaks the metric-name grammar (a bug here).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name `{name}`");
        self.0.push(Metric { name, value, unit });
    }

    /// The value of the metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Appends all of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The result of running one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness-check failures; empty when every output was right.
    pub problems: Vec<String>,
    /// Operations attempted: training steps, or experiment trials.
    pub attempted: u64,
    /// Of those, failed steps or error trials.
    pub failed: u64,
    /// The gated end-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// End-to-end detail printed for readers but not gated: the workload's
    /// own names for the gated figures, tail latency with its sample count.
    pub detail: Metrics,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Aligned `name value unit` lines for human readers.
pub fn table(title: &str, metrics: &Metrics) -> String {
    let width = metrics.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = format!("== {title}\n");
    for m in &metrics.0 {
        let _ = writeln!(out, "  {:width$}  {:>16}  {}", m.name, format_value(m.value), m.unit);
    }
    out
}

fn format_value(value: f64) -> String {
    if value != 0.0 && (value.abs() >= 1e6 || value.abs() < 1e-3) {
        format!("{value:.4e}")
    } else {
        format!("{value:.6}")
    }
}

/// The one-line JSON result the benchmark ends its output with.
pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// `value` with every digit (Rust's shortest round-trip form); JSON has no
/// NaN or infinity, so those become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.8127, "s");
        metrics.push("throughput", 1.5e8, "1/s");
        let outcome = Outcome { attempted: 10, ..Outcome::default() };
        let line = result_line(&outcome, &metrics);
        let doc = serde_json::parse(&line).expect("valid JSON");
        let serde_json::Value::Object(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput\": {\"value\": 150000000.0"));
    }
}
