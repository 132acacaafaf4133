//! The one-line JSON result every run prints last on stdout.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result: correctness accounting plus its metrics, in the
/// order they were added.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness checks made during the run.
    pub tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics added so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    ///
    /// A non-finite value cannot be written as a JSON number; it is
    /// written as 0 and makes the run incorrect, so a broken
    /// measurement never passes as a good one.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = finite && self.tally.failed == 0 && self.tally.attempted > 0;
        // A run that checked nothing counts as one failed check.
        let attempted = self.tally.attempted.max(1);
        let failed =
            (self.tally.failed + u64::from(!finite) + u64::from(self.tally.attempted == 0))
                .min(attempted);
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
