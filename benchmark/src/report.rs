//! Named metrics and the two forms they are printed in: one line per
//! metric for people, one JSON line at the very end for the driver.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// Its unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Metrics in the order they were measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric. A value that is not finite (a ratio over zero
    /// operations) is recorded as 0 so the JSON line stays valid.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name, unit, value });
    }

    /// The value recorded under `name`.
    ///
    /// # Panics
    /// If no such metric was pushed — a misspelt name is a bug here.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"))
            .value
    }
}

/// What one run of the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Every answer the program gave matched the generator's oracle.
    pub correct: bool,
    /// Sub-requests or point operations attempted in the measured part.
    pub attempted: u64,
    /// Those that failed: timed out, went unanswered or answered wrong.
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer ones of a traced.
    pub metrics: Metrics,
}

impl RunOutput {
    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics.0 {
            let _ = writeln!(out, "{:<42} {:>16.4} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The single-line JSON summary with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. The benchmark claims no gain,
    /// so there is nothing else to say.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on an f64 prints the shortest text that reads back to
            // the same value: every digit measured, and valid JSON.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_one_line_with_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_p50_ms", "ms", 1.25);
        metrics.push("ratio", "1", f64::NAN);
        let out = RunOutput {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ratio\": {\"value\": 0, \"unit\": \"1\"}}}"
        );
        assert_eq!(out.metrics.get("latency_p50_ms"), 1.25);
    }
}
