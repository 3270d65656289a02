//! What one run reports, and the JSON line it ends with.

use dbp_obs::json::escape;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Everything a run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Decisions (requests or packed items) the run asked for.
    pub attempted: u64,
    /// Of those, ones that got an error, a wrong answer or no answer.
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// True when every check held and no request failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Prints each metric on its own line with its unit, for people.
    pub fn print_table(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<14} {:<34} {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        for v in &self.violations {
            println!("{workload:<14} VIOLATION: {v}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(m.name),
                    json_number(m.value),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// A finite JSON number with every digit the value has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_with_every_field() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.push("latency_ms", 1.2034, "ms");
        r.push("setup_s", 0.8127, "s");
        let doc = dbp_obs::json::parse(&r.json_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&dbp_obs::json::Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(10));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
        r.violation("overfull");
        assert!(r.json_line().starts_with("{\"correct\": false"));
    }
}
