//! What one run reports: metrics with units and sample counts,
//! deterministic counts, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// Deterministic counts: values that must repeat exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<String, String>);

impl Counts {
    /// Records `name = value`.
    pub fn put(&mut self, name: &str, value: impl ToString) {
        self.0.insert(name.to_owned(), value.to_string());
    }

    /// Adds every entry of `other`.
    pub fn extend(&mut self, other: &Counts) {
        self.0
            .extend(other.0.iter().map(|(k, v)| (k.clone(), v.clone())));
    }

    /// `key=value` lines, sorted by key.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.0.iter().fold(String::new(), |mut s, (k, v)| {
            let _ = writeln!(s, "{k}={v}");
            s
        })
    }

    /// Keys whose values differ between `self` and `other` (a key
    /// missing on one side counts as differing).
    #[must_use]
    pub fn differences(&self, other: &Counts) -> Vec<String> {
        let keys: std::collections::BTreeSet<&String> =
            self.0.keys().chain(other.0.keys()).collect();
        keys.into_iter()
            .filter(|k| self.0.get(*k) != other.0.get(*k))
            .map(|k| {
                format!(
                    "{k}: {} vs {}",
                    self.0.get(k).map_or("-", String::as_str),
                    other.0.get(k).map_or("-", String::as_str)
                )
            })
            .collect()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose outputs were wrong.
    pub failed: u64,
    /// Human-readable descriptions of failures.
    pub errors: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Diagnostics printed but never gated.
    pub notes: Vec<String>,
    /// Deterministic counts.
    pub counts: Counts,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a diagnostic line for a latency distribution.
    pub fn note_summary(&mut self, name: &str, s: &Summary) {
        self.notes.push(format!("{name}: {}", s.describe("")));
    }

    /// Records a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts failures from a pass.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend_from_slice(errors);
    }

    /// Records a failed check that is not tied to one operation.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        self.attempted += 1;
        self.errors.push(error.into());
    }

    /// The human-readable report: every metric with unit and sample
    /// count, then diagnostics, counts and errors.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                s,
                "metric {name} = {:.6} {} (n={})",
                m.value, m.unit, m.samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(s, "diag {note}");
        }
        for line in self.counts.to_text().lines() {
            let _ = writeln!(s, "count {line}");
        }
        for e in self.errors.iter().take(20) {
            let _ = writeln!(s, "error {e}");
        }
        let _ = writeln!(s, "ops attempted={} failed={}", self.attempted, self.failed);
        s
    }

    /// The final JSON line, restricted to `names`. A missing or
    /// non-finite metric makes the run incorrect.
    #[must_use]
    pub fn to_json(&self, names: &[&str]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = match self.metrics.get(*name) {
                Some(m) if m.value.is_finite() => (m.value, m.unit),
                _ => {
                    correct = false;
                    (0.0, "")
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_diff_names_changed_and_missing_keys() {
        let mut a = Counts::default();
        a.put("frames", 40_000u64);
        a.put("energy_j", "1.5");
        assert_eq!(a.to_text(), "energy_j=1.5\nframes=40000\n");
        let mut c = a.clone();
        assert!(a.differences(&c).is_empty());
        c.put("frames", 39_999u64);
        c.put("seals", 40u64);
        assert_eq!(
            a.differences(&c),
            vec![
                "frames: 40000 vs 39999".to_owned(),
                "seals: - vs 40".to_owned()
            ]
        );
    }

    #[test]
    fn json_line_has_exactly_the_named_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s", 3);
        r.metric("other", 1.0, "s", 1);
        let json = r.to_json(&["setup_s"]);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!json.contains("other"));
        // A metric the run did not produce fails the run.
        assert!(r.to_json(&["missing"]).contains("\"correct\": false"));
    }
}
