//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction. An untraced run prints [`END_TO_END`]; a traced run
//! prints [`PER_LAYER`]. `BENCHMARK.json` at the repository root declares
//! the same lists (a unit test keeps the two in step).

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", Better::Lower),
    spec("cells_per_s", "1/s", Better::Higher),
    spec("latency_p50_s", "s", Better::Lower),
    spec("latency_tail_s", "s", Better::Lower),
    spec("bulk_job_p50_s", "s", Better::Lower),
    spec("peak_rss_mb", "MB", Better::Lower),
];

/// One layer each; printed by traced runs.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("netlist.parse_s", "s", Better::Lower),
    spec("sync.lower_s", "s", Better::Lower),
    spec("crn.parse_s", "s", Better::Lower),
    spec("kinetics.compile_s", "s", Better::Lower),
    spec("kinetics.rebind_s", "s", Better::Lower),
    spec("kinetics.cache_hit_ratio", "ratio", Better::Higher),
    spec("kinetics.cache_misses", "count", Better::Lower),
    spec("kinetics.ode.steps_accepted", "count", Better::Lower),
    spec("kinetics.ode.accept_ratio", "ratio", Better::Higher),
    spec("kinetics.ode.lu_factorizations", "count", Better::Lower),
    spec("kinetics.ode.us_per_step", "us/step", Better::Lower),
    spec("kinetics.ssa.events", "count", Better::Lower),
    spec("kinetics.ssa.ns_per_event", "ns/event", Better::Lower),
    spec("kinetics.tau.leaps", "count", Better::Lower),
    spec("kinetics.hybrid.fast_steps", "count", Better::Lower),
    spec("kinetics.hybrid.slow_events", "count", Better::Lower),
    spec("sweep.cell_p50_s", "s", Better::Lower),
    spec("sweep.cell_tail_s", "s", Better::Lower),
    spec("sweep.pool_busy_frac", "frac", Better::Higher),
    spec("serve.submit_s", "s", Better::Lower),
    spec("serve.first_row_s", "s", Better::Lower),
    spec("serve.stream_s", "s", Better::Lower),
    spec("serve.batch_width_mean", "lanes", Better::Higher),
    spec("bench.trace_overhead_frac", "frac", Better::Lower),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reading: the value, how many samples it summarizes, and an
/// optional remark (the tail percentile, say).
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The value in the metric's unit.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Extra context for the human-readable line.
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, plus client calls that failed before
    /// producing cells).
    pub attempted: u64,
    /// Attempted operations that did not finish Ok.
    pub failed: u64,
    /// Correctness violations (each fails the run).
    pub violations: Vec<String>,
    /// Readings by metric name.
    pub readings: BTreeMap<&'static str, Reading>,
}

impl Outcome {
    /// Records a reading.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    /// Records a reading with a remark.
    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        self.readings.insert(
            name,
            Reading {
                value,
                samples,
                note,
            },
        );
    }

    /// Records a correctness violation.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Whether every check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// The human-readable lines for `specs`: name, value, unit, samples.
#[must_use]
pub fn render_lines(outcome: &Outcome, specs: &[MetricSpec]) -> String {
    let mut out = String::new();
    for spec in specs {
        if let Some(r) = outcome.readings.get(spec.name) {
            let note = if r.note.is_empty() {
                String::new()
            } else {
                format!(", {}", r.note)
            };
            out.push_str(&format!(
                "{:<32} {:>16.6} {:<9} (n={}{note})\n",
                spec.name, r.value, spec.unit, r.samples
            ));
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `specs` as `{"value": v, "unit": u}`.
///
/// # Errors
///
/// Names the first metric of `specs` that has no reading or whose value
/// is not finite.
pub fn render_json(outcome: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for spec in specs {
        let r = outcome
            .readings
            .get(spec.name)
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        if !r.value.is_finite() {
            return Err(format!("metric `{}` is not finite", spec.name));
        }
        // `{:?}` prints the shortest string that reads back to the same f64
        metrics.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            spec.name, r.value, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use molseq_sweep::JsonValue;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(spec.name.len() <= 64, "{}", spec.name);
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name("latency p50"));
        assert!(!valid_name("x/y"));
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn registry(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|s| (s.name.into(), s.unit.into(), s.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_registry() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(declared(&doc, "end_to_end"), registry(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), registry(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut outcome = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        for spec in END_TO_END {
            outcome.set(spec.name, 0.125, 3);
        }
        let line = render_json(&outcome, END_TO_END).unwrap();
        let doc = JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.125));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));

        outcome.readings.remove("peak_rss_mb");
        assert!(render_json(&outcome, END_TO_END).is_err());
    }
}
