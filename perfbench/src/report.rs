//! The benchmark's output: one human-readable line per metric, then, as
//! the last line of standard output, the JSON result object.

use dmm_obs::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Context printed beside the value (e.g. the tail percentile).
    pub note: String,
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Simulated operations the run generated.
    pub attempted: u64,
    /// Operations that failed: aborted by the simulator, or belonging to a
    /// simulation whose correctness check failed.
    pub failed: u64,
    /// Every metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness checks that failed, with the reason.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// Adds a metric with a note printed beside it.
    pub fn push_noted(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Whether every check passed and every number is finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Flags non-finite metrics as failed checks (call once, before
    /// printing).
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not finite ({})", m.name, m.value))
            .collect();
        self.failures.extend(bad);
    }

    /// The JSON result object.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                Json::F64(m.value)
            } else {
                Json::Null
            };
            metrics = metrics.field(
                m.name,
                Json::obj().field("value", value).field("unit", m.unit),
            );
        }
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    /// Prints the human-readable lines and then the JSON line.
    pub fn print(&self, workload: &str, trace: bool) {
        let kind = if trace { "traced" } else { "untraced" };
        println!("perfbench {workload} ({kind})");
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!("  {:<38} {:>16.6} {}{note}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        println!("{}", self.to_json());
    }
}
