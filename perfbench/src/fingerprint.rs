//! The deterministic fingerprint of one simulation: events delivered,
//! per-class completions, every interval record and every metric of the
//! snapshot. Two runs of the same configuration and seed must agree on it
//! exactly, whoever drives the library.

use dmm_buffer::ClassId;
use dmm_core::{IntervalRecord, Simulation};
use dmm_obs::MetricsSnapshot;

/// Snapshot keys a layer-call replica cannot reproduce through the public
/// API and that carry no simulated outcome: windowed-executor batching
/// counters (zero in sequential runs) and trace-sink health counters.
pub const UNREPLICATED_PREFIXES: [&str; 2] = ["sim.exec.", "obs.sink."];

/// Deterministic outputs of one simulation.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Events the engine delivered.
    pub events: u64,
    /// Completed operations per class (index = class id).
    pub completions: Vec<u64>,
    /// Interval records per class (index = class id; empty for no-goal).
    pub records: Vec<Vec<IntervalRecord>>,
    /// Every snapshot entry as `(name, exact value text)`, sorted by name.
    pub metrics: Vec<(String, String)>,
}

impl Fingerprint {
    /// Fingerprint of a `Simulation` with `classes` classes.
    pub fn of_simulation(sim: &Simulation, classes: usize) -> Fingerprint {
        let snap = sim.metrics_snapshot();
        Fingerprint {
            events: snap.get_counter("sim.events").unwrap_or(0),
            completions: (0..classes)
                .map(|c| sim.class_completions(ClassId(c as u16)))
                .collect(),
            records: (0..classes)
                .map(|c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        sim.records(ClassId(c as u16)).to_vec()
                    }
                })
                .collect(),
            metrics: entries(&snap),
        }
    }

    /// Value of a counter entry, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
    }

    /// Sum of the counters named `prefix<anything>suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .filter_map(|(_, v)| v.parse::<u64>().ok())
            .sum()
    }

    /// Compares against `other`, ignoring snapshot entries whose name
    /// starts with any of `ignore`. Returns the first difference found.
    pub fn diff(&self, other: &Fingerprint, ignore: &[&str]) -> Result<(), String> {
        if self.events != other.events {
            return Err(format!("sim.events {} vs {}", self.events, other.events));
        }
        if self.completions != other.completions {
            return Err(format!(
                "completions {:?} vs {:?}",
                self.completions, other.completions
            ));
        }
        for (class, (a, b)) in self.records.iter().zip(&other.records).enumerate() {
            if a.len() != b.len() {
                return Err(format!("class {class}: {} vs {} records", a.len(), b.len()));
            }
            if let Some((x, y)) = a.iter().zip(b).find(|(x, y)| x != y) {
                return Err(format!("class {class} record {x:?} vs {y:?}"));
            }
        }
        let kept = |m: &[(String, String)]| -> Vec<(String, String)> {
            m.iter()
                .filter(|(n, _)| !ignore.iter().any(|p| n.starts_with(p)))
                .cloned()
                .collect()
        };
        let (a, b) = (kept(&self.metrics), kept(&other.metrics));
        for (x, y) in a.iter().zip(&b) {
            if x != y {
                return Err(format!("metric {x:?} vs {y:?}"));
            }
        }
        if a.len() != b.len() {
            return Err(format!("{} vs {} metrics", a.len(), b.len()));
        }
        Ok(())
    }
}

/// Every entry of a snapshot as `(name, exact value text)`, sorted.
pub fn entries(snap: &MetricsSnapshot) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = snap
        .counters()
        .iter()
        .map(|(n, v)| (n.clone(), v.to_string()))
        .chain(
            snap.gauges()
                .iter()
                .map(|(n, v)| (n.clone(), format!("{v:?}"))),
        )
        .chain(
            snap.histograms()
                .iter()
                .map(|(n, h)| (n.clone(), h.to_json().to_string())),
        )
        .collect();
    out.sort();
    out
}
