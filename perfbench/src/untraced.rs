//! The untraced run: end-to-end metrics of one workload, measured through
//! `SystemConfig::builder()` → `Simulation` alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dmm_buffer::ClassId;
use dmm_cluster::DataPlane;
use dmm_core::{Simulation, SystemConfig};

use crate::fingerprint::Fingerprint;
use crate::reference::HostSpeed;
use crate::report::Report;
use crate::stats::{median, percentile, percentile_label, tail_percentile};
use crate::workloads::Workload;

/// Extra set-ups timed before each measured simulation, so the `setup_s`
/// median rests on many samples spread over the whole run.
const EXTRA_SETUPS: usize = 2;

/// Interval samples per block of the tail statistic: each block's p95
/// leaves ten samples beyond it.
const TAIL_BLOCK: usize = 200;

/// One timed simulation.
pub struct TimedRun {
    /// The simulation, run to completion.
    pub sim: Simulation,
    /// Host seconds of `build()` + `Simulation::new`.
    pub setup_s: f64,
    /// Host ms of each `run_intervals(1)` call.
    pub interval_ms: Vec<f64>,
}

impl TimedRun {
    /// Host seconds of all `run_intervals(1)` calls.
    pub fn host_s(&self) -> f64 {
        self.interval_ms.iter().sum::<f64>() / 1e3
    }
}

/// Builds `config(seed)`, then runs `intervals` intervals one call at a
/// time, timing set-up and each call.
pub fn timed_run(config: impl Fn(u64) -> SystemConfig, seed: u64, intervals: u32) -> TimedRun {
    timed_run_with(config, seed, intervals, |s| s)
}

/// [`timed_run`] that passes each measured host time, in seconds, through
/// `host` and keeps what it returns.
pub fn timed_run_with(
    config: impl Fn(u64) -> SystemConfig,
    seed: u64,
    intervals: u32,
    mut host: impl FnMut(f64) -> f64,
) -> TimedRun {
    let t0 = Instant::now();
    let mut sim = Simulation::new(config(seed));
    let setup_s = host(t0.elapsed().as_secs_f64());
    let mut interval_ms = Vec::with_capacity(intervals as usize);
    for _ in 0..intervals {
        let t = Instant::now();
        sim.run_intervals(1);
        interval_ms.push(host(t.elapsed().as_secs_f64()) * 1e3);
    }
    TimedRun {
        sim,
        setup_s,
        interval_ms,
    }
}

/// Runs `DataPlane::check_invariants`, turning its panic into an error
/// message.
pub fn invariants_hold(plane: &DataPlane) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| plane.check_invariants())).map_err(panic_text)
}

/// The message of a caught panic.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Operations a simulation has generated: completed plus in flight.
pub fn ops_generated(sim: &Simulation, classes: usize) -> u64 {
    let completed: u64 = (0..classes)
        .map(|c| sim.class_completions(ClassId(c as u16)))
        .sum();
    completed + sim.plane().inflight_ops() as u64
}

/// Goal compliance pooled over fingerprints: `(goal_met_frac,
/// nogoal_rt_ms)` over the check phases after each run's warm-up.
pub fn compliance(fps: &[Fingerprint], warmup_intervals: u32) -> (f64, f64) {
    let (mut checks, mut met, mut nogoal_sum, mut nogoal_n) = (0u64, 0u64, 0.0, 0u64);
    for fp in fps {
        for r in fp.records.iter().flatten() {
            if r.interval < warmup_intervals {
                continue;
            }
            nogoal_sum += r.nogoal_ms;
            nogoal_n += 1;
            if let Some(ok) = r.satisfied {
                checks += 1;
                met += ok as u64;
            }
        }
    }
    (met as f64 / checks as f64, nogoal_sum / nogoal_n as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: every simulation seed once, then further runs cycling
/// over the same seeds until `seconds` have passed. Timing metrics use
/// every run; simulated metrics come from the first run of each seed, and
/// every later run must reproduce that seed's fingerprint exactly.
///
/// Every host time is reported at the reference kernel's nominal speed,
/// scaled by the kernel time taken just before it (see [`HostSpeed`]).
///
/// The interval-time tail is taken per block of consecutive interval
/// samples (the highest percentile with at least ten of the block's samples
/// beyond it) and reported as the median over blocks, so a host hiccup in
/// one stretch of the run does not move it.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let seeds = w.seeds(seed);
    let config = (w.config)(seeds[0]);
    let classes = config.workload.classes.len();
    let sim_s_per_run = w.intervals as f64 * config.interval.as_millis_f64() / 1e3;

    let mut setup_s = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut host_s: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut interval_ms = Vec::new();
    let mut first: Vec<Fingerprint> = Vec::new();
    let mut speed = HostSpeed::new();
    let mut raw_host_s: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut rounds = 0;
    'measure: loop {
        for (i, &s) in seeds.iter().enumerate() {
            if rounds > 0 && start.elapsed() >= budget {
                break 'measure;
            }
            for _ in 0..EXTRA_SETUPS {
                let t0 = Instant::now();
                let sim = Simulation::new((w.config)(s));
                setup_s.push(speed.scaled(t0.elapsed().as_secs_f64()));
                drop(sim);
            }
            // Unscaled times, set-up first, for the printed note.
            let mut raw = Vec::with_capacity(w.intervals as usize + 1);
            let run = timed_run_with(w.config, s, w.intervals, |t| {
                raw.push(t);
                speed.scaled(t)
            });
            setup_s.push(run.setup_s);
            host_s[i].push(run.host_s());
            raw_host_s[i].push(raw[1..].iter().sum());
            interval_ms.extend_from_slice(&run.interval_ms);

            let ops = ops_generated(&run.sim, classes);
            let fp = Fingerprint::of_simulation(&run.sim, classes);
            let mut failed = false;
            if let Err(e) = invariants_hold(run.sim.plane()) {
                report.fail(format!("seed {s}: invariants broken at the end: {e}"));
                failed = true;
            }
            if rounds == 0 {
                first.push(fp);
            } else if let Err(d) = first[i].diff(&fp, &[]) {
                report.fail(format!("seed {s}: repeated run diverged: {d}"));
                failed = true;
            }
            let aborted = first[i].counter("cluster.fault.ops_aborted").unwrap_or(0);
            report.attempted += ops;
            report.failed += if failed { ops } else { aborted };
        }
        rounds += 1;
    }

    if let Some(sum) = speed.wrong_sum {
        report.fail(format!("reference kernel returned {sum:#x}"));
    }
    let total_sim_s = sim_s_per_run * seeds.len() as f64;
    let total_host_s: f64 = host_s.iter().filter_map(|h| median(h)).sum();
    let raw_total_host_s: f64 = raw_host_s.iter().filter_map(|h| median(h)).sum();
    let (goal_met, nogoal_ms) = compliance(&first, config.warmup_intervals);
    let tail_p = tail_percentile(TAIL_BLOCK);
    let tails_ms: Vec<f64> = interval_ms
        .chunks_exact(TAIL_BLOCK)
        .filter_map(|block| percentile(block, tail_p))
        .collect();

    report.push_noted(
        "sim_s_per_host_s",
        total_sim_s / total_host_s,
        "s/s",
        format!(
            "{} runs of {} seeds x {} intervals, per-seed median host time; \
             reference kernel median {:.3} ms of {} runs, unscaled {:.3} s/s",
            host_s.iter().map(Vec::len).sum::<usize>(),
            seeds.len(),
            w.intervals,
            median(&speed.kernel_s).unwrap_or(f64::NAN) * 1e3,
            speed.kernel_s.len(),
            total_sim_s / raw_total_host_s
        ),
    );
    report.push_noted(
        "interval_host_ms_p50",
        median(&interval_ms).unwrap_or(f64::NAN),
        "ms",
        format!("{} samples", interval_ms.len()),
    );
    report.push_noted(
        "interval_host_ms_tail",
        median(&tails_ms).unwrap_or(f64::NAN),
        "ms",
        format!(
            "{} of each block of {TAIL_BLOCK} intervals, median of {} blocks",
            percentile_label(tail_p),
            tails_ms.len()
        ),
    );
    report.push_noted(
        "setup_s",
        median(&setup_s).unwrap_or(f64::NAN),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    report.push("goal_met_frac", goal_met, "fraction");
    report.push("nogoal_rt_ms", nogoal_ms, "ms");
    report.push_noted(
        "ok_ops_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
        format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ),
    );
    report.check_finite();
    report
}
