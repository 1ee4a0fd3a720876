//! The traced run: the per-layer profile of one workload.
//!
//! One simulation seed (the run's first) is run several ways: as an
//! untraced `Simulation` (the reference fingerprint and host time), through
//! the layer-call [`Replica`] (host time per layer, allocations, invariants
//! at every interval boundary, LP re-solves), with a timing trace sink, and
//! for span-accounting workloads with spans off. The replica and the untraced
//! runs alternate for as long as `seconds` allows; overheads are medians of
//! back-to-back ratios.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmm_core::Simulation;
use dmm_obs::{Json, MetricsSnapshot, SpanMode, TraceSink, VecSink};

use crate::alloc;
use crate::fingerprint::{Fingerprint, UNREPLICATED_PREFIXES};
use crate::replica::{self, LayerTimes, Replica};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::untraced::{invariants_hold, ops_generated, timed_run};
use crate::workloads::Workload;

/// A trace sink that times every `emit` of the `VecSink` it wraps.
pub struct TimingSink {
    inner: VecSink,
    ns: Arc<AtomicU64>,
    records: Arc<AtomicU64>,
}

impl TimingSink {
    /// Wraps a fresh `VecSink`; returns the sink and its `(ns, records)`
    /// counters.
    pub fn new() -> (TimingSink, Arc<AtomicU64>, Arc<AtomicU64>) {
        let ns = Arc::new(AtomicU64::new(0));
        let records = Arc::new(AtomicU64::new(0));
        let sink = TimingSink {
            inner: VecSink::new(),
            ns: Arc::clone(&ns),
            records: Arc::clone(&records),
        };
        (sink, ns, records)
    }
}

impl TraceSink for TimingSink {
    fn emit(&mut self, record: &Json) {
        let t0 = Instant::now();
        self.inner.emit(record);
        // Statistics only; nothing else is published through them.
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
    }
}

/// Host ns of one `Instant::now()` read (median of several batches).
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    median(&batches).unwrap_or(f64::NAN)
}

/// One replica run of a workload's intervals: its layer times, fingerprint,
/// allocation counts, and the first invariant failure, if any.
struct ReplicaRun {
    times: LayerTimes,
    fingerprint: Fingerprint,
    allocs: u64,
    alloc_bytes: u64,
    broken: Option<String>,
}

fn replica_run(w: &Workload, seed: u64) -> ReplicaRun {
    let config = (w.config)(seed);
    let mut r = Replica::new(&config);
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let mut broken = None;
    for _ in 0..w.intervals {
        let ((), n, b) = alloc::count(|| r.run_intervals(1));
        allocs += n;
        alloc_bytes += b;
        if broken.is_none() {
            if let Err(e) = invariants_hold(r.plane()) {
                broken = Some(format!(
                    "invariants broken after interval {}: {e}",
                    r.intervals()
                ));
            }
        }
    }
    ReplicaRun {
        times: r.times().clone(),
        fingerprint: r.fingerprint(),
        allocs,
        alloc_bytes,
        broken,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist_total(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.get_histogram(name).map_or(0.0, |h| h.total() as f64)
}

/// The traced run of workload `w`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let seed = w.seeds(seed)[0];
    let config = (w.config)(seed);
    let classes = config.workload.classes.len();
    let spans_on = config.cluster.spans != SpanMode::Off;

    // Reference: the untraced program.
    let reference = timed_run(w.config, seed, w.intervals);
    let snap = reference.sim.metrics_snapshot();
    let ref_fp = Fingerprint::of_simulation(&reference.sim, classes);
    if let Err(e) = invariants_hold(reference.sim.plane()) {
        report.fail(format!("reference run: invariants broken at the end: {e}"));
    }
    report.attempted = ops_generated(&reference.sim, classes);
    drop(reference);

    // Trace emission must not perturb the simulation; time the sink.
    let (sink, sink_ns, sink_records) = TimingSink::new();
    let mut sink_sim = Simulation::new(config.clone());
    sink_sim.set_trace_sink(Box::new(sink));
    sink_sim.run_intervals(w.intervals);
    if let Err(d) = ref_fp.diff(
        &Fingerprint::of_simulation(&sink_sim, classes),
        &["obs.sink."],
    ) {
        report.fail(format!("a trace sink changed the simulation: {d}"));
    }
    drop(sink_sim);
    let sink_ns_per_record = ratio(
        sink_ns.load(Ordering::Relaxed) as f64,
        sink_records.load(Ordering::Relaxed) as f64,
    );

    // Span accounting must not perturb the simulation either.
    let spans_off = |seed: u64| {
        let mut cfg = (w.config)(seed);
        cfg.cluster.spans = SpanMode::Off;
        cfg
    };
    if spans_on {
        let off = timed_run(spans_off, seed, w.intervals);
        if let Err(d) = ref_fp.diff(&Fingerprint::of_simulation(&off.sim, classes), &["span."]) {
            report.fail(format!("spans on vs off: simulated outputs differ: {d}"));
        }
    }

    // The replica, alternated with untraced runs while time remains. Each
    // round times the replica, the untraced program and (with spans on)
    // the spans-off program back to back; overheads are medians of the
    // per-round ratios, so host drift between rounds cancels.
    let mut runs: Vec<ReplicaRun> = Vec::new();
    let mut trace_ratios = Vec::new();
    let mut span_ratios = Vec::new();
    if let Some(why) = replica::unsupported(&config) {
        report.fail(format!("layer profile unavailable: {why}"));
    }
    while report.failures.is_empty() && (runs.is_empty() || start.elapsed() < budget) {
        let run = replica_run(w, seed);
        if let Some(b) = &run.broken {
            report.fail(format!("replica: {b}"));
        }
        if let Err(d) = ref_fp.diff(&run.fingerprint, &UNREPLICATED_PREFIXES) {
            report.fail(format!(
                "layer profile unavailable: the replica diverged from Simulation: {d}"
            ));
        }
        if let Some(m) = run.times.lp_mismatches.first() {
            report.fail(format!("LP re-solve disagrees with the check: {m}"));
        }
        if let Some(first) = runs.first() {
            if (first.allocs, first.alloc_bytes) != (run.allocs, run.alloc_bytes) {
                report.fail(format!(
                    "allocation counts did not repeat: {} / {} B vs {} / {} B",
                    first.allocs, first.alloc_bytes, run.allocs, run.alloc_bytes
                ));
            }
        }
        let on_s = timed_run(w.config, seed, w.intervals).host_s();
        trace_ratios.push(run.times.profiled_ns() as f64 / 1e9 / on_s);
        if spans_on {
            span_ratios.push(on_s / timed_run(spans_off, seed, w.intervals).host_s());
        }
        runs.push(run);
    }
    let timer_ns = clock_read_ns();

    // Deterministic counts, from the reference snapshot.
    let c = |name: &str| snap.get_counter(name).unwrap_or(0) as f64;
    let sum = |suffix: &str| ref_fp.counter_sum("buffer.", suffix) as f64;
    let events = c("sim.events");
    report.push("sim.events", events, "count");
    report.push("sim.sched.pushes", c("sim.sched.pushes"), "count");
    report.push("sim.sched.cascaded", c("sim.sched.cascaded"), "count");

    // A failed check fails every operation of the run.
    report.failed = if report.failures.is_empty() {
        c("cluster.fault.ops_aborted") as u64
    } else {
        report.attempted
    };

    let profile = if report.failures.is_empty() {
        pick_median(&runs)
    } else {
        None
    };
    let Some(t) = profile else {
        report.check_finite();
        return report;
    };
    let profiled = t.times.profiled_ns() as f64;
    let share = |ns: u64| ratio(ns as f64, profiled);
    let ops = t.times.ops as f64;
    report.push_noted(
        "sim.host_ns_per_event",
        ratio(t.times.sim_self_ns() as f64, events),
        "ns",
        format!(
            "includes ~{:.1} clock reads/event at {timer_ns:.1} ns",
            ratio(t.times.clock_reads as f64, events)
        ),
    );
    report.push("sim.host_share", share(t.times.sim_self_ns()), "fraction");
    report.push("workload.ops", ops, "count");
    report.push(
        "workload.host_ns_per_op",
        ratio(t.times.workload_ns as f64, ops),
        "ns",
    );
    report.push(
        "workload.host_share",
        share(t.times.workload_ns),
        "fraction",
    );
    report.push(
        "cluster.host_ns_per_event",
        ratio(t.times.data_ns as f64, t.times.data_calls as f64),
        "ns",
    );
    report.push(
        "cluster.host_share",
        share(t.times.cluster_ns()),
        "fraction",
    );
    report.push("cluster.accesses", c("cluster.accesses"), "count");
    report.push("net.data_bytes", c("net.data_bytes"), "bytes");
    report.push("net.control_bytes", c("net.control_bytes"), "bytes");
    report.push("net.control_messages", c("net.control_messages"), "count");
    report.push("disk.reads", c("disk.reads"), "count");
    report.push(
        "net.queue_wait_ns",
        hist_total(&snap, "net.queue_wait_ns"),
        "ns",
    );
    report.push(
        "disk.queue_wait_ns",
        hist_total(&snap, "disk.queue_wait_ns"),
        "ns",
    );
    report.push(
        "cpu.queue_wait_ns",
        hist_total(&snap, "cpu.queue_wait_ns"),
        "ns",
    );

    let (hits, misses) = (sum(".hits"), sum(".misses"));
    report.push("buffer.hits", hits, "count");
    report.push("buffer.misses", misses, "count");
    report.push("buffer.evictions", sum(".evictions"), "count");
    report.push("buffer.hit_rate", ratio(hits, hits + misses), "fraction");
    report.push("buffer.resizes", sum(".resizes"), "count");
    let recomputes = c("cluster.reprice.recomputes");
    let retries = c("cluster.reprice.heap_retries");
    let heat_hits = c("cluster.reprice.heat_cache_hits");
    let heat_misses = c("cluster.reprice.heat_cache_misses");
    report.push("cluster.reprice.recomputes", recomputes, "count");
    report.push("cluster.reprice.heap_retries", retries, "count");
    report.push(
        "cluster.reprice.retry_ratio",
        ratio(retries, recomputes),
        "ratio",
    );
    report.push(
        "cluster.reprice.heat_cache_hit_ratio",
        ratio(heat_hits, heat_hits + heat_misses),
        "fraction",
    );
    report.push(
        "buffer.maintenance_host_ms",
        ratio(
            t.times.maintenance_ns as f64 / 1e6,
            t.times.maintenance_calls as f64,
        ),
        "ms",
    );
    report.push(
        "buffer.resize_host_us",
        ratio(t.times.resize_ns as f64 / 1e3, t.times.resize_calls as f64),
        "us",
    );
    report.push("buffer.host_share", share(t.times.buffer_ns()), "fraction");

    let checks: f64 = (1..classes)
        .map(|k| c(&format!("core.class{k}.checks")))
        .sum();
    let optimizations: f64 = (1..classes)
        .map(|k| c(&format!("core.class{k}.optimizations")))
        .sum();
    report.push(
        "core.agent.host_ns_per_op",
        ratio(t.times.agent_op_ns as f64, ops),
        "ns",
    );
    report.push("core.checks", checks, "count");
    report.push("core.optimizations", optimizations, "count");
    report.push(
        "core.optimize_ratio",
        ratio(optimizations, checks),
        "fraction",
    );
    report.push(
        "core.check.host_us_p50",
        median(&t.times.check_us).unwrap_or(0.0),
        "us",
    );
    report.push(
        "core.check.host_us_max",
        percentile(&t.times.check_us, 1.0).unwrap_or(0.0),
        "us",
    );
    report.push("core.host_share", share(t.times.core_ns()), "fraction");

    report.push("lp.solves", t.times.lp_solves as f64, "count");
    report.push(
        "lp.host_us_per_solve",
        ratio(t.times.lp_ns as f64 / 1e3, t.times.lp_solves as f64),
        "us",
    );
    report.push(
        "lp.alloc_equal_frac",
        ratio(t.times.lp_alloc_equal as f64, t.times.lp_solves as f64),
        "fraction",
    );

    let span_overhead = if spans_on {
        median(&span_ratios).unwrap_or(f64::NAN) - 1.0
    } else {
        0.0
    };
    report.push_noted(
        "obs.span_overhead_frac",
        span_overhead,
        "fraction",
        if spans_on {
            format!("median of {} spans-on/off pairs", span_ratios.len())
        } else {
            "spans are off in this workload".into()
        },
    );
    report.push("obs.sink_ns_per_record", sink_ns_per_record, "ns");

    report.push(
        "alloc.count_per_event",
        ratio(t.allocs as f64, events),
        "count",
    );
    report.push(
        "alloc.bytes_per_event",
        ratio(t.alloc_bytes as f64, events),
        "bytes",
    );
    report.push_noted(
        "trace.overhead_frac",
        median(&trace_ratios).unwrap_or(f64::NAN) - 1.0,
        "fraction",
        format!("median of {} traced/untraced pairs", trace_ratios.len()),
    );
    report.push("trace.timer_ns_per_read", timer_ns, "ns");
    report.check_finite();
    report
}

/// The replica run with the median profiled time.
fn pick_median(runs: &[ReplicaRun]) -> Option<&ReplicaRun> {
    let mut order: Vec<&ReplicaRun> = runs.iter().collect();
    order.sort_by_key(|r| r.times.profiled_ns());
    order.get(order.len() / 2).copied()
}
