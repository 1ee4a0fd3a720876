//! Tests of the benchmark's correctness checks: the replica reproduces
//! `Simulation` exactly, the fingerprint comparison catches differences,
//! observability leaves simulated outputs alone, non-finite numbers fail a
//! run, and host times are scaled by the reference kernel.

use dmm_cluster::{FabricSpec, FaultPlan, HotRingSpec, NodeId, PlacementSpec};
use dmm_core::{ControllerKind, ProbeSpec, SatisfactionMode, Simulation, SystemConfig};
use dmm_obs::{SpanMode, TraceSink};
use dmm_workload::GoalRange;
use perfbench::fingerprint::{Fingerprint, UNREPLICATED_PREFIXES};
use perfbench::reference::{self, HostSpeed};
use perfbench::replica::{self, Replica};
use perfbench::report::Report;
use perfbench::stats::{median, percentile, tail_percentile};
use perfbench::traced::TimingSink;
use perfbench::untraced::{invariants_hold, timed_run_with};
use perfbench::{alloc, cli};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const INTERVALS: u32 = 14;

fn small() -> dmm_core::SystemConfigBuilder {
    SystemConfig::builder()
        .seed(3)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
}

fn mean_goal_with_schedule() -> SystemConfig {
    small()
        .goal_range(GoalRange::new(4.0, 12.0))
        .build()
        .expect("valid config")
}

fn quantile_goal_with_spans(spans: SpanMode) -> SystemConfig {
    small()
        .goal_ms(20.0)
        .goal_quantile(0.95)
        .satisfaction(SatisfactionMode::UpperBound)
        .spans(spans)
        .build()
        .expect("valid config")
}

fn switched_batched() -> SystemConfig {
    small()
        .nodes(8)
        .db_pages(800)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .satisfaction(SatisfactionMode::UpperBound)
        .placement(PlacementSpec::HotRing(HotRingSpec::default()))
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: None,
        })
        .probe(ProbeSpec::Batched { batch: 4 })
        .build()
        .expect("valid config")
}

fn simulate(config: &SystemConfig) -> Simulation {
    let mut sim = Simulation::new(config.clone());
    sim.run_intervals(INTERVALS);
    sim
}

fn classes(config: &SystemConfig) -> usize {
    config.workload.classes.len()
}

/// Runs the replica one interval at a time, checking invariants at every
/// boundary.
fn replicate(config: &SystemConfig) -> Replica {
    let mut r = Replica::new(config);
    for _ in 0..INTERVALS {
        r.run_intervals(1);
        r.plane().check_invariants();
    }
    r
}

fn assert_replica_matches(config: &SystemConfig) {
    let sim = simulate(config);
    let expected = Fingerprint::of_simulation(&sim, classes(config));
    let r = replicate(config);
    expected
        .diff(&r.fingerprint(), &UNREPLICATED_PREFIXES)
        .expect("replica reproduces Simulation");
    assert!(expected.events > 0 && expected.completions.iter().sum::<u64>() > 0);
    assert!(
        r.times().lp_mismatches.is_empty(),
        "{:?}",
        r.times().lp_mismatches
    );
    let t = r.times();
    assert!(t.total_ns >= t.profiled_ns() && t.profiled_ns() >= t.sim_self_ns());
    assert!(t.ops > 0 && t.data_calls > t.ops && t.maintenance_calls == INTERVALS as u64);
}

#[test]
fn replica_reproduces_a_mean_goal_run_with_goal_schedule() {
    assert_replica_matches(&mean_goal_with_schedule());
}

#[test]
fn replica_reproduces_a_quantile_goal_run_with_spans() {
    assert_replica_matches(&quantile_goal_with_spans(SpanMode::Histograms));
}

#[test]
fn replica_reproduces_a_switched_run_with_batched_probes() {
    assert_replica_matches(&switched_batched());
}

#[test]
fn replica_re_solves_the_checks_lp() {
    // The paper's base experiment reaches full-rank fits within a few
    // dozen intervals, so the run contains LP checks to re-solve.
    let config = perfbench::workloads::paper_n3(5);
    let mut r = Replica::new(&config);
    r.run_intervals(60);
    let t = r.times();
    assert!(t.lp_solves > 0, "no LP check in 60 intervals");
    assert!(t.lp_mismatches.is_empty(), "{:?}", t.lp_mismatches);
}

#[test]
fn a_different_program_is_caught() {
    let config = mean_goal_with_schedule();
    let expected = Fingerprint::of_simulation(&simulate(&config), classes(&config));
    let mut other = config.clone();
    other.seed += 1;
    let r = replicate(&other);
    assert!(expected
        .diff(&r.fingerprint(), &UNREPLICATED_PREFIXES)
        .is_err());
}

#[test]
fn fingerprint_diff_catches_every_kind_of_difference() {
    let config = mean_goal_with_schedule();
    let fp = Fingerprint::of_simulation(&simulate(&config), classes(&config));
    assert!(fp.diff(&fp.clone(), &[]).is_ok());

    let mut events = fp.clone();
    events.events += 1;
    assert!(fp.diff(&events, &[]).is_err());

    let mut completions = fp.clone();
    completions.completions[0] += 1;
    assert!(fp.diff(&completions, &[]).is_err());

    let mut records = fp.clone();
    records.records[1][3].dedicated_bytes += 4096;
    assert!(fp.diff(&records, &[]).is_err());

    let mut metric = fp.clone();
    let i = metric
        .metrics
        .iter()
        .position(|(n, _)| n == "disk.reads")
        .expect("disk.reads counter");
    metric.metrics[i].1.push('0');
    assert!(fp.diff(&metric, &[]).is_err());
    assert!(fp.diff(&metric, &["disk."]).is_ok(), "ignored prefix");

    let mut missing = fp.clone();
    missing.metrics.pop();
    assert!(fp.diff(&missing, &[]).is_err());
}

#[test]
fn spans_change_only_span_metrics() {
    let on_cfg = quantile_goal_with_spans(SpanMode::Histograms);
    let off_cfg = quantile_goal_with_spans(SpanMode::Off);
    let on = Fingerprint::of_simulation(&simulate(&on_cfg), classes(&on_cfg));
    let off = Fingerprint::of_simulation(&simulate(&off_cfg), classes(&off_cfg));
    assert!(on.metrics.iter().any(|(n, _)| n.starts_with("span.")));
    assert!(on.diff(&off, &[]).is_err(), "span keys differ");
    on.diff(&off, &["span."])
        .expect("simulated outputs identical");
}

#[test]
fn a_timing_sink_records_without_perturbing() {
    let config = mean_goal_with_schedule();
    let expected = Fingerprint::of_simulation(&simulate(&config), classes(&config));
    let (sink, ns, records) = TimingSink::new();
    assert!(sink.enabled());
    let mut sim = Simulation::new(config.clone());
    sim.set_trace_sink(Box::new(sink));
    sim.run_intervals(INTERVALS);
    expected
        .diff(&Fingerprint::of_simulation(&sim, classes(&config)), &[])
        .expect("trace emission leaves the simulation alone");
    let records = records.load(std::sync::atomic::Ordering::Relaxed);
    assert!(records > INTERVALS as u64);
    assert!(ns.load(std::sync::atomic::Ordering::Relaxed) > 0);
}

#[test]
fn invariants_hold_on_a_finished_run() {
    invariants_hold(simulate(&switched_batched()).plane()).expect("healthy run");
}

#[test]
fn host_times_are_scaled_by_the_last_kernel_time() {
    assert_eq!(reference::kernel(), reference::CHECKSUM, "fixed work");
    let mut speed = HostSpeed::new();
    assert_eq!(speed.kernel_s.len(), 1);
    let scale = reference::NOMINAL_S / speed.kernel_s[0];
    assert_eq!(speed.scaled(0.001), 0.001 * scale);
    assert_eq!(speed.kernel_s.len(), 1, "not due yet");
    assert_eq!(
        speed.scaled(reference::RESAMPLE_S),
        reference::RESAMPLE_S * scale
    );
    assert_eq!(speed.kernel_s.len(), 2, "due after RESAMPLE_S");
    assert_eq!(speed.wrong_sum, None);

    let mut calls = 0;
    let run = timed_run_with(
        |_| mean_goal_with_schedule(),
        3,
        INTERVALS,
        |t| {
            calls += 1;
            t * 2.0
        },
    );
    assert_eq!(calls, INTERVALS + 1, "set-up and every interval");
    assert_eq!(run.interval_ms.len(), INTERVALS as usize);
}

#[test]
fn unsupported_configurations_are_named() {
    assert_eq!(replica::unsupported(&mean_goal_with_schedule()), None);
    let mut none = mean_goal_with_schedule();
    none.controller = ControllerKind::None;
    assert!(replica::unsupported(&none).is_some());
    let faulted = small()
        .fault_plan(FaultPlan::new(1).crash_ms(NodeId(1), 10_000))
        .build()
        .expect("valid config");
    assert!(replica::unsupported(&faulted).is_some());
}

#[test]
fn non_finite_numbers_fail_the_run() {
    let mut report = Report::default();
    report.push("a", 1.5, "ms");
    report.check_finite();
    assert!(report.correct());
    report.push("b", f64::NAN, "ms");
    report.check_finite();
    assert!(!report.correct());
    let json = report.to_json().to_string();
    assert!(json.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":0,"));
    assert!(json.contains("\"b\":{\"value\":null,\"unit\":\"ms\"}"));
}

#[test]
fn failed_checks_fail_the_run() {
    let mut report = Report::default();
    report.push("a", 1.0, "ms");
    report.fail("replica diverged");
    assert!(!report.correct());
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.95), Some(190.0));
    assert_eq!(percentile(&v, 1.0), Some(200.0));
    assert_eq!(tail_percentile(200), 0.95);
    assert_eq!(tail_percentile(100), 0.9);
    assert_eq!(tail_percentile(1000), 0.99);
    assert_eq!(tail_percentile(5), 0.5);
}

#[test]
fn allocations_are_counted_while_enabled() {
    let (v, count, bytes) = alloc::count(|| vec![0u8; 4096]);
    assert_eq!(v.len(), 4096);
    assert!(count >= 1 && bytes >= 4096);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = cli::parse(&args("--workload tail_p95 --seed 7 --seconds 3 --trace 1"))
        .expect("valid arguments");
    assert_eq!(
        (a.workload.name, a.seed, a.seconds, a.trace),
        ("tail_p95", 7, 3.0, true)
    );
    for bad in [
        "--workload nope --seed 1",
        "--workload paper_n3",
        "--workload paper_n3 --seed x",
        "--workload paper_n3 --seed 1 --seconds 0",
        "--workload paper_n3 --seed 1 --trace 2",
        "--workload paper_n3 --seed 1 --bogus 1",
        "--workload paper_n3 --seed",
    ] {
        assert!(cli::parse(&args(bad)).is_err(), "{bad}");
    }
}

#[test]
fn workloads_derive_distinct_seeds() {
    for w in perfbench::workloads::WORKLOADS {
        let seeds = w.seeds(1);
        assert_eq!(seeds.len(), w.sub_seeds);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "{}", w.name);
        assert_eq!(seeds, w.seeds(1), "same seed, same inputs");
        assert_ne!(seeds, w.seeds(2));
        let config = (w.config)(seeds[0]);
        assert!(replica::unsupported(&config).is_none(), "{}", w.name);
        assert_eq!(config.seed, seeds[0]);
    }
    let tail = (perfbench::workloads::by_name("tail_p95")
        .expect("workload")
        .config)(1);
    assert_eq!(tail.cluster.spans, SpanMode::Histograms);
    assert!(tail.workload.classes[1].goal_metric.is_quantile());
}
