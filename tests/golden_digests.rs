//! Cross-commit goldens for the non-default code paths.
//!
//! The checked-in `results/` traces pin the default three-node, single-tier
//! system. These digests pin three small runs that take the paths those
//! traces never reach: a four-rung hotness ladder with span histograms, a
//! sixteen-node switched hot ring, and a crash/restart fault plan. Each
//! digest is the FNV-1a 64 hash of the run's control-record bytes (every
//! trace line except `span` records, newline-terminated).
//!
//! A refactor that claims to leave behaviour unchanged must leave these
//! digests unchanged. Regenerate them only for a deliberate behaviour
//! change, and record that change in CHANGES.md.

use dmm::cluster::{FabricSpec, FaultPlan, HotRingSpec, NodeId, PlacementSpec};
use dmm::core::{ProbeSpec, Simulation, SystemConfig};
use dmm::obs::{SpanMode, VecSink};
use dmm::prelude::{TierPolicy, TierSpec};
use dmm::workload::GoalRange;

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `cfg` for `intervals` intervals and returns its control records,
/// one newline-terminated line each.
fn control_records(cfg: SystemConfig, intervals: u32) -> String {
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(intervals);
    let mut out = String::new();
    for line in sink.lines() {
        if !line.starts_with("{\"type\":\"span\"") {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn tiered_hotness_histograms() -> SystemConfig {
    SystemConfig::builder()
        .seed(11)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(48)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .spans(SpanMode::Histograms)
        .tiers(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25)
                .frames(48)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .tier_policy(TierPolicy::Hotness)
        .build()
        .expect("valid test config")
}

fn switched_hot_ring_n16() -> SystemConfig {
    SystemConfig::builder()
        .seed(12)
        .theta(0.8)
        .goal_ms(8.0)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .warmup_intervals(2)
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: Some(400_000_000),
        })
        .placement(PlacementSpec::HotRing(HotRingSpec::default()))
        .probe(ProbeSpec::Batched { batch: 4 })
        .build()
        .expect("valid test config")
}

fn crash_restart() -> SystemConfig {
    let plan = FaultPlan::new(13)
        .crash_ms(NodeId(1), 22_500)
        .restart_ms(NodeId(1), 52_500)
        .message_drop(0.01)
        .disk_stall_ms(NodeId(0), 30_000, 40_000, 3.0);
    SystemConfig::builder()
        .seed(13)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .fault_plan(plan)
        .build()
        .expect("valid test config")
}

fn assert_digest(name: &str, records: &str, pinned: u64) {
    let got = fnv1a(records.as_bytes());
    assert_eq!(
        got, pinned,
        "{name}: control-record digest {got:#018x} differs from the pinned \
         {pinned:#018x}. The run's behaviour changed. Regenerate the pinned \
         value only for a deliberate behaviour change, with a CHANGES.md entry \
         that says why."
    );
}

#[test]
fn tiered_hotness_histograms_digest_is_pinned() {
    let records = control_records(tiered_hotness_histograms(), 20);
    assert_digest("tiered_hotness_histograms", &records, 0xf3ed_1f31_9a72_4117);
}

#[test]
fn switched_hot_ring_n16_digest_is_pinned() {
    let records = control_records(switched_hot_ring_n16(), 10);
    assert_digest("switched_hot_ring_n16", &records, 0x0e1c_2ef4_fb1e_226e);
}

#[test]
fn crash_restart_digest_is_pinned() {
    let records = control_records(crash_restart(), 24);
    // The plan must actually fire inside the run for the digest to cover it.
    for kind in ["crash", "restart"] {
        let fired = records.lines().any(|l| {
            l.starts_with("{\"type\":\"fault\"") && l.contains(&format!("\"kind\":\"{kind}\""))
        });
        assert!(fired, "no {kind} fault record in the run");
    }
    assert_digest("crash_restart", &records, 0x13da_dd61_9f91_fa04);
}
