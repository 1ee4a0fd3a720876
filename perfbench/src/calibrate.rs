//! One-off goal calibration behind `perfbench --calibrate`. It prints the
//! constants frozen in [`crate::workloads`]; benchmark runs never call it.

use dmm_buffer::ClassId;
use dmm_core::{calibrate_goal_range, SystemConfig};

use crate::workloads;

/// Calibrates every workload whose goal is a frozen constant and prints
/// the measured bands.
pub fn print_goal_constants() {
    let class = ClassId(1);
    let base = SystemConfig::builder()
        .seed(42)
        .goal_ms(15.0)
        .build()
        .expect("valid base config");
    let r = calibrate_goal_range(&base, class, 6, 6);
    println!("paper_n3 range: [{:.3}, {:.3}] ms", r.min_ms, r.max_ms);

    let r = calibrate_goal_range(&workloads::tail_p95(42), class, 6, 6);
    let mid = 0.5 * (r.min_ms + r.max_ms);
    println!(
        "tail_p95 p95 range: [{:.3}, {:.3}] ms, midpoint {mid:.3}",
        r.min_ms, r.max_ms
    );

    let r = calibrate_goal_range(&workloads::switched_n64(42), class, 4, 4);
    let mid = 0.5 * (r.min_ms + r.max_ms);
    println!(
        "switched_n64 range: [{:.3}, {:.3}] ms, midpoint {mid:.3}",
        r.min_ms, r.max_ms
    );
}
