//! Untraced benchmark run: end-to-end metrics (`--trace 0`).
//! `--calibrate` instead prints the frozen goal constants' measurement.

fn main() {
    if std::env::args().any(|a| a == "--calibrate") {
        perfbench::calibrate::print_goal_constants();
        return;
    }
    perfbench::cli::main(false, |a| {
        perfbench::untraced::run(a.workload, a.seed, a.seconds)
    });
}
