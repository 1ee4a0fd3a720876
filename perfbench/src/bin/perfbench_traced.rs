//! Traced benchmark run: the per-layer profile (`--trace 1`). Only this
//! process counts allocations.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    perfbench::cli::main(true, |a| {
        perfbench::traced::run(a.workload, a.seed, a.seconds)
    });
}
