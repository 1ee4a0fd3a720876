//! Scheduler benchmark: the engine's hierarchical timing wheel versus a
//! bench-local binary-heap event loop.
//!
//! Steady-state push/pop throughput under the classic *hold* model, written
//! to `BENCH_scheduler.json` at the workspace root: the queue is prefilled
//! to a fixed depth (1 k / 64 k / 1 M pending events) and every delivered
//! event schedules exactly one follow-up with a mixed-magnitude delay, so
//! each measured iteration is one pop plus one push at constant depth. The
//! heap pays O(log n) comparator walks per operation; the wheel pays O(1)
//! near-future bitmask scans, so the gap widens with depth.
//!
//! The heap loop exists only here, as the yardstick; the engine has one
//! queue. `--quick` drops the 1 M depth for CI smoke use.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dmm::obs::Json;
use dmm::sim::{Engine, Handler, SchedStats, Scheduler, SimDuration, SimRng, SimTime};
use dmm_bench::micro::{bench_micro, MicroResult};

/// The hold-model workload: every delivered event schedules one follow-up,
/// keeping the pending depth constant. Delays mix magnitudes the way the
/// cluster protocol does — mostly near-future (network/CPU steps), a tail
/// of far-future ones (interval timers, retries).
struct Hold {
    rng: SimRng,
}

impl Hold {
    fn new() -> Self {
        Hold {
            rng: SimRng::seed_from_u64(77),
        }
    }

    fn delay_ns(&mut self) -> u64 {
        if self.rng.index(10) == 0 {
            1 + self.rng.next_u64() % (1 << 27) // ~134 ms outliers
        } else {
            1 + self.rng.next_u64() % 100_000 // ≤100 µs protocol steps
        }
    }
}

impl Handler<u64> for Hold {
    fn handle(&mut self, _now: SimTime, event: u64, sched: &mut Scheduler<u64>) {
        let ns = self.delay_ns();
        sched.after(SimDuration::from_nanos(ns), event + 1);
    }
}

/// The prefill both queues start from, as (time ns, event).
fn prefill(pending: usize) -> impl Iterator<Item = (u64, u64)> {
    let mut rng = SimRng::seed_from_u64(0xD15C_0000 + pending as u64);
    (0..pending as u64).map(move |i| (rng.next_u64() % 1_000_000_000, i))
}

fn wheel_hold(pending: usize) -> (MicroResult, SchedStats) {
    let mut eng = Engine::new();
    for (t, ev) in prefill(pending) {
        eng.scheduler().at(SimTime::from_nanos(t), ev);
    }
    let mut hold = Hold::new();
    // Warm up past the prefill transient so the measured region is pure
    // steady-state hold.
    eng.run_events(pending as u64, &mut hold);
    let result = bench_micro(&format!("hold/Wheel/{pending}"), || {
        eng.run_events(1, &mut hold);
    });
    assert_eq!(eng.scheduler().pending(), pending, "hold model must hold");
    (result, eng.sched_stats())
}

/// The same hold loop over a `BinaryHeap` of (time, scheduling sequence),
/// which delivers in the engine's order.
fn heap_hold(pending: usize) -> MicroResult {
    let mut heap = BinaryHeap::with_capacity(pending + 1);
    let mut seq = 0u64;
    for (t, ev) in prefill(pending) {
        heap.push(Reverse((t, seq, ev)));
        seq += 1;
    }
    let mut hold = Hold::new();
    let mut step = || {
        let Reverse((now, _, ev)) = heap.pop().expect("hold keeps the heap non-empty");
        heap.push(Reverse((now.saturating_add(hold.delay_ns()), seq, ev + 1)));
        seq += 1;
    };
    for _ in 0..pending {
        step();
    }
    let result = bench_micro(&format!("hold/Heap/{pending}"), &mut step);
    assert_eq!(heap.len(), pending, "hold model must hold");
    result
}

fn main() {
    let quick = dmm_bench::BenchArgs::parse().quick;

    println!("== micro: hold-model push/pop throughput ==");
    let depths: &[usize] = if quick {
        &[1_000, 64_000]
    } else {
        &[1_000, 64_000, 1_000_000]
    };
    let mut micro = Vec::new();
    for &pending in depths {
        let heap = heap_hold(pending);
        let (wheel, stats) = wheel_hold(pending);
        let speedup = heap.ns_per_iter / wheel.ns_per_iter;
        println!(
            "pending {:>9}: wheel {:8.1} ns/op  heap {:8.1} ns/op  speedup {:.2}x  \
             (cascaded {})",
            pending, wheel.ns_per_iter, heap.ns_per_iter, speedup, stats.cascaded,
        );
        micro.push(
            Json::obj()
                .field("pending", pending as u64)
                .field("wheel_ns_per_op", wheel.ns_per_iter)
                .field("heap_ns_per_op", heap.ns_per_iter)
                .field("speedup", speedup),
        );
    }

    let doc = Json::obj()
        .field("bench", "scheduler")
        .field("quick", quick)
        .field("micro", Json::Arr(micro));
    dmm_bench::cli::write_bench_doc("BENCH_scheduler.json", &doc);
}
