//! Differential property tests: the engine's timing wheel must deliver the
//! exact same (time, event) sequence as a binary-heap reference loop for
//! arbitrary schedules — including clustered near-future delays, far-future
//! outliers that land in the overflow chain, same-instant bursts, horizon
//! boundary probes, and delays sized to straddle wheel level boundaries and
//! force cascades.
//!
//! The reference loop lives here, not in the kernel: it is the oracle, and
//! the production engine has exactly one queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dmm_sim::{Engine, Handler, Scheduler, SimDuration, SimRng, SimTime};

/// A chaos workload: each delivered event logs itself and (driven by a
/// per-run deterministic RNG) schedules up to two follow-ups with delays
/// drawn from magnitude classes that cover every wheel level plus the
/// overflow, with frequent zero delays to create same-instant bursts.
struct Chaos {
    rng: SimRng,
    log: Vec<(u64, u32)>,
    next_id: u32,
    spawned: u32,
    budget: u32,
}

impl Chaos {
    fn new(seed: u64, budget: u32) -> Self {
        Chaos {
            rng: SimRng::seed_from_u64(seed),
            log: Vec::new(),
            next_id: 1_000,
            spawned: 0,
            budget,
        }
    }

    fn delay(&mut self) -> SimDuration {
        // Magnitude classes: 0 = same instant, then per-wheel-level ranges
        // (6 bits each), then far-future outliers past the 48-bit span.
        let class = self.rng.index(11);
        let ns = match class {
            0 => 0,
            1..=8 => {
                let bits = 6 * class as u32;
                let lo = 1u64 << (bits - 6);
                lo + self.rng.next_u64() % (1u64 << bits).saturating_sub(lo).max(1)
            }
            9 => 1u64 << 48, // exactly the wheel span: first overflow tick
            _ => (1u64 << 48) + self.rng.next_u64() % (1u64 << 52),
        };
        SimDuration::from_nanos(ns)
    }
}

impl Chaos {
    /// Logs one delivered event and returns its follow-ups as
    /// (delay, id) pairs, so both loops share one decision procedure.
    fn react(&mut self, now: SimTime, event: u32) -> Vec<(SimDuration, u32)> {
        self.log.push((now.as_nanos(), event));
        let mut out = Vec::new();
        let follow_ups = self.rng.index(3) as u32;
        for _ in 0..follow_ups {
            if self.spawned >= self.budget {
                break;
            }
            self.spawned += 1;
            let id = self.next_id;
            self.next_id += 1;
            out.push((self.delay(), id));
        }
        out
    }
}

impl Handler<u32> for Chaos {
    fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        for (d, id) in self.react(now, event) {
            sched.after(d, id);
        }
    }
}

/// The reference event loop: a `BinaryHeap` of (time, scheduling sequence)
/// with the engine's delivery contract — earliest time first, scheduling
/// order among equal times, events at the horizon delivered, and the clock
/// advanced to a finite horizon when the queue drains early.
struct HeapLoop {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    now: u64,
    delivered: u64,
}

impl HeapLoop {
    fn new() -> Self {
        HeapLoop {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            delivered: 0,
        }
    }

    fn at(&mut self, at: u64, event: u32) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn run_until(&mut self, horizon: u64, h: &mut Chaos) -> u64 {
        let mut n = 0;
        while let Some(&Reverse((t, _, event))) = self.heap.peek() {
            if t > horizon {
                break;
            }
            self.heap.pop();
            self.now = t;
            for (d, id) in h.react(SimTime::from_nanos(t), event) {
                self.at(t.saturating_add(d.as_nanos()), id);
            }
            n += 1;
        }
        self.delivered += n;
        if self.now < horizon && horizon != u64::MAX {
            self.now = horizon;
        }
        n
    }
}

/// The initial schedule both loops start from, as (time ns, id).
fn initial_events(seed: u64) -> Vec<(u64, u32)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
    let mut out: Vec<(u64, u32)> = (0..32u32).map(|id| (rng.next_u64() % 10_000, id)).collect();
    // Same-instant burst at a fixed tick and near a level boundary.
    out.extend((100..108u32).map(|id| (4_096, id)));
    out
}

fn wheel_engine(seed: u64) -> Engine<u32> {
    let mut eng = Engine::new();
    for (t, id) in initial_events(seed) {
        eng.scheduler().at(SimTime::from_nanos(t), id);
    }
    eng
}

fn heap_loop(seed: u64) -> HeapLoop {
    let mut heap = HeapLoop::new();
    for (t, id) in initial_events(seed) {
        heap.at(t, id);
    }
    heap
}

type Run = (Vec<(u64, u32)>, u64, u64);

fn run_wheel(seed: u64) -> Run {
    let mut eng = wheel_engine(seed);
    let mut h = Chaos::new(seed, 4_000);
    eng.run_to_completion(&mut h);
    (h.log, eng.delivered(), eng.now().as_nanos())
}

fn run_heap(seed: u64) -> Run {
    let mut heap = heap_loop(seed);
    let mut h = Chaos::new(seed, 4_000);
    heap.run_until(u64::MAX, &mut h);
    (h.log, heap.delivered, heap.now)
}

#[test]
fn wheel_and_heap_deliver_identical_sequences() {
    for seed in 0..48u64 {
        let wheel = run_wheel(seed);
        let heap = run_heap(seed);
        assert_eq!(wheel.1, heap.1, "delivered count diverged (seed {seed})");
        assert_eq!(wheel.2, heap.2, "final clock diverged (seed {seed})");
        assert_eq!(wheel.0, heap.0, "delivery sequence diverged (seed {seed})");
        // Sanity: the schedule actually exercised interesting territory.
        assert!(wheel.0.len() > 100, "degenerate schedule (seed {seed})");
    }
}

/// Horizons for one stepped run: mixed step sizes, some smaller than
/// typical event gaps (empty intervals), some spanning cascade boundaries.
fn horizons(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5151);
    let mut horizon = 0u64;
    (0..64)
        .map(|_| {
            let step = 1 + rng.next_u64() % (1u64 << (6 + rng.index(10) * 3));
            horizon = horizon.saturating_add(step);
            horizon
        })
        .collect()
}

#[test]
fn wheel_and_heap_agree_across_random_horizon_steps() {
    // Stepping run_until at arbitrary horizons exercises the bounded-probe
    // path (failed peeks must not advance the wheel past the horizon) and
    // the drained-queue clock advance.
    for seed in 0..24u64 {
        let mut eng = wheel_engine(seed);
        let mut wheel_h = Chaos::new(seed, 2_000);
        let mut heap = heap_loop(seed);
        let mut heap_h = Chaos::new(seed, 2_000);
        let (mut wheel_cp, mut heap_cp) = (Vec::new(), Vec::new());
        for horizon in horizons(seed) {
            let n = eng.run_until(SimTime::from_nanos(horizon), &mut wheel_h);
            wheel_cp.push((n, eng.now().as_nanos(), eng.scheduler().pending()));
            let n = heap.run_until(horizon, &mut heap_h);
            heap_cp.push((n, heap.now, heap.heap.len()));
        }
        eng.run_to_completion(&mut wheel_h);
        wheel_cp.push((eng.delivered(), eng.now().as_nanos(), 0));
        heap.run_until(u64::MAX, &mut heap_h);
        heap_cp.push((heap.delivered, heap.now, heap.heap.len()));
        assert_eq!(wheel_cp, heap_cp, "checkpoints diverged (seed {seed})");
        assert_eq!(wheel_h.log, heap_h.log, "delivery diverged (seed {seed})");
    }
}

#[test]
fn backends_agree_on_saturated_far_future() {
    // Events scheduled near SimTime::MAX must come out last on both loops,
    // in scheduling order.
    let schedule = [(u64::MAX - 1, 0), (u64::MAX, 1), (3, 2), (u64::MAX, 3)];
    let expected = vec![(3, 2), (u64::MAX - 1, 0), (u64::MAX, 1), (u64::MAX, 3)];

    let mut eng = Engine::new();
    for (t, ev) in schedule {
        eng.scheduler().at(SimTime::from_nanos(t), ev);
    }
    struct Log(Vec<(u64, u32)>);
    impl Handler<u32> for Log {
        fn handle(&mut self, now: SimTime, ev: u32, _: &mut Scheduler<u32>) {
            self.0.push((now.as_nanos(), ev));
        }
    }
    let mut h = Log(Vec::new());
    eng.run_to_completion(&mut h);
    assert_eq!(h.0, expected, "wheel");

    let mut heap = HeapLoop::new();
    for (t, ev) in schedule {
        heap.at(t, ev);
    }
    // A zero-budget Chaos only logs: no follow-ups are spawned.
    let mut h = Chaos::new(0, 0);
    heap.run_until(u64::MAX, &mut h);
    assert_eq!(h.log, expected, "heap reference");
}
