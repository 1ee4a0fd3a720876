//! The host-speed reference: a fixed kernel, independent of the library
//! crates, that the untraced run times between simulations.
//!
//! On a shared host the speed of identical simulation work drifts by about
//! ±20 % in phases that last from seconds to a minute or more, often
//! longer than one benchmark run. The kernel mixes the same kinds of work as the simulator's hot path
//! (a binary heap and a hash map of a few MB), so it slows down and speeds
//! up with the host in step with the simulation. The untraced run expresses
//! every host time at [`NOMINAL_S`] per kernel run: [`HostSpeed`] multiplies
//! each measured time by `NOMINAL_S / t`, where `t` is the kernel time taken
//! last, at most [`RESAMPLE_S`] of measured time earlier. The kernel runs no
//! library code, so a change to the program moves the scaled times by the
//! same share as the unscaled ones.
//!
//! On the host of the README's figures, scaling each simulation by the
//! kernel time just before it cut the round-to-round variation of host
//! time (coefficient of variation over 22 rounds of 11 to 14 s) from 0.069
//! to 0.019 on `large_pool` and from 0.066 to 0.016 on `paper_n3`; scaling
//! a whole round by its median kernel time only reached 0.029 and 0.032.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one kernel run that the scaled times are expressed at:
/// about the median measured between simulations on the 2-vCPU host
/// (Intel Xeon, 2.1 GHz) of the README's figures. A frozen constant, so
/// that runs stay comparable.
pub const NOMINAL_S: f64 = 0.0165;

/// Measured host seconds after which the kernel is timed again. Short
/// enough to follow the host's phases, long enough that the kernel adds
/// about 7 % to a run.
pub const RESAMPLE_S: f64 = 0.25;

/// Operations per kernel run.
const OPS: u64 = 100_000;
/// Heap entries kept live (the event queue's role).
const HEAP_LIVE: usize = 20_000;
/// Distinct hash-map keys (the directory's and the pools' role).
const MAP_KEYS: u64 = 200_000;

/// The kernel's result, the same on every run and host: a check that each
/// timed run did the same work.
pub const CHECKSUM: u64 = 0x7_a1fd_d41e;

/// Runs the kernel once; returns its result.
pub fn kernel() -> u64 {
    // Fixed hash keys: the same table layout in every process.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut heap = BinaryHeap::with_capacity(HEAP_LIVE + 1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > HEAP_LIVE {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(x % MAP_KEYS).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&((x >> 20) % MAP_KEYS)).copied().unwrap_or(0));
    }
    acc
}

/// Times one kernel run; returns its host seconds and its result.
pub fn timed() -> (f64, u64) {
    let t0 = Instant::now();
    let sum = black_box(kernel());
    (t0.elapsed().as_secs_f64(), sum)
}

/// Converts measured host times to times at the kernel's nominal speed.
#[derive(Debug)]
pub struct HostSpeed {
    /// `NOMINAL_S` over the last kernel time.
    scale: f64,
    /// Measured host seconds since the last kernel run.
    since_s: f64,
    /// Every kernel time taken, in seconds.
    pub kernel_s: Vec<f64>,
    /// The first kernel result other than [`CHECKSUM`], if any.
    pub wrong_sum: Option<u64>,
}

impl HostSpeed {
    /// Times the kernel once.
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            scale: 1.0,
            since_s: 0.0,
            kernel_s: Vec::new(),
            wrong_sum: None,
        };
        speed.resample();
        speed
    }

    fn resample(&mut self) {
        let (t, sum) = timed();
        if sum != CHECKSUM {
            self.wrong_sum.get_or_insert(sum);
        }
        self.kernel_s.push(t);
        self.scale = NOMINAL_S / t;
        self.since_s = 0.0;
    }

    /// `host_s` measured seconds at the nominal speed. Times the kernel
    /// again, after the conversion, once [`RESAMPLE_S`] have been measured
    /// since its last run.
    pub fn scaled(&mut self, host_s: f64) -> f64 {
        let scaled = host_s * self.scale;
        self.since_s += host_s;
        if self.since_s >= RESAMPLE_S {
            self.resample();
        }
        scaled
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}
