//! Heat (access-frequency) estimation, LRU-K style.
//!
//! Paper §6: "the heat being defined as the number of accesses (locally resp.
//! globally) per time unit. In the implementation the LRU-k algorithm \[21\] is
//! used to approximate the heat." A page's heat estimate is `k` divided by
//! the span back to its k-th most recent access, with `k` = [`HEAT_K`].
//! Per-class heat records are "dynamically created and deleted on demand": a
//! class heat exists only while some node in the system holds a dedicated
//! buffer for that class and the class has actually touched the page.

use dmm_sim::SimTime;

use crate::page::ClassId;

/// LRU-K window of every heat estimate in the system (§6 uses LRU-k; the
/// reproduction fixes k = 2).
pub const HEAT_K: usize = 2;

/// Sliding window of the last [`HEAT_K`] access instants of one page (for
/// one class, or accumulated over all classes). The window lives inline: no
/// heap allocation, and sliding it moves `HEAT_K − 1` words.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeatEstimator {
    /// Oldest first; only the first `len` entries are meaningful.
    times: [SimTime; HEAT_K],
    len: usize,
}

impl HeatEstimator {
    /// Estimator with no recorded access.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access at `now`.
    pub fn record(&mut self, now: SimTime) {
        if self.len == HEAT_K {
            self.times.copy_within(1.., 0);
            self.times[HEAT_K - 1] = now;
        } else {
            self.times[self.len] = now;
            self.len += 1;
        }
    }

    /// Number of accesses remembered (≤ `HEAT_K`).
    pub fn count(&self) -> usize {
        self.len
    }

    /// Instant of the most recent access.
    pub fn last_access(&self) -> Option<SimTime> {
        self.len.checked_sub(1).map(|i| self.times[i])
    }

    /// Heat in accesses per millisecond at instant `now`:
    /// `m / (now − t_m)` over the `m ≤ HEAT_K` remembered accesses. Returns 0
    /// before the first access. A page accessed only once very recently has
    /// a deliberately conservative heat (its window is measured from that
    /// single access to `now`).
    pub fn heat_per_ms(&self, now: SimTime) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let span_ms = now.since(self.times[0]).as_millis_f64();
        // Guard division for a just-touched page: treat the window as at
        // least one microsecond.
        let span_ms = span_ms.max(1e-3);
        self.len as f64 / span_ms
    }
}

/// Heat bookkeeping for one page on one node: the accumulated heat over all
/// accesses plus on-demand per-class heats.
#[derive(Debug, Clone, Default)]
pub struct PageHeat {
    /// Heat over every access regardless of class (§6 "accumulated heat").
    pub accumulated: HeatEstimator,
    /// One record per tracked class, searched linearly: a page sees only a
    /// handful of goal classes. The list allocates on the page's first
    /// tracked access (with room for four classes), not once per access.
    per_class: Vec<(ClassId, HeatEstimator)>,
}

impl PageHeat {
    /// New bookkeeping with no recorded access.
    pub fn new() -> Self {
        Self::default()
    }

    fn class_record(&mut self, class: ClassId) -> Option<&mut HeatEstimator> {
        self.per_class
            .iter_mut()
            .find_map(|(c, e)| (*c == class).then_some(e))
    }

    /// Records an access by `class` at `now`. `track_class` says whether a
    /// dedicated buffer for this class exists anywhere in the system — only
    /// then is the per-class record created (§6 overhead reduction).
    pub fn record(&mut self, class: ClassId, now: SimTime, track_class: bool) {
        self.accumulated.record(now);
        match self.class_record(class) {
            // Keep an existing record warm even if tracking toggled off
            // between accesses; deletion is explicit via `drop_class`.
            Some(est) => est.record(now),
            None if track_class => {
                let mut est = HeatEstimator::new();
                est.record(now);
                self.per_class.push((class, est));
            }
            None => {}
        }
    }

    /// Per-class heat at `now` (0 when the class never touched the page or
    /// its record was deleted).
    pub fn class_heat_per_ms(&self, class: ClassId, now: SimTime) -> f64 {
        self.per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, e)| e.heat_per_ms(now))
    }

    /// Accumulated heat at `now`.
    pub fn accumulated_heat_per_ms(&self, now: SimTime) -> f64 {
        self.accumulated.heat_per_ms(now)
    }

    /// Deletes the per-class record (invoked when the last dedicated buffer
    /// of a class disappears system-wide).
    pub fn drop_class(&mut self, class: ClassId) {
        self.per_class.retain(|(c, _)| *c != class);
    }

    /// Number of per-class records currently held.
    pub fn tracked_classes(&self) -> usize {
        self.per_class.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::NO_GOAL;

    fn ms(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn heat_reflects_access_rate() {
        let mut e = HeatEstimator::new();
        assert_eq!(e.heat_per_ms(ms(10)), 0.0);
        e.record(ms(0));
        e.record(ms(10));
        // 2 accesses over 10ms window (measured at t=10) → 0.2/ms.
        assert!((e.heat_per_ms(ms(10)) - 0.2).abs() < 1e-9);
        // Heat decays as time passes without accesses.
        assert!(e.heat_per_ms(ms(40)) < 0.2);
    }

    #[test]
    fn window_slides() {
        let mut e = HeatEstimator::new();
        e.record(ms(0));
        e.record(ms(100));
        e.record(ms(110));
        // Oldest remembered is now t=100.
        assert!((e.heat_per_ms(ms(120)) - 2.0 / 20.0).abs() < 1e-9);
        assert_eq!(e.count(), 2);
        assert_eq!(e.last_access(), Some(ms(110)));
    }

    #[test]
    fn hot_page_beats_cold_page() {
        let mut hot = HeatEstimator::new();
        let mut cold = HeatEstimator::new();
        // Hot: 6 accesses 5ms apart from t=60 — its 2-window slides to
        // [80, 85].
        for i in 0..6 {
            hot.record(ms(60 + i * 5));
        }
        // Cold: 3 accesses 50ms apart — its 2-window slides to [50, 100],
        // so it was touched more recently than the hot page.
        for i in 0..3 {
            cold.record(ms(i * 50));
        }
        let now = ms(110);
        assert!(hot.heat_per_ms(now) > cold.heat_per_ms(now));
    }

    #[test]
    fn per_class_records_on_demand() {
        let mut h = PageHeat::new();
        h.record(ClassId(1), ms(0), true);
        h.record(NO_GOAL, ms(1), false); // no dedicated buffer: not tracked
        assert_eq!(h.tracked_classes(), 1);
        assert!(h.class_heat_per_ms(ClassId(1), ms(2)) > 0.0);
        assert_eq!(h.class_heat_per_ms(NO_GOAL, ms(2)), 0.0);
        // Accumulated heat counts both accesses.
        assert!(h.accumulated_heat_per_ms(ms(2)) > h.class_heat_per_ms(ClassId(1), ms(2)));
        h.drop_class(ClassId(1));
        assert_eq!(h.tracked_classes(), 0);
        assert_eq!(h.class_heat_per_ms(ClassId(1), ms(3)), 0.0);
    }

    #[test]
    fn just_touched_page_has_finite_heat() {
        let mut e = HeatEstimator::new();
        e.record(ms(5));
        let h = e.heat_per_ms(ms(5));
        assert!(h.is_finite() && h > 0.0);
    }
}
