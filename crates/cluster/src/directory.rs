//! The cache directory: who caches which page, last-copy status, and global
//! heat.
//!
//! The simulator is a single process, so the directory holds exact global
//! state; the *costs* of keeping it coherent are still charged: the
//! threshold-based dissemination protocol of \[27, 26\] sends a control message
//! to the page's home whenever the page's global heat estimate drifts by more
//! than a configured fraction from its last published value, and every
//! location change (copy added/removed, last-copy transitions) is a control
//! message too. The data plane asks the directory where copies live and
//! whether a local copy is the system-wide last one — the two inputs of the
//! §6 benefit formula.

use dmm_buffer::{ClassId, HeatEstimator, PageId};
use dmm_sim::SimTime;

use crate::ids::NodeId;

/// Global (system-wide) heat of one page.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalHeat {
    estimator: HeatEstimator,
    /// Heat as of the page's last dissemination message (0 = never
    /// published).
    published: f64,
}

/// Exact global cache state plus heat-dissemination bookkeeping. Every
/// per-page table is a vector indexed by page id. Capacity for the whole
/// database is reserved up front, but entries are filled only up to the
/// highest page id written so far: set-up touches no per-page memory, and
/// a page id past the end reads as "no copy, no heat".
#[derive(Debug, Clone)]
pub struct Directory {
    /// Nodes currently caching each page (small, usually ≤ N), in the order
    /// the copies appeared. A list keeps its capacity while its page is out
    /// of memory, so a page that keeps coming back allocates once.
    holders: Vec<Vec<NodeId>>,
    global_heat: Vec<GlobalHeat>,
    /// Per goal class: number of dedicated pools in the whole system. A
    /// class's heat is tracked only while this is non-zero (§6).
    dedicated_pools: Vec<u32>,
    publish_threshold: f64,
    /// Control messages the coherence protocol generated (charged by the
    /// data plane).
    publish_events: u64,
}

impl Directory {
    /// Empty directory for `goal_classes` goal classes over a database of
    /// `db_pages` pages (ids `0..db_pages`).
    pub fn new(goal_classes: usize, db_pages: u32, publish_threshold: f64) -> Self {
        let pages = db_pages as usize;
        Directory {
            holders: Vec::with_capacity(pages),
            global_heat: Vec::with_capacity(pages),
            dedicated_pools: vec![0; goal_classes + 1],
            publish_threshold,
            publish_events: 0,
        }
    }

    /// Nodes currently caching `page`.
    pub fn holders(&self, page: PageId) -> &[NodeId] {
        self.holders.get(page.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of cached copies of `page`.
    pub fn copies(&self, page: PageId) -> usize {
        self.holders(page).len()
    }

    /// True if `node` holds the only cached copy of `page`.
    pub fn is_last_copy(&self, page: PageId, node: NodeId) -> bool {
        let h = self.holders(page);
        h.len() == 1 && h[0] == node
    }

    /// A caching node other than `requester`, preferring the one listed
    /// first (deterministic). Returns `None` if no other copy exists.
    pub fn pick_holder(&self, page: PageId, requester: NodeId) -> Option<NodeId> {
        self.holders(page).iter().copied().find(|&n| n != requester)
    }

    /// Registers a copy of `page` at `node`. Idempotent.
    pub fn add_copy(&mut self, page: PageId, node: NodeId) {
        let i = page.index();
        if i >= self.holders.len() {
            self.holders.resize_with(i + 1, Vec::new);
        }
        let h = &mut self.holders[i];
        if !h.contains(&node) {
            h.push(node);
        }
    }

    /// Removes `node`'s copy. Returns the remaining copy count.
    pub fn remove_copy(&mut self, page: PageId, node: NodeId) -> usize {
        let Some(h) = self.holders.get_mut(page.index()) else {
            return 0;
        };
        if let Some(i) = h.iter().position(|&n| n == node) {
            h.remove(i);
        }
        h.len()
    }

    /// Records a system-wide access to `page` at `now`. Returns `true` when
    /// the threshold protocol would publish the new heat (the caller charges
    /// one control message to the page's home).
    pub fn record_access(&mut self, page: PageId, now: SimTime) -> bool {
        let i = page.index();
        if i >= self.global_heat.len() {
            self.global_heat.resize(i + 1, GlobalHeat::default());
        }
        let g = &mut self.global_heat[i];
        g.estimator.record(now);
        let heat = g.estimator.heat_per_ms(now);
        let drift = (heat - g.published).abs();
        if drift > self.publish_threshold * g.published.max(1e-9) {
            g.published = heat;
            self.publish_events += 1;
            true
        } else {
            false
        }
    }

    /// Global heat of `page` in accesses/ms.
    pub fn global_heat_per_ms(&self, page: PageId, now: SimTime) -> f64 {
        self.global_heat
            .get(page.index())
            .map_or(0.0, |g| g.estimator.heat_per_ms(now))
    }

    /// Number of dissemination messages generated so far.
    pub fn publish_events(&self) -> u64 {
        self.publish_events
    }

    /// Called when a dedicated pool for `class` appears (`delta = +1`) or
    /// disappears (`delta = −1`) on some node.
    pub fn dedicated_pool_changed(&mut self, class: ClassId, delta: i32) {
        let c = &mut self.dedicated_pools[class.index()];
        if delta > 0 {
            *c += delta as u32;
        } else {
            *c = c.saturating_sub((-delta) as u32);
        }
    }

    /// True while at least one dedicated pool for `class` exists anywhere —
    /// the §6 condition for collecting that class's heat.
    pub fn class_tracked(&self, class: ClassId) -> bool {
        if class.is_no_goal() {
            return false;
        }
        self.dedicated_pools[class.index()] > 0
    }

    /// Debug invariant: no duplicate holders.
    pub fn check_invariants(&self) {
        for (page, h) in self.holders.iter().enumerate() {
            let mut sorted: Vec<NodeId> = h.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), h.len(), "duplicate holders for p{page}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_buffer::NO_GOAL;

    fn ms(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn copy_tracking_and_last_copy() {
        let mut d = Directory::new(2, 8, 0.2);
        d.add_copy(PageId(1), NodeId(0));
        assert!(d.is_last_copy(PageId(1), NodeId(0)));
        d.add_copy(PageId(1), NodeId(2));
        d.add_copy(PageId(1), NodeId(2)); // idempotent
        assert_eq!(d.copies(PageId(1)), 2);
        assert!(!d.is_last_copy(PageId(1), NodeId(0)));
        assert_eq!(d.pick_holder(PageId(1), NodeId(0)), Some(NodeId(2)));
        assert_eq!(d.pick_holder(PageId(1), NodeId(2)), Some(NodeId(0)));
        assert_eq!(d.remove_copy(PageId(1), NodeId(0)), 1);
        assert!(d.is_last_copy(PageId(1), NodeId(2)));
        assert_eq!(d.remove_copy(PageId(1), NodeId(2)), 0);
        assert_eq!(d.pick_holder(PageId(1), NodeId(0)), None);
        d.check_invariants();
    }

    #[test]
    fn first_access_publishes() {
        let mut d = Directory::new(1, 8, 0.2);
        assert!(d.record_access(PageId(1), ms(1)));
        assert_eq!(d.publish_events(), 1);
    }

    #[test]
    fn steady_heat_stops_publishing() {
        let mut d = Directory::new(1, 8, 0.5);
        // Perfectly regular accesses: after the window fills, heat is
        // constant and no further publishes occur.
        let mut publishes = 0;
        for i in 1..100u64 {
            if d.record_access(PageId(1), ms(i * 10)) {
                publishes += 1;
            }
        }
        assert!(publishes < 6, "published {publishes} times");
        assert!(d.global_heat_per_ms(PageId(1), ms(1000)) > 0.0);
    }

    #[test]
    fn class_tracking_counts_pools() {
        let mut d = Directory::new(2, 8, 0.2);
        assert!(!d.class_tracked(ClassId(1)));
        assert!(!d.class_tracked(NO_GOAL));
        d.dedicated_pool_changed(ClassId(1), 1);
        d.dedicated_pool_changed(ClassId(1), 1);
        assert!(d.class_tracked(ClassId(1)));
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(d.class_tracked(ClassId(1)));
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(!d.class_tracked(ClassId(1)));
        // Underflow-safe.
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(!d.class_tracked(ClassId(1)));
    }
}
