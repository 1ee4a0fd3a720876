//! Hierarchical timing wheel: the allocation-free event queue behind
//! [`crate::Scheduler`].
//!
//! # Geometry
//!
//! Eight levels of 64 slots each ([`WHEEL_LEVELS`] × [`WHEEL_SLOTS`]). The
//! tick is exactly one nanosecond — the resolution of [`SimTime`] — so no
//! rounding ever happens and the wheel's delivery order is a pure function
//! of the (time, insertion-sequence) pairs, just like the reference binary
//! heap. Level `l` buckets events by bits `[6l, 6(l+1))` of their absolute
//! nanosecond time; together the levels span `2^48` ns (≈ 78 hours of
//! simulated time). Events further out than that go to a single *overflow*
//! chain and are re-bucketed when the wheel rolls over into their epoch.
//!
//! # Storage
//!
//! Every pending event lives in one slab node addressed by a `u32`
//! index; per-slot FIFO chains are intrusive `next` links, and freed nodes
//! go on a free list. After warm-up, pushing and popping events allocates
//! nothing. Per-level occupancy is a single `u64` bitmap, so "find the next
//! non-empty slot" is one mask and a `trailing_zeros` — the wheel never
//! iterates over empty ticks.
//!
//! # Determinism
//!
//! The wheel's position advances eagerly to (a lower bound of) the next
//! event, cascading any higher-level slot it enters down to finer levels.
//! Because of that eager cascade, *the level and slot of a pending event
//! are a pure function of its time and the current position* — two events
//! scheduled for the same instant always sit in the same chain, in
//! insertion order, no matter how far apart they were scheduled. Delivery
//! order is therefore exactly (time, seq): identical to a binary-heap
//! reference loop, which the differential tests in `tests/` assert.

use crate::time::SimTime;

/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub const WHEEL_SLOTS: usize = 1 << SLOT_BITS;
/// Number of hierarchical levels; together they span `2^48` ns.
pub const WHEEL_LEVELS: usize = 8;
/// Bits of absolute time covered by the wheel levels.
const SPAN_BITS: u32 = SLOT_BITS * WHEEL_LEVELS as u32;
/// Null link / free-list terminator.
const NIL: u32 = u32::MAX;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

struct Node<E> {
    time: u64,
    /// Monotone scheduling sequence; kept for debug assertions (FIFO chains
    /// already deliver same-instant events in scheduling order).
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// An intrusive FIFO chain through the slab (head/tail indices).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };
}

/// The timing wheel. All methods are crate-private; the public
/// surface is [`crate::Scheduler`].
pub(crate) struct TimingWheel<E> {
    arena: Vec<Node<E>>,
    /// Free-list head into `arena` (linked through `Node::next`).
    free: u32,
    slots: [[Chain; WHEEL_SLOTS]; WHEEL_LEVELS],
    /// One occupancy bit per slot per level.
    occupied: [u64; WHEEL_LEVELS],
    /// Events beyond the wheel span, in insertion order.
    overflow: Chain,
    /// Current wheel position in ticks (= nanoseconds). Only advances.
    pos: u64,
    len: usize,
    /// Entries moved by cascades (including overflow re-bucketing).
    cascaded: u64,
    /// Events inserted per level (`[WHEEL_LEVELS]` counts the overflow).
    /// Cascade re-links are not re-counted: each event is attributed to the
    /// level its original `push` landed on.
    level_pushes: [u64; WHEEL_LEVELS + 1],
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            arena: Vec::new(),
            free: NIL,
            slots: [[Chain::EMPTY; WHEEL_SLOTS]; WHEEL_LEVELS],
            occupied: [0; WHEEL_LEVELS],
            overflow: Chain::EMPTY,
            pos: 0,
            len: 0,
            cascaded: 0,
            level_pushes: [0; WHEEL_LEVELS + 1],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn cascaded(&self) -> u64 {
        self.cascaded
    }

    pub(crate) fn level_pushes(&self) -> &[u64; WHEEL_LEVELS + 1] {
        &self.level_pushes
    }

    /// Inserts an event. `time` must not precede the wheel position (the
    /// scheduler's `now` is always ≥ the position, and it checks
    /// `time ≥ now`).
    pub(crate) fn push(&mut self, time: u64, seq: u64, event: E) {
        debug_assert!(time >= self.pos, "push into the wheel's past");
        let idx = self.alloc(time, seq, event);
        let level = self.link(idx, time);
        self.level_pushes[level] += 1;
        self.len += 1;
    }

    /// Removes and returns the earliest event if its time is ≤ `limit`.
    ///
    /// Advances the wheel position as far as needed — but never past
    /// `limit`, so a later `push` at any `time ≥ limit` stays valid even
    /// when this returns `None`.
    pub(crate) fn pop_next_before(&mut self, limit: u64) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Near-future fast path: level 0 has one slot per tick, so the
            // first occupied slot at or after the cursor is the next event,
            // found with one mask + trailing_zeros.
            let cursor = (self.pos & SLOT_MASK) as u32;
            let mask = self.occupied[0] & (!0u64 << cursor);
            if mask != 0 {
                let slot = mask.trailing_zeros() as u64;
                let t = (self.pos & !SLOT_MASK) | slot;
                if t > limit {
                    return None;
                }
                self.pos = t;
                return Some((SimTime::from_nanos(t), self.pop_front_level0(slot as usize)));
            }
            // Coarser levels: enter the first occupied slot ahead of the
            // cursor and cascade its chain down, then rescan from level 0.
            if let Some((level, slot, slot_start)) = self.next_occupied_slot() {
                let chain = self.slots[level][slot];
                if chain.head == chain.tail {
                    // Single-event chain: that event is the wheel's global
                    // minimum (finer levels ahead are empty — just scanned —
                    // and coarser levels hold strictly later times), so
                    // deliver it directly instead of walking it down level
                    // by level. This is the common case in sparse regimes.
                    let t = self.arena[chain.head as usize].time;
                    if t > limit {
                        return None;
                    }
                    self.pos = t;
                    self.slots[level][slot] = Chain::EMPTY;
                    self.occupied[level] &= !(1u64 << slot);
                    let node = &mut self.arena[chain.head as usize];
                    let event = node.event.take().expect("linked node holds an event");
                    node.next = self.free;
                    self.free = chain.head;
                    self.len -= 1;
                    return Some((SimTime::from_nanos(t), event));
                }
                if slot_start > limit {
                    return None;
                }
                self.pos = slot_start;
                self.cascade(level, slot);
                continue;
            }
            // Every wheel level is empty: all pending events sit in the
            // overflow chain, at least one full wheel span ahead. Roll the
            // wheel over to the epoch of the earliest one and re-bucket.
            let min_t = self.overflow_min();
            if min_t > limit {
                return None;
            }
            self.pos = min_t >> SPAN_BITS << SPAN_BITS;
            self.rebucket_overflow();
        }
    }

    /// First occupied slot strictly ahead of the cursor, lowest level
    /// first: `(level, slot, slot start time)`. The slot *containing* the
    /// position is always empty at levels ≥ 1 (its events cascaded to finer
    /// levels when the position entered it), hence "strictly".
    fn next_occupied_slot(&self) -> Option<(usize, usize, u64)> {
        for level in 1..WHEEL_LEVELS {
            let shift = SLOT_BITS * level as u32;
            let cursor = ((self.pos >> shift) & SLOT_MASK) as u32;
            let mask = self.occupied[level] & (!0u64 << cursor) & !(1u64 << cursor);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let rotation = self.pos >> (shift + SLOT_BITS) << (shift + SLOT_BITS);
                let slot_start = rotation | (slot as u64) << shift;
                return Some((level, slot, slot_start));
            }
        }
        None
    }

    /// Moves every event of `slots[level][slot]` down to its level for the
    /// (just advanced) position, preserving chain order — which is what
    /// keeps same-instant events in scheduling order end to end.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut cur = self.slots[level][slot].head;
        self.slots[level][slot] = Chain::EMPTY;
        self.occupied[level] &= !(1u64 << slot);
        while cur != NIL {
            let next = self.arena[cur as usize].next;
            let time = self.arena[cur as usize].time;
            self.link(cur, time);
            self.cascaded += 1;
            cur = next;
        }
    }

    /// Minimum time in the overflow chain (only called when non-empty).
    fn overflow_min(&self) -> u64 {
        let mut min = u64::MAX;
        let mut cur = self.overflow.head;
        debug_assert_ne!(cur, NIL, "wheels empty but no overflow");
        while cur != NIL {
            let node = &self.arena[cur as usize];
            min = min.min(node.time);
            cur = node.next;
        }
        min
    }

    /// Re-links every overflow event against the new position, in chain
    /// order (events still beyond the span re-append to the overflow,
    /// keeping their relative order).
    fn rebucket_overflow(&mut self) {
        let mut cur = self.overflow.head;
        self.overflow = Chain::EMPTY;
        while cur != NIL {
            let next = self.arena[cur as usize].next;
            let time = self.arena[cur as usize].time;
            self.link(cur, time);
            self.cascaded += 1;
            cur = next;
        }
    }

    /// Appends node `idx` to the chain for `time` given the current
    /// position; returns the level index (`WHEEL_LEVELS` = overflow).
    fn link(&mut self, idx: u32, time: u64) -> usize {
        let delta = time ^ self.pos;
        if delta >> SPAN_BITS != 0 {
            Self::append(&mut self.arena, &mut self.overflow, idx);
            return WHEEL_LEVELS;
        }
        let level = if delta == 0 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((time >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        Self::append(&mut self.arena, &mut self.slots[level][slot], idx);
        self.occupied[level] |= 1u64 << slot;
        level
    }

    fn append(arena: &mut [Node<E>], chain: &mut Chain, idx: u32) {
        arena[idx as usize].next = NIL;
        if chain.head == NIL {
            chain.head = idx;
        } else {
            arena[chain.tail as usize].next = idx;
        }
        chain.tail = idx;
    }

    /// Pops the FIFO head of a level-0 slot (all its events share one tick).
    fn pop_front_level0(&mut self, slot: usize) -> E {
        let idx = self.slots[0][slot].head;
        debug_assert_ne!(idx, NIL, "occupancy bit set on empty slot");
        let next = self.arena[idx as usize].next;
        debug_assert!(
            next == NIL || self.arena[next as usize].seq > self.arena[idx as usize].seq,
            "level-0 chains must keep scheduling order"
        );
        self.slots[0][slot].head = next;
        if next == NIL {
            self.slots[0][slot].tail = NIL;
            self.occupied[0] &= !(1u64 << slot);
        }
        let node = &mut self.arena[idx as usize];
        let event = node.event.take().expect("linked node holds an event");
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        event
    }

    fn alloc(&mut self, time: u64, seq: u64, event: E) -> u32 {
        let node = Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.arena[idx as usize].next;
            self.arena[idx as usize] = node;
            idx
        } else {
            assert!(self.arena.len() < NIL as usize, "too many pending events");
            self.arena.push(node);
            (self.arena.len() - 1) as u32
        }
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("pos", &self.pos)
            .field("cascaded", &self.cascaded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = w.pop_next_before(u64::MAX) {
            out.push((t.as_nanos(), e));
        }
        out
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(500, 0, 0);
        w.push(20, 1, 1);
        w.push(500, 2, 2);
        w.push(0, 3, 3);
        assert_eq!(drain(&mut w), vec![(0, 3), (20, 1), (500, 0), (500, 2)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_instant_burst_mixing_levels_keeps_scheduling_order() {
        // Event 0 is scheduled far ahead (lands on a coarse level); event 1
        // for the same instant is scheduled after time has advanced close
        // to it (lands on level 0 directly). The cascade must still deliver
        // 0 before 1.
        let mut w = TimingWheel::new();
        w.push(100, 0, 0);
        w.push(90, 1, 9);
        let (t, e) = w.pop_next_before(u64::MAX).unwrap();
        assert_eq!((t.as_nanos(), e), (90, 9));
        w.push(100, 2, 1); // near-future direct insert, same instant as 0
        assert_eq!(drain(&mut w), vec![(100, 0), (100, 1)]);
    }

    #[test]
    fn crosses_every_level_boundary() {
        let mut w = TimingWheel::new();
        let mut times = Vec::new();
        for level in 0..WHEEL_LEVELS as u32 {
            let base = 1u64 << (SLOT_BITS * level);
            for t in [base - 1, base, base + 1] {
                times.push(t);
            }
        }
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, i as u32);
        }
        let out = drain(&mut w);
        let mut sorted: Vec<u64> = times.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // times list is strictly increasing per construction except the
        // shared 0-level overlap; assert global time order.
        assert_eq!(out.len(), times.len());
        for pair in out.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn overflow_rolls_over_and_delivers() {
        let mut w = TimingWheel::new();
        let span = 1u64 << SPAN_BITS;
        w.push(3, 0, 0);
        w.push(span + 5, 1, 1); // next wheel epoch
        w.push(u64::MAX, 2, 2); // saturated `after` lands here
        w.push(4 * span + 7, 3, 3);
        assert_eq!(
            drain(&mut w),
            vec![(3, 0), (span + 5, 1), (4 * span + 7, 3), (u64::MAX, 2)]
        );
        assert!(w.cascaded() > 0, "overflow re-bucketing counts as cascade");
    }

    #[test]
    fn pop_respects_limit_and_later_pushes_stay_valid() {
        let mut w = TimingWheel::new();
        w.push(5, 0, 0);
        w.push(1_000_000, 1, 1);
        assert_eq!(w.pop_next_before(10).map(|(t, _)| t.as_nanos()), Some(5));
        // Next event is far away; the probe must not advance the position
        // past the limit…
        assert_eq!(w.pop_next_before(10), None);
        // …so a push between the limit and the far event still works and
        // comes out first.
        w.push(12, 2, 2);
        assert_eq!(
            drain(&mut w),
            vec![(12, 2), (1_000_000, 1)],
            "intermediate push after a bounded probe must be delivered"
        );
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut w = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.push(round * 1000 + i, round * 100 + i, i as u32);
            }
            while w.pop_next_before(u64::MAX).is_some() {}
        }
        assert!(w.arena.len() <= 100, "arena grew past peak pending");
    }
}
