//! Randomized-input tests: the data plane keeps its directory/buffer
//! invariants and always terminates every operation, under random workloads,
//! allocations and cluster shapes, and the page-indexed directory agrees
//! with a hash-map reference model. Cases are generated from seeded
//! [`SimRng`] streams for reproducibility.

use std::collections::HashMap;

use dmm_buffer::{ClassId, PageId, PolicySpec};
use dmm_cluster::{
    ClusterParams, DataPlane, Directory, HashRing, NodeId, OpCompletion, OpId, Operation,
    MAX_RING_REPLICAS,
};
use dmm_sim::{SimRng, SimTime};

/// Drives all pending events to quiescence, returning completions (the
/// shared engine-backed loop; panics on event storms).
fn drive(
    plane: &mut DataPlane,
    start: Option<(SimTime, dmm_cluster::ClusterEvent)>,
) -> Vec<OpCompletion> {
    dmm_cluster::drive_to_quiescence(plane, start)
}

#[derive(Debug, Clone)]
enum Step {
    Op {
        class: u16,
        node: u16,
        pages: Vec<u32>,
    },
    Alloc {
        class: u16,
        node: u16,
        pages: usize,
    },
}

fn random_step(rng: &mut SimRng, db: u32) -> Step {
    if rng.index(2) == 0 {
        let class = rng.index(3) as u16;
        let node = rng.index(3) as u16;
        let npages = 1 + rng.index(4);
        let mut pages: Vec<u32> = (0..npages).map(|_| rng.index(db as usize) as u32).collect();
        pages.dedup();
        Step::Op { class, node, pages }
    } else {
        Step::Alloc {
            class: 1 + rng.index(2) as u16,
            node: rng.index(3) as u16,
            pages: rng.index(40),
        }
    }
}

fn params(policy: PolicySpec) -> ClusterParams {
    ClusterParams {
        buffer_pages_per_node: 32,
        db_pages: 64,
        goal_classes: 2,
        policy,
        ..ClusterParams::default()
    }
}

#[test]
fn random_sequences_hold_invariants() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let policy = match rng.index(3) {
            0 => PolicySpec::Lru,
            1 => PolicySpec::CostBased,
            _ => PolicySpec::LruK(2),
        };
        let nsteps = 1 + rng.index(59);
        let steps: Vec<Step> = (0..nsteps).map(|_| random_step(&mut rng, 64)).collect();
        let mut plane = DataPlane::new(params(policy));
        let mut issued = 0u64;
        let mut completed = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let t = SimTime::from_nanos((i as u64 + 1) * 50_000_000);
            match step {
                Step::Op { class, node, pages } => {
                    issued += 1;
                    let op = Operation {
                        id: OpId(issued),
                        class: ClassId(*class),
                        origin: NodeId(*node),
                        pages: pages.iter().map(|&p| PageId(p)).collect(),
                        arrival: t,
                    };
                    let out = plane.start_operation(op, t);
                    let done = drive(&mut plane, out.schedule);
                    completed += done.len() as u64;
                    for c in &done {
                        assert!(c.finished >= c.arrival, "seed {seed}");
                        assert!(
                            c.response_ms() < 10_000.0,
                            "runaway response time (seed {seed})"
                        );
                    }
                }
                Step::Alloc { class, node, pages } => {
                    let granted = plane.apply_allocation(NodeId(*node), ClassId(*class), *pages, t);
                    assert!(granted <= 32, "seed {seed}");
                }
            }
            plane.check_invariants();
        }
        assert_eq!(issued, completed, "every operation completes (seed {seed})");
        assert_eq!(plane.inflight_ops(), 0, "seed {seed}");
    }
}

#[test]
fn ring_balances_keys_across_nodes() {
    // Consistent hashing with V virtual nodes balances key ownership to
    // within ~1/sqrt(V): with V = 128 the max/mean key share over 16 nodes
    // stays comfortably under 1.5 for every sampled ring seed.
    let mut rng = SimRng::seed_from_u64(0xB17A);
    for _case in 0..16 {
        let seed = rng.next_u64();
        let ring = HashRing::new(16, 128, seed);
        let mut owned = [0u64; 16];
        for key in 0..20_000u64 {
            owned[ring.primary(key).index()] += 1;
        }
        let max = *owned.iter().max().expect("non-empty") as f64;
        let mean = owned.iter().sum::<u64>() as f64 / owned.len() as f64;
        assert!(
            max / mean <= 1.5,
            "ring imbalance {:.3} (seed {seed:#x})",
            max / mean
        );
        assert!(
            owned.iter().all(|&n| n > 0),
            "starved node (seed {seed:#x})"
        );
    }
}

#[test]
fn ring_reassigns_minimally_on_join_and_leave() {
    // The consistent-hashing contract: when a node joins, the only keys
    // that move are the ones the new node takes over; when it leaves, only
    // its own keys move. Every other key keeps its home.
    let mut rng = SimRng::seed_from_u64(0x1015);
    for _case in 0..16 {
        let seed = rng.next_u64();
        let all: Vec<u16> = (0..12).collect();
        let without_last: Vec<u16> = (0..11).collect();
        let small = HashRing::from_nodes(&without_last, 64, seed);
        let big = HashRing::from_nodes(&all, 64, seed);
        let mut moved = 0u64;
        for key in 0..10_000u64 {
            let before = small.primary(key);
            let after = big.primary(key);
            if before != after {
                // A join only pulls keys onto the new node.
                assert_eq!(after, NodeId(11), "key {key} moved between old nodes");
                moved += 1;
            }
            // Leave (big -> small) is the same comparison read backwards:
            // keys not on the departed node must not move.
            if after != NodeId(11) {
                assert_eq!(before, after, "key {key} moved on leave");
            }
        }
        // The new node takes roughly its fair share (1/12), not nothing
        // and not everything.
        assert!(
            (300..2_000).contains(&moved),
            "join moved {moved} of 10000 keys (seed {seed:#x})"
        );
    }
}

#[test]
fn ring_replica_sets_are_distinct_and_start_at_the_primary() {
    let mut rng = SimRng::seed_from_u64(0xF00D);
    for _case in 0..8 {
        let seed = rng.next_u64();
        let nodes = 2 + rng.index(15);
        let ring = HashRing::new(nodes, 32, seed);
        for key in 0..2_000u64 {
            for r in 1..=MAX_RING_REPLICAS {
                let mut buf = [0u16; MAX_RING_REPLICAS];
                let found = ring.replicas(key, r, &mut buf);
                assert_eq!(found, r.min(nodes), "key {key} r {r}");
                assert_eq!(buf[0], ring.primary(key).index() as u16, "key {key}");
                let mut set: Vec<u16> = buf[..found].to_vec();
                set.sort_unstable();
                set.dedup();
                assert_eq!(set.len(), found, "duplicate replica (key {key}, r {r})");
            }
        }
    }
}

#[test]
fn repeated_access_eventually_hits() {
    let mut rng = SimRng::seed_from_u64(4242);
    for case in 0..32u64 {
        let page = rng.index(64) as u32;
        let class = rng.index(3) as u16;
        let node = rng.index(3) as u16;
        let mut plane = DataPlane::new(params(PolicySpec::Lru));
        let mut t = SimTime::ZERO;
        let mut last_rt = f64::INFINITY;
        for i in 0..3 {
            let op = Operation {
                id: OpId(i + 1),
                class: ClassId(class),
                origin: NodeId(node),
                pages: vec![PageId(page)],
                arrival: t,
            };
            let out = plane.start_operation(op, t);
            let done = drive(&mut plane, out.schedule);
            last_rt = done[0].response_ms();
            t = done[0].finished + dmm_sim::SimDuration::from_millis(1);
        }
        // Third access must be a sub-millisecond local hit.
        assert!(
            last_rt < 1.0,
            "expected warm hit, got {last_rt} ms (case {case})"
        );
    }
}

/// Reference directory: the hash-map layout the page-indexed [`Directory`]
/// replaced. Holder lists are created on a page's first copy and dropped
/// with its last; heat windows are `Vec`s slid with `remove(0)`.
#[derive(Default)]
struct MapDirectory {
    holders: HashMap<PageId, Vec<NodeId>>,
    global_heat: HashMap<PageId, Vec<SimTime>>,
    published: HashMap<PageId, f64>,
    publish_events: u64,
}

impl MapDirectory {
    const K: usize = dmm_buffer::HEAT_K;
    const THRESHOLD: f64 = 0.2;

    fn holders(&self, page: PageId) -> &[NodeId] {
        self.holders.get(&page).map_or(&[], Vec::as_slice)
    }

    fn is_last_copy(&self, page: PageId, node: NodeId) -> bool {
        self.holders(page) == [node]
    }

    fn pick_holder(&self, page: PageId, requester: NodeId) -> Option<NodeId> {
        self.holders(page).iter().copied().find(|&n| n != requester)
    }

    fn add_copy(&mut self, page: PageId, node: NodeId) {
        let h = self.holders.entry(page).or_default();
        if !h.contains(&node) {
            h.push(node);
        }
    }

    fn remove_copy(&mut self, page: PageId, node: NodeId) -> usize {
        let Some(h) = self.holders.get_mut(&page) else {
            return 0;
        };
        h.retain(|&n| n != node);
        let left = h.len();
        if left == 0 {
            self.holders.remove(&page);
        }
        left
    }

    fn global_heat_per_ms(&self, page: PageId, now: SimTime) -> f64 {
        let Some(w) = self.global_heat.get(&page).filter(|w| !w.is_empty()) else {
            return 0.0;
        };
        w.len() as f64 / now.since(w[0]).as_millis_f64().max(1e-3)
    }

    fn record_access(&mut self, page: PageId, now: SimTime) -> bool {
        let w = self.global_heat.entry(page).or_default();
        if w.len() == Self::K {
            w.remove(0);
        }
        w.push(now);
        let heat = self.global_heat_per_ms(page, now);
        let published = self.published.get(&page).copied().unwrap_or(0.0);
        if (heat - published).abs() > Self::THRESHOLD * published.max(1e-9) {
            self.published.insert(page, heat);
            self.publish_events += 1;
            true
        } else {
            false
        }
    }
}

#[test]
fn page_indexed_directory_matches_map_reference() {
    const DB: u32 = 24;
    const NODES: u16 = 5;
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(9_000 + seed);
        let mut dir = Directory::new(2, DB, MapDirectory::THRESHOLD);
        let mut model = MapDirectory::default();
        let mut now = 0u64;
        for step in 0..1 + rng.index(400) {
            let page = PageId(rng.index(DB as usize) as u32);
            let node = NodeId(rng.index(NODES as usize) as u16);
            now += rng.index(20_000_000) as u64;
            let at = SimTime::from_nanos(now);
            let ctx = format!("seed {seed} step {step} {page} node{}", node.index());
            match rng.index(3) {
                0 => {
                    dir.add_copy(page, node);
                    model.add_copy(page, node);
                }
                1 => assert_eq!(
                    dir.remove_copy(page, node),
                    model.remove_copy(page, node),
                    "{ctx}"
                ),
                _ => assert_eq!(
                    dir.record_access(page, at),
                    model.record_access(page, at),
                    "publish decision, {ctx}"
                ),
            }
            assert_eq!(dir.holders(page), model.holders(page), "{ctx}");
            assert_eq!(dir.copies(page), model.holders(page).len(), "{ctx}");
            assert_eq!(
                dir.is_last_copy(page, node),
                model.is_last_copy(page, node),
                "{ctx}"
            );
            for requester in 0..NODES {
                assert_eq!(
                    dir.pick_holder(page, NodeId(requester)),
                    model.pick_holder(page, NodeId(requester)),
                    "{ctx}"
                );
            }
            assert_eq!(dir.publish_events(), model.publish_events, "{ctx}");
            assert_eq!(
                dir.global_heat_per_ms(page, at).to_bits(),
                model.global_heat_per_ms(page, at).to_bits(),
                "{ctx}"
            );
        }
        dir.check_invariants();
        for p in 0..DB {
            assert_eq!(
                dir.holders(PageId(p)),
                model.holders(PageId(p)),
                "seed {seed}"
            );
        }
    }
}
