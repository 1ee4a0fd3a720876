//! The layer-call replica: a `dmm_sim::Handler` that drives `Engine`,
//! `DataPlane`, `WorkloadGenerator`, `LocalAgent` and `Coordinator` through
//! their public functions in the order `Simulation` does, with a host timer
//! around each call into a library crate.
//!
//! The replica only measures something if it runs the same program as
//! `Simulation`: the traced run compares its [`Fingerprint`] with the
//! untraced run's and discards the profile on any difference.

use std::time::Instant;

use dmm_buffer::ClassId;
use dmm_cluster::{ClusterEvent, DataPlane, NodeId, StepOutput};
use dmm_core::agent::{AgentObservation, LocalAgent};
use dmm_core::coordinator::PAGES_PER_MB;
use dmm_core::{
    solve_partitioning, ControllerKind, Coordinator, IntervalRecord, MeasureStore, Objective,
    PartitionProblem, ProbeSpec, Strategy, SystemConfig,
};
use dmm_obs::MetricsSnapshot;
use dmm_sim::{Engine, Handler, Scheduler, SimDuration, SimTime};
use dmm_workload::{GoalSchedule, WorkloadGenerator};

use crate::fingerprint::{entries, Fingerprint};

/// Delay between an interval boundary and the coordinator check (mirrors
/// `Simulation`'s private constant; the fingerprint check catches drift).
const CHECK_DELAY: SimDuration = SimDuration::from_millis(50);

/// Reallocation penalty `Coordinator::new` installs (ms/MB); the LP
/// re-solve reproduces the coordinator's problem with it.
const REALLOCATION_PENALTY: f64 = 0.02;

/// Events of the replica, mirroring `Simulation`'s event set.
#[derive(Debug, Clone)]
enum Ev {
    Data(ClusterEvent),
    Arrival {
        node: NodeId,
        class: ClassId,
    },
    IntervalEnd,
    Report {
        to: ClassId,
        obs: AgentObservation,
    },
    CoordCheck {
        class: ClassId,
    },
    Alloc {
        class: ClassId,
        node: NodeId,
        pages: usize,
    },
    Granted {
        class: ClassId,
        node: NodeId,
        granted: usize,
        avail: usize,
    },
}

/// Host nanoseconds spent inside each layer's public functions.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `Engine::run_until` wall time, all layers included.
    pub total_ns: u64,
    /// `WorkloadGenerator::make_op` + `next_gap`, and the goal schedule.
    pub workload_ns: u64,
    /// Operations generated (`make_op` calls).
    pub ops: u64,
    /// `DataPlane::start_operation` + `handle`.
    pub data_ns: u64,
    /// Calls to `start_operation` + `handle`.
    pub data_calls: u64,
    /// Every other `DataPlane` call (control messages, pool reads).
    pub plane_other_ns: u64,
    /// `DataPlane::on_interval`.
    pub maintenance_ns: u64,
    /// `on_interval` calls.
    pub maintenance_calls: u64,
    /// `DataPlane::apply_allocation`.
    pub resize_ns: u64,
    /// `apply_allocation` calls.
    pub resize_calls: u64,
    /// `LocalAgent` arrival, completion and histogram calls.
    pub agent_op_ns: u64,
    /// `LocalAgent::end_interval` and baseline resets.
    pub agent_interval_ns: u64,
    /// `Coordinator` calls (reports, checks, grants, goal changes).
    pub coord_ns: u64,
    /// Host µs per check phase: the check plus the reports it consumed.
    pub check_us: Vec<f64>,
    /// LP re-solves (outside every other figure).
    pub lp_ns: u64,
    /// LP re-solves performed.
    pub lp_solves: u64,
    /// Re-solves whose allocation equals, bit for bit, the one the check
    /// requested. The rest were reshaped by the coordinator's post-LP
    /// guards (release trust region, monotone guard, release floor).
    pub lp_alloc_equal: u64,
    /// Re-solves that disagreed with the check's LP outcome: a different
    /// fitted plane, predicted response time or attainability.
    pub lp_mismatches: Vec<String>,
    /// Clock reads taken inside `run_until`.
    pub clock_reads: u64,
}

impl LayerTimes {
    /// Host time attributed to the `cluster` layer.
    pub fn cluster_ns(&self) -> u64 {
        self.data_ns + self.plane_other_ns
    }

    /// Host time attributed to the `buffer` layer's own entry points.
    pub fn buffer_ns(&self) -> u64 {
        self.maintenance_ns + self.resize_ns
    }

    /// Host time attributed to the `core` layer.
    pub fn core_ns(&self) -> u64 {
        self.agent_op_ns + self.agent_interval_ns + self.coord_ns
    }

    /// `run_until` time without the LP re-solves: the replica's measured
    /// run of the program.
    pub fn profiled_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.lp_ns)
    }

    /// Kernel self time: profiled time outside every timed call.
    pub fn sim_self_ns(&self) -> u64 {
        self.profiled_ns().saturating_sub(
            self.workload_ns + self.cluster_ns() + self.buffer_ns() + self.core_ns(),
        )
    }
}

/// Evaluates `$e`, adding its host time to `$acc` and two clock reads to
/// `$reads`.
macro_rules! timed {
    ($acc:expr, $reads:expr, $e:expr) => {{
        let t0 = Instant::now();
        let r = $e;
        $acc += t0.elapsed().as_nanos() as u64;
        $reads += 2;
        r
    }};
}

/// Why a configuration is outside what the replica reproduces.
pub fn unsupported(config: &SystemConfig) -> Option<&'static str> {
    if config.fault_plan.is_some() {
        return Some("fault plans are not replicated");
    }
    if !matches!(config.controller, ControllerKind::Hyperplane { .. }) {
        return Some("only the hyperplane controller is replicated");
    }
    None
}

struct State {
    plane: DataPlane,
    gen: WorkloadGenerator,
    /// `agents[class][node]`.
    agents: Vec<Vec<LocalAgent>>,
    /// `coords[class]`; `None` for the no-goal class.
    coords: Vec<Option<Coordinator>>,
    schedules: Vec<Option<GoalSchedule>>,
    records: Vec<Vec<IntervalRecord>>,
    coord_home: Vec<NodeId>,
    /// Per-node MB available to each goal class, as its coordinator last
    /// heard (input of the LP re-solve).
    avail_mb: Vec<Vec<f64>>,
    /// Host ns of reports delivered to each coordinator since its last
    /// check.
    pending_report_ns: Vec<u64>,
    objective: Objective,
    interval_idx: u32,
    interval: SimDuration,
    warmup_intervals: u32,
    report_bytes: u64,
    alloc_msg_bytes: u64,
    t: LayerTimes,
}

/// A runnable replica of `Simulation` for one configuration.
pub struct Replica {
    engine: Engine<Ev>,
    state: State,
}

impl Replica {
    /// Builds the replica exactly as `Simulation::new` builds the system.
    /// Panics on a configuration [`unsupported`] names.
    pub fn new(config: &SystemConfig) -> Replica {
        if let Some(why) = unsupported(config) {
            panic!("replica cannot run this configuration: {why}");
        }
        let ControllerKind::Hyperplane { objective } = config.controller else {
            unreachable!("checked by `unsupported`");
        };
        let mut cluster = config.cluster.clone();
        let goal_classes = config.workload.classes.len() - 1;
        cluster.goal_classes = goal_classes;
        let nodes = cluster.nodes;
        let mut plane = DataPlane::new(cluster.clone());
        let gen = WorkloadGenerator::new(config.workload.clone(), nodes, config.seed);
        let node_size_mb = config.node_size_mb();

        let agents = config
            .workload
            .classes
            .iter()
            .map(|spec| {
                (0..nodes)
                    .map(|n| {
                        let mut agent = LocalAgent::new(
                            NodeId(n as u16),
                            spec.class,
                            config.agent_significance,
                        );
                        if spec.goal_metric.is_quantile() {
                            agent.enable_rt_histograms();
                        }
                        agent
                    })
                    .collect()
            })
            .collect();

        let mut coords: Vec<Option<Coordinator>> = vec![None];
        let mut schedules: Vec<Option<GoalSchedule>> = vec![None];
        let mut coord_home = vec![NodeId(0)];
        for spec in &config.workload.classes[1..] {
            let class = spec.class;
            let home = NodeId(((class.index() - 1) % nodes) as u16);
            coord_home.push(home);
            let goal = spec.goal_ms.expect("goal class");
            let strategy = Strategy::Hyperplane {
                store: MeasureStore::new(nodes),
                objective,
                probe_step: 0,
            };
            let mut c = Coordinator::new(class, home, nodes, node_size_mb, goal, strategy);
            c.set_satisfaction_mode(config.satisfaction);
            c.set_release_floor(config.release_floor_mb);
            c.set_goal_metric(spec.goal_metric);
            if let ProbeSpec::Batched { batch } = config.probe {
                c.set_probe_batch(batch);
            }
            coords.push(Some(c));
            schedules.push(config.goal_range.map(|range| {
                GoalSchedule::new(range, goal, config.seed ^ (0xC0FFEE + class.index() as u64))
            }));
        }
        if config.release_floor_mb > 0.0 {
            let per_node = ((config.release_floor_mb * PAGES_PER_MB) as usize).div_ceil(nodes);
            for spec in &config.workload.classes[1..] {
                for n in 0..nodes {
                    plane.apply_allocation(NodeId(n as u16), spec.class, per_node, SimTime::ZERO);
                }
            }
        }

        let mut state = State {
            plane,
            gen,
            agents,
            coords,
            schedules,
            records: vec![Vec::new(); goal_classes + 1],
            coord_home,
            avail_mb: vec![vec![node_size_mb; nodes]; goal_classes + 1],
            pending_report_ns: vec![0; goal_classes + 1],
            objective,
            interval_idx: 0,
            interval: config.interval,
            warmup_intervals: config.warmup_intervals,
            report_bytes: config.report_bytes,
            alloc_msg_bytes: config.alloc_msg_bytes,
            t: LayerTimes::default(),
        };
        let mut engine = Engine::new();
        for (node, class) in state.gen.active_streams() {
            let gap = state.gen.next_gap(node, class, SimTime::ZERO);
            engine
                .scheduler()
                .at(SimTime::ZERO + gap, Ev::Arrival { node, class });
        }
        engine
            .scheduler()
            .at(SimTime::ZERO + config.interval, Ev::IntervalEnd);
        Replica { engine, state }
    }

    /// Runs `n` more observation intervals, as `Simulation::run_intervals`.
    pub fn run_intervals(&mut self, n: u32) {
        let target = self.state.interval_idx + n;
        let horizon =
            SimTime::ZERO + self.state.interval * (target as u64) + self.state.interval / 2;
        let t0 = Instant::now();
        self.engine.run_until(horizon, &mut self.state);
        self.state.t.total_ns += t0.elapsed().as_nanos() as u64;
        self.state.t.clock_reads += 2;
    }

    /// Intervals completed so far.
    pub fn intervals(&self) -> u32 {
        self.state.interval_idx
    }

    /// The data plane (for invariant checks).
    pub fn plane(&self) -> &DataPlane {
        &self.state.plane
    }

    /// Host times gathered so far.
    pub fn times(&self) -> &LayerTimes {
        &self.state.t
    }

    /// The metrics snapshot `Simulation::metrics_snapshot` would report,
    /// minus the [`UNREPLICATED_PREFIXES`](crate::fingerprint::UNREPLICATED_PREFIXES) keys.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.counter("sim.events", self.engine.delivered());
        snap.counter("sim.intervals", self.state.interval_idx as u64);
        let sched = self.engine.sched_stats();
        snap.counter("sim.sched.pushes", sched.pushes);
        snap.counter("sim.sched.peak_pending", sched.peak_pending);
        snap.counter("sim.sched.cascaded", sched.cascaded);
        let overflow = sched.level_pushes.len() - 1;
        for (level, &n) in sched.level_pushes.iter().enumerate() {
            if n > 0 {
                if level == overflow {
                    snap.counter("sim.sched.overflow.pushes", n);
                } else {
                    snap.counter(format!("sim.sched.level{level}.pushes"), n);
                }
            }
        }
        self.state.plane.fill_metrics(&mut snap, self.engine.now());
        for coord in self.state.coords.iter().flatten() {
            let k = coord.class().index();
            snap.counter(format!("core.class{k}.checks"), coord.checks());
            snap.counter(
                format!("core.class{k}.optimizations"),
                coord.optimizations(),
            );
            snap.gauge(format!("core.class{k}.goal_ms"), coord.goal_ms());
            snap.gauge(format!("core.class{k}.tolerance_ms"), coord.tolerance_ms());
            if let Some(r) = coord.residual_ewma_ms() {
                snap.gauge(format!("core.class{k}.residual_ewma_ms"), r);
            }
            if coord.goal_metric().is_quantile() {
                if let Some(p) = coord.last_quantile_ms() {
                    let label = coord.goal_metric().label();
                    snap.gauge(format!("core.class{k}.{label}_ms"), p);
                }
            }
        }
        snap
    }

    /// The replica's deterministic fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        let snap = self.metrics_snapshot();
        Fingerprint {
            events: self.engine.delivered(),
            completions: self
                .state
                .agents
                .iter()
                .map(|class| class.iter().map(|a| a.completions_total()).sum())
                .collect(),
            records: self.state.records.clone(),
            metrics: entries(&snap),
        }
    }
}

impl State {
    fn schedule_plane(&mut self, out: StepOutput, sched: &mut Scheduler<Ev>) {
        if let Some((t, e)) = out.schedule {
            sched.at(t, Ev::Data(e));
        }
        if let Some(c) = out.completed {
            let agent = &mut self.agents[c.class.index()][c.origin.index()];
            timed!(self.t.agent_op_ns, self.t.clock_reads, {
                agent.on_completion(c.response_ms());
                if agent.collects_rt_histograms() {
                    agent.record_rt_ns(c.finished.since(c.arrival).as_nanos());
                }
            });
        }
    }

    fn goal_class_ids(&self) -> Vec<ClassId> {
        (1..self.coords.len()).map(|c| ClassId(c as u16)).collect()
    }

    fn coord(&mut self, class: ClassId) -> &mut Coordinator {
        self.coords[class.index()]
            .as_mut()
            .expect("goal class has a coordinator")
    }

    fn end_interval(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.interval_idx += 1;
        sched.after(self.interval, Ev::IntervalEnd);
        timed!(
            self.t.maintenance_ns,
            self.t.clock_reads,
            self.plane.on_interval(now)
        );
        self.t.maintenance_calls += 1;
        let interval_ms = self.interval.as_millis_f64();
        let goal_ids = self.goal_class_ids();
        for c in 0..self.agents.len() {
            for n in 0..self.agents[c].len() {
                let node = NodeId(n as u16);
                let class = ClassId(c as u16);
                let (granted, avail, pool) = timed!(self.t.plane_other_ns, self.t.clock_reads, {
                    (
                        self.plane.dedicated_pages(node, class),
                        self.plane.avail_pages(node, class),
                        self.plane.pool_stats(node, class),
                    )
                });
                let agent = &mut self.agents[c][n];
                let (obs, significant) = timed!(
                    self.t.agent_interval_ns,
                    self.t.clock_reads,
                    agent.end_interval(now, interval_ms, granted, avail, pool)
                );
                if !significant || !self.plane.is_up(node) {
                    continue;
                }
                let targets: Vec<ClassId> = if class.is_no_goal() {
                    goal_ids.clone()
                } else {
                    vec![class]
                };
                for to in targets {
                    let home = self.coord_home[to.index()];
                    let bytes = self.report_bytes;
                    let delivered = timed!(
                        self.t.plane_other_ns,
                        self.t.clock_reads,
                        self.plane.send_control(node, home, bytes, now)
                    );
                    sched.at(
                        delivered,
                        Ev::Report {
                            to,
                            obs: obs.clone(),
                        },
                    );
                }
            }
        }
        for &class in &goal_ids {
            sched.after(CHECK_DELAY, Ev::CoordCheck { class });
        }
        if self.interval_idx == self.warmup_intervals {
            timed!(
                self.t.plane_other_ns,
                self.t.clock_reads,
                self.plane.reset_stats()
            );
            timed!(self.t.agent_interval_ns, self.t.clock_reads, {
                for agent in self.agents.iter_mut().flatten() {
                    agent.reset_pool_baseline();
                }
            });
        }
    }

    fn on_report(&mut self, to: ClassId, obs: AgentObservation) {
        if obs.class == to {
            self.avail_mb[to.index()][obs.node.index()] = obs.avail_pages as f64 / PAGES_PER_MB;
        }
        let t0 = Instant::now();
        self.coord(to).on_report(obs);
        let ns = t0.elapsed().as_nanos() as u64;
        self.t.clock_reads += 2;
        self.t.coord_ns += ns;
        self.pending_report_ns[to.index()] += ns;
    }

    fn coord_check(&mut self, class: ClassId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let home = self.coord_home[class.index()];
        let current_mb = self.coord(class).granted_mb().to_vec();
        let t0 = Instant::now();
        let outcome = self.coord(class).check(now);
        let check_ns = t0.elapsed().as_nanos() as u64;
        self.t.clock_reads += 2;
        self.t.coord_ns += check_ns;
        let reports_ns = std::mem::take(&mut self.pending_report_ns[class.index()]);
        self.t.check_us.push((check_ns + reports_ns) as f64 / 1e3);

        let goal_ms = self.coord(class).goal_ms();
        if outcome.optimize.as_ref().is_some_and(|o| o.path == "lp") {
            self.resolve_lp(class, goal_ms, &current_mb, &outcome);
        }
        let dedicated_bytes = timed!(
            self.t.plane_other_ns,
            self.t.clock_reads,
            self.plane.total_dedicated_bytes(class)
        );
        self.records[class.index()].push(IntervalRecord {
            interval: self.interval_idx.saturating_sub(1),
            observed_ms: outcome.observed_class_ms,
            observed_p_ms: outcome.observed_quantile_ms,
            goal_ms,
            nogoal_ms: outcome.observed_nogoal_ms,
            dedicated_bytes,
            satisfied: outcome.satisfied,
        });

        if let Some(satisfied) = outcome.satisfied {
            if let Some(schedule) = &mut self.schedules[class.index()] {
                let new_goal = timed!(
                    self.t.workload_ns,
                    self.t.clock_reads,
                    schedule.observe_interval(satisfied)
                );
                if let Some(goal) = new_goal {
                    let coord = self.coords[class.index()].as_mut().expect("goal class");
                    timed!(self.t.coord_ns, self.t.clock_reads, coord.set_goal(goal));
                }
            }
        }

        if let Some(alloc_mb) = outcome.new_alloc_mb {
            for (i, mb) in alloc_mb.iter().enumerate() {
                let node = NodeId(i as u16);
                let pages = (mb * PAGES_PER_MB).round().max(0.0) as usize;
                let bytes = self.alloc_msg_bytes;
                let delivered = timed!(self.t.plane_other_ns, self.t.clock_reads, {
                    if pages == self.plane.dedicated_pages(node, class) {
                        None
                    } else {
                        Some(self.plane.send_control(home, node, bytes, now))
                    }
                });
                if let Some(at) = delivered {
                    sched.at(at, Ev::Alloc { class, node, pages });
                }
            }
        }
    }

    /// Re-solves the partitioning problem the check just solved, through
    /// `solve_partitioning` alone, and compares it with the check's
    /// outcome. Its host time is kept apart from every other figure.
    fn resolve_lp(
        &mut self,
        class: ClassId,
        goal_ms: f64,
        current_mb: &[f64],
        outcome: &dmm_core::coordinator::CheckOutcome,
    ) {
        let trace = outcome.optimize.as_ref().expect("optimized check");
        let coord = self.coords[class.index()].as_ref().expect("goal class");
        let Some(planes) = coord.fitted_planes() else {
            self.t
                .lp_mismatches
                .push("LP check left no fitted planes".into());
            return;
        };
        let problem = PartitionProblem {
            planes,
            goal_ms,
            avail_mb: &self.avail_mb[class.index()],
            current_mb,
            reallocation_penalty: REALLOCATION_PENALTY,
            objective: self.objective,
        };
        let t0 = Instant::now();
        let solved = solve_partitioning(&problem);
        self.t.lp_ns += t0.elapsed().as_nanos() as u64;
        self.t.lp_solves += 1;
        match solved {
            Ok(sol) => {
                let same_plane = trace.plane_w.as_deref() == Some(planes.class.w.as_slice())
                    && trace.plane_c.map(f64::to_bits) == Some(planes.class.c.to_bits());
                let same = same_plane
                    && Some(sol.predicted_class_ms.to_bits())
                        == trace.predicted_class_ms.map(f64::to_bits)
                    && Some(sol.goal_attainable) == trace.goal_attainable;
                if !same {
                    self.t.lp_mismatches.push(format!(
                        "re-solve predicted {} ms (attainable {}), check {:?} ({:?})",
                        sol.predicted_class_ms,
                        sol.goal_attainable,
                        trace.predicted_class_ms,
                        trace.goal_attainable
                    ));
                } else if outcome.new_alloc_mb.as_deref() == Some(sol.alloc_mb.as_slice()) {
                    self.t.lp_alloc_equal += 1;
                }
            }
            Err(e) => self
                .t
                .lp_mismatches
                .push(format!("re-solve failed where the check solved: {e:?}")),
        }
    }
}

impl Handler<Ev> for State {
    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Data(e) => {
                let out = timed!(
                    self.t.data_ns,
                    self.t.clock_reads,
                    self.plane.handle(now, e)
                );
                self.t.data_calls += 1;
                self.schedule_plane(out, sched);
            }
            Ev::Arrival { node, class } => {
                if self.plane.is_up(node) {
                    let agent = &mut self.agents[class.index()][node.index()];
                    timed!(self.t.agent_op_ns, self.t.clock_reads, agent.on_arrival());
                    let op = timed!(
                        self.t.workload_ns,
                        self.t.clock_reads,
                        self.gen.make_op(node, class, now)
                    );
                    let out = timed!(
                        self.t.data_ns,
                        self.t.clock_reads,
                        self.plane.start_operation(op, now)
                    );
                    self.t.data_calls += 1;
                    self.t.ops += 1;
                    self.schedule_plane(out, sched);
                }
                let gap = timed!(
                    self.t.workload_ns,
                    self.t.clock_reads,
                    self.gen.next_gap(node, class, now)
                );
                sched.after(gap, Ev::Arrival { node, class });
            }
            Ev::IntervalEnd => self.end_interval(now, sched),
            Ev::Report { to, obs } => self.on_report(to, obs),
            Ev::CoordCheck { class } => self.coord_check(class, now, sched),
            Ev::Alloc { class, node, pages } => {
                if !self.plane.is_up(node) {
                    return;
                }
                let granted = timed!(
                    self.t.resize_ns,
                    self.t.clock_reads,
                    self.plane.apply_allocation(node, class, pages, now)
                );
                self.t.resize_calls += 1;
                let home = self.coord_home[class.index()];
                let bytes = self.alloc_msg_bytes;
                let (avail, delivered) = timed!(self.t.plane_other_ns, self.t.clock_reads, {
                    (
                        self.plane.avail_pages(node, class),
                        self.plane.send_control(node, home, bytes, now),
                    )
                });
                sched.at(
                    delivered,
                    Ev::Granted {
                        class,
                        node,
                        granted,
                        avail,
                    },
                );
            }
            Ev::Granted {
                class,
                node,
                granted,
                avail,
            } => {
                if !self.plane.is_up(node) {
                    return;
                }
                self.avail_mb[class.index()][node.index()] = avail as f64 / PAGES_PER_MB;
                let coord = self.coords[class.index()].as_mut().expect("goal class");
                timed!(
                    self.t.coord_ns,
                    self.t.clock_reads,
                    coord.on_granted(node, granted, avail)
                );
            }
        }
    }
}
