//! The discrete-event execution engine.
//!
//! Execution semantics, in one paragraph: external arrivals and every
//! call-graph edge traversal are *forwards* through the shared gateway
//! (FIFO, load-dependent service time). A delivered forward queues a task on
//! one round-robin-selected instance of the target function; the instance
//! runs up to `concurrency` tasks at once. An executing task advances
//! through its phases at rate `1/slowdown`, where the slowdown comes from
//! the [`cluster`] contention model and is re-evaluated (piecewise-exactly)
//! whenever the set of executing phases on its server changes. When a task's
//! own service ends it either completes — triggering async children and
//! releasing its slot — or enters *nested wait*, holding its slot until its
//! nested children return (Observation 4's upstream propagation). Cold
//! starts prepend the function's cold phase when an instance is new or has
//! been idle past the keep-alive.
//!
//! This file holds the state, deployment, the run loop and the one
//! emission path; `exec`, `faults`, `autoscale` and `collect` hold each
//! concern's handlers (DESIGN.md §16).

mod autoscale;
mod collect;
mod exec;
mod faults;

use crate::config::{PlatformConfig, ResilienceConfig};
use crate::gateway::{Forward, Gateway};
use crate::replay::Fold;
use crate::report::RunReport;
use crate::scale::{placement_journal_event, PlacementDecision, Placer};
use ::faults::{FaultConfig, FaultInjector};
use cluster::{ContentionState, InstanceId, ServerState};
use collect::Collector;
use obs::journal::{JournalEvent, PlacementKind};
use obs::Obs;
use simcore::rng::seed_stream;
use simcore::{EventId, EventQueue, SimRng, SimTime};
use std::collections::VecDeque;
use workloads::dag::CallKind;
use workloads::{PhaseSpec, Workload};

/// Handle to a deployed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadId(pub usize);

/// How a deployed workload is driven.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Open-loop request arrivals (LS workloads): each time is one
    /// end-to-end request through the call graph.
    OpenLoop(Vec<SimTime>),
    /// Job submissions (SC/BG workloads): identical mechanics, but the
    /// e2e latency is interpreted as the JCT.
    Jobs(Vec<SimTime>),
}

impl ArrivalSpec {
    fn times(&self) -> &[SimTime] {
        match self {
            ArrivalSpec::OpenLoop(t) | ArrivalSpec::Jobs(t) => t,
        }
    }
}

/// A workload plus its initial placement and drive.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The workload to run.
    pub workload: Workload,
    /// Initial instances per call-graph node (each node needs ≥ 1).
    pub placement: Vec<Vec<PlacementDecision>>,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
}

#[derive(Debug)]
struct Instance {
    server: usize,
    socket: usize,
    active: Vec<usize>,
    queue: VecDeque<usize>,
    last_finish: SimTime,
    used: bool,
    /// False once the instance's server crashed or it was OOM-killed; dead
    /// instances receive no deliveries and do not count as capacity.
    alive: bool,
}

#[derive(Debug)]
struct Deployed {
    workload: Workload,
    instances: Vec<Vec<Instance>>,
    rr: Vec<usize>,
    /// Number of async parents per node (join counts).
    async_parents: Vec<u32>,
    /// Nested parent node, if any.
    nested_parent: Vec<Option<usize>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Queued,
    Executing,
    NestedWait,
    Done,
}

#[derive(Debug)]
struct Task {
    req: u64,
    wl: usize,
    node: usize,
    inst: usize,
    state: TaskState,
    /// Index into the invocation's phases (see
    /// [`workloads::FunctionSpec::invocation_phase`]).
    phase_idx: usize,
    /// Solo-time microseconds remaining in the current phase.
    remaining_us: f64,
    slowdown: f64,
    last_update: SimTime,
    /// The pending `PhaseEnd` of an executing task. Re-timed in place when
    /// the task's co-runners change; cancelled when the task is aborted.
    timer: Option<EventId>,
    enqueued_at: SimTime,
    load_id: Option<InstanceId>,
    server: usize,
    /// Whether this invocation paid a cold start.
    cold: bool,
    /// When the currently-executing phase began (tracing only).
    phase_started: SimTime,
    /// When the task's own service finished (start of any nested wait).
    service_done: SimTime,
}

/// A task's phase `phase_idx`, read from its deployed function spec; `None`
/// once the task is past its last phase.
fn invocation_phase<'a>(d: &'a Deployed, t: &Task) -> Option<&'a PhaseSpec> {
    d.workload
        .graph
        .func(workloads::NodeId(t.node))
        .invocation_phase(t.cold, t.phase_idx)
}

/// The phase an executing task is in.
fn current_phase<'a>(d: &'a Deployed, t: &Task) -> &'a PhaseSpec {
    invocation_phase(d, t).expect("executing task past its last phase")
}

/// Terminal state of a request — every arrival ends in exactly one of these
/// (the conservation property the chaos tests assert).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed normally (possibly after retries).
    Completed,
    /// Rejected at the gateway by load shedding; never forwarded.
    Shed,
    /// Exhausted its retry budget after crashes/drops/OOM-kills/timeouts.
    Failed,
}

#[derive(Debug)]
struct RequestState {
    arrival: SimTime,
    wl: usize,
    remaining_async: Vec<u32>,
    nested_pending: Vec<u32>,
    node_task: Vec<Option<usize>>,
    nodes_remaining: usize,
    /// Current delivery attempt (0 = first try). Bumped on every abort so
    /// in-flight forwards/timeouts of the old attempt become stale.
    attempt: u32,
    outcome: Option<Outcome>,
}

#[derive(Debug)]
enum Ev {
    Arrival {
        wl: usize,
    },
    GatewayDone {
        fwd: Forward,
    },
    PhaseEnd {
        task: usize,
    },
    Collect,
    /// Next injected fault fires (chaos runs only).
    FaultTick,
    /// A transient server slowdown ends (stale if the token moved on).
    SlowdownEnd {
        server: usize,
        token: u64,
    },
    /// A crashed server rejoins the cluster (empty).
    ServerRecover {
        server: usize,
    },
    /// Per-attempt request deadline.
    RequestTimeout {
        req: u64,
        attempt: u32,
    },
    /// Backoff elapsed: re-issue the request's root forwards.
    RetryRequest {
        req: u64,
    },
}

/// Autoscaling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Scale out when (queued tasks) / (instances) exceeds this.
    pub queue_per_instance: f64,
    /// Scale out when in-flight tasks exceed this fraction of the node's
    /// total concurrency capacity (HPA-style utilization trigger).
    pub busy_fraction: f64,
    /// Upper bound on instances per function node.
    pub max_instances_per_node: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            queue_per_instance: 2.0,
            busy_fraction: 0.75,
            max_instances_per_node: 64,
        }
    }
}

/// The simulator.
pub struct Simulation {
    config: PlatformConfig,
    servers: Vec<ServerState>,
    server_tasks: Vec<Vec<usize>>,
    queue: EventQueue<Ev>,
    gateway: Gateway,
    deployed: Vec<Deployed>,
    /// Task slab: a task's slot is freed when it reaches `Done` and reused
    /// by a later delivery, so the slab tracks live work, not the run.
    tasks: Vec<Task>,
    /// Freed `tasks` slots, reused last-freed first.
    free_tasks: Vec<usize>,
    /// Tasks delivered so far (the checkpoint's `tasks_created`).
    tasks_created: u64,
    /// Sum of `phase_idx` over freed slots, so tests can count every
    /// phase run after the slots were reused.
    #[cfg(test)]
    phases_freed: usize,
    requests: Vec<RequestState>,
    report: RunReport,
    placer: Option<Box<dyn Placer>>,
    scale: ScaleConfig,
    instance_count: usize,
    next_collect: SimTime,
    arrivals_pending: Vec<VecDeque<SimTime>>,
    obs: Obs,
    /// Optional per-workload e2e SLA (ms), for the `sla.violations` counter.
    sla_ms: Vec<Option<f64>>,
    /// Fault injector; `None` (the default) schedules no fault ticks.
    faults: Option<FaultInjector>,
    /// Degradation policy (timeout/retry/shed); default fully disabled.
    resilience: ResilienceConfig,
    /// Private stream for backoff jitter, separate from the simulation RNG
    /// so retries never perturb metric synthesis.
    retry_rng: SimRng,
    /// Per-server liveness.
    alive: Vec<bool>,
    /// Per-server transient service-time multiplier (1.0 = healthy).
    slow_mult: Vec<f64>,
    /// Staleness tokens for scheduled `SlowdownEnd` events.
    slow_token: Vec<u64>,
    /// Until this instant every dispatch is treated as a cold start.
    cold_storm_until: SimTime,
    /// Until this instant the predictor is reported unavailable to placers.
    predictor_down_until: SimTime,
    /// Events dispatched by the run loop, for the throughput bench.
    events_processed: u64,
    /// Contention state recomputed in place for one server at a time.
    contention: ContentionState,
    /// State only the collect tick touches.
    collect: Collector,
}

impl Simulation {
    /// New simulator on the configured cluster.
    pub fn new(config: PlatformConfig) -> Self {
        let servers: Vec<ServerState> = config
            .cluster
            .servers
            .iter()
            .cloned()
            .map(ServerState::new)
            .collect();
        let n = servers.len();
        let seed = config.seed;
        Self {
            config,
            servers,
            server_tasks: vec![Vec::new(); n],
            queue: EventQueue::new(),
            gateway: Gateway::new(),
            deployed: Vec::new(),
            tasks: Vec::new(),
            free_tasks: Vec::new(),
            tasks_created: 0,
            #[cfg(test)]
            phases_freed: 0,
            requests: Vec::new(),
            report: RunReport::default(),
            placer: None,
            scale: ScaleConfig::default(),
            instance_count: 0,
            next_collect: SimTime::ZERO,
            arrivals_pending: Vec::new(),
            obs: Obs::off(),
            sla_ms: Vec::new(),
            faults: None,
            resilience: ResilienceConfig::default(),
            retry_rng: SimRng::new(seed_stream(seed, 0xFA17)),
            alive: vec![true; n],
            slow_mult: vec![1.0; n],
            slow_token: vec![0; n],
            cold_storm_until: SimTime::ZERO,
            predictor_down_until: SimTime::ZERO,
            events_processed: 0,
            contention: ContentionState::default(),
            collect: Collector::new(seed, n),
        }
    }

    /// Events dispatched by the run loop so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Install an autoscaling placement policy.
    pub fn set_placer(&mut self, placer: Box<dyn Placer>, scale: ScaleConfig) {
        self.placer = Some(placer);
        self.scale = scale;
    }

    /// The installed placement policy, if any — downcast via
    /// [`Placer::as_any`] to read a concrete policy's audit log after a run.
    pub fn placer(&self) -> Option<&dyn Placer> {
        self.placer.as_deref()
    }

    /// Install observability sinks. The default is [`Obs::off`], under
    /// which every instrumentation site reduces to a flag check. An attached
    /// journal sink's checkpoint cadence is adopted here.
    pub fn set_obs(&mut self, obs: Obs) {
        let every = obs.journal.as_ref().and_then(|j| j.checkpoint_every_us());
        self.collect
            .set_checkpoint_every(every.map_or(SimTime::ZERO, SimTime), self.queue.now());
        self.obs = obs;
    }

    /// Emit one event: append it to the attached journal, if any, then
    /// apply the journal fold to the report, the fault log and the paired
    /// telemetry counters — the same fold replay runs over the journal.
    fn emit(&mut self, at: SimTime, ev: JournalEvent) {
        self.emit_ref(at, &ev);
    }

    /// [`Simulation::emit`] for an event whose buffers the caller reuses.
    fn emit_ref(&mut self, at: SimTime, ev: &JournalEvent) {
        if let Some(j) = self.obs.journal.as_mut() {
            j.record(at.as_micros(), ev);
        }
        Fold {
            report: &mut self.report,
            faults: self.obs.faults.as_mut(),
            telemetry: self.obs.telemetry.as_mut(),
        }
        .apply(at.as_micros(), ev)
        .expect("the engine emitted an event its own fold rejects");
    }

    /// Install a fault-injection config. With any class enabled, the first
    /// fault tick is scheduled from the injector's private seeded stream;
    /// with everything at zero this is a no-op. Call before `run_until`.
    pub fn set_faults(&mut self, config: FaultConfig) {
        if !config.enabled() {
            return;
        }
        let mut injector = FaultInjector::new(config);
        if let Some(at) = injector.next_event_after(self.queue.now()) {
            self.queue.schedule(at, Ev::FaultTick);
        }
        self.faults = Some(injector);
    }

    /// Install the degradation policy (per-request timeout, bounded retries
    /// with exponential backoff + jitter, gateway load shedding). The
    /// default [`ResilienceConfig`] disables all three.
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.resilience = resilience;
    }

    /// Whether a server is currently up.
    pub fn server_alive(&self, server: usize) -> bool {
        self.alive[server]
    }

    /// A request's terminal outcome, if it reached one.
    pub fn request_outcome(&self, req: u64) -> Option<Outcome> {
        self.requests[req as usize].outcome
    }

    /// Number of requests observed so far.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Test/experiment hook: crash a server immediately (same effect as an
    /// injected [`ServerCrash`](::faults::FaultKind::ServerCrash), minus the recovery timer). It
    /// needs no fault config: delivery, autoscaling pressure and placement
    /// consult liveness on every run, so nothing starts on the dead server.
    pub fn inject_server_crash(&mut self, server: usize) {
        let now = self.queue.now();
        self.crash_server(now, server);
    }

    /// Detach the observability bundle (e.g. to export a trace after the
    /// run), leaving observability off.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.obs)
    }

    /// Declare an end-to-end latency SLA for a deployed workload; requests
    /// finishing above it bump the `sla.violations` telemetry counter.
    pub fn set_sla_ms(&mut self, wl: WorkloadId, sla_ms: f64) {
        self.sla_ms[wl.0] = Some(sla_ms);
    }

    /// Deploy a workload. Panics on invalid placement (empty node placement,
    /// bad server/socket, dead server) or on a node mixing nested and async
    /// parents.
    pub fn deploy(&mut self, d: Deployment) -> WorkloadId {
        let Deployment {
            workload,
            placement,
            arrivals,
        } = d;
        let wl = self.deployed.len();
        let g = &workload.graph;
        let nodes = g.len();
        assert_eq!(
            placement.len(),
            nodes,
            "placement must cover every call-graph node"
        );
        let mut async_parents = vec![0u32; nodes];
        let mut nested_parent = vec![None; nodes];
        for id in g.ids() {
            let parents = g.parents(id);
            let nested: Vec<_> = parents
                .iter()
                .filter(|(_, k)| *k == CallKind::Nested)
                .collect();
            let asyncs = parents.len() - nested.len();
            assert!(
                nested.is_empty() || (nested.len() == 1 && asyncs == 0),
                "node {id:?} mixes nested and async parents"
            );
            async_parents[id.0] = asyncs as u32;
            nested_parent[id.0] = nested.first().map(|(p, _)| p.0);
        }

        let now = self.queue.now();
        self.emit(
            now,
            JournalEvent::Deploy {
                wl: wl as u32,
                nodes: nodes as u32,
                name: workload.name.clone(),
            },
        );
        self.deployed.push(Deployed {
            workload,
            instances: (0..nodes).map(|_| Vec::new()).collect(),
            rr: vec![0; nodes],
            async_parents,
            nested_parent,
        });
        for (node, placements) in placement.into_iter().enumerate() {
            assert!(
                !placements.is_empty(),
                "node {node} has no instances placed"
            );
            for p in placements {
                self.add_instance(now, PlacementKind::Initial, wl, node, p);
            }
        }
        self.sla_ms.push(None);

        let mut arrivals: VecDeque<SimTime> = arrivals.times().iter().copied().collect();
        // Schedule only the first arrival; each Arrival event schedules its
        // successor, keeping the event queue small for long traces.
        if let Some(&first) = arrivals.front() {
            arrivals.pop_front();
            let at = first.max(self.queue.now());
            self.queue.schedule(at, Ev::Arrival { wl });
        }
        self.arrivals_pending.push(arrivals);
        WorkloadId(wl)
    }

    /// Add one instance of `(wl, node)` on `p`, count it and emit its
    /// placement. Every placement (initial, scale-out or re-warm) comes
    /// through here, so each is checked the same way: the server must be in
    /// range and up, and the socket in range.
    fn add_instance(
        &mut self,
        now: SimTime,
        kind: PlacementKind,
        wl: usize,
        node: usize,
        p: PlacementDecision,
    ) {
        assert!(p.server < self.servers.len(), "server out of range");
        assert!(self.alive[p.server], "server {} is down", p.server);
        assert!(
            p.socket < self.servers[p.server].spec().sockets as usize,
            "socket out of range"
        );
        self.deployed[wl].instances[node].push(Instance {
            server: p.server,
            socket: p.socket,
            active: Vec::new(),
            queue: VecDeque::new(),
            last_finish: SimTime::ZERO,
            used: false,
            alive: true,
        });
        self.instance_count += 1;
        self.emit(now, placement_journal_event(kind, wl, node, &p));
    }

    /// Every row of the instance table as `(wl, node, index, instance)`, in
    /// deployment order.
    fn instance_rows(&self) -> impl Iterator<Item = (usize, usize, usize, &Instance)> {
        self.deployed.iter().enumerate().flat_map(|(wl, d)| {
            d.instances
                .iter()
                .enumerate()
                .flat_map(move |(node, insts)| {
                    insts
                        .iter()
                        .enumerate()
                        .map(move |(i, inst)| (wl, node, i, inst))
                })
        })
    }

    /// Run until the simulated clock passes `end` (inclusive of events at
    /// `end`), then close the journal, if any. The simulation can be
    /// resumed by calling `run_until` again with a later time.
    pub fn run_until(&mut self, end: SimTime) {
        if self.next_collect == SimTime::ZERO {
            self.next_collect = self.config.collect_interval;
            self.queue.schedule(self.next_collect, Ev::Collect);
        }
        while let Some((now, ev)) = self.queue.pop_until(end) {
            self.events_processed += 1;
            self.dispatch(now, ev);
        }
        // A journaled run ends with its final telemetry snapshot, then the
        // run-end sentinel; `finish` flushes buffered bytes so the file is
        // replayable immediately.
        if self.obs.journal.is_some() {
            if let Some(jsonl) = self.obs.telemetry.as_ref().map(|t| t.to_jsonl()) {
                self.emit(end, JournalEvent::TelemetrySnapshot { jsonl });
            }
        }
        self.emit(
            end,
            JournalEvent::RunEnd {
                horizon_us: end.as_micros(),
            },
        );
        if let Some(j) = self.obs.journal.as_mut() {
            j.finish();
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { wl } => self.on_arrival(now, wl),
            Ev::GatewayDone { fwd } => self.on_gateway_done(now, fwd),
            Ev::PhaseEnd { task } => self.on_phase_end(now, task),
            Ev::Collect => self.on_collect(now),
            Ev::FaultTick => self.on_fault_tick(now),
            Ev::SlowdownEnd { server, token } => self.on_slowdown_end(now, server, token),
            Ev::ServerRecover { server } => self.on_server_recover(now, server),
            Ev::RequestTimeout { req, attempt } => self.on_request_timeout(now, req, attempt),
            Ev::RetryRequest { req } => self.on_retry_request(now, req),
        }
    }

    /// The accumulated run report.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Consume the simulation, returning the report.
    pub fn into_report(self) -> RunReport {
        self.report
    }

    /// Total deployed instances.
    pub fn instance_count(&self) -> usize {
        self.instance_count
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Live server states (for building a
    /// [`ClusterView`](crate::scale::ClusterView) during manual
    /// placement phases).
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ClusterView;
    use obs::json::Json;
    use obs::SpanRecord;
    use workloads::functionbench;
    use workloads::loadgen::uniform_arrivals;
    use workloads::socialnetwork;

    fn place_all(w: &Workload, server: usize, socket: usize) -> Vec<Vec<PlacementDecision>> {
        (0..w.graph.len())
            .map(|_| vec![PlacementDecision { server, socket }])
            .collect()
    }

    fn small_sim(seed: u64) -> Simulation {
        Simulation::new(PlatformConfig::small(seed))
    }

    /// `free[slot]` iff the slot is on the free list (each at most once).
    fn free_mask(sim: &Simulation) -> Vec<bool> {
        let mut free = vec![false; sim.tasks.len()];
        for &slot in &sim.free_tasks {
            assert!(!free[slot], "slot {slot} freed twice");
            free[slot] = true;
        }
        free
    }

    /// Slab slots that hold a live task.
    fn live_slots(sim: &Simulation) -> Vec<usize> {
        let free = free_mask(sim);
        (0..free.len()).filter(|&i| !free[i]).collect()
    }

    /// Every free slot is a `Done` task holding no timer and no load, and
    /// no request's `node_task` names one.
    fn assert_free_slots_unlinked(sim: &Simulation) {
        let free = free_mask(sim);
        for &slot in &sim.free_tasks {
            let t = &sim.tasks[slot];
            assert_eq!(t.state, TaskState::Done, "free slot {slot}");
            assert!(t.timer.is_none() && t.load_id.is_none(), "free slot {slot}");
        }
        for (req, r) in sim.requests.iter().enumerate() {
            for &tid in r.node_task.iter().flatten() {
                assert!(!free[tid], "request {req} names free slot {tid}");
            }
        }
    }

    /// The social-network chain and the e-commerce graph on the paper
    /// testbed, one instance per node, spread round-robin over servers.
    fn two_workload_testbed(seed: u64, horizon: SimTime) -> Simulation {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let n = sim.servers().len();
        for (w, rps) in [
            (socialnetwork::message_posting(), 30.0),
            (workloads::ecommerce::browse_and_buy(), 20.0),
        ] {
            let placement: Vec<Vec<PlacementDecision>> = w
                .graph
                .ids()
                .map(|id| {
                    vec![PlacementDecision {
                        server: id.0 % n,
                        socket: 0,
                    }]
                })
                .collect();
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(rps, horizon)),
            });
        }
        sim
    }

    #[test]
    fn task_slab_tracks_live_tasks() {
        let horizon = SimTime::from_secs(60.0);
        let mut sim = two_workload_testbed(3, horizon);
        sim.run_until(horizon);
        let created = sim.tasks_created;
        assert!(
            (sim.tasks.len() as u64) * 100 < created,
            "{} slots for {created} tasks",
            sim.tasks.len()
        );
        // One `TaskDone` per task that finished its own service; the rest
        // are still queued or executing.
        let completions: u64 = sim
            .report()
            .workloads
            .iter()
            .flat_map(|w| &w.functions)
            .map(|f| f.completions)
            .sum();
        let unserved = live_slots(&sim)
            .into_iter()
            .filter(|&i| matches!(sim.tasks[i].state, TaskState::Queued | TaskState::Executing))
            .count() as u64;
        assert_eq!(created, completions + unserved);
        assert_free_slots_unlinked(&sim);
    }

    #[test]
    fn single_function_request_completes() {
        let mut sim = small_sim(1);
        let w = functionbench::float_operation(); // 0.4 s CPU burst
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(0.1)]),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let r = sim.report();
        assert_eq!(r.workloads[0].arrivals, 1);
        assert_eq!(r.workloads[0].completions, 1);
        // Cold start (400 ms default? float-op has none) — no cold phase, so
        // latency ≈ 400 ms work + gateway forward.
        let lat = r.workloads[0].e2e_latencies_ms[0];
        assert!((lat - 400.3).abs() < 2.0, "latency {lat} ms");
    }

    #[test]
    fn solo_social_network_matches_dag_analysis() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(2));
        let w = socialnetwork::message_posting();
        let expected_ms = w.critical_path_duration().as_millis();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            // Two arrivals: the first eats all cold starts, the second is
            // fully warm and must match the DAG's solo analysis.
            arrivals: ArrivalSpec::OpenLoop(vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(30.0),
            ]),
        });
        sim.run_until(SimTime::from_secs(60.0));
        let r = sim.report();
        assert_eq!(r.workloads[0].completions, 2);
        let warm = r.workloads[0].e2e_latencies_ms[1];
        // Allow gateway forwards (11 edges × 0.3 ms) on top of pure compute.
        assert!(
            warm >= expected_ms && warm < expected_ms + 10.0,
            "warm latency {warm} vs solo {expected_ms}"
        );
        let cold = r.workloads[0].e2e_latencies_ms[0];
        assert!(cold > warm + 300.0, "cold {cold} should include startup");
        assert!(r.workloads[0].cold_starts() >= 9);
    }

    #[test]
    fn queueing_grows_under_overload() {
        let mut sim = small_sim(3);
        let mut w = functionbench::float_operation();
        // Make it a 100 ms function with concurrency 1.
        {
            let root = w.graph.roots()[0];
            let f = w.graph.func_mut(root);
            f.phases[0].duration = SimTime::from_millis(100.0);
            f.concurrency = 1;
        }
        let placement = place_all(&w, 0, 0);
        // 20 rps against a 10 rps capacity: queue must blow up.
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(20.0, SimTime::from_secs(5.0))),
        });
        sim.run_until(SimTime::from_secs(20.0));
        let r = sim.report();
        let lats = &r.workloads[0].e2e_latencies_ms;
        assert!(lats.len() > 50);
        let early = lats[2];
        let late = lats[lats.len() - 1];
        assert!(
            late > 4.0 * early,
            "queueing should inflate: {early} -> {late}"
        );
    }

    #[test]
    fn colocation_slows_execution() {
        // Same socket: matmul corunner inflates a CPU-bound function's time.
        let run = |colocate: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(7));
            let mut victim = functionbench::float_operation();
            {
                let root = victim.graph.roots()[0];
                victim.graph.func_mut(root).phases[0].duration = SimTime::from_millis(500.0);
                // Make the victim demand enough CPU that sharing matters.
                victim.graph.func_mut(root).phases[0]
                    .demand
                    .set(cluster::Resource::Cpu, 2.0);
            }
            let placement = place_all(&victim, 0, 0);
            sim.deploy(Deployment {
                workload: victim,
                placement,
                arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(5.0)]),
            });
            if colocate {
                let mm = functionbench::matrix_multiplication();
                let placement = place_all(&mm, 0, 0);
                sim.deploy(Deployment {
                    workload: mm,
                    placement,
                    arrivals: ArrivalSpec::Jobs(vec![SimTime::from_secs(0.1)]),
                });
            }
            sim.run_until(SimTime::from_secs(200.0));
            sim.report().workloads[0].e2e_latencies_ms[0]
        };
        let solo = run(false);
        let corun = run(true);
        assert!(
            corun > 1.3 * solo,
            "colocation should slow the victim: solo {solo}, corun {corun}"
        );
    }

    #[test]
    fn metrics_collected_during_execution() {
        let mut sim = small_sim(9);
        let w = functionbench::dd(); // 90 s disk job
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(30.0));
        let samples = &sim.report().workloads[0].functions[0].metric_samples;
        assert!(
            samples.len() >= 25,
            "expected ~30 1Hz samples, got {}",
            samples.len()
        );
        // dd's baseline IPC is 0.9; noisy samples should hover nearby.
        let ipc = sim.report().workloads[0].functions[0].mean_ipc();
        assert!((ipc - 0.9).abs() < 0.1, "ipc {ipc}");
    }

    #[test]
    fn jct_reflects_phase_sum() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(11));
        let w = functionbench::logistic_regression(); // 430 s solo
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(600.0));
        let jct = sim.report().workloads[0].mean_jct_secs();
        assert!((jct - 430.0).abs() < 2.0, "solo JCT {jct}");
    }

    #[test]
    fn utilization_sampled() {
        let mut sim = small_sim(13);
        let w = functionbench::dd();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO]),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let u = &sim.report().utilization;
        assert!(u.len() >= 9);
        assert!(u.iter().any(|s| s.cpu[0] > 0.0));
        assert!(u[0].function_density > 0.0);
    }

    #[test]
    fn split_run_matches_one_shot_run() {
        // Resuming with a second `run_until` keeps the collect chain going:
        // the split run samples metrics and utilization exactly as one
        // uninterrupted run does.
        let horizon = SimTime::from_secs(20.0);
        let run = |stops: &[f64]| {
            let mut sim = small_sim(5);
            sim.set_obs(obs::Obs::telemetry_only());
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(30.0, horizon)),
            });
            for &stop in stops {
                sim.run_until(SimTime::from_secs(stop));
            }
            let telemetry = sim.take_obs().telemetry.expect("telemetry on");
            (sim.into_report(), telemetry.to_jsonl())
        };
        let (one, one_jsonl) = run(&[20.0]);
        let (split, split_jsonl) = run(&[10.0, 20.0]);
        assert_eq!(one.utilization.len(), 20);
        assert_eq!(split.utilization.len(), 20);
        assert_eq!(split.render_json(), one.render_json());
        assert_eq!(split_jsonl, one_jsonl);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(5.0))),
            });
            sim.run_until(SimTime::from_secs(30.0));
            sim.report().workloads[0].e2e_latencies_ms.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "placement must cover")]
    fn deploy_rejects_partial_placement() {
        let mut sim = small_sim(1);
        let w = socialnetwork::message_posting();
        sim.deploy(Deployment {
            workload: w,
            placement: vec![vec![PlacementDecision {
                server: 0,
                socket: 0,
            }]],
            arrivals: ArrivalSpec::OpenLoop(vec![]),
        });
    }

    #[test]
    #[should_panic(expected = "socket")]
    fn deploy_rejects_out_of_range_socket() {
        let mut sim = small_sim(1);
        let w = socialnetwork::message_posting();
        let sockets = sim.servers()[0].spec().sockets as usize;
        let placement = place_all(&w, 0, sockets);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![]),
        });
    }

    fn traced_social_run() -> (RunReport, obs::Obs) {
        let mut sim = Simulation::new(PlatformConfig::small(42));
        let w = socialnetwork::message_posting();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
        });
        sim.set_obs(obs::Obs::recording());
        sim.run_until(SimTime::from_secs(30.0));
        let o = sim.take_obs();
        (sim.into_report(), o)
    }

    #[test]
    fn tracing_produces_well_nested_spans() {
        let (report, o) = traced_social_run();
        assert!(report.workloads[0].completions > 10);
        let sink = o.memory_sink().expect("recording obs has a memory sink");
        for cat in ["gateway", "queue", "phase", "cold", "task", "request"] {
            assert!(
                sink.spans_in(cat).next().is_some(),
                "no '{cat}' spans recorded"
            );
        }
        // One request-root span per completed request, one task span per
        // completed invocation.
        let requests = sink.spans_in("request").count() as u64;
        assert_eq!(requests, report.workloads[0].completions);
        let tasks = sink.spans_in("task").count() as u64;
        let invocations: u64 = report.workloads[0]
            .functions
            .iter()
            .map(|f| f.completions)
            .sum();
        assert_eq!(tasks, invocations);
        let violations = obs::trace::nesting_violations(sink.spans());
        assert!(violations.is_empty(), "nesting violations: {violations:?}");
    }

    #[test]
    fn telemetry_counters_match_report() {
        let (report, o) = traced_social_run();
        let t = o.telemetry.expect("recording obs has telemetry");
        assert_eq!(t.counter("requests.arrivals"), report.workloads[0].arrivals);
        assert_eq!(
            t.counter("requests.completions"),
            report.workloads[0].completions
        );
        assert_eq!(
            t.counter("instances.cold_starts"),
            report.workloads[0].cold_starts()
        );
        assert!(t.counter("contention.recomputes") > 0);
        assert!(t.histogram("request.e2e_ms").unwrap().count() > 0);
        assert!(t.gauge_value("instances.total").is_some());
    }

    #[test]
    fn sla_violations_counted() {
        let mut sim = Simulation::new(PlatformConfig::small(42));
        let w = functionbench::float_operation(); // ~400 ms service
        let placement = place_all(&w, 0, 0);
        let id = sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(0.1)]),
        });
        sim.set_sla_ms(id, 1.0); // impossible SLA: every request violates
        sim.set_obs(obs::Obs::telemetry_only());
        sim.run_until(SimTime::from_secs(10.0));
        let t = sim.take_obs().telemetry.unwrap();
        assert_eq!(t.counter("sla.violations"), 1);
    }

    #[test]
    fn observability_does_not_perturb_the_simulation() {
        let run = |record: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
            });
            if record {
                sim.set_obs(obs::Obs::recording());
            }
            sim.run_until(SimTime::from_secs(30.0));
            sim.into_report()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn faults_off_is_bit_identical_to_no_fault_layer() {
        // Installing a fully-disabled FaultConfig and the default
        // ResilienceConfig must not perturb the simulation at all.
        let run = |with_layer: bool| {
            let mut sim = Simulation::new(PlatformConfig::small(42));
            let w = socialnetwork::message_posting();
            let placement = place_all(&w, 0, 0);
            sim.deploy(Deployment {
                workload: w,
                placement,
                arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(3.0))),
            });
            if with_layer {
                sim.set_faults(::faults::FaultConfig::off());
                sim.set_resilience(crate::config::ResilienceConfig::default());
            }
            sim.run_until(SimTime::from_secs(30.0));
            sim.into_report()
        };
        assert_eq!(run(false), run(true));
    }

    /// One server under the social-network chain: every task start and
    /// finish re-times the co-runners' pending phase ends.
    fn one_server_social_run() -> Simulation {
        let mut sim = Simulation::new(PlatformConfig::small(42));
        let w = socialnetwork::message_posting();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(5.0, SimTime::from_secs(5.0))),
        });
        sim
    }

    #[test]
    fn retimed_run_matches_stale_entry_report() {
        // The quick inline conformance check against the engine that queued
        // a fresh PhaseEnd per re-time and skipped the superseded one on
        // pop: its report for this run digested to the value below, and
        // re-timing in place must reproduce it bit for bit. The 20-seed,
        // faults on/off matrix lives in tests/engine_conformance.rs.
        const STALE_ENTRY_REPORT: u64 = 0xb7bf_b972_d45a_e6c2;
        let mut sim = one_server_social_run();
        sim.run_until(SimTime::from_secs(30.0));
        let json = sim.into_report().render_json();
        let mut fp = simcore::fnv::OFFSET;
        simcore::fnv::mix_bytes(&mut fp, json.as_bytes());
        assert_eq!(fp, STALE_ENTRY_REPORT, "report digest {fp:#018x}");
    }

    #[test]
    fn dispatched_phase_ends_equal_phases_run() {
        // The event count reports live work only: every dispatched PhaseEnd
        // ends a phase of an executing task, so the PhaseEnds dispatched
        // equal the phases the tasks ran. The stale-entry engine dispatched
        // 1416 events on this run, superseded PhaseEnds included.
        let horizon = SimTime::from_secs(30.0);
        let mut sim = one_server_social_run();
        // `run_until`'s loop, counting PhaseEnds.
        let (mut dispatched, mut phase_ends) = (0u64, 0usize);
        sim.next_collect = sim.config.collect_interval;
        sim.queue.schedule(sim.next_collect, Ev::Collect);
        while let Some((now, ev)) = sim.queue.pop_until(horizon) {
            if let Ev::PhaseEnd { task } = ev {
                assert_eq!(sim.tasks[task].state, TaskState::Executing);
                phase_ends += 1;
            }
            dispatched += 1;
            sim.dispatch(now, ev);
        }
        // Slots are reused, so the phases of freed tasks come from the
        // counter their slots fed when freed.
        let phases_run: usize = sim.phases_freed
            + live_slots(&sim)
                .into_iter()
                .map(|i| sim.tasks[i].phase_idx)
                .sum::<usize>();
        assert_eq!(phase_ends, phases_run);
        assert!(sim.tasks.iter().all(|t| t.timer.is_none()));
        // All that is left pending is the collect tick past the horizon.
        assert_eq!(sim.queue.len(), 1);
        assert!(sim.queue.peek_time() > Some(horizon));

        let mut plain = one_server_social_run();
        plain.run_until(horizon);
        assert_eq!(plain.events_processed(), dispatched);
        assert!(dispatched < 1416, "{dispatched} events dispatched");
    }

    #[test]
    fn aborts_and_retimes_leave_no_stale_phase_ends() {
        // Crashes and OOM kills abort executing tasks; every start and
        // finish re-times co-runners. Neither may leave a PhaseEnd behind:
        // the queue holds one timer per executing task plus a bounded set
        // of other live events (one arrival chain per workload, the collect
        // tick, the fault tick, one gateway completion, one recovery per
        // server). No retries or timeouts, so no per-request events. At
        // every collect tick, each freed task slot is unlinked.
        let horizon = SimTime::from_secs(60.0);
        let mut sim = two_workload_testbed(3, horizon);
        let (workloads, n) = (sim.deployed.len(), sim.servers().len());
        let header = Json::obj().field("test", "stale phase ends");
        let journal = obs::journal::MemoryJournal::in_memory(&header, Some(1_000_000));
        sim.set_obs(
            obs::Obs::telemetry_only()
                .with_fault_log()
                .with_journal(Box::new(journal)),
        );
        sim.set_faults(::faults::FaultConfig {
            seed: 99,
            server_crash_rate_per_min: 6.0,
            crash_recovery: SimTime::from_secs(5.0),
            oom_rate_per_min: 12.0,
            ..::faults::FaultConfig::off()
        });
        let bound = workloads + 3 + n;
        // `run_until`'s loop, checking the queue after every event.
        let mut executing_at = Vec::new();
        sim.next_collect = sim.config.collect_interval;
        sim.queue.schedule(sim.next_collect, Ev::Collect);
        while let Some((now, ev)) = sim.queue.pop_until(horizon) {
            let collect = matches!(ev, Ev::Collect);
            sim.dispatch(now, ev);
            let executing: usize = sim.server_tasks.iter().map(Vec::len).sum();
            assert!(
                sim.queue.len() <= executing + bound,
                "t={now}: {} pending events for {executing} executing tasks",
                sim.queue.len()
            );
            if collect {
                executing_at.push((now.as_micros(), executing));
                assert_free_slots_unlinked(&sim);
            }
        }
        assert_free_slots_unlinked(&sim);
        // Nothing is left to dispatch; this only closes the journal.
        sim.run_until(horizon);
        let failed: u64 = sim.report().workloads.iter().map(|w| w.failed).sum();
        assert!(failed > 0, "the faults must abort requests");

        let mut obs = sim.take_obs();
        let journal = obs.journal.take().expect("journal attached");
        let bytes = journal
            .as_any()
            .downcast_ref::<obs::journal::MemoryJournal>()
            .expect("in-memory journal")
            .bytes()
            .to_vec();
        let records = obs::journal::read_journal(&bytes)
            .expect("journal decodes")
            .records;
        let mut checkpoints = 0;
        for r in &records {
            if let JournalEvent::Checkpoint(c) = &r.event {
                let &(_, executing) = executing_at
                    .iter()
                    .find(|&&(at, _)| at == c.at_us)
                    .expect("checkpoints ride the collect ticks");
                assert!(
                    c.pending_events as usize <= executing + bound,
                    "checkpoint at {} us: {} pending for {executing} executing",
                    c.at_us,
                    c.pending_events
                );
                checkpoints += 1;
            }
        }
        assert!(checkpoints >= 59, "{checkpoints} checkpoints");
    }

    #[test]
    fn instance_count_matches_alive_instance_rows() {
        // Deploys, scale-outs and re-warms add instances through one path;
        // crashes and OOM kills remove them through one. After every second
        // of a run heavy in all four, the count equals the alive rows of the
        // instance table.
        for seed in [3, 7, 11] {
            let horizon = SimTime::from_secs(60.0);
            let mut sim = two_workload_testbed(seed, horizon);
            sim.set_obs(obs::Obs::telemetry_only().with_fault_log());
            let eager = ScaleConfig {
                queue_per_instance: 0.5,
                busy_fraction: 0.25,
                max_instances_per_node: 4,
            };
            sim.set_placer(Box::<FirstFit>::default(), eager);
            sim.set_faults(::faults::FaultConfig {
                seed,
                server_crash_rate_per_min: 6.0,
                crash_recovery: SimTime::from_secs(5.0),
                oom_rate_per_min: 12.0,
                ..::faults::FaultConfig::off()
            });
            for s in 1..=60 {
                sim.run_until(SimTime::from_secs(s as f64));
                let alive = sim.instance_rows().filter(|&(.., i)| i.alive).count();
                assert_eq!(sim.instance_count(), alive, "seed {seed} at {s} s");
            }
            let obs = sim.take_obs();
            let t = obs.telemetry.expect("telemetry on");
            let faults = obs.faults.expect("fault log on").counts();
            assert!(t.counter("autoscaler.scale_outs") > 0, "seed {seed}");
            assert!(t.counter("autoscaler.rewarms") > 0, "seed {seed}");
            assert!(
                faults["server_crash"] > 0 && faults["oom_kill"] > 0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn crash_fails_requests_without_retries() {
        let mut sim = small_sim(5);
        let w = functionbench::dd(); // 90 s job: still running at crash time
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::Jobs(vec![SimTime::from_secs(1.0)]),
        });
        // No fault config: crash the only server by hand.
        sim.run_until(SimTime::from_secs(5.0));
        sim.inject_server_crash(0);
        sim.run_until(SimTime::from_secs(10.0));
        assert!(!sim.server_alive(0));
        let ws = &sim.report().workloads[0];
        assert_eq!(ws.arrivals, 1);
        assert_eq!(ws.completions, 0);
        assert_eq!(ws.failed, 1, "no retry budget: the request must fail");
        assert_eq!(sim.request_outcome(0), Some(Outcome::Failed));
    }

    #[test]
    fn crash_with_retries_recovers_on_rewarmed_instance() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(6));
        let mut w = functionbench::float_operation();
        {
            let root = w.graph.roots()[0];
            w.graph.func_mut(root).phases[0].duration = SimTime::from_secs(20.0);
        }
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(1.0)]),
        });
        sim.set_resilience(crate::config::ResilienceConfig {
            max_retries: 3,
            backoff_base: SimTime::from_millis(50.0),
            ..Default::default()
        });
        sim.run_until(SimTime::from_secs(5.0));
        sim.inject_server_crash(0); // mid-service: task is executing
        sim.run_until(SimTime::from_secs(120.0));
        let ws = &sim.report().workloads[0];
        assert_eq!(
            ws.completions, 1,
            "retry must land on the re-warmed instance"
        );
        assert_eq!(ws.retries, 1);
        assert_eq!(sim.request_outcome(0), Some(Outcome::Completed));
    }

    #[test]
    fn manual_crash_without_fault_config_starts_nothing_on_the_dead_server() {
        // Every node has one instance on server 0 and one elsewhere, and no
        // fault config is installed: delivery must still skip the dead one.
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(1));
        let n = sim.servers().len();
        let w = socialnetwork::message_posting();
        let placement: Vec<Vec<PlacementDecision>> = w
            .graph
            .ids()
            .map(|id| {
                vec![
                    PlacementDecision {
                        server: 0,
                        socket: 0,
                    },
                    PlacementDecision {
                        server: 1 + id.0 % (n - 1),
                        socket: 0,
                    },
                ]
            })
            .collect();
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(30.0, SimTime::from_secs(20.0))),
        });
        sim.set_obs(obs::Obs::recording());
        let crash = SimTime::from_secs(5.0);
        sim.run_until(crash);
        sim.inject_server_crash(0);
        sim.run_until(SimTime::from_secs(20.0));
        let obs = sim.take_obs();
        let sink = obs.memory_sink().expect("recording obs has a memory sink");
        let server_of = |s: &SpanRecord| {
            s.args
                .iter()
                .find(|(k, _)| *k == "server")
                .and_then(|(_, v)| v.as_f64())
                .expect("task spans carry their server") as usize
        };
        let mut after = 0;
        for s in sink.spans_in("task").filter(|s| s.end > crash) {
            assert_ne!(server_of(s), 0, "task ran on the crashed server: {s:?}");
            after += 1;
        }
        assert!(after > 0, "the workload keeps running on the other servers");
    }

    /// Scale-out policy that trusts the view: the first server that fits.
    #[derive(Default)]
    struct FirstFit {
        chosen: Vec<usize>,
    }

    impl Placer for FirstFit {
        fn place(
            &mut self,
            view: &ClusterView<'_>,
            _workload: &Workload,
            _node: usize,
            spec: &workloads::FunctionSpec,
        ) -> Option<PlacementDecision> {
            let demand = spec.mean_demand();
            let server = (0..view.num_servers()).find(|&s| view.fits(s, &demand))?;
            self.chosen.push(server);
            Some(PlacementDecision { server, socket: 0 })
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Scale-out policy that ignores the server's socket count.
    struct BadSocket;

    impl Placer for BadSocket {
        fn place(
            &mut self,
            _view: &ClusterView<'_>,
            _workload: &Workload,
            _node: usize,
            _spec: &workloads::FunctionSpec,
        ) -> Option<PlacementDecision> {
            Some(PlacementDecision {
                server: 0,
                socket: 99,
            })
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    #[should_panic(expected = "socket out of range")]
    fn scale_out_rejects_out_of_range_socket() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(1));
        let w = functionbench::float_operation(); // 0.4 s CPU burst
        let placement = place_all(&w, 1, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(20.0, SimTime::from_secs(20.0))),
        });
        sim.set_placer(Box::new(BadSocket), ScaleConfig::default());
        sim.run_until(SimTime::from_secs(20.0));
    }

    #[test]
    fn autoscaler_never_places_on_a_manually_crashed_server() {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(1));
        let w = functionbench::float_operation(); // 0.4 s CPU burst
        let placement = place_all(&w, 1, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(20.0, SimTime::from_secs(20.0))),
        });
        sim.set_placer(Box::<FirstFit>::default(), ScaleConfig::default());
        sim.run_until(SimTime::from_millis(500.0));
        sim.inject_server_crash(0);
        sim.run_until(SimTime::from_secs(20.0));
        let chosen = &sim
            .placer()
            .and_then(|p| p.as_any().downcast_ref::<FirstFit>())
            .expect("first-fit placer installed")
            .chosen;
        assert!(!chosen.is_empty(), "the load must trigger scale-out");
        assert!(
            chosen.iter().all(|&s| s != 0),
            "scale-out onto the crashed server: {chosen:?}"
        );
    }

    #[test]
    fn shedding_bounds_gateway_queue() {
        let mut sim = small_sim(8);
        let mut w = functionbench::float_operation();
        {
            let root = w.graph.roots()[0];
            let f = w.graph.func_mut(root);
            f.phases[0].duration = SimTime::from_millis(500.0);
            f.concurrency = 1;
        }
        let placement = place_all(&w, 0, 0);
        // A 20-request burst in one instant: the gateway queue builds faster
        // than the 0.3 ms/forward service drains it.
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![SimTime::from_secs(1.0); 20]),
        });
        sim.set_resilience(crate::config::ResilienceConfig {
            shed_queue_depth: Some(3),
            ..Default::default()
        });
        sim.run_until(SimTime::from_secs(30.0));
        let ws = &sim.report().workloads[0];
        assert!(ws.shed > 0, "overload must shed");
        assert_eq!(ws.arrivals, ws.completions + ws.shed + ws.failed);
    }

    #[test]
    fn gateway_latencies_recorded() {
        let mut sim = small_sim(17);
        let w = functionbench::float_operation();
        let placement = place_all(&w, 0, 0);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(10.0, SimTime::from_secs(2.0))),
        });
        sim.run_until(SimTime::from_secs(10.0));
        let fwd = &sim.report().gateway_forward_ms;
        assert!(fwd.len() >= 20, "every arrival is one forward");
        // Unloaded gateway: each forward ≈ base cost (0.3 ms).
        assert!(fwd.iter().all(|&ms| ms < 5.0));
    }
}
