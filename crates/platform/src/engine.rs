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

use crate::config::{PlatformConfig, ResilienceConfig};
use crate::gateway::{Forward, Gateway};
use crate::replay::Fold;
use crate::report::RunReport;
use crate::scale::{placement_journal_event, ClusterView, PlacementDecision, Placer};
use cluster::{InstanceId, ServerState};
use faults::{FaultConfig, FaultInjector, FaultKind};
use metricsd::MetricVector;
use obs::journal::{CheckpointState, JournalEvent, PlacementKind};
use obs::json::Json;
use obs::{Obs, SpanRecord, Track};
use simcore::rng::seed_stream;
use simcore::{EventId, EventQueue, SimRng, SimTime};
use std::collections::{BTreeSet, VecDeque};
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
    /// When the task left its instance queue and began executing.
    exec_started: SimTime,
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_mix(fp: &mut u64, w: u64) {
    *fp = (*fp ^ w).wrapping_mul(FNV_PRIME);
}

/// The simulator.
pub struct Simulation {
    config: PlatformConfig,
    servers: Vec<ServerState>,
    server_tasks: Vec<Vec<usize>>,
    /// One metric-synthesis stream per server, seeded
    /// `seed_stream(seed, 0x10_0000 + server)`: a collect tick's draws
    /// depend only on the server and on the tasks executing there.
    synth_rngs: Vec<SimRng>,
    queue: EventQueue<Ev>,
    gateway: Gateway,
    deployed: Vec<Deployed>,
    tasks: Vec<Task>,
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
    /// Checkpoint cadence requested by the attached journal sink; `ZERO`
    /// (journal absent or cadence unset) disables checkpointing entirely.
    checkpoint_every: SimTime,
    /// Next instant a checkpoint record is due (checked at collect ticks).
    next_checkpoint: SimTime,
    /// Events dispatched by the run loop, for the throughput bench.
    events_processed: u64,
    /// Streaming moment accumulators for the collect tick, reused across
    /// ticks: one `(sum, count)` slot per `(workload, node)`.
    collect_scratch: Vec<Vec<(MetricVector, u32)>>,
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
        let synth_rngs = (0..n)
            .map(|s| SimRng::new(seed_stream(seed, 0x10_0000 + s as u64)))
            .collect();
        Self {
            config,
            servers,
            server_tasks: vec![Vec::new(); n],
            synth_rngs,
            queue: EventQueue::new(),
            gateway: Gateway::new(),
            deployed: Vec::new(),
            tasks: Vec::new(),
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
            checkpoint_every: SimTime::ZERO,
            next_checkpoint: SimTime::ZERO,
            events_processed: 0,
            collect_scratch: Vec::new(),
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
        self.obs = obs;
        self.checkpoint_every = self
            .obs
            .journal
            .as_ref()
            .and_then(|j| j.checkpoint_every_us())
            .map_or(SimTime::ZERO, SimTime);
        self.next_checkpoint = if self.checkpoint_every > SimTime::ZERO {
            self.queue.now().plus(self.checkpoint_every)
        } else {
            SimTime::ZERO
        };
    }

    /// Emit one event: append it to the attached journal, if any, then
    /// apply the journal fold to the report, the fault log and the paired
    /// telemetry counters — the same fold replay runs over the journal.
    fn emit(&mut self, at: SimTime, ev: JournalEvent) {
        if let Some(j) = self.obs.journal.as_mut() {
            j.record(at.as_micros(), &ev);
        }
        Fold {
            report: &mut self.report,
            faults: self.obs.faults.as_mut(),
            telemetry: self.obs.telemetry.as_mut(),
        }
        .apply(at.as_micros(), &ev)
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
    /// injected [`FaultKind::ServerCrash`], minus the recovery timer). It
    /// needs no fault config: delivery, autoscaling pressure and placement
    /// consult liveness on every run, so nothing starts on the dead server.
    pub fn inject_server_crash(&mut self, server: usize) {
        let now = self.queue.now();
        self.crash_server(now, server);
    }

    /// The live observability bundle (telemetry counters are readable
    /// mid-run).
    pub fn obs(&self) -> &Obs {
        &self.obs
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
    /// bad server/socket) or on a node mixing nested and async parents.
    pub fn deploy(&mut self, d: Deployment) -> WorkloadId {
        let Deployment {
            workload,
            placement,
            arrivals,
        } = d;
        let wl = self.deployed.len();
        let g = workload.graph.clone();
        let g = &g;
        assert_eq!(
            placement.len(),
            g.len(),
            "placement must cover every call-graph node"
        );
        let mut async_parents = vec![0u32; g.len()];
        let mut nested_parent = vec![None; g.len()];
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

        let mut instances = Vec::with_capacity(g.len());
        for (node, placements) in placement.iter().enumerate() {
            assert!(
                !placements.is_empty(),
                "node {node} has no instances placed"
            );
            let mut insts = Vec::with_capacity(placements.len());
            for p in placements {
                assert!(p.server < self.servers.len(), "server out of range");
                insts.push(Instance {
                    server: p.server,
                    socket: p.socket,
                    active: Vec::new(),
                    queue: VecDeque::new(),
                    last_finish: SimTime::ZERO,
                    used: false,
                    alive: true,
                });
                self.instance_count += 1;
            }
            instances.push(insts);
        }

        let now = self.queue.now();
        self.emit(
            now,
            JournalEvent::Deploy {
                wl: wl as u32,
                nodes: g.len() as u32,
                name: workload.name.clone(),
            },
        );
        for (node, placements) in placement.iter().enumerate() {
            for p in placements {
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::Initial, wl, node, p),
                );
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

        self.deployed.push(Deployed {
            workload,
            instances,
            rr: vec![0; g.len()],
            async_parents,
            nested_parent,
        });
        WorkloadId(wl)
    }

    /// Run until the simulated clock passes `end` (inclusive of events at
    /// `end`). Returns the finished report; the simulation can be resumed by
    /// calling `run_until` again with a later time.
    pub fn run_until(&mut self, end: SimTime) {
        if self.next_collect == SimTime::ZERO {
            self.next_collect = self.config.collect_interval;
            self.queue.schedule(self.next_collect, Ev::Collect);
        }
        while let Some((now, ev)) = self.queue.pop_until(end) {
            self.events_processed += 1;
            self.dispatch(now, ev, end);
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

    fn dispatch(&mut self, now: SimTime, ev: Ev, end: SimTime) {
        match ev {
            Ev::Arrival { wl } => self.on_arrival(now, wl),
            Ev::GatewayDone { fwd } => self.on_gateway_done(now, fwd),
            Ev::PhaseEnd { task } => self.on_phase_end(now, task),
            Ev::Collect => self.on_collect(now, end),
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

    /// Live server states (for building a [`ClusterView`] during manual
    /// placement phases).
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, wl: usize) {
        // Chain-schedule the next arrival.
        if let Some(next) = self.arrivals_pending[wl].pop_front() {
            self.queue.schedule(next.max(now), Ev::Arrival { wl });
        }
        let g = &self.deployed[wl].workload.graph;
        let roots: Vec<usize> = g.roots().iter().map(|r| r.0).collect();
        let req = self.requests.len() as u64;
        let nodes = g.len();
        self.requests.push(RequestState {
            arrival: now,
            wl,
            remaining_async: self.deployed[wl].async_parents.clone(),
            nested_pending: vec![0; nodes],
            node_task: vec![None; nodes],
            nodes_remaining: nodes,
            attempt: 0,
            outcome: None,
        });
        self.emit(now, JournalEvent::Arrival { wl: wl as u32, req });
        // Load shedding: refuse the request outright while the gateway
        // queue is at or past the configured depth.
        if self
            .resilience
            .shed_queue_depth
            .is_some_and(|d| self.gateway.depth() >= d)
        {
            let r = &mut self.requests[req as usize];
            r.outcome = Some(Outcome::Shed);
            self.emit(now, JournalEvent::Shed { wl: wl as u32, req });
            self.log_fault(now, "shed", req as i64, self.gateway.depth() as f64);
            return;
        }
        if let Some(trace) = self.obs.trace.as_mut() {
            let name = &self.deployed[wl].workload.name;
            trace.name_track(Track::request(req), &format!("{name} req{req}"), "request");
        }
        for node in roots {
            self.forward(now, req, wl, node);
        }
        if let Some(timeout) = self.resilience.request_timeout {
            self.queue
                .schedule(now.plus(timeout), Ev::RequestTimeout { req, attempt: 0 });
        }
    }

    fn forward(&mut self, now: SimTime, req: u64, wl: usize, node: usize) {
        let fwd = Forward {
            req,
            wl,
            node,
            enqueued_at: now,
            attempt: self.requests[req as usize].attempt,
        };
        if self.gateway.enqueue(fwd) {
            self.gateway_begin(now);
        }
    }

    fn gateway_begin(&mut self, now: SimTime) {
        if let Some((fwd, dur)) = self
            .gateway
            .begin_service(&self.config.gateway, self.instance_count)
        {
            let dur = match self.faults.as_mut() {
                Some(f) => dur.plus(f.gateway_jitter()),
                None => dur,
            };
            self.queue.schedule(now.plus(dur), Ev::GatewayDone { fwd });
        }
    }

    fn on_gateway_done(&mut self, now: SimTime, fwd: Forward) {
        self.emit(now, fwd.done_event(now));
        // Forwards from an aborted attempt (or a settled request) are stale:
        // the gateway spent service time on them, but nothing is delivered.
        {
            let r = &self.requests[fwd.req as usize];
            if r.outcome.is_some() || r.attempt != fwd.attempt {
                self.gateway_begin(now);
                return;
            }
        }
        // Injected gateway request drop.
        if self.faults.as_mut().is_some_and(|f| f.gateway_drop()) {
            self.log_fault(now, "gateway_drop", fwd.req as i64, 0.0);
            if let Some(t) = self.obs.telemetry.as_mut() {
                t.incr("faults.gateway_drops", 1);
            }
            self.fail_or_retry(now, fwd.req);
            self.gateway_begin(now);
            return;
        }
        self.deliver(now, fwd);
        self.gateway_begin(now);
    }

    fn deliver(&mut self, now: SimTime, fwd: Forward) {
        // Round-robin over the alive instances: pick the k-th alive one.
        let chosen = {
            let d = &mut self.deployed[fwd.wl];
            let insts = &d.instances[fwd.node];
            let n_alive = insts.iter().filter(|i| i.alive).count();
            if n_alive == 0 {
                None
            } else {
                let k = d.rr[fwd.node] % n_alive;
                d.rr[fwd.node] = (d.rr[fwd.node] + 1) % n_alive;
                insts
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.alive)
                    .nth(k)
                    .map(|(i, _)| i)
            }
        };
        let Some(inst_idx) = chosen else {
            // Every instance of the target node is dead: fail over.
            self.log_fault(now, "no_alive_instance", fwd.req as i64, fwd.node as f64);
            self.fail_or_retry(now, fwd.req);
            return;
        };
        let d = &mut self.deployed[fwd.wl];

        let task_id = self.tasks.len();
        let inst = &d.instances[fwd.node][inst_idx];
        self.tasks.push(Task {
            req: fwd.req,
            wl: fwd.wl,
            node: fwd.node,
            inst: inst_idx,
            state: TaskState::Queued,
            phase_idx: 0,
            remaining_us: 0.0,
            slowdown: 1.0,
            last_update: now,
            timer: None,
            enqueued_at: now,
            load_id: None,
            server: inst.server,
            cold: false,
            exec_started: now,
            phase_started: now,
            service_done: now,
        });
        self.requests[fwd.req as usize].node_task[fwd.node] = Some(task_id);
        if let Some(trace) = self.obs.trace.as_mut() {
            let d = &self.deployed[fwd.wl];
            let func = d.workload.graph.func(workloads::NodeId(fwd.node));
            let track = Track::node(fwd.req, fwd.node);
            trace.name_track(
                track,
                &format!("{} req{}", d.workload.name, fwd.req),
                &func.name,
            );
            trace.span(SpanRecord {
                name: "gateway forward".to_string(),
                cat: "gateway",
                track,
                start: fwd.enqueued_at,
                end: now,
                args: vec![("instance", Json::from(inst_idx))],
            });
        }
        self.deployed[fwd.wl].instances[fwd.node][inst_idx]
            .queue
            .push_back(task_id);
        self.try_start(now, fwd.wl, fwd.node, inst_idx);
    }

    /// Start queued tasks on an instance while concurrency slots are free.
    fn try_start(&mut self, now: SimTime, wl: usize, node: usize, inst_idx: usize) {
        loop {
            let spec_concurrency;
            let task_id;
            let cold;
            {
                let d = &mut self.deployed[wl];
                let func = d.workload.graph.func(workloads::NodeId(node));
                spec_concurrency = func.concurrency as usize;
                let inst = &mut d.instances[node][inst_idx];
                if inst.active.len() >= spec_concurrency || inst.queue.is_empty() {
                    return;
                }
                task_id = inst.queue.pop_front().expect("queue emptied unexpectedly");
                // `cold_storm_until` is ZERO outside chaos runs, so the
                // extra comparison never fires in fault-free runs.
                cold = !inst.used
                    || now.since(inst.last_finish) > self.config.keep_alive
                    || now < self.cold_storm_until;
                inst.used = true;
                inst.active.push(task_id);
            }
            let first_phase = self.deployed[wl]
                .workload
                .graph
                .func(workloads::NodeId(node))
                .invocation_phase(cold, 0)
                .copied();
            if cold {
                let req = self.tasks[task_id].req;
                self.emit(
                    now,
                    JournalEvent::ColdStart {
                        wl: wl as u32,
                        node: node as u32,
                        req,
                    },
                );
            }
            {
                let wait_ms = now.since(self.tasks[task_id].enqueued_at).as_millis();
                if let Some(t) = self.obs.telemetry.as_mut() {
                    t.observe("instance.queue_wait_ms", wait_ms);
                }
                if let Some(trace) = self.obs.trace.as_mut() {
                    let t = &self.tasks[task_id];
                    trace.span(SpanRecord {
                        name: "queue wait".to_string(),
                        cat: "queue",
                        track: Track::node(t.req, t.node),
                        start: t.enqueued_at,
                        end: now,
                        args: vec![("wait_ms", Json::from(wait_ms))],
                    });
                }
            }
            let Some(first_phase) = first_phase else {
                // Degenerate zero-work function: complete immediately.
                let t = &mut self.tasks[task_id];
                t.state = TaskState::Executing;
                t.cold = cold;
                t.exec_started = now;
                t.phase_started = now;
                self.finish_service(now, task_id);
                continue;
            };
            let server = {
                let t = &mut self.tasks[task_id];
                t.state = TaskState::Executing;
                t.phase_idx = 0;
                t.remaining_us = first_phase.duration.as_micros() as f64;
                t.last_update = now;
                t.cold = cold;
                t.exec_started = now;
                t.phase_started = now;
                t.server
            };
            let socket = self.deployed[wl].instances[node][inst_idx].socket;
            self.settle_server(now, server);
            let load_id = self.servers[server].add(first_phase.load(socket));
            self.tasks[task_id].load_id = Some(load_id);
            self.server_tasks[server].push(task_id);
            self.reschedule_server(now, server);
        }
    }

    /// Bring `remaining_us` of every executing task on a server up to `now`
    /// using the slowdowns that were in effect.
    fn settle_server(&mut self, now: SimTime, server: usize) {
        for &tid in &self.server_tasks[server] {
            let t = &mut self.tasks[tid];
            let elapsed = now.since(t.last_update).as_micros() as f64;
            if elapsed > 0.0 {
                t.remaining_us = (t.remaining_us - elapsed / t.slowdown).max(0.0);
                t.last_update = now;
            }
        }
    }

    /// Recompute contention on a server and re-time every executing task's
    /// phase end: a pending `PhaseEnd` moves in place, and a task whose
    /// phase just began gets a new one.
    fn reschedule_server(&mut self, now: SimTime, server: usize) {
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("contention.recomputes", 1);
        }
        let contention = self.servers[server].contention();
        for &tid in &self.server_tasks[server] {
            let t = &mut self.tasks[tid];
            let d = &self.deployed[t.wl];
            let socket = d.instances[t.node][t.inst].socket;
            let ic = contention.instance(&current_phase(d, t).load(socket));
            // Injected interference spike: multiply by the transient
            // per-server factor. 1.0 outside an episode — and `x * 1.0` is
            // bitwise-exact, so fault-free runs are unperturbed.
            t.slowdown = ic.slowdown * self.slow_mult[server];
            let eta_us = (t.remaining_us * t.slowdown).ceil() as u64;
            let at = now.plus(SimTime(eta_us));
            match t.timer {
                Some(id) => self.queue.reschedule(id, at),
                None => t.timer = Some(self.queue.schedule(at, Ev::PhaseEnd { task: tid })),
            }
        }
    }

    fn on_phase_end(&mut self, now: SimTime, task_id: usize) {
        {
            let t = &mut self.tasks[task_id];
            t.timer = None;
            // Aborts cancel the timer, so only executing tasks get here.
            debug_assert_eq!(t.state, TaskState::Executing, "phase end of task {task_id}");
            if t.state != TaskState::Executing {
                return;
            }
        }
        let server = self.tasks[task_id].server;
        self.settle_server(now, server);
        // Guard against floating-point residue: this event was scheduled for
        // exactly the remaining work, so clamp to zero.
        self.tasks[task_id].remaining_us = 0.0;

        if let Some(trace) = self.obs.trace.as_mut() {
            let t = &self.tasks[task_id];
            let (name, cat) = if t.cold && t.phase_idx == 0 {
                ("cold start".to_string(), "cold")
            } else {
                (format!("phase {}", t.phase_idx - t.cold as usize), "phase")
            };
            trace.span(SpanRecord {
                name,
                cat,
                track: Track::node(t.req, t.node),
                start: t.phase_started,
                end: now,
                args: vec![
                    ("slowdown", Json::from(t.slowdown)),
                    ("server", Json::from(t.server)),
                ],
            });
        }
        if self.tasks[task_id].cold && self.tasks[task_id].phase_idx == 0 {
            if let Some(t) = self.obs.telemetry.as_mut() {
                let t0 = self.tasks[task_id].phase_started;
                t.observe("instance.cold_start_ms", now.since(t0).as_millis());
            }
        }
        self.tasks[task_id].phase_started = now;

        self.tasks[task_id].phase_idx += 1;
        let next_phase = {
            let t = &self.tasks[task_id];
            invocation_phase(&self.deployed[t.wl], t).copied()
        };
        if let Some(phase) = next_phase {
            let socket = {
                let t = &self.tasks[task_id];
                self.deployed[t.wl].instances[t.node][t.inst].socket
            };
            self.tasks[task_id].remaining_us = phase.duration.as_micros() as f64;
            let load_id = self.tasks[task_id]
                .load_id
                .expect("executing task without load");
            self.servers[server].update(load_id, phase.load(socket));
            self.reschedule_server(now, server);
        } else {
            self.finish_service(now, task_id);
        }
    }

    /// The task's own service is done: record local latency, drop its load,
    /// then either enter nested wait or complete.
    fn finish_service(&mut self, now: SimTime, task_id: usize) {
        let (wl, node, req, server) = {
            let t = &self.tasks[task_id];
            (t.wl, t.node, t.req, t.server)
        };
        let local_ms = now.since(self.tasks[task_id].enqueued_at).as_millis();
        self.tasks[task_id].service_done = now;
        self.emit(
            now,
            JournalEvent::TaskDone {
                wl: wl as u32,
                node: node as u32,
                req,
                local_ms,
            },
        );
        if let Some(load_id) = self.tasks[task_id].load_id.take() {
            self.servers[server].remove(load_id);
            self.server_tasks[server].retain(|&t| t != task_id);
            self.reschedule_server(now, server);
        }
        let nested_children: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .children(workloads::NodeId(node))
            .iter()
            .filter(|(_, k)| *k == CallKind::Nested)
            .map(|(c, _)| c.0)
            .collect();
        if nested_children.is_empty() {
            self.complete_task(now, task_id);
        } else {
            self.tasks[task_id].state = TaskState::NestedWait;
            self.requests[req as usize].nested_pending[node] = nested_children.len() as u32;
            for child in nested_children {
                self.forward(now, req, wl, child);
            }
        }
    }

    /// The task (including any nested subtree) is fully complete: release
    /// its slot, fire async children, notify a nested parent, and close the
    /// request when every node is done.
    fn complete_task(&mut self, now: SimTime, task_id: usize) {
        let was_nested_wait = self.tasks[task_id].state == TaskState::NestedWait;
        let (wl, node, req, inst_idx) = {
            let t = &mut self.tasks[task_id];
            t.state = TaskState::Done;
            (t.wl, t.node, t.req, t.inst)
        };
        if let Some(trace) = self.obs.trace.as_mut() {
            let t = &self.tasks[task_id];
            let track = Track::node(req, node);
            if was_nested_wait {
                trace.span(SpanRecord {
                    name: "nested wait".to_string(),
                    cat: "wait",
                    track,
                    start: t.service_done,
                    end: now,
                    args: vec![],
                });
            }
            let func_name = self.deployed[wl]
                .workload
                .graph
                .func(workloads::NodeId(node))
                .name
                .clone();
            let t = &self.tasks[task_id];
            trace.span(SpanRecord {
                name: func_name,
                cat: "task",
                track,
                start: t.enqueued_at,
                end: now,
                args: vec![
                    ("server", Json::from(t.server)),
                    ("instance", Json::from(inst_idx)),
                    ("cold", Json::from(t.cold)),
                ],
            });
        }
        {
            let inst = &mut self.deployed[wl].instances[node][inst_idx];
            inst.active.retain(|&t| t != task_id);
            inst.last_finish = now;
        }
        self.try_start(now, wl, node, inst_idx);

        let async_children: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .children(workloads::NodeId(node))
            .iter()
            .filter(|(_, k)| *k == CallKind::Async)
            .map(|(c, _)| c.0)
            .collect();
        for child in async_children {
            let ready = {
                let r = &mut self.requests[req as usize];
                r.remaining_async[child] -= 1;
                r.remaining_async[child] == 0
            };
            if ready {
                self.forward(now, req, wl, child);
            }
        }

        let nested_parent = self.deployed[wl].nested_parent[node];
        let finished_request = {
            let r = &mut self.requests[req as usize];
            r.nodes_remaining -= 1;
            r.nodes_remaining == 0 && r.outcome.is_none()
        };
        if let Some(parent) = nested_parent {
            let parent_done = {
                let r = &mut self.requests[req as usize];
                r.nested_pending[parent] -= 1;
                r.nested_pending[parent] == 0
            };
            if parent_done {
                let parent_task = self.requests[req as usize].node_task[parent]
                    .expect("nested parent task missing");
                debug_assert_eq!(self.tasks[parent_task].state, TaskState::NestedWait);
                self.complete_task(now, parent_task);
            }
        }
        if finished_request {
            let r = &mut self.requests[req as usize];
            r.outcome = Some(Outcome::Completed);
            let arrival = r.arrival;
            let e2e = now.since(arrival).as_millis();
            self.emit(
                now,
                JournalEvent::Completed {
                    wl: wl as u32,
                    req,
                    e2e_ms: e2e,
                },
            );
            if let Some(t) = self.obs.telemetry.as_mut() {
                if self.sla_ms[wl].is_some_and(|sla| e2e > sla) {
                    t.incr("sla.violations", 1);
                }
            }
            if let Some(trace) = self.obs.trace.as_mut() {
                let name = self.deployed[wl].workload.name.clone();
                trace.span(SpanRecord {
                    name,
                    cat: "request",
                    track: Track::request(req),
                    start: arrival,
                    end: now,
                    args: vec![("e2e_ms", Json::from(e2e))],
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Collection & autoscaling
    // ------------------------------------------------------------------

    fn on_collect(&mut self, now: SimTime, end: SimTime) {
        // Cache contention and whole-server utilization per server.
        let contentions: Vec<_> = self.servers.iter().map(|s| s.contention()).collect();
        let cpu_utils: Vec<f64> = self.servers.iter().map(|s| s.cpu_utilization()).collect();
        let mem_utils: Vec<f64> = self
            .servers
            .iter()
            .map(|s| s.memory_utilization())
            .collect();

        self.synthesize_metrics(now, &contentions, &cpu_utils);

        // Utilization snapshot.
        let active_cores: f64 = self
            .servers
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.spec().cores as f64)
            .sum();
        let density = if active_cores > 0.0 {
            self.instance_count as f64 / active_cores
        } else {
            0.0
        };
        self.emit(
            now,
            JournalEvent::Utilization {
                cpu: cpu_utils,
                memory: mem_utils,
                density,
                instances: self.instance_count as u64,
            },
        );

        if let Some(t) = self.obs.telemetry.as_mut() {
            let queued: usize = self
                .deployed
                .iter()
                .flat_map(|d| d.instances.iter().flatten())
                .map(|i| i.queue.len())
                .sum();
            let executing: usize = self.server_tasks.iter().map(Vec::len).sum();
            t.gauge("gateway.depth", self.gateway.depth() as f64);
            t.gauge("instances.total", self.instance_count as f64);
            t.gauge("tasks.queued", queued as f64);
            t.gauge("tasks.executing", executing as f64);
        }

        self.autoscale(now);

        // Checkpoint records ride the collect tick: cheap (no extra events on
        // the queue) and aligned with a consistent post-autoscale state.
        if self.checkpoint_every > SimTime::ZERO && now >= self.next_checkpoint {
            let state = self.checkpoint_state(now);
            self.emit(now, JournalEvent::Checkpoint(state));
            while self.next_checkpoint <= now {
                self.next_checkpoint = self.next_checkpoint.plus(self.checkpoint_every);
            }
        }

        // Refresh the live Prometheus exposition, if a hub is attached.
        // Read-only over telemetry/fault-log state: zero determinism impact.
        if let (Some(hub), Some(t)) = (self.obs.prom.as_ref(), self.obs.telemetry.as_ref()) {
            hub.publish(t, self.obs.faults.as_ref());
        }

        self.next_collect = now.plus(self.config.collect_interval);
        if self.next_collect <= end {
            self.queue.schedule(self.next_collect, Ev::Collect);
        }
    }

    /// Per-(workload, node) metric synthesis over executing tasks: one
    /// streaming `(sum, count)` accumulator per slot. Accumulation runs
    /// server-major, in task order within a server — the fold order of
    /// `MetricVector::mean_of` — so each mean is bit-identical to averaging
    /// a collected sample vector, without collecting one.
    fn synthesize_metrics(
        &mut self,
        now: SimTime,
        contentions: &[cluster::ContentionState],
        cpu_utils: &[f64],
    ) {
        let mut scratch = std::mem::take(&mut self.collect_scratch);
        scratch.resize_with(self.deployed.len(), Vec::new);
        for (row, d) in scratch.iter_mut().zip(&self.deployed) {
            row.clear();
            row.resize(d.workload.graph.len(), (MetricVector::zero(), 0));
        }
        for (server, tids) in self.server_tasks.iter().enumerate() {
            let base_freq = self.servers[server].spec().base_freq_ghz;
            for &tid in tids {
                let t = &self.tasks[tid];
                let d = &self.deployed[t.wl];
                let phase = current_phase(d, t);
                let load = phase.load(d.instances[t.node][t.inst].socket);
                let ic = contentions[server].instance(&load);
                let m = cluster::microarch::synthesize(
                    &phase.micro,
                    &load,
                    &ic,
                    base_freq,
                    cpu_utils[server],
                    &self.config.microarch,
                    &mut self.synth_rngs[server],
                );
                let slot = &mut scratch[t.wl][t.node];
                slot.0 = slot.0.add(&m);
                slot.1 += 1;
            }
        }
        for (wl, nodes) in scratch.iter().enumerate() {
            for (node, &(sum, count)) in nodes.iter().enumerate() {
                if count > 0 {
                    let m = sum.scale(1.0 / count as f64);
                    self.emit(
                        now,
                        JournalEvent::MetricSample {
                            wl: wl as u32,
                            node: node as u32,
                            values: m.as_slice().to_vec(),
                        },
                    );
                }
            }
        }
        self.collect_scratch = scratch;
    }

    /// Snapshot the engine's replay-relevant state for a checkpoint record.
    /// Everything that is cheap to capture exactly is captured exactly (RNG
    /// stream words, counters); bulky structures (the instance table) are
    /// fingerprinted so resume verification can still detect divergence.
    fn checkpoint_state(&self, now: SimTime) -> CheckpointState {
        let mut fp = FNV_OFFSET;
        let mut total = 0u64;
        let mut alive = 0u64;
        for (wl, d) in self.deployed.iter().enumerate() {
            for (node, insts) in d.instances.iter().enumerate() {
                for inst in insts {
                    total += 1;
                    alive += inst.alive as u64;
                    fnv_mix(&mut fp, wl as u64);
                    fnv_mix(&mut fp, node as u64);
                    fnv_mix(&mut fp, inst.server as u64);
                    fnv_mix(&mut fp, inst.socket as u64);
                    fnv_mix(&mut fp, inst.alive as u64);
                }
            }
        }
        // Word-wise FNV fold over every per-server synthesis stream, in
        // server order: the four words play the role a single stream's
        // state words would.
        let mut rng_words = [FNV_OFFSET; 4];
        for rng in &self.synth_rngs {
            for (word, w) in rng_words.iter_mut().zip(rng.state()) {
                fnv_mix(word, w);
            }
        }
        CheckpointState {
            at_us: now.as_micros(),
            sim_rng: rng_words,
            retry_rng: self.retry_rng.state(),
            fault_fingerprint: self.faults.as_ref().map_or(0, |f| f.state_fingerprint()),
            pending_events: self.queue.len() as u64,
            gateway_depth: self.gateway.depth() as u64,
            instances_total: total,
            instances_alive: alive,
            instance_table_fp: fp,
            tasks_created: self.tasks.len() as u64,
            requests_created: self.requests.len() as u64,
            requests_settled: self.requests.iter().filter(|r| r.outcome.is_some()).count() as u64,
        }
    }

    fn autoscale(&mut self, now: SimTime) {
        if self.placer.is_none() {
            return;
        }
        // Refresh the placer's degraded-mode flag from the outage window
        // (`predictor_down_until` stays `ZERO` without predictor outages).
        let available = now >= self.predictor_down_until;
        self.placer
            .as_mut()
            .expect("checked above")
            .set_predictor_available(available);
        // Collect scale-out requests first to avoid borrowing conflicts.
        let mut wanted: Vec<(usize, usize)> = Vec::new();
        for (wl, d) in self.deployed.iter().enumerate() {
            for node in 0..d.workload.graph.len() {
                // Pressure arithmetic over the alive instances.
                let insts = &d.instances[node];
                let n_alive = insts.iter().filter(|i| i.alive).count();
                if n_alive >= self.scale.max_instances_per_node {
                    continue;
                }
                if n_alive == 0 {
                    // Every instance of this node is dead and no re-warm
                    // succeeded yet: always ask for a replacement.
                    wanted.push((wl, node));
                    continue;
                }
                let queued: usize = insts
                    .iter()
                    .filter(|i| i.alive)
                    .map(|i| i.queue.len())
                    .sum();
                let busy: usize = insts
                    .iter()
                    .filter(|i| i.alive)
                    .map(|i| i.active.len())
                    .sum();
                let capacity =
                    n_alive * d.workload.graph.func(workloads::NodeId(node)).concurrency as usize;
                let queue_pressure = queued as f64 / n_alive as f64 > self.scale.queue_per_instance;
                let busy_pressure =
                    capacity > 0 && busy as f64 / capacity as f64 > self.scale.busy_fraction;
                if queue_pressure || busy_pressure {
                    wanted.push((wl, node));
                }
            }
        }
        for (wl, node) in wanted {
            let decision = {
                let placer = self.placer.as_mut().expect("checked above");
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                let d = &self.deployed[wl];
                let spec = d.workload.graph.func(workloads::NodeId(node));
                placer.note_time(now.as_millis());
                placer.place(&view, &d.workload, node, spec)
            };
            if let Some(p) = decision {
                assert!(p.server < self.servers.len(), "placer chose bad server");
                assert!(self.alive[p.server], "placer chose dead server");
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
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::ScaleOut, wl, node, &p),
                );
            } else if let Some(t) = self.obs.telemetry.as_mut() {
                t.incr("autoscaler.rejections", 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & degradation
    // ------------------------------------------------------------------

    /// Record a fault-log entry. Faults are emitted only while a fault log
    /// is attached, so a replayed log matches the live one entry-for-entry.
    fn log_fault(&mut self, now: SimTime, kind: &'static str, target: i64, value: f64) {
        if self.obs.faults.is_some() {
            self.emit(
                now,
                JournalEvent::Fault {
                    kind,
                    target,
                    value,
                },
            );
        }
    }

    /// One injected fault fires: draw the kind and target, apply it, and
    /// schedule the next tick from the injector's private stream.
    fn on_fault_tick(&mut self, now: SimTime) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        let kind = inj.draw_kind();
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.injected", 1);
        }
        match kind {
            FaultKind::ServerCrash => {
                let up: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
                if !up.is_empty() {
                    let target = up[self.faults.as_mut().expect("checked").pick(up.len())];
                    self.crash_server(now, target);
                    let recovery = self
                        .faults
                        .as_ref()
                        .expect("checked")
                        .config()
                        .crash_recovery;
                    self.queue
                        .schedule(now.plus(recovery), Ev::ServerRecover { server: target });
                }
            }
            FaultKind::ServerSlowdown => {
                let up: Vec<usize> = (0..self.alive.len()).filter(|&s| self.alive[s]).collect();
                if !up.is_empty() {
                    let inj = self.faults.as_mut().expect("checked");
                    let target = up[inj.pick(up.len())];
                    let factor = inj.config().slowdown_factor;
                    let duration = inj.config().slowdown_duration;
                    self.log_fault(now, "slowdown", target as i64, factor);
                    self.settle_server(now, target);
                    self.slow_mult[target] = factor;
                    self.slow_token[target] += 1;
                    let token = self.slow_token[target];
                    self.queue.schedule(
                        now.plus(duration),
                        Ev::SlowdownEnd {
                            server: target,
                            token,
                        },
                    );
                    self.reschedule_server(now, target);
                }
            }
            FaultKind::InstanceOom => {
                // Uniform pick over all alive instances, in deployment order.
                let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
                for (wl, d) in self.deployed.iter().enumerate() {
                    for (node, insts) in d.instances.iter().enumerate() {
                        for (i, inst) in insts.iter().enumerate() {
                            if inst.alive {
                                candidates.push((wl, node, i));
                            }
                        }
                    }
                }
                if !candidates.is_empty() {
                    let (wl, node, i) = candidates[self
                        .faults
                        .as_mut()
                        .expect("checked")
                        .pick(candidates.len())];
                    let server = self.deployed[wl].instances[node][i].server;
                    self.log_fault(now, "oom_kill", server as i64, node as f64);
                    self.kill_instance(now, wl, node, i);
                    self.rewarm(now, vec![(wl, node)]);
                }
            }
            FaultKind::ColdStartStorm => {
                let duration = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .cold_storm_duration;
                self.cold_storm_until = now.plus(duration);
                self.log_fault(now, "cold_storm", -1, duration.as_millis());
            }
            FaultKind::PredictorOutage => {
                let duration = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .predictor_outage_duration;
                self.predictor_down_until = now.plus(duration);
                self.log_fault(now, "predictor_outage", -1, duration.as_millis());
                if let Some(p) = self.placer.as_mut() {
                    p.set_predictor_available(false);
                }
            }
        }
        if let Some(next) = self
            .faults
            .as_mut()
            .and_then(|inj| inj.next_event_after(now))
        {
            self.queue.schedule(next, Ev::FaultTick);
        }
    }

    /// Take a server dark: kill its instances, fail over every request that
    /// had a task on them, tell the placer, and re-warm lost capacity
    /// elsewhere.
    fn crash_server(&mut self, now: SimTime, server: usize) {
        if !self.alive[server] {
            return;
        }
        self.alive[server] = false;
        self.log_fault(now, "server_crash", server as i64, 0.0);
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.server_crashes", 1);
        }
        let mut victims: BTreeSet<u64> = BTreeSet::new();
        let mut lost: Vec<(usize, usize)> = Vec::new();
        for (wl, d) in self.deployed.iter_mut().enumerate() {
            for (node, insts) in d.instances.iter_mut().enumerate() {
                for inst in insts.iter_mut() {
                    if inst.alive && inst.server == server {
                        inst.alive = false;
                        self.instance_count -= 1;
                        victims.extend(inst.active.iter().map(|&t| self.tasks[t].req));
                        victims.extend(inst.queue.iter().map(|&t| self.tasks[t].req));
                        lost.push((wl, node));
                    }
                }
            }
        }
        if let Some(p) = self.placer.as_mut() {
            p.note_server_down(server);
        }
        for req in victims {
            self.fail_or_retry(now, req);
        }
        self.rewarm(now, lost);
    }

    fn on_server_recover(&mut self, now: SimTime, server: usize) {
        self.alive[server] = true;
        // A slowdown episode that was active at crash time died with the
        // server; invalidate its end event and rejoin healthy.
        self.slow_mult[server] = 1.0;
        self.slow_token[server] += 1;
        self.log_fault(now, "server_recover", server as i64, 0.0);
    }

    fn on_slowdown_end(&mut self, now: SimTime, server: usize, token: u64) {
        if self.slow_token[server] != token || !self.alive[server] {
            return; // superseded by a newer episode, or the server crashed
        }
        self.settle_server(now, server);
        self.slow_mult[server] = 1.0;
        self.log_fault(now, "slowdown_end", server as i64, 0.0);
        self.reschedule_server(now, server);
    }

    /// OOM-kill one instance: fail over its tasks and mark it dead.
    fn kill_instance(&mut self, now: SimTime, wl: usize, node: usize, inst_idx: usize) {
        let mut victims: BTreeSet<u64> = BTreeSet::new();
        {
            let inst = &mut self.deployed[wl].instances[node][inst_idx];
            if !inst.alive {
                return;
            }
            inst.alive = false;
            self.instance_count -= 1;
            victims.extend(inst.active.iter().map(|&t| self.tasks[t].req));
            victims.extend(inst.queue.iter().map(|&t| self.tasks[t].req));
        }
        for req in victims {
            self.fail_or_retry(now, req);
        }
    }

    /// Replace lost instances: ask the placer on a liveness-masked view,
    /// falling back to the least-utilized alive server so a missing
    /// predictor never blocks recovery.
    fn rewarm(&mut self, now: SimTime, lost: Vec<(usize, usize)>) {
        for (wl, node) in lost {
            let decision = {
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                match self.placer.as_mut() {
                    Some(placer) => {
                        let d = &self.deployed[wl];
                        let spec = d.workload.graph.func(workloads::NodeId(node));
                        placer.note_time(now.as_millis());
                        placer.place(&view, &d.workload, node, spec)
                    }
                    None => None,
                }
            };
            let decision = decision.or_else(|| {
                // Interference-oblivious fallback: most CPU headroom wins.
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                (0..self.servers.len())
                    .filter(|&s| self.alive[s])
                    .max_by(|&a, &b| {
                        view.cpu_headroom(a)
                            .partial_cmp(&view.cpu_headroom(b))
                            .expect("NaN headroom")
                    })
                    .map(|server| PlacementDecision {
                        server,
                        socket: self.servers[server].least_loaded_socket(None),
                    })
            });
            if let Some(p) = decision {
                debug_assert!(self.alive[p.server], "re-warm targeted a dead server");
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
                self.log_fault(now, "rewarm", p.server as i64, node as f64);
                self.emit(
                    now,
                    placement_journal_event(PlacementKind::Rewarm, wl, node, &p),
                );
            }
        }
    }

    /// A request attempt failed (crash, drop, OOM, timeout): abort all its
    /// tasks, then either schedule a backoff retry or mark it failed.
    fn fail_or_retry(&mut self, now: SimTime, req: u64) {
        if self.requests[req as usize].outcome.is_some() {
            return;
        }
        self.abort_request_tasks(now, req);
        let wl = self.requests[req as usize].wl;
        let attempt = self.requests[req as usize].attempt;
        // Bump the attempt immediately so anything still in flight for the
        // aborted attempt (forwards, timeouts) is stale from here on.
        self.requests[req as usize].attempt = attempt + 1;
        if attempt < self.resilience.max_retries {
            let u = self.retry_rng.f64();
            let delay = self.resilience.backoff_delay(attempt, u);
            self.emit(
                now,
                JournalEvent::Retry {
                    wl: wl as u32,
                    req,
                    delay_ms: delay.as_millis(),
                },
            );
            self.log_fault(now, "retry", req as i64, delay.as_millis());
            self.queue
                .schedule(now.plus(delay), Ev::RetryRequest { req });
        } else {
            let r = &mut self.requests[req as usize];
            r.outcome = Some(Outcome::Failed);
            self.emit(
                now,
                JournalEvent::Failed {
                    wl: wl as u32,
                    req,
                    attempts: attempt,
                },
            );
            self.log_fault(now, "request_failed", req as i64, attempt as f64);
        }
    }

    /// Abort every live task of a request (releasing instance slots, queue
    /// positions and server loads) and reset its DAG bookkeeping so a retry
    /// can re-run the whole call graph.
    fn abort_request_tasks(&mut self, now: SimTime, req: u64) {
        let wl = self.requests[req as usize].wl;
        let nodes = self.deployed[wl].workload.graph.len();
        let mut freed: Vec<(usize, usize)> = Vec::new();
        for node in 0..nodes {
            let Some(tid) = self.requests[req as usize].node_task[node] else {
                continue;
            };
            let (state, inst_idx, server) = {
                let t = &self.tasks[tid];
                (t.state, t.inst, t.server)
            };
            match state {
                TaskState::Queued => {
                    self.deployed[wl].instances[node][inst_idx]
                        .queue
                        .retain(|&t| t != tid);
                }
                TaskState::Executing => {
                    if let Some(timer) = self.tasks[tid].timer.take() {
                        self.queue.cancel(timer);
                    }
                    if let Some(load_id) = self.tasks[tid].load_id.take() {
                        self.settle_server(now, server);
                        self.servers[server].remove(load_id);
                        self.server_tasks[server].retain(|&t| t != tid);
                        self.reschedule_server(now, server);
                    }
                    self.deployed[wl].instances[node][inst_idx]
                        .active
                        .retain(|&t| t != tid);
                    freed.push((node, inst_idx));
                }
                TaskState::NestedWait => {
                    // Holds a concurrency slot but no server load.
                    self.deployed[wl].instances[node][inst_idx]
                        .active
                        .retain(|&t| t != tid);
                    freed.push((node, inst_idx));
                }
                TaskState::Done => {}
            }
            self.tasks[tid].state = TaskState::Done;
        }
        {
            let r = &mut self.requests[req as usize];
            r.node_task = vec![None; nodes];
            r.nested_pending = vec![0; nodes];
            r.nodes_remaining = nodes;
            r.remaining_async = self.deployed[wl].async_parents.clone();
        }
        // Freed slots can admit queued tasks of other requests.
        for (node, inst_idx) in freed {
            if self.deployed[wl].instances[node][inst_idx].alive {
                self.try_start(now, wl, node, inst_idx);
            }
        }
    }

    fn on_retry_request(&mut self, now: SimTime, req: u64) {
        let (wl, attempt) = {
            let r = &self.requests[req as usize];
            if r.outcome.is_some() {
                return;
            }
            (r.wl, r.attempt)
        };
        let roots: Vec<usize> = self.deployed[wl]
            .workload
            .graph
            .roots()
            .iter()
            .map(|r| r.0)
            .collect();
        for node in roots {
            self.forward(now, req, wl, node);
        }
        if let Some(timeout) = self.resilience.request_timeout {
            self.queue
                .schedule(now.plus(timeout), Ev::RequestTimeout { req, attempt });
        }
    }

    fn on_request_timeout(&mut self, now: SimTime, req: u64, attempt: u32) {
        {
            let r = &self.requests[req as usize];
            if r.outcome.is_some() || r.attempt != attempt {
                return; // settled, or the attempt was already aborted
            }
        }
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("requests.timeouts", 1);
        }
        self.log_fault(now, "timeout", req as i64, attempt as f64);
        self.fail_or_retry(now, req);
    }

    /// Move every instance of one function node to a different socket on its
    /// current server — the local isolation control of Observation 5.
    pub fn migrate_node_socket(&mut self, wl: WorkloadId, node: usize, socket: usize) {
        let now = self.queue.now();
        let mut touched_servers = Vec::new();
        let n_inst = self.deployed[wl.0].instances[node].len();
        for inst_idx in 0..n_inst {
            let server = self.deployed[wl.0].instances[node][inst_idx].server;
            assert!(
                socket < self.servers[server].spec().sockets as usize,
                "socket out of range"
            );
            self.settle_server(now, server);
            self.deployed[wl.0].instances[node][inst_idx].socket = socket;
            // Re-pin any executing task's load.
            let tids: Vec<usize> = self.server_tasks[server]
                .iter()
                .copied()
                .filter(|&t| {
                    let t = &self.tasks[t];
                    t.wl == wl.0 && t.node == node && t.inst == inst_idx
                })
                .collect();
            for tid in tids {
                let t = &self.tasks[tid];
                let phase = *current_phase(&self.deployed[t.wl], t);
                if let Some(load_id) = self.tasks[tid].load_id {
                    self.servers[server].update(load_id, phase.load(socket));
                }
            }
            touched_servers.push(server);
        }
        touched_servers.sort_unstable();
        touched_servers.dedup();
        for s in touched_servers {
            self.reschedule_server(now, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::PlacementDecision;
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
                sim.set_faults(faults::FaultConfig::off());
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
    fn sharded_run_matches_serial_bit_for_bit() {
        // The quick inline conformance check against the engine that queued
        // a fresh PhaseEnd per re-time and skipped the superseded one on
        // pop: its report for this run digested to the value below, and
        // re-timing in place must reproduce it bit for bit. The 20-seed,
        // faults on/off matrix lives in tests/engine_shard_equiv.rs.
        const STALE_ENTRY_REPORT: u64 = 0xb7bf_b972_d45a_e6c2;
        let mut sim = one_server_social_run();
        sim.run_until(SimTime::from_secs(30.0));
        let json = sim.into_report().render_json();
        let mut fp = FNV_OFFSET;
        for b in (json.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(json.as_bytes())
        {
            fnv_mix(&mut fp, *b as u64);
        }
        assert_eq!(fp, STALE_ENTRY_REPORT, "report digest {fp:#018x}");
    }

    #[test]
    fn sharded_run_reports_barrier_activity() {
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
            sim.dispatch(now, ev, horizon);
        }
        let phases_run: usize = sim.tasks.iter().map(|t| t.phase_idx).sum();
        assert_eq!(phase_ends, phases_run);
        assert!(sim.tasks.iter().all(|t| t.timer.is_none()));
        assert!(sim.queue.is_empty());

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
        // server). No retries or timeouts, so no per-request events.
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(3));
        let n = sim.servers().len();
        let horizon = SimTime::from_secs(60.0);
        let mut workloads = 0;
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
            workloads += 1;
        }
        let header = Json::obj().field("test", "stale phase ends");
        let journal = obs::journal::MemoryJournal::in_memory(&header, Some(1_000_000));
        sim.set_obs(
            obs::Obs::telemetry_only()
                .with_fault_log()
                .with_journal(Box::new(journal)),
        );
        sim.set_faults(faults::FaultConfig {
            seed: 99,
            server_crash_rate_per_min: 6.0,
            crash_recovery: SimTime::from_secs(5.0),
            oom_rate_per_min: 12.0,
            ..faults::FaultConfig::off()
        });
        let bound = workloads + 3 + n;
        // `run_until`'s loop, checking the queue after every event.
        let mut executing_at = Vec::new();
        sim.next_collect = sim.config.collect_interval;
        sim.queue.schedule(sim.next_collect, Ev::Collect);
        while let Some((now, ev)) = sim.queue.pop_until(horizon) {
            let collect = matches!(ev, Ev::Collect);
            sim.dispatch(now, ev, horizon);
            let executing: usize = sim.server_tasks.iter().map(Vec::len).sum();
            assert!(
                sim.queue.len() <= executing + bound,
                "t={now}: {} pending events for {executing} executing tasks",
                sim.queue.len()
            );
            if collect {
                executing_at.push((now.as_micros(), executing));
            }
        }
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
