//! Request execution: arrivals, the gateway, delivery to instances, and
//! each server's processor-sharing re-timing of its executing phases.

use super::{
    current_phase, invocation_phase, Ev, Outcome, RequestState, Simulation, Task, TaskState,
    WorkloadId,
};
use crate::gateway::Forward;
use obs::journal::JournalEvent;
use obs::json::Json;
use obs::{SpanRecord, Track};
use simcore::SimTime;
use workloads::dag::CallKind;

impl Simulation {
    pub(super) fn on_arrival(&mut self, now: SimTime, wl: usize) {
        // Chain-schedule the next arrival.
        if let Some(next) = self.arrivals_pending[wl].pop_front() {
            self.queue.schedule(next.max(now), Ev::Arrival { wl });
        }
        let req = self.requests.len() as u64;
        let nodes = self.deployed[wl].workload.graph.len();
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
            self.settle(req, Outcome::Shed);
            self.emit(now, JournalEvent::Shed { wl: wl as u32, req });
            self.log_fault(now, "shed", req as i64, self.gateway.depth() as f64);
            return;
        }
        if let Some(trace) = self.obs.trace.as_mut() {
            let name = &self.deployed[wl].workload.name;
            trace.name_track(Track::request(req), &format!("{name} req{req}"), "request");
        }
        self.start_attempt(now, req);
    }

    /// Start the request's current attempt: forward its roots through the
    /// gateway and arm the attempt's timeout, if one is configured.
    pub(super) fn start_attempt(&mut self, now: SimTime, req: u64) {
        let RequestState { wl, attempt, .. } = self.requests[req as usize];
        for root in self.deployed[wl].workload.graph.roots() {
            self.forward(now, req, wl, root.0);
        }
        if let Some(timeout) = self.resilience.request_timeout {
            self.queue
                .schedule(now.plus(timeout), Ev::RequestTimeout { req, attempt });
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

    pub(super) fn on_gateway_done(&mut self, now: SimTime, fwd: Forward) {
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
        let task = Task {
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
            server: self.deployed[fwd.wl].instances[fwd.node][inst_idx].server,
            cold: false,
            phase_started: now,
            service_done: now,
        };
        let task_id = match self.free_tasks.pop() {
            Some(slot) => {
                self.tasks[slot] = task;
                slot
            }
            None => {
                self.tasks.push(task);
                self.tasks.len() - 1
            }
        };
        self.tasks_created += 1;
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
    pub(super) fn try_start(&mut self, now: SimTime, wl: usize, node: usize, inst_idx: usize) {
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
            let server = {
                let t = &mut self.tasks[task_id];
                t.state = TaskState::Executing;
                t.phase_idx = 0;
                t.remaining_us = first_phase.map_or(0.0, |p| p.duration.as_micros() as f64);
                t.last_update = now;
                t.cold = cold;
                t.phase_started = now;
                t.server
            };
            let Some(first_phase) = first_phase else {
                // Degenerate zero-work function: complete immediately.
                self.finish_service(now, task_id);
                continue;
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
    pub(super) fn settle_server(&mut self, now: SimTime, server: usize) {
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
    ///
    /// `server_tasks[server]` and the server's instances are pushed and
    /// removed together, so the i-th task owns the i-th load.
    pub(super) fn reschedule_server(&mut self, now: SimTime, server: usize) {
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("contention.recomputes", 1);
        }
        let state = &self.servers[server];
        state.contention_into(&mut self.contention);
        debug_assert_eq!(self.server_tasks[server].len(), state.len());
        for (&tid, (load_id, load)) in self.server_tasks[server].iter().zip(state.iter()) {
            let t = &mut self.tasks[tid];
            debug_assert_eq!(
                t.load_id,
                Some(load_id),
                "task {tid} out of step with its load"
            );
            // Injected interference spike: multiply by the transient
            // per-server factor. 1.0 outside an episode — and `x * 1.0` is
            // bitwise-exact, so fault-free runs are unperturbed.
            t.slowdown = self.contention.instance(load).slowdown * self.slow_mult[server];
            let eta_us = (t.remaining_us * t.slowdown).ceil() as u64;
            let at = now.plus(SimTime(eta_us));
            match t.timer {
                Some(id) => self.queue.reschedule(id, at),
                None => t.timer = Some(self.queue.schedule(at, Ev::PhaseEnd { task: tid })),
            }
        }
    }

    pub(super) fn on_phase_end(&mut self, now: SimTime, task_id: usize) {
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
        // Either path settles the server once, before its loads change:
        // here, or in `release_load`. The next phase overwrites this task's
        // settled remainder (float residue of the finished phase).
        if let Some(phase) = next_phase {
            self.settle_server(now, server);
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
        let (wl, node, req) = {
            let t = &self.tasks[task_id];
            (t.wl, t.node, t.req)
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
        self.release_load(now, task_id);
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

    /// Drop a task's server load, if it holds one: settle the server,
    /// remove the load and the task, and re-time the co-runners.
    pub(super) fn release_load(&mut self, now: SimTime, task_id: usize) {
        let t = &mut self.tasks[task_id];
        if let Some(load_id) = t.load_id.take() {
            let server = t.server;
            self.settle_server(now, server);
            self.servers[server].remove(load_id);
            self.server_tasks[server].retain(|&t| t != task_id);
            self.reschedule_server(now, server);
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
            self.settle(req, Outcome::Completed);
            let arrival = self.requests[req as usize].arrival;
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
        self.free_task(task_id);
    }

    /// Record a request's outcome and release its per-node DAG bookkeeping:
    /// no task of a settled request is live, and every later reader checks
    /// `outcome` first.
    pub(super) fn settle(&mut self, req: u64, outcome: Outcome) {
        let r = &mut self.requests[req as usize];
        debug_assert!(r.outcome.is_none(), "request {req} settled twice");
        r.outcome = Some(outcome);
        r.node_task = Vec::new();
        r.nested_pending = Vec::new();
        r.remaining_async = Vec::new();
    }

    /// Return a `Done` task's slot to the free list and unlink it from its
    /// request, so no `node_task` entry names a slot that is reused later.
    pub(super) fn free_task(&mut self, task_id: usize) {
        let t = &self.tasks[task_id];
        debug_assert_eq!(t.state, TaskState::Done, "freeing live task {task_id}");
        debug_assert!(
            t.timer.is_none() && t.load_id.is_none(),
            "freed task {task_id} still holds a timer or a load"
        );
        // A settled request has already released its `node_task`.
        if let Some(slot) = self.requests[t.req as usize].node_task.get_mut(t.node) {
            debug_assert_eq!(*slot, Some(task_id));
            *slot = None;
        }
        #[cfg(test)]
        {
            self.phases_freed += t.phase_idx;
        }
        self.free_tasks.push(task_id);
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
