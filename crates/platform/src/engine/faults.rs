//! Fault injection and degradation: the fault tick, crashes, slowdowns and
//! OOM kills, re-warming lost instances, and per-request timeouts and
//! retries.

use super::{Ev, Outcome, Simulation, TaskState};
use crate::scale::{ClusterView, PlacementDecision};
use ::faults::FaultKind;
use obs::journal::{JournalEvent, PlacementKind};
use simcore::SimTime;
use std::collections::BTreeSet;

impl Simulation {
    /// Record a fault-log entry. Faults are emitted only while a fault log
    /// is attached, so a replayed log matches the live one entry-for-entry.
    pub(super) fn log_fault(&mut self, now: SimTime, kind: &'static str, target: i64, value: f64) {
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
    pub(super) fn on_fault_tick(&mut self, now: SimTime) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        let kind = inj.draw_kind();
        let config = inj.config().clone();
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.injected", 1);
        }
        match kind {
            FaultKind::ServerCrash => {
                if let Some(target) = self.pick_up_server() {
                    self.crash_server(now, target);
                    self.queue.schedule(
                        now.plus(config.crash_recovery),
                        Ev::ServerRecover { server: target },
                    );
                }
            }
            FaultKind::ServerSlowdown => {
                if let Some(target) = self.pick_up_server() {
                    let factor = config.slowdown_factor;
                    self.log_fault(now, "slowdown", target as i64, factor);
                    self.settle_server(now, target);
                    self.slow_mult[target] = factor;
                    self.slow_token[target] += 1;
                    let token = self.slow_token[target];
                    self.queue.schedule(
                        now.plus(config.slowdown_duration),
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
                let candidates: Vec<_> = self
                    .instance_rows()
                    .filter(|&(.., inst)| inst.alive)
                    .map(|(wl, node, i, _)| (wl, node, i))
                    .collect();
                if !candidates.is_empty() {
                    let (wl, node, i) = candidates[self.pick(candidates.len())];
                    let server = self.deployed[wl].instances[node][i].server;
                    self.log_fault(now, "oom_kill", server as i64, node as f64);
                    self.kill_instances(now, &[(wl, node, i)]);
                }
            }
            FaultKind::ColdStartStorm => {
                let duration = config.cold_storm_duration;
                self.cold_storm_until = now.plus(duration);
                self.log_fault(now, "cold_storm", -1, duration.as_millis());
            }
            FaultKind::PredictorOutage => {
                let duration = config.predictor_outage_duration;
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

    /// A uniform index below `n`, drawn from the injector's stream.
    fn pick(&mut self, n: usize) -> usize {
        self.faults
            .as_mut()
            .expect("fault tick without injector")
            .pick(n)
    }

    /// Up servers, in index order.
    fn alive_servers(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&s| self.alive[s]).collect()
    }

    /// A uniformly drawn up server; `None`, and no draw, when all are down.
    fn pick_up_server(&mut self) -> Option<usize> {
        let up = self.alive_servers();
        (!up.is_empty()).then(|| up[self.pick(up.len())])
    }

    /// Take a server dark: tell the placer, kill its instances, fail over
    /// every request that had a task on them, and re-warm lost capacity
    /// elsewhere.
    pub(super) fn crash_server(&mut self, now: SimTime, server: usize) {
        if !self.alive[server] {
            return;
        }
        self.alive[server] = false;
        self.log_fault(now, "server_crash", server as i64, 0.0);
        if let Some(t) = self.obs.telemetry.as_mut() {
            t.incr("faults.server_crashes", 1);
        }
        if let Some(p) = self.placer.as_mut() {
            p.note_server_down(server);
        }
        let doomed: Vec<_> = self
            .instance_rows()
            .filter(|&(.., inst)| inst.alive && inst.server == server)
            .map(|(wl, node, i, _)| (wl, node, i))
            .collect();
        self.kill_instances(now, &doomed);
    }

    /// Mark alive `(wl, node, index)` instances dead and uncount them, fail
    /// over every request that had a task on any of them in one sorted pass,
    /// then re-warm each lost instance.
    fn kill_instances(&mut self, now: SimTime, rows: &[(usize, usize, usize)]) {
        let mut victims: BTreeSet<u64> = BTreeSet::new();
        for &(wl, node, i) in rows {
            let inst = &mut self.deployed[wl].instances[node][i];
            debug_assert!(inst.alive, "killing dead instance {wl}/{node}/{i}");
            inst.alive = false;
            self.instance_count -= 1;
            let tasks = &self.tasks;
            victims.extend(inst.active.iter().chain(&inst.queue).map(|&t| tasks[t].req));
        }
        for req in victims {
            self.fail_or_retry(now, req);
        }
        self.rewarm(now, rows);
    }

    pub(super) fn on_server_recover(&mut self, now: SimTime, server: usize) {
        self.alive[server] = true;
        // A slowdown episode that was active at crash time died with the
        // server; invalidate its end event and rejoin healthy.
        self.slow_mult[server] = 1.0;
        self.slow_token[server] += 1;
        self.log_fault(now, "server_recover", server as i64, 0.0);
    }

    pub(super) fn on_slowdown_end(&mut self, now: SimTime, server: usize, token: u64) {
        if self.slow_token[server] != token || !self.alive[server] {
            return; // superseded by a newer episode, or the server crashed
        }
        self.settle_server(now, server);
        self.slow_mult[server] = 1.0;
        self.log_fault(now, "slowdown_end", server as i64, 0.0);
        self.reschedule_server(now, server);
    }

    /// Replace lost instances: ask the placer on a liveness-masked view,
    /// falling back to the least-utilized alive server so a missing
    /// predictor never blocks recovery.
    fn rewarm(&mut self, now: SimTime, lost: &[(usize, usize, usize)]) {
        for &(wl, node, _) in lost {
            let decision = self.ask_placer(now, wl, node).or_else(|| {
                // Interference-oblivious fallback: most CPU headroom wins.
                let view = ClusterView::with_liveness(&self.servers, &self.alive);
                self.alive_servers()
                    .into_iter()
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
                self.log_fault(now, "rewarm", p.server as i64, node as f64);
                self.add_instance(now, PlacementKind::Rewarm, wl, node, p);
            }
        }
    }

    /// A request attempt failed (crash, drop, OOM, timeout): abort all its
    /// tasks, then either schedule a backoff retry or mark it failed.
    pub(super) fn fail_or_retry(&mut self, now: SimTime, req: u64) {
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
            self.settle(req, Outcome::Failed);
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
    /// positions, server loads and task slots) and reset its DAG bookkeeping
    /// so a retry can re-run the whole call graph.
    fn abort_request_tasks(&mut self, now: SimTime, req: u64) {
        let wl = self.requests[req as usize].wl;
        let nodes = self.deployed[wl].workload.graph.len();
        let mut freed: Vec<(usize, usize)> = Vec::new();
        for node in 0..nodes {
            let Some(tid) = self.requests[req as usize].node_task[node] else {
                continue;
            };
            let (state, inst_idx) = (self.tasks[tid].state, self.tasks[tid].inst);
            match state {
                TaskState::Queued => {
                    self.deployed[wl].instances[node][inst_idx]
                        .queue
                        .retain(|&t| t != tid);
                }
                // A task in nested wait holds a concurrency slot but no
                // timer and no server load.
                TaskState::Executing | TaskState::NestedWait => {
                    if let Some(timer) = self.tasks[tid].timer.take() {
                        self.queue.cancel(timer);
                    }
                    self.release_load(now, tid);
                    self.deployed[wl].instances[node][inst_idx]
                        .active
                        .retain(|&t| t != tid);
                    freed.push((node, inst_idx));
                }
                TaskState::Done => unreachable!("node_task names freed slot {tid}"),
            }
            self.tasks[tid].state = TaskState::Done;
            self.free_task(tid);
        }
        {
            // Freeing cleared every `node_task` entry.
            let r = &mut self.requests[req as usize];
            debug_assert!(r.node_task.iter().all(Option::is_none));
            r.nested_pending.fill(0);
            r.nodes_remaining = nodes;
            r.remaining_async
                .copy_from_slice(&self.deployed[wl].async_parents);
        }
        // Freed slots can admit queued tasks of other requests.
        for (node, inst_idx) in freed {
            if self.deployed[wl].instances[node][inst_idx].alive {
                self.try_start(now, wl, node, inst_idx);
            }
        }
    }

    pub(super) fn on_retry_request(&mut self, now: SimTime, req: u64) {
        if self.requests[req as usize].outcome.is_none() {
            self.start_attempt(now, req);
        }
    }

    pub(super) fn on_request_timeout(&mut self, now: SimTime, req: u64, attempt: u32) {
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
}
