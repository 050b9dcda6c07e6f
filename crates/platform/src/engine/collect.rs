//! Collection: the 1 Hz tick's utilization snapshot, metric synthesis and
//! checkpoint records, and the state only the tick touches.

use super::{current_phase, Ev, Simulation};
use metricsd::MetricVector;
use obs::journal::{CheckpointState, JournalEvent, UtilizationSnapshot};
use simcore::fnv;
use simcore::rng::seed_stream;
use simcore::{SimRng, SimTime};

/// The collect tick's state: per-server synthesis streams, the checkpoint
/// cadence, and buffers reused across ticks.
pub(super) struct Collector {
    /// One metric-synthesis stream per server, seeded
    /// `seed_stream(seed, 0x10_0000 + server)`: a collect tick's draws
    /// depend only on the server and on the tasks executing there.
    synth_rngs: Vec<SimRng>,
    /// Checkpoint cadence requested by the attached journal sink; `ZERO`
    /// (journal absent or cadence unset) disables checkpointing entirely.
    checkpoint_every: SimTime,
    /// Next instant a checkpoint record is due (checked at collect ticks).
    next_checkpoint: SimTime,
    /// Streaming moment accumulators: one `(sum, count)` slot per
    /// `(workload, node)`.
    scratch: Vec<Vec<(MetricVector, u32)>>,
    /// Per-server CPU and memory utilization of the tick.
    cpu: Vec<f64>,
    memory: Vec<f64>,
}

impl Collector {
    pub(super) fn new(seed: u64, servers: usize) -> Self {
        Self {
            synth_rngs: (0..servers)
                .map(|s| SimRng::new(seed_stream(seed, 0x10_0000 + s as u64)))
                .collect(),
            checkpoint_every: SimTime::ZERO,
            next_checkpoint: SimTime::ZERO,
            scratch: Vec::new(),
            cpu: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// Checkpoint every `every` from `now` on; `ZERO` disables checkpoints.
    pub(super) fn set_checkpoint_every(&mut self, every: SimTime, now: SimTime) {
        self.checkpoint_every = every;
        self.next_checkpoint = now.plus(every);
    }
}

impl Simulation {
    pub(super) fn on_collect(&mut self, now: SimTime) {
        // Whole-server utilization per server, in buffers reused across
        // ticks.
        let mut cpu_utils = std::mem::take(&mut self.collect.cpu);
        cpu_utils.clear();
        cpu_utils.extend(self.servers.iter().map(|s| s.cpu_utilization()));
        let mut mem_utils = std::mem::take(&mut self.collect.memory);
        mem_utils.clear();
        mem_utils.extend(self.servers.iter().map(|s| s.memory_utilization()));

        self.synthesize_metrics(now, &cpu_utils);

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
        let utilization = JournalEvent::Utilization(Box::new(UtilizationSnapshot {
            cpu: cpu_utils,
            memory: mem_utils,
            density,
            instances: self.instance_count as u64,
        }));
        self.emit_ref(now, &utilization);
        if let JournalEvent::Utilization(snapshot) = utilization {
            let UtilizationSnapshot { cpu, memory, .. } = *snapshot;
            self.collect.cpu = cpu;
            self.collect.memory = memory;
        }

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
        let c = &self.collect;
        if c.checkpoint_every > SimTime::ZERO && now >= c.next_checkpoint {
            let state = self.checkpoint_state(now);
            self.emit(now, JournalEvent::Checkpoint(Box::new(state)));
            let c = &mut self.collect;
            while c.next_checkpoint <= now {
                c.next_checkpoint = c.next_checkpoint.plus(c.checkpoint_every);
            }
        }

        // The chain never lapses: `pop_until` leaves a tick past the
        // horizon pending, so a resumed `run_until` picks it up. It is
        // scheduled after the checkpoint, whose `pending_events` therefore
        // does not count it.
        self.next_collect = now.plus(self.config.collect_interval);
        self.queue.schedule(self.next_collect, Ev::Collect);
    }

    /// Per-(workload, node) metric synthesis over executing tasks: one
    /// streaming `(sum, count)` accumulator per slot. Accumulation runs
    /// server-major, in task order within a server — the fold order of
    /// `MetricVector::mean_of` — so each mean is bit-identical to averaging
    /// a collected sample vector, without collecting one.
    fn synthesize_metrics(&mut self, now: SimTime, cpu_utils: &[f64]) {
        let mut scratch = std::mem::take(&mut self.collect.scratch);
        scratch.resize_with(self.deployed.len(), Vec::new);
        for (row, d) in scratch.iter_mut().zip(&self.deployed) {
            row.clear();
            row.resize(d.workload.graph.len(), (MetricVector::zero(), 0));
        }
        for (server, tids) in self.server_tasks.iter().enumerate() {
            if tids.is_empty() {
                continue;
            }
            let state = &self.servers[server];
            state.contention_into(&mut self.contention);
            let base_freq = state.spec().base_freq_ghz;
            // As in `reschedule_server`, the i-th task owns the i-th load.
            for (&tid, (_, load)) in tids.iter().zip(state.iter()) {
                let t = &self.tasks[tid];
                let phase = current_phase(&self.deployed[t.wl], t);
                let ic = self.contention.instance(load);
                let m = cluster::microarch::synthesize(
                    &phase.micro,
                    load,
                    &ic,
                    base_freq,
                    cpu_utils[server],
                    &self.config.microarch,
                    &mut self.collect.synth_rngs[server],
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
        self.collect.scratch = scratch;
    }

    /// Snapshot the engine's replay-relevant state for a checkpoint record.
    /// Everything that is cheap to capture exactly is captured exactly (RNG
    /// stream words, counters); bulky structures (the instance table) are
    /// fingerprinted so resume verification can still detect divergence.
    fn checkpoint_state(&self, now: SimTime) -> CheckpointState {
        let mut fp = fnv::OFFSET;
        let mut total = 0u64;
        let mut alive = 0u64;
        for (wl, node, _, inst) in self.instance_rows() {
            total += 1;
            alive += inst.alive as u64;
            fnv::mix_word(&mut fp, wl as u64);
            fnv::mix_word(&mut fp, node as u64);
            fnv::mix_word(&mut fp, inst.server as u64);
            fnv::mix_word(&mut fp, inst.socket as u64);
            fnv::mix_word(&mut fp, inst.alive as u64);
        }
        // Word-wise FNV fold over every per-server synthesis stream, in
        // server order: the four words play the role a single stream's
        // state words would.
        let mut rng_words = [fnv::OFFSET; 4];
        for rng in &self.collect.synth_rngs {
            for (word, w) in rng_words.iter_mut().zip(rng.state()) {
                fnv::mix_word(word, w);
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
            tasks_created: self.tasks_created,
            requests_created: self.requests.len() as u64,
            requests_settled: self.requests.iter().filter(|r| r.outcome.is_some()).count() as u64,
        }
    }
}
