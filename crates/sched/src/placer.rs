//! The Gsight autoscaling placer (the paper's scheduling case study, §6.3).
//!
//! When the platform scales a function out, [`GsightPlacer`] chooses the
//! target server by querying the predictor on hypothetical scenarios:
//! candidate servers are ordered most-packed first (density objective) and
//! binary-searched for the most-packed server at which every SLA-bearing
//! workload's predicted IPC still clears its threshold — the per-instance
//! analogue of §4's whole-workload search.

use cluster::Demand;
use gsight::{ColoWorkload, GsightPredictor, Scenario};
use obs::{AuditLog, CandidateEval, DecisionRecord, WallProfiler};
use platform::scale::{ClusterView, PlacementDecision, Placer};
use workloads::{FunctionSpec, Workload, WorkloadClass};

/// Per-workload SLA: minimum predicted mean IPC, derived from the
/// latency–IPC curve (paper §6.3: "we adopt the IPC model for scheduling by
/// transforming the tail latency in SLA into IPC").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Minimum acceptable predicted IPC. `None` for BG workloads.
    pub min_ipc: Option<f64>,
}

/// A workload registered with the placer: its profiles, class, per-node
/// demands, SLA, and the instances placed so far.
pub struct WorkloadEntry {
    /// Workload name (matched against the `Workload` the platform passes).
    pub name: String,
    /// Class.
    pub class: WorkloadClass,
    /// Solo profiles per call-graph node.
    pub profile: metricsd::WorkloadProfile,
    /// Mean demand per call-graph node.
    pub demands: Vec<Demand>,
    /// SLA.
    pub sla: SlaSpec,
    /// Placed instances: `(node, server)`.
    pub instances: Vec<(usize, usize)>,
}

impl WorkloadEntry {
    /// Build the scenario-view of this workload from its current instances
    /// (each instance appears as one function entry — the spatial coding
    /// aggregates same-server entries into virtual functions).
    fn as_colo(&self) -> Option<ColoWorkload> {
        if self.instances.is_empty() {
            return None;
        }
        let functions: Vec<metricsd::FunctionProfile> = self
            .instances
            .iter()
            .map(|&(node, _)| self.profile.functions[node].clone())
            .collect();
        let demands: Vec<Demand> = self
            .instances
            .iter()
            .map(|&(node, _)| self.demands[node])
            .collect();
        let placement: Vec<usize> = self.instances.iter().map(|&(_, s)| s).collect();
        Some(ColoWorkload::new(
            metricsd::WorkloadProfile::new(self.name.clone(), functions),
            self.class,
            demands,
            placement,
        ))
    }
}

/// The Gsight placement policy.
pub struct GsightPlacer {
    predictor: GsightPredictor,
    entries: Vec<WorkloadEntry>,
    /// Predictor invocations made (for the Fig. 14 overhead study).
    pub predictor_calls: usize,
    audit: Option<AuditLog>,
    now_ms: f64,
    /// Cleared during predictor-outage windows (fault injection): placement
    /// falls back to the interference-oblivious degraded policy.
    predictor_available: bool,
    /// Decisions made without the predictor (degraded mode).
    pub degraded_decisions: usize,
    /// Wall-clock profile of individual candidate probes (stage
    /// [`Self::PROBE_STAGE`]), when enabled.
    probe_profiler: Option<WallProfiler>,
}

impl GsightPlacer {
    /// New placer around a trained IPC predictor.
    pub fn new(predictor: GsightPredictor) -> Self {
        Self {
            predictor,
            entries: Vec::new(),
            predictor_calls: 0,
            audit: None,
            now_ms: 0.0,
            predictor_available: true,
            degraded_decisions: 0,
            probe_profiler: None,
        }
    }

    /// Stage name under which probe latencies are recorded.
    pub const PROBE_STAGE: &'static str = "sched.probe";

    /// Start timing every candidate probe (one wall-clock sample per probe)
    /// under the [`Self::PROBE_STAGE`] stage.
    pub fn enable_probe_profiling(&mut self) {
        self.probe_profiler.get_or_insert_with(WallProfiler::new);
    }

    /// The probe-latency profile collected so far (when
    /// [`Self::enable_probe_profiling`] was called).
    pub fn probe_profiler(&self) -> Option<&WallProfiler> {
        self.probe_profiler.as_ref()
    }

    /// Start recording one [`DecisionRecord`] per [`Placer::place`] call.
    pub fn enable_audit(&mut self) {
        self.audit.get_or_insert_with(AuditLog::new);
    }

    /// The audit log collected so far (when [`Self::enable_audit`] was
    /// called).
    pub fn audit(&self) -> Option<&AuditLog> {
        self.audit.as_ref()
    }

    /// Register a workload before deployment. Instances placed through
    /// [`Placer::place`] (or recorded with [`GsightPlacer::record`]) extend
    /// the entry.
    pub fn register(&mut self, entry: WorkloadEntry) {
        assert!(
            self.entries.iter().all(|e| e.name != entry.name),
            "workload {} already registered",
            entry.name
        );
        self.entries.push(entry);
    }

    /// Record an externally decided placement (e.g. the initial deployment).
    pub fn record(&mut self, workload: &str, node: usize, server: usize) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.name == workload)
            .expect("workload not registered");
        e.instances.push((node, server));
    }

    /// Access the registered entries (for inspection in experiments).
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Predicted IPC of workload `target_idx` under the current placements,
    /// with `extra` optionally describing a hypothetical additional instance
    /// `(workload_idx, node, server)`.
    fn predict_ipc(
        &mut self,
        target_idx: usize,
        extra: Option<(usize, usize, usize)>,
        num_servers: usize,
    ) -> Option<f64> {
        let build = |e: &WorkloadEntry, extra: Option<(usize, usize)>| -> Option<ColoWorkload> {
            match extra {
                None => e.as_colo(),
                Some((node, server)) => {
                    let mut tmp = WorkloadEntry {
                        name: e.name.clone(),
                        class: e.class,
                        profile: e.profile.clone(),
                        demands: e.demands.clone(),
                        sla: e.sla,
                        instances: e.instances.clone(),
                    };
                    tmp.instances.push((node, server));
                    tmp.as_colo()
                }
            }
        };
        let target = build(
            &self.entries[target_idx],
            extra.and_then(|(w, n, s)| (w == target_idx).then_some((n, s))),
        )?;
        let others: Vec<ColoWorkload> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != target_idx)
            .filter_map(|(i, e)| build(e, extra.and_then(|(w, n, s)| (w == i).then_some((n, s)))))
            .collect();
        self.predictor_calls += 1;
        Some(
            self.predictor
                .predict(&Scenario::new(target, others, num_servers)),
        )
    }

    /// Whether placing `(workload_idx, node)` on `server` keeps every
    /// SLA-bearing workload's predicted IPC above its threshold, plus the
    /// lowest predicted IPC seen (the binding constraint; NaN when no SLA
    /// workload could be evaluated).
    fn sla_eval(
        &mut self,
        wl_idx: usize,
        node: usize,
        server: usize,
        num_servers: usize,
    ) -> (bool, f64) {
        let mut worst = f64::NAN;
        for i in 0..self.entries.len() {
            let Some(min_ipc) = self.entries[i].sla.min_ipc else {
                continue;
            };
            // `None` means an unplaced workload: nothing to violate yet.
            if let Some(ipc) = self.predict_ipc(i, Some((wl_idx, node, server)), num_servers) {
                if worst.is_nan() || ipc < worst {
                    worst = ipc;
                }
                if ipc < min_ipc {
                    return (false, worst);
                }
            }
        }
        (true, worst)
    }

    /// One audited probe: evaluate a candidate (ranked `rank` in the
    /// most-packed-first order) and, when auditing, append the evaluation.
    fn probe(
        &mut self,
        wl_idx: usize,
        node: usize,
        rank: usize,
        server: usize,
        num_servers: usize,
        evals: &mut Vec<CandidateEval>,
    ) -> bool {
        let started = self.probe_profiler.is_some().then(std::time::Instant::now);
        let (ok, qos) = self.sla_eval(wl_idx, node, server, num_servers);
        if let (Some(t0), Some(prof)) = (started, self.probe_profiler.as_mut()) {
            prof.record_ms(Self::PROBE_STAGE, t0.elapsed().as_secs_f64() * 1e3);
        }
        if self.audit.is_some() {
            evals.push(CandidateEval {
                // Per-instance analogue of §4's spread: how far down the
                // most-packed-first candidate order the probe sits.
                spread: rank + 1,
                placement: vec![server],
                predicted_qos: qos,
                sla_ok: ok,
                // Candidates were pre-filtered by `view.fits`.
                feasible: true,
            });
        }
        ok
    }

    /// Predictor-unavailable fallback: no predictor calls are made. The
    /// instance lands on the workload's *last known good* server — the most
    /// recently used placement that is still alive and fits — so degraded
    /// scale-outs reinforce placements the predictor previously vetted.
    /// With no reusable server the fallback is interference-oblivious
    /// Best-Fit (smallest feasible headroom, preserving the density
    /// objective). Audited decisions are flagged `degraded`.
    fn place_degraded(
        &mut self,
        view: &ClusterView<'_>,
        wl_idx: usize,
        workload: &Workload,
        demand: &Demand,
    ) -> Option<usize> {
        let last_good = self.entries[wl_idx]
            .instances
            .iter()
            .rev()
            .map(|&(_, s)| s)
            .find(|&s| view.fits(s, demand));
        let chosen = last_good.or_else(|| {
            (0..view.num_servers())
                .filter(|&s| view.fits(s, demand))
                .min_by(|&a, &b| {
                    view.cpu_headroom(a)
                        .partial_cmp(&view.cpu_headroom(b))
                        .expect("NaN headroom")
                })
        });
        self.degraded_decisions += 1;
        if let Some(audit) = self.audit.as_mut() {
            let evaluated: Vec<CandidateEval> = chosen
                .map(|s| CandidateEval {
                    spread: 1,
                    placement: vec![s],
                    // Not a predictor output: degraded decisions are
                    // accepted without a QoS estimate.
                    predicted_qos: f64::NAN,
                    sla_ok: true,
                    feasible: true,
                })
                .into_iter()
                .collect();
            audit.push(DecisionRecord {
                at_ms: self.now_ms,
                workload: workload.name.clone(),
                sla_min_qos: self.entries[wl_idx]
                    .sla
                    .min_ipc
                    .unwrap_or(f64::NEG_INFINITY),
                chosen: chosen.map(|_| 0),
                evaluated,
                predictor_calls: 0,
                degraded: true,
            });
        }
        chosen
    }
}

impl Placer for GsightPlacer {
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        workload: &Workload,
        node: usize,
        spec: &FunctionSpec,
    ) -> Option<PlacementDecision> {
        let wl_idx = self.entries.iter().position(|e| e.name == workload.name)?;
        let demand = spec.mean_demand();
        if !self.predictor_available {
            let server = self.place_degraded(view, wl_idx, workload, &demand)?;
            self.entries[wl_idx].instances.push((node, server));
            return Some(PlacementDecision {
                server,
                socket: view.server(server).least_loaded_socket(None),
            });
        }
        let calls_before = self.predictor_calls;
        let mut evals: Vec<CandidateEval> = Vec::new();
        let mut chosen_eval: Option<usize> = None;
        // Candidates: feasible servers, most packed first.
        let mut candidates: Vec<usize> = (0..view.num_servers())
            .filter(|&s| view.fits(s, &demand))
            .collect();
        let chosen = if candidates.is_empty() {
            None
        } else {
            candidates.sort_by(|&a, &b| {
                view.cpu_headroom(a)
                    .partial_cmp(&view.cpu_headroom(b))
                    .expect("NaN headroom")
            });
            let num_servers = view.num_servers();

            // Binary search the most-packed SLA-safe candidate (assumes
            // safety is monotone in spread, as §4 does).
            if self.probe(wl_idx, node, 0, candidates[0], num_servers, &mut evals) {
                chosen_eval = Some(evals.len().saturating_sub(1));
                Some(candidates[0])
            } else {
                let (mut lo, mut hi) = (1usize, candidates.len().saturating_sub(1));
                let mut found = None;
                while lo <= hi {
                    let mid = (lo + hi) / 2;
                    if self.probe(wl_idx, node, mid, candidates[mid], num_servers, &mut evals) {
                        found = Some(candidates[mid]);
                        chosen_eval = Some(evals.len().saturating_sub(1));
                        if mid == 1 {
                            break;
                        }
                        hi = mid - 1;
                    } else {
                        lo = mid + 1;
                    }
                }
                found
            }
        };
        if let Some(audit) = self.audit.as_mut() {
            audit.push(DecisionRecord {
                at_ms: self.now_ms,
                workload: workload.name.clone(),
                sla_min_qos: self.entries[wl_idx]
                    .sla
                    .min_ipc
                    .unwrap_or(f64::NEG_INFINITY),
                evaluated: evals,
                chosen: chosen_eval,
                predictor_calls: self.predictor_calls - calls_before,
                degraded: false,
            });
        }
        let server = chosen?;
        self.entries[wl_idx].instances.push((node, server));
        Some(PlacementDecision {
            server,
            socket: view.server(server).least_loaded_socket(None),
        })
    }

    fn note_time(&mut self, now_ms: f64) {
        self.now_ms = now_ms;
    }

    fn set_predictor_available(&mut self, available: bool) {
        self.predictor_available = available;
    }

    fn note_server_down(&mut self, server: usize) {
        // Instances on a crashed server are gone: drop them from the
        // bookkeeping so hypothetical scenarios (and last-known-good
        // lookups) no longer see them.
        for e in &mut self.entries {
            e.instances.retain(|&(_, s)| s != server);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The Pythia comparison placer: Best-Fit packing gated by the
/// placement-blind Pythia predictor.
///
/// Because Pythia's features carry no placement information, its SLA check
/// returns the same verdict for every candidate server; when the (global)
/// prediction violates a threshold the placer must refuse the scale-out
/// outright — the structural conservatism that costs it density in the
/// paper's Fig. 11.
pub struct PythiaPlacer {
    predictor: baselines::PythiaLike,
    entries: Vec<WorkloadEntry>,
}

impl PythiaPlacer {
    /// New placer around a trained Pythia predictor.
    pub fn new(predictor: baselines::PythiaLike) -> Self {
        Self {
            predictor,
            entries: Vec::new(),
        }
    }

    /// Register a workload (same bookkeeping as [`GsightPlacer`]).
    pub fn register(&mut self, entry: WorkloadEntry) {
        assert!(
            self.entries.iter().all(|e| e.name != entry.name),
            "workload {} already registered",
            entry.name
        );
        self.entries.push(entry);
    }

    /// Blind SLA check: predicted IPC of every SLA workload given the whole
    /// colocation (placement-independent by construction).
    fn sla_safe(&self, wl_idx: usize, node: usize, num_servers: usize) -> bool {
        use baselines::ScenarioPredictor;
        for (i, e) in self.entries.iter().enumerate() {
            let Some(min_ipc) = e.sla.min_ipc else {
                continue;
            };
            let Some(target) = e.as_colo() else { continue };
            let others: Vec<gsight::ColoWorkload> = self
                .entries
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .filter_map(|(j, o)| {
                    if j == wl_idx {
                        // Include the hypothetical new instance.
                        let mut tmp = WorkloadEntry {
                            name: o.name.clone(),
                            class: o.class,
                            profile: o.profile.clone(),
                            demands: o.demands.clone(),
                            sla: o.sla,
                            instances: o.instances.clone(),
                        };
                        tmp.instances.push((node, 0));
                        tmp.as_colo()
                    } else {
                        o.as_colo()
                    }
                })
                .collect();
            let scenario = gsight::Scenario::new(target, others, num_servers);
            if self.predictor.predict(&scenario) < min_ipc {
                return false;
            }
        }
        true
    }
}

impl Placer for PythiaPlacer {
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        workload: &Workload,
        node: usize,
        spec: &FunctionSpec,
    ) -> Option<PlacementDecision> {
        let wl_idx = self.entries.iter().position(|e| e.name == workload.name)?;
        if !self.sla_safe(wl_idx, node, view.num_servers()) {
            return None; // blind refusal: no server can look better
        }
        let demand = spec.mean_demand();
        // Best Fit: the feasible server with the smallest headroom.
        let server = (0..view.num_servers())
            .filter(|&s| view.fits(s, &demand))
            .min_by(|&a, &b| {
                view.cpu_headroom(a)
                    .partial_cmp(&view.cpu_headroom(b))
                    .expect("NaN headroom")
            })?;
        self.entries[wl_idx].instances.push((node, server));
        Some(PlacementDecision {
            server,
            socket: view.server(server).least_loaded_socket(None),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ServerSpec, ServerState};
    use gsight::{CodingConfig, GsightConfig, QosTarget};
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use mlcore::ModelKind;
    use simcore::{SimRng, SimTime};

    fn profile(n: usize, ipc: f64) -> WorkloadProfile {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        m.set(Metric::L3Mpki, 4.0);
        WorkloadProfile::new(
            "w",
            (0..n)
                .map(|i| {
                    FunctionProfile::new(
                        format!("f{i}"),
                        vec![ProfileSample {
                            at: SimTime::ZERO,
                            metrics: m,
                        }],
                        false,
                    )
                })
                .collect(),
        )
    }

    /// Train a predictor on the simple overlap-count ground truth.
    fn predictor() -> GsightPredictor {
        let config = GsightConfig {
            coding: CodingConfig {
                num_servers: 4,
                max_workloads: 3,
            },
            target: QosTarget::Ipc,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed: 11,
        };
        let mut rng = SimRng::new(2);
        let mut samples = Vec::new();
        for _ in 0..1500 {
            let tp: Vec<usize> = (0..2).map(|_| rng.index(4)).collect();
            let op: Vec<usize> = (0..2).map(|_| rng.index(4)).collect();
            let overlap = tp.iter().filter(|s| op.contains(s)).count();
            let y = 2.0 / (1.0 + 0.5 * overlap as f64);
            let target = ColoWorkload::new(
                profile(2, 2.0),
                WorkloadClass::LatencySensitive,
                vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
                tp,
            );
            let other = ColoWorkload::new(
                profile(2, 1.0),
                WorkloadClass::LatencySensitive,
                vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
                op,
            );
            samples.push((Scenario::new(target, vec![other], 4), y));
        }
        let mut p = GsightPredictor::new(config);
        p.bootstrap(&samples);
        p
    }

    fn entry(name: &str, sla: Option<f64>) -> WorkloadEntry {
        WorkloadEntry {
            name: name.into(),
            class: WorkloadClass::LatencySensitive,
            profile: profile(2, if sla.is_some() { 2.0 } else { 1.0 }),
            demands: vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
            sla: SlaSpec { min_ipc: sla },
            instances: Vec::new(),
        }
    }

    fn servers(n: usize) -> Vec<ServerState> {
        (0..n)
            .map(|_| ServerState::new(ServerSpec::small()))
            .collect()
    }

    #[test]
    fn packs_when_sla_loose() {
        let mut placer = GsightPlacer::new(predictor());
        placer.register(entry("victim", Some(0.1)));
        placer.register(entry("agg", None));
        placer.record("victim", 0, 0);
        placer.record("victim", 1, 0);
        let servers = servers(4);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let mut agg_wl = w.clone();
        agg_wl.name = "agg".into();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        let d = placer.place(&view, &agg_wl, 0, &spec).unwrap();
        // All servers are empty per the view; candidates sorted by headroom
        // keep server order, so packing lands on server 0 (tied headroom,
        // stable order) and the loose SLA accepts it.
        assert_eq!(d.server, 0);
        assert_eq!(placer.entries()[1].instances, vec![(0, 0)]);
    }

    #[test]
    fn avoids_victim_when_sla_tight() {
        let mut placer = GsightPlacer::new(predictor());
        placer.register(entry("victim", Some(1.8)));
        placer.register(entry("agg", None));
        placer.record("victim", 0, 0);
        placer.record("victim", 1, 0);
        let servers = servers(4);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let mut agg_wl = w.clone();
        agg_wl.name = "agg".into();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        let d = placer.place(&view, &agg_wl, 0, &spec).unwrap();
        assert_ne!(d.server, 0, "tight SLA must steer the aggressor away");
    }

    #[test]
    fn unregistered_workload_refused() {
        let mut placer = GsightPlacer::new(predictor());
        let servers = servers(2);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        assert!(placer.place(&view, &w, 0, &spec).is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_rejected() {
        let mut placer = GsightPlacer::new(predictor());
        placer.register(entry("a", None));
        placer.register(entry("a", None));
    }

    #[test]
    fn degraded_mode_reuses_last_good_server_without_predictor() {
        let mut placer = GsightPlacer::new(predictor());
        placer.enable_audit();
        placer.register(entry("victim", Some(1.8)));
        placer.record("victim", 0, 2);
        let servers = servers(4);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let mut wl = w.clone();
        wl.name = "victim".into();
        let spec = w.graph.func(w.graph.roots()[0]).clone();

        placer.set_predictor_available(false);
        let d = placer.place(&view, &wl, 1, &spec).unwrap();
        assert_eq!(d.server, 2, "degraded mode reuses the last good server");
        assert_eq!(placer.predictor_calls, 0, "no predictor during an outage");
        assert_eq!(placer.degraded_decisions, 1);
        let rec = &placer.audit().unwrap().records()[0];
        assert!(rec.degraded);
        assert_eq!(rec.predictor_calls, 0);

        // Recovery restores the predictor-driven path. Whether a feasible
        // server exists depends on model numerics (the victim is now
        // self-colocated, out of the predictor's training distribution) —
        // what matters here is that the predictor is consulted again and
        // the decision is no longer flagged degraded.
        placer.set_predictor_available(true);
        placer.place(&view, &wl, 1, &spec);
        assert!(placer.predictor_calls > 0);
        assert!(!placer.audit().unwrap().records()[1].degraded);
    }

    #[test]
    fn probe_profiling_records_one_sample_per_probe() {
        let mut placer = GsightPlacer::new(predictor());
        placer.enable_probe_profiling();
        placer.register(entry("victim", Some(1.8)));
        placer.register(entry("agg", None));
        placer.record("victim", 0, 0);
        placer.record("victim", 1, 0);
        let servers = servers(4);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let mut agg_wl = w.clone();
        agg_wl.name = "agg".into();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        placer.place(&view, &agg_wl, 0, &spec).unwrap();
        let prof = placer.probe_profiler().expect("profiling enabled");
        let n = prof.count(GsightPlacer::PROBE_STAGE);
        assert!(n >= 2, "binary search must issue at least two probes");
        let s = prof.summary(GsightPlacer::PROBE_STAGE).unwrap();
        assert_eq!(s.count, n);
        assert!(s.p99.is_finite() && s.p99 >= 0.0);
        // Off by default: a fresh placer records nothing.
        let fresh = GsightPlacer::new(predictor());
        assert!(fresh.probe_profiler().is_none());
    }

    #[test]
    fn note_server_down_forgets_lost_instances() {
        let mut placer = GsightPlacer::new(predictor());
        placer.register(entry("victim", Some(0.1)));
        placer.record("victim", 0, 1);
        placer.record("victim", 1, 2);
        placer.note_server_down(2);
        assert_eq!(placer.entries()[0].instances, vec![(0, 1)]);
        // Degraded placement now falls back past the dead server's entry.
        placer.set_predictor_available(false);
        let servers = servers(4);
        let view = ClusterView::new(&servers);
        let w = workloads::functionbench::float_operation();
        let mut wl = w.clone();
        wl.name = "victim".into();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        let d = placer.place(&view, &wl, 1, &spec).unwrap();
        assert_eq!(d.server, 1, "last good server is the surviving one");
    }
}
