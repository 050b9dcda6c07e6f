//! Fault-injection integration: request-outcome conservation, exact
//! replayability, bounded backoff and slot release after timeouts —
//! checked across many seeds, end to end through the platform engine with
//! the chaos layer enabled — plus placement errors against a trained
//! predictor.

use platform::engine::ScaleConfig;
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, Outcome, PlatformConfig, ResilienceConfig, Simulation};
use simcore::rng::seed_stream;
use simcore::SimTime;
use std::collections::BTreeMap;
use workloads::loadgen::uniform_arrivals;

const MAX_RETRIES: u32 = 3;

/// A hostile 20 s mix (crashes, slowdowns, OOM-kills, cold storms, gateway
/// drops, predictor outages) followed by a generous drain window so every
/// request reaches a terminal outcome. Deterministic in `seed`.
fn chaotic_sim(seed: u64) -> Simulation {
    let arrivals_end = SimTime::from_secs(20.0);
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
    sim.set_obs(obs::Obs::telemetry_only().with_fault_log());
    let n = sim.servers().len();
    for (workload, rps) in [
        (workloads::socialnetwork::message_posting(), 20.0),
        (workloads::ecommerce::browse_and_buy(), 10.0),
    ] {
        let placement: Vec<Vec<PlacementDecision>> = workload
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
            workload,
            placement,
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(rps, arrivals_end)),
        });
    }
    sim.set_placer(
        Box::new(baselines::WorstFit),
        ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: 24,
        },
    );
    sim.set_resilience(ResilienceConfig {
        request_timeout: Some(SimTime::from_secs(8.0)),
        max_retries: MAX_RETRIES,
        backoff_base: SimTime::from_millis(200.0),
        backoff_jitter: 0.5,
        shed_queue_depth: Some(64),
    });
    sim.set_faults(faults::FaultConfig {
        seed: seed_stream(seed, 0xFA),
        server_crash_rate_per_min: 6.0,
        crash_recovery: SimTime::from_secs(5.0),
        slowdown_rate_per_min: 12.0,
        slowdown_factor: 3.0,
        slowdown_duration: SimTime::from_secs(4.0),
        oom_rate_per_min: 6.0,
        cold_storm_rate_per_min: 3.0,
        cold_storm_duration: SimTime::from_secs(2.0),
        gateway_drop_prob: 0.01,
        gateway_jitter_max: SimTime::from_micros(300),
        predictor_outage_rate_per_min: 2.0,
        predictor_outage_duration: SimTime::from_secs(5.0),
    });
    sim.run_until(SimTime::from_secs(120.0));
    sim
}

/// Satellite 1 (conservation): under heavy chaos, every arrival settles in
/// exactly one of {completed, shed, failed}; nothing is lost, nothing is
/// double-counted.
#[test]
fn every_arrival_settles_exactly_once_across_20_seeds() {
    for seed in 0..20u64 {
        let sim = chaotic_sim(seed);
        let report = sim.report();
        let (mut arrivals, mut completions, mut shed, mut failed) = (0u64, 0u64, 0u64, 0u64);
        let mut latencies = 0u64;
        for w in &report.workloads {
            arrivals += w.arrivals;
            completions += w.completions;
            shed += w.shed;
            failed += w.failed;
            latencies += w.e2e_latencies_ms.len() as u64;
        }
        assert!(arrivals > 0, "seed {seed}: no load generated");
        assert_eq!(
            arrivals,
            completions + shed + failed,
            "seed {seed}: conservation violated"
        );
        // Exactly one latency sample per completion — no double-completion.
        assert_eq!(latencies, completions, "seed {seed}: duplicate completions");
        // Per-request: every observed request carries exactly one terminal
        // outcome, and the per-outcome counts match the series totals.
        let (mut by_c, mut by_s, mut by_f) = (0u64, 0u64, 0u64);
        for req in 0..sim.request_count() as u64 {
            match sim
                .request_outcome(req)
                .unwrap_or_else(|| panic!("seed {seed}: request {req} never settled"))
            {
                Outcome::Completed => by_c += 1,
                Outcome::Shed => by_s += 1,
                Outcome::Failed => by_f += 1,
            }
        }
        assert_eq!(
            (by_c, by_s, by_f),
            (completions, shed, failed),
            "seed {seed}"
        );
    }
}

/// Satellite 1 (replayability): the same seed reproduces the entire run —
/// fault log, telemetry, and report — byte for byte.
#[test]
fn same_seed_replays_bit_identically() {
    for seed in [3u64, 17] {
        let mut a = chaotic_sim(seed);
        let mut b = chaotic_sim(seed);
        let (oa, ob) = (a.take_obs(), b.take_obs());
        let (fa, fb) = (oa.faults.expect("log"), ob.faults.expect("log"));
        assert!(!fa.records().is_empty(), "seed {seed}: chaos must fire");
        assert_eq!(
            fa.to_jsonl(),
            fb.to_jsonl(),
            "seed {seed}: fault log diverged"
        );
        assert_eq!(
            oa.telemetry.expect("telemetry").to_jsonl(),
            ob.telemetry.expect("telemetry").to_jsonl(),
            "seed {seed}: telemetry diverged"
        );
        assert_eq!(
            a.into_report(),
            b.into_report(),
            "seed {seed}: report diverged"
        );
    }
}

/// Satellite 2 (backoff): per request, retries never exceed the budget and
/// inter-retry delays strictly increase (exponential backoff with a
/// bounded-jitter floor).
#[test]
fn backoff_is_bounded_and_strictly_increasing() {
    let mut saw_multi_retry = false;
    for seed in 0..20u64 {
        let mut sim = chaotic_sim(seed);
        let log = sim.take_obs().faults.expect("log");
        let mut per_req: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for r in log.records().iter().filter(|r| r.kind == "retry") {
            per_req.entry(r.target).or_default().push(r.value);
        }
        for (req, delays) in &per_req {
            assert!(
                delays.len() <= MAX_RETRIES as usize,
                "seed {seed}: request {req} retried {} times (budget {MAX_RETRIES})",
                delays.len()
            );
            for w in delays.windows(2) {
                assert!(
                    w[1] > w[0],
                    "seed {seed}: request {req} backoff not strictly increasing: {delays:?}"
                );
            }
            saw_multi_retry |= delays.len() >= 2;
        }
    }
    assert!(
        saw_multi_retry,
        "no request ever retried twice across 20 chaotic seeds — scenario too tame to test backoff growth"
    );
}

/// Satellite 2 (timeouts): a timed-out request releases its instance slot —
/// a later request completes promptly on the same single-concurrency
/// instance instead of queueing behind a ghost.
#[test]
fn timed_out_request_releases_its_instance_slot() {
    let mut sim = Simulation::new(PlatformConfig::small(9));
    let mut w = workloads::functionbench::float_operation();
    {
        let root = w.graph.roots()[0];
        let f = w.graph.func_mut(root);
        f.phases[0].duration = SimTime::from_millis(1500.0);
        f.concurrency = 1;
    }
    let ids: Vec<_> = w.graph.ids().collect();
    let placement = ids
        .iter()
        .map(|_| {
            vec![PlacementDecision {
                server: 0,
                socket: 0,
            }]
        })
        .collect();
    sim.deploy(Deployment {
        workload: w,
        placement,
        // Two simultaneous arrivals: the second queues behind the first and
        // blows its 2 s deadline mid-service. A third arrives much later.
        arrivals: ArrivalSpec::OpenLoop(vec![
            SimTime::from_secs(1.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(10.0),
        ]),
    });
    sim.set_resilience(ResilienceConfig {
        request_timeout: Some(SimTime::from_secs(2.0)),
        max_retries: 0,
        ..Default::default()
    });
    sim.set_obs(obs::Obs::telemetry_only().with_fault_log());
    sim.run_until(SimTime::from_secs(30.0));

    assert_eq!(sim.request_outcome(0), Some(Outcome::Completed));
    assert_eq!(
        sim.request_outcome(1),
        Some(Outcome::Failed),
        "queued request must time out"
    );
    assert_eq!(sim.request_outcome(2), Some(Outcome::Completed));
    let log = sim.take_obs().faults.expect("log");
    assert!(
        log.records()
            .iter()
            .any(|r| r.kind == "timeout" && r.target == 1),
        "timeout must be logged for request 1"
    );
    let ws = &sim.report().workloads[0];
    assert_eq!((ws.completions, ws.failed), (2, 1));
    // If the timed-out request leaked its slot, request 2 would hang (or
    // queue forever); its latency must instead be pure service time.
    assert!(
        ws.e2e_latencies_ms.iter().all(|&ms| ms < 2000.0),
        "completed latencies polluted by a leaked slot: {:?}",
        ws.e2e_latencies_ms
    );
}

// --- placement against a trained predictor --------------------------------

mod drain {
    use cluster::Demand;
    use gsight::{CodingConfig, ColoWorkload, GsightConfig, GsightPredictor, QosTarget, Scenario};
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use mlcore::ModelKind;
    use simcore::{SimRng, SimTime};
    use workloads::WorkloadClass;

    const S: usize = 4;

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

    /// Predictor trained on synthetic ground truth where IPC shrinks with
    /// same-server overlap (same shape as the sched unit-test fixture).
    fn predictor() -> GsightPredictor {
        let config = GsightConfig {
            coding: CodingConfig {
                num_servers: S,
                max_workloads: 3,
            },
            target: QosTarget::Ipc,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed: 21,
        };
        let mut rng = SimRng::new(22);
        let mut samples = Vec::new();
        for _ in 0..800 {
            let tp: Vec<usize> = (0..2).map(|_| rng.index(S)).collect();
            let op: Vec<usize> = (0..2).map(|_| rng.index(S)).collect();
            let overlap = tp.iter().filter(|s| op.contains(s)).count();
            let y = 2.0 / (1.0 + 0.15 * overlap as f64);
            let mk = |p: Vec<usize>, ipc: f64| {
                ColoWorkload::new(
                    profile(2, ipc),
                    WorkloadClass::LatencySensitive,
                    vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
                    p,
                )
            };
            samples.push((Scenario::new(mk(tp, 2.0), vec![mk(op, 1.0)], S), y));
        }
        let mut p = GsightPredictor::new(config);
        p.bootstrap(&samples);
        p
    }

    /// An empty candidate set (every server dead or full) is a
    /// recoverable error from the binary-search placement, not a panic.
    #[test]
    fn empty_candidate_set_is_an_error_end_to_end() {
        let p = predictor();
        let wl = ColoWorkload::new(
            profile(2, 2.0),
            WorkloadClass::LatencySensitive,
            vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
            vec![0, 1],
        );
        let capacity = cluster::ServerSpec::paper_node().total_capacity();
        let out = sched::binary_search_placement(&p, &wl, &[], S, &[], &[], &capacity, 0.5);
        assert_eq!(out, Err(sched::PlacementError::NoCandidates));
    }
}
