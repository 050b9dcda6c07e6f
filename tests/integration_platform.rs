//! Platform-simulator integration invariants: conservation of requests,
//! agreement between the DAG analysis and the executor, propagation
//! effects, and bit-for-bit determinism across the full stack.

use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::{SimRng, SimTime};
use workloads::loadgen::{poisson_arrivals, uniform_arrivals};

fn place_all(w: &workloads::Workload, server: usize) -> Vec<Vec<PlacementDecision>> {
    (0..w.graph.len())
        .map(|_| vec![PlacementDecision { server, socket: 0 }])
        .collect()
}

#[test]
fn request_conservation() {
    // Every arrival either completes within the horizon or stays in flight;
    // per-function completions never exceed arrivals.
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(1));
    let w = workloads::socialnetwork::message_posting();
    let placement = place_all(&w, 0);
    let mut rng = SimRng::new(2);
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(30.0, SimTime::from_secs(20.0), &mut rng)),
    });
    sim.run_until(SimTime::from_secs(40.0));
    let s = &sim.report().workloads[0];
    assert!(s.arrivals > 400);
    assert_eq!(s.completions, s.arrivals, "horizon slack lets all finish");
    for f in &s.functions {
        assert!(f.completions <= s.arrivals);
        assert_eq!(f.completions as usize, f.local_latencies_ms.len());
    }
}

#[test]
fn executor_matches_dag_analysis_for_every_workload() {
    // For each catalogued workload: one warm request on an idle cluster
    // must complete in the DAG's solo time plus gateway forwards.
    for w in [
        workloads::socialnetwork::message_posting(),
        workloads::ecommerce::browse_and_buy(),
        workloads::functionbench::feature_generation(),
    ] {
        let expected = w.critical_path_duration().as_millis();
        let edges = 2.0 * w.graph.len() as f64; // generous forward budget
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(3));
        let placement = place_all(&w, 0);
        let name = w.name.clone();
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(200.0), // warm request
            ]),
        });
        sim.run_until(SimTime::from_secs(400.0));
        let lat = sim.report().workloads[0].e2e_latencies_ms[1];
        assert!(
            lat >= expected && lat <= expected + 0.4 * edges,
            "{name}: warm latency {lat} vs solo analysis {expected}"
        );
    }
}

#[test]
fn hotspot_throttling_reduces_downstream_arrival_rate() {
    // Saturate the entry function; downstream functions must then see
    // fewer invocations than arrivals (Observation 4's mechanism).
    let mut w = workloads::socialnetwork::message_posting();
    {
        let root = w.graph.roots()[0];
        let f = w.graph.func_mut(root);
        f.concurrency = 1;
        f.phases[0].duration = SimTime::from_millis(50.0); // cap ~20 rps
    }
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(5));
    let placement = place_all(&w, 0);
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(40.0, SimTime::from_secs(20.0))),
    });
    sim.run_until(SimTime::from_secs(20.0));
    let s = &sim.report().workloads[0];
    let entry_done = s.functions[0].completions;
    assert!(
        (entry_done as f64) < 0.7 * s.arrivals as f64,
        "entry should throttle: {} of {}",
        entry_done,
        s.arrivals
    );
    // Downstream functions can only see what the entry released.
    for f in &s.functions[1..] {
        assert!(f.completions <= entry_done);
    }
}

#[test]
fn whole_stack_determinism() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let w = workloads::ecommerce::browse_and_buy();
        let placement = place_all(&w, 0);
        let mut rng = SimRng::new(seed);
        sim.deploy(Deployment {
            workload: w,
            placement,
            arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(
                25.0,
                SimTime::from_secs(15.0),
                &mut rng,
            )),
        });
        sim.run_until(SimTime::from_secs(30.0));
        let r = sim.report();
        (
            r.workloads[0].e2e_latencies_ms.clone(),
            r.workloads[0].functions[1].metric_samples.clone(),
            r.gateway_forward_ms.clone(),
        )
    };
    assert_eq!(run(42), run(42));
    let (a, _, _) = run(42);
    let (b, _, _) = run(43);
    assert_ne!(a, b, "different seeds should differ");
}

#[test]
fn high_density_population_run() {
    // §1's premise exercised end-to-end: pack 150+ instances of the paper's
    // own workloads across the 8-node testbed, alternating the social
    // network and e-commerce call paths under Poisson load, plus the
    // single-function FunctionBench entries as background jobs. The
    // platform must stay conservative (no lost requests) and the gateway's
    // >120-instance degradation must be visible in forward latencies.
    let mut sim = Simulation::new(PlatformConfig::paper_testbed(18));
    let mut rng = SimRng::new(19);
    let horizon = SimTime::from_secs(20.0);
    let mut slot = 0;
    let mut place_next = |w: &workloads::Workload| -> Vec<Vec<PlacementDecision>> {
        (0..w.graph.len())
            .map(|_| {
                let d = PlacementDecision {
                    server: slot % 8,
                    socket: (slot / 8) % 4,
                };
                slot += 1;
                vec![d]
            })
            .collect()
    };
    let ls = [
        workloads::socialnetwork::message_posting(),
        workloads::ecommerce::browse_and_buy(),
    ];
    for w in ls.iter().cycle() {
        if sim.instance_count() >= 150 {
            break;
        }
        sim.deploy(Deployment {
            placement: place_next(w),
            arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(2.0, horizon, &mut rng)),
            workload: w.clone(),
        });
    }
    for (i, w) in workloads::functionbench::all().into_iter().enumerate() {
        if w.graph.len() == 1 {
            sim.deploy(Deployment {
                placement: place_next(&w),
                arrivals: ArrivalSpec::Jobs(vec![SimTime::from_secs(i as f64)]),
                workload: w,
            });
        }
    }
    assert!(sim.instance_count() >= 150, "{}", sim.instance_count());
    sim.run_until(SimTime::from_secs(40.0));
    let r = sim.report();
    // Conservation across the whole fleet.
    let mut total_arrivals = 0u64;
    let mut total_completions = 0u64;
    for w in &r.workloads {
        total_arrivals += w.arrivals;
        total_completions += w.completions;
    }
    assert!(
        total_arrivals > 300,
        "the fleet saw {total_arrivals} arrivals"
    );
    assert!(
        total_completions as f64 >= 0.95 * total_arrivals as f64,
        "{total_completions}/{total_arrivals} completed"
    );
    // 150 deployed instances sit past the gateway knee (110): mean forward
    // exceeds the unloaded 0.3 ms base.
    let fwd = &r.gateway_forward_ms;
    let mean = fwd.iter().sum::<f64>() / fwd.len() as f64;
    assert!(
        mean > 0.5,
        "gateway should be past its knee at 150 instances: mean {mean} ms"
    );
    // Function density on a full cluster is high (instances per core).
    // (Active servers shrink as BG jobs finish, so the per-active-core
    // density can exceed 1 — the high-density regime the paper targets.)
    let density = r.utilization.last().unwrap().function_density;
    assert!((0.4..=4.0).contains(&density), "density {density}");
}

#[test]
fn live_socket_migration_restores_victim_mid_run() {
    // The paper's Observation 5 control action, applied *during* a run:
    // the corunner is migrated to another socket halfway through, and the
    // victim's latencies in the second half must recover.
    let mut config = PlatformConfig::paper_testbed(9);
    config.cluster = cluster::ClusterConfig::homogeneous(1, cluster::ServerSpec::paper_node());
    let mut sim = Simulation::new(config);
    let victim = workloads::socialnetwork::message_posting();
    // Victim function ⑨ (get-followers) on socket 0, others on 1..3.
    let placement: Vec<Vec<PlacementDecision>> = (0..9)
        .map(|node| {
            vec![PlacementDecision {
                server: 0,
                socket: if node == 8 { 0 } else { 1 + node % 3 },
            }]
        })
        .collect();
    let mut rng = SimRng::new(10);
    sim.deploy(Deployment {
        workload: victim,
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(40.0, SimTime::from_secs(60.0), &mut rng)),
    });
    // Aggressor: matmul jobs on socket 0, resubmitted through the window.
    let mm = workloads::functionbench::matrix_multiplication();
    let mm_id = sim.deploy(Deployment {
        workload: mm,
        placement: vec![vec![PlacementDecision {
            server: 0,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::Jobs(vec![SimTime::ZERO, SimTime::from_secs(125.0)]),
    });

    // First half: interfered.
    sim.run_until(SimTime::from_secs(30.0));
    let halfway = sim.report().workloads[0].functions[8]
        .local_latencies_ms
        .len();
    // Local control: move the aggressor's instances to socket 3.
    sim.migrate_node_socket(mm_id, 0, 3);
    sim.run_until(SimTime::from_secs(60.0));

    let lats = &sim.report().workloads[0].functions[8].local_latencies_ms;
    let before = simcore::percentile(&lats[halfway / 2..halfway], 90.0);
    let after = simcore::percentile(&lats[halfway + (lats.len() - halfway) / 2..], 90.0);
    assert!(
        after < before * 0.9,
        "migration should restore the victim: p90 {before} -> {after}"
    );
}

#[test]
fn keep_alive_controls_cold_starts() {
    let mut config = PlatformConfig::paper_testbed(7);
    config.keep_alive = SimTime::from_secs(30.0);
    let mut sim = Simulation::new(config);
    let w = workloads::functionbench::float_operation();
    let placement = place_all(&w, 0);
    // Three invocations: t=0 (cold), t=10 (warm), t=100 (idle > 30 s: cold).
    sim.deploy(Deployment {
        workload: w,
        placement,
        arrivals: ArrivalSpec::OpenLoop(vec![
            SimTime::ZERO,
            SimTime::from_secs(10.0),
            SimTime::from_secs(100.0),
        ]),
    });
    sim.run_until(SimTime::from_secs(150.0));
    let s = &sim.report().workloads[0];
    assert_eq!(s.completions, 3);
    assert_eq!(s.functions[0].cold_starts, 2);
}
