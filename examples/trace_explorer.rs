//! Trace explorer: record a fully traced simulation and walk the span tree.
//!
//! Runs the Fig. 4 hotspot setup (all nine social-network functions on one
//! 4-socket server, a matmul corunner sharing the victim's socket) with
//! request tracing and telemetry on, then:
//!
//! 1. summarises spans per category (gateway / queue / cold / phase / wait /
//!    task / request);
//! 2. prints the slowest end-to-end requests and the full span tree of the
//!    worst one — the queue-wait growth at the interfered function is
//!    visible directly;
//! 3. dumps the telemetry registry;
//! 4. optionally writes the Chrome trace JSON (load it in Perfetto or
//!    `chrome://tracing`).
//!
//! Run with:
//! `cargo run --release -p bench --example trace_explorer [-- out.trace.json]`

use obs::{Obs, SpanRecord};
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::table::{fnum, TextTable};
use simcore::{SimRng, SimTime};
use std::collections::BTreeMap;
use workloads::loadgen::poisson_arrivals;

fn main() {
    let out_path = std::env::args().nth(1);
    let seed = 42;
    let window = SimTime::from_secs(20.0);

    // ---- traced hotspot run (Fig. 4 shape: victim ① on socket 0) ----
    let mut config = PlatformConfig::paper_testbed(seed);
    config.cluster = cluster::ClusterConfig::homogeneous(1, cluster::ServerSpec::paper_node());
    let mut sim = Simulation::new(config);
    sim.set_obs(Obs::recording());
    let mut rng = SimRng::new(seed);

    let sn = workloads::socialnetwork::message_posting();
    let mut rr = 0usize;
    let placement: Vec<Vec<PlacementDecision>> = (0..9)
        .map(|node| {
            let socket = if node == 0 {
                0
            } else {
                rr += 1;
                1 + (rr - 1) % 3
            };
            vec![PlacementDecision { server: 0, socket }]
        })
        .collect();
    sim.deploy(Deployment {
        workload: sn,
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(40.0, window, &mut rng)),
    });
    let mm = workloads::functionbench::matrix_multiplication();
    let submissions: Vec<SimTime> = (0..4).map(|k| SimTime::from_secs(k as f64 * 5.0)).collect();
    sim.deploy(Deployment {
        workload: mm,
        placement: vec![vec![PlacementDecision {
            server: 0,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::Jobs(submissions),
    });
    println!("running 20 s of interfered social-network traffic, fully traced...\n");
    sim.run_until(window);
    let obs = sim.take_obs();
    let sink = obs.memory_sink().expect("recording sink");
    let spans = sink.spans();

    // ---- 1. per-category summary ----
    let mut by_cat: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_cat.entry(s.cat).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.end.since(s.start).as_millis();
    }
    let mut t = TextTable::new(vec!["category", "spans", "total ms", "mean ms"]);
    for (cat, (n, total)) in &by_cat {
        t.row(vec![
            cat.to_string(),
            n.to_string(),
            fnum(*total, 1),
            fnum(total / *n as f64, 3),
        ]);
    }
    println!("span categories\n{}", t.render());

    // ---- 2. slowest requests + span tree of the worst ----
    let mut requests: Vec<&SpanRecord> = spans.iter().filter(|s| s.cat == "request").collect();
    requests.sort_by(|a, b| {
        let (da, db) = (a.end.since(a.start), b.end.since(b.start));
        db.cmp(&da)
    });
    println!("slowest requests (of {} completed):", requests.len());
    for r in requests.iter().take(5) {
        println!(
            "  req {:>5}  {}  e2e {:.2} ms",
            r.track.pid,
            r.name,
            r.end.since(r.start).as_millis()
        );
    }
    if let Some(worst) = requests.first() {
        println!("\nspan tree of req {} (worst e2e):", worst.track.pid);
        let mut tree: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.track.pid == worst.track.pid)
            .collect();
        tree.sort_by_key(|s| (s.track.tid, s.start, std::cmp::Reverse(s.end)));
        for s in tree {
            // Lane 0 is the request root; lane n+1 is call-graph node n.
            let indent = if s.track.tid == 0 { 0 } else { 1 } + (s.cat != "task") as usize;
            println!(
                "  {}[{:>9.3} ms .. {:>9.3} ms] {:8} {}",
                "    ".repeat(indent),
                s.start.as_millis(),
                s.end.as_millis(),
                s.cat,
                s.name
            );
        }
    }

    // ---- 3. telemetry registry ----
    let telemetry = obs.telemetry.as_ref().expect("telemetry");
    print!("\ntelemetry (JSONL):\n{}", telemetry.to_jsonl());

    // ---- 4. optional Chrome trace export ----
    match out_path {
        Some(path) => {
            std::fs::write(&path, sink.chrome_trace_json()).expect("write trace");
            println!("chrome trace -> {path} (load in Perfetto / chrome://tracing)");
        }
        None => println!(
            "pass an output path to write the Chrome trace, e.g. \
             `cargo run -p bench --example trace_explorer -- out.trace.json`"
        ),
    }
}
