//! Observability integration: tracing must not perturb the simulation, the
//! exported Chrome trace must be well-formed and well-nested, and the
//! `--trace-dir` pipeline must land a Perfetto-loadable artifact on disk
//! that shows the Fig. 4 hotspot signature (queue-wait growth at the
//! interfered function).

use experiments::fig4::{run_condition, run_condition_with_obs, Condition};
use experiments::{all_experiments, RunOpts};
use obs::json::Json;
use obs::trace::nesting_violations;

/// One traced + one untraced run of the same interfered scenario back a
/// determinism check, a nesting check, and a Chrome-trace schema check
/// (sharing the runs keeps this suite affordable: profiling the book and
/// simulating the 20 s window dominate the cost).
#[test]
fn tracing_preserves_determinism_and_exports_well_formed_spans() {
    let mut book = experiments::corpus::ProfileBook::new();
    book.add(&workloads::socialnetwork::message_posting(), 40.0, 1, true);
    book.add(
        &workloads::functionbench::matrix_multiplication(),
        0.0,
        1,
        true,
    );
    let plain = run_condition(
        &book,
        "matrix-multiplication",
        0,
        Condition::Interfered,
        40.0,
        true,
        7,
    );
    let (observed, obs, _) = run_condition_with_obs(
        &book,
        "matrix-multiplication",
        0,
        Condition::Interfered,
        40.0,
        true,
        7,
        obs::Obs::recording(),
    );
    assert_eq!(plain, observed, "recording must not change any measurement");

    let sink = obs.memory_sink().expect("memory sink");
    assert!(!sink.spans().is_empty(), "observed run must record spans");
    assert_eq!(nesting_violations(sink.spans()), Vec::<String>::new());

    let parsed = Json::parse(&sink.chrome_trace_json()).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(events.len() > 100, "only {} events", events.len());
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
        if ph == "X" {
            complete += 1;
            for key in ["name", "cat", "ts", "dur"] {
                assert!(e.get(key).is_some(), "X event missing {key}");
            }
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        }
    }
    assert_eq!(complete, sink.spans().len());
}

#[test]
fn trace_dir_exports_perfetto_artifact_showing_queue_wait_growth() {
    let dir = std::env::temp_dir().join(format!("gsight_obs_test_{}", std::process::id()));
    let opts = RunOpts {
        quick: true,
        trace_dir: Some(dir.clone()),
        ..RunOpts::default()
    };
    let exps = all_experiments();
    let fig4 = exps.iter().find(|e| e.id == "fig4").unwrap();
    let result = (fig4.run)(&opts);

    // Both panels exported baseline + interfered traces.
    for name in [
        "fig4_a_baseline.trace.json",
        "fig4_a_interfered.trace.json",
        "fig4_b_baseline.trace.json",
        "fig4_b_interfered.trace.json",
    ] {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
        let parsed = Json::parse(&text).expect("artifact parses as JSON");
        assert!(parsed.get("traceEvents").is_some());
    }

    // The headline metrics record the hotspot: interfered victim p99 above
    // baseline, and a queue-wait p95 measured from telemetry.
    let metric = |name: &str| {
        result
            .metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert!(metric("a.victim_p99_interfered_ms") > metric("a.victim_p99_baseline_ms"));
    assert!(metric("a.queue_wait_p95_interfered_ms") > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}
