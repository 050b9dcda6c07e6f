//! Guards on the workloads themselves: none may silently measure the shed
//! path, every check must pass, and the metric tables must match
//! `BENCHMARK.json`. Sizes are printed for the README
//! (`cargo test --release -- --nocapture`).

use crate::gsight_pipeline::Pipeline;
use crate::metrics::{END_TO_END, LAYERS};
use crate::serve::{Serve, CHAOS_AVAILABILITY, SERVE_MIN_AVAILABILITY};
use crate::{Iteration, Workload};
use obs::json::Json;

const SEED: u64 = 1;

fn traced_iteration<W: Workload>(w: &W) -> Iteration {
    let it = w.iterate(w.setup(true), true);
    assert!(
        it.errors.is_empty(),
        "output checks failed: {:?}",
        it.errors
    );
    it
}

/// A reported value; like the benchmark's output, 0 when the workload does
/// not exercise the metric.
fn value(it: &Iteration, name: &str) -> f64 {
    it.figures
        .iter()
        .chain(&it.layers)
        .find(|(n, _)| *n == name)
        .map_or(0.0, |p| p.1)
}

fn sim_sizes(name: &str, it: &Iteration) {
    let events = value(it, "platform.events");
    let requests = events / value(it, "platform.events_per_request");
    println!(
        "{name}: {events} events, {requests:.0} completed requests, {} journal records, \
         availability {:.4}",
        value(it, "obs.journal.records"),
        value(it, "availability")
    );
    assert!(events > 1e6, "{name} must keep the engine busy");
    assert!(
        requests > 4e4,
        "{name} must serve tens of thousands of requests"
    );
}

#[test]
fn serve_diurnal_is_fully_available() {
    let it = traced_iteration(&Serve::diurnal(SEED));
    sim_sizes("serve_diurnal", &it);
    assert!(value(&it, "availability") >= SERVE_MIN_AVAILABILITY);
    assert_eq!(value(&it, "platform.shed"), 0.0);
    assert_eq!(value(&it, "faults.events"), 0.0);
    assert_eq!(value(&it, "obs.journal.records"), 0.0);
}

#[test]
fn chaos_journal_stays_in_its_availability_band() {
    let it = traced_iteration(&Serve::chaos(SEED));
    sim_sizes("chaos_journal", &it);
    let (lo, hi) = CHAOS_AVAILABILITY;
    let availability = value(&it, "availability");
    assert!(
        (lo..=hi).contains(&availability),
        "availability {availability}"
    );
    assert!(value(&it, "faults.events") > 0.0);
    assert!(value(&it, "platform.retries") > 0.0);
    assert!(value(&it, "obs.journal.records") > 1e5);
}

#[test]
fn gsight_pipeline_decides_and_predicts() {
    let it = traced_iteration(&Pipeline::new(SEED));
    let decisions = value(&it, "sched.place.calls");
    let accept = value(&it, "sched.place.accept_ratio");
    println!(
        "gsight_pipeline: {} corpus samples, {} updates, {decisions} decisions \
         (accept ratio {accept:.4}, {:.2} predictor calls each), MAPE {:.4}",
        value(&it, "experiments.corpus.samples"),
        value(&it, "core.update.calls"),
        value(&it, "sched.predictor_calls_per_decision"),
        value(&it, "pred_mape"),
    );
    assert_eq!(decisions, 5000.0);
    // Episodes end on refusals; both must occur.
    assert!(accept > 0.5 && accept < 1.0, "accept ratio {accept}");
    assert!(value(&it, "sched.predictor_calls_per_decision") >= 1.0);
}

/// A seed on which SLAs set as shares of the solo IPC lay below the
/// predicted IPC of an episode's start, so every placement was refused.
#[test]
fn gsight_pipeline_accepts_placements_on_every_seed() {
    let it = traced_iteration(&Pipeline::new(139_031_979));
    let accept = value(&it, "sched.place.accept_ratio");
    assert!(accept > 0.5 && accept < 1.0, "accept ratio {accept}");
}

#[test]
fn same_seed_repeats_bit_for_bit() {
    let w = Serve::chaos(SEED);
    let a = w.iterate(w.setup(false), false);
    let b = w.iterate(w.setup(true), true);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "tracing must not perturb outputs"
    );
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &LAYERS[..])] {
        let declared: Vec<(String, String)> = json
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = table
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
    }
}
