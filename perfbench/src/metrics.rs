//! Metric names and units, mirrored in `BENCHMARK.json`.

#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const WORKLOADS: [&str; 3] = ["serve_diurnal", "chaos_journal", "gsight_pipeline"];

/// End-to-end metrics, reported by every workload from untraced iterations.
pub const END_TO_END: [Metric; 3] = [m("setup_s", "s"), m("run_s", "s"), m("peak_rss_mb", "MB")];

/// Workload figures: what a user of one workload sees. Each workload fills
/// the ones it exercises and reports 0 for the rest.
pub const FIGURES: [Metric; 11] = [
    m("sim_events_per_s", "1/s"),
    m("sim_requests_per_s", "1/s"),
    m("sim_p99_ms", "ms"),
    m("availability", "ratio"),
    m("replay_records_per_s", "1/s"),
    m("profile_s", "s"),
    m("train_s", "s"),
    m("update_p50_ms", "ms"),
    m("place_p50_us", "us"),
    m("place_p99_us", "us"),
    m("pred_mape", "ratio"),
];

/// Per-layer metrics of the traced run: the layer metrics, then the
/// workload figures (taken from the untraced iterations of the same run).
pub const LAYERS: [Metric; 42] = [
    m("platform.run_s", "s"),
    m("platform.self_s", "s"),
    m("platform.ns_per_event", "ns"),
    m("platform.events", "count"),
    m("platform.events_per_request", "ratio"),
    m("experiments.corpus.book_s", "s"),
    m("experiments.corpus.generate_s", "s"),
    m("experiments.corpus.samples", "count"),
    m("sched.place.calls", "count"),
    m("sched.place.busy_s", "s"),
    m("sched.place.share", "ratio"),
    m("sched.place.accept_ratio", "ratio"),
    m("sched.predictor_calls_per_decision", "ratio"),
    m("sched.probe_p50_us", "us"),
    m("sched.probe_p99_us", "us"),
    m("sched.place_self_us", "us"),
    m("core.predict_rows_per_s", "1/s"),
    m("core.update.calls", "count"),
    m("core.update.busy_s", "s"),
    m("core.fit_rows_per_s", "1/s"),
    m("obs.journal.records", "count"),
    m("obs.journal.bytes_per_record", "B"),
    m("obs.journal.ns_per_record", "ns"),
    m("obs.journal.share", "ratio"),
    m("obs.replay.decode_s", "s"),
    m("obs.replay.check_s", "s"),
    m("platform.replay.fold_s", "s"),
    m("faults.events", "count"),
    m("platform.retries", "count"),
    m("platform.shed", "count"),
    m("trace.overhead", "ratio"),
    FIGURES[0],
    FIGURES[1],
    FIGURES[2],
    FIGURES[3],
    FIGURES[4],
    FIGURES[5],
    FIGURES[6],
    FIGURES[7],
    FIGURES[8],
    FIGURES[9],
    FIGURES[10],
];

/// Median of a sample; NaN when it is empty or holds a NaN (a failed
/// iteration), so a broken output cannot abort the report.
pub fn median(values: &[f64]) -> f64 {
    if values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    simcore::percentile(values, 50.0)
}
