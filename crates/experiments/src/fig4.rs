//! Fig. 4 — hotspot propagation (Observation 4) and restoring propagation
//! (Observation 5) — plus the shared socket-level interference harness the
//! Fig. 3(a) sweep reuses.
//!
//! Setup: all nine social-network functions on one 4-socket server, the
//! interfered function alone with the corunner on socket 0, the other eight
//! spread over sockets 1–3. Three runs per interfered function:
//!
//! * **baseline** — no corunner;
//! * **interfered** — the corunner shares the victim's socket;
//! * **isolated** — the corunner moved to the least-populated other socket
//!   (the paper's local control), which restores the victim but squeezes
//!   the functions on the destination socket instead.

use crate::corpus::ProfileBook;
use crate::registry::{ExperimentResult, RunOpts};
use cluster::ClusterConfig;
use obs::Obs;
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, Simulation};
use simcore::rng::seed_stream;
use simcore::table::{fnum, TextTable};
use simcore::{SimRng, SimTime};
use workloads::loadgen::poisson_arrivals;

const SEED: u64 = 0xF1_604;

/// Per-function results of one interference run.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationRun {
    /// p99 local latency per Fig. 2 function (index 0 = ①).
    pub p99_ms: [f64; 9],
    /// End-to-end p99.
    pub e2e_p99_ms: f64,
    /// End-to-end latency coefficient of variation.
    pub e2e_cov: f64,
    /// Mean IPC across the workload's functions.
    pub ipc: f64,
    /// Completions.
    pub completions: u64,
}

/// Which condition a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// No corunner.
    Baseline,
    /// Corunner on the victim's socket.
    Interfered,
    /// Corunner migrated to the least-populated other socket.
    Isolated,
}

/// Run one condition: social network on one 4-socket server (victim on
/// socket 0, the rest round-robin on sockets 1–3), optional corunner on
/// socket 0 (interfered) or socket 3 (isolated).
pub fn run_condition(
    book: &ProfileBook,
    corunner: &str,
    victim: usize,
    condition: Condition,
    qps: f64,
    quick: bool,
    seed: u64,
) -> PropagationRun {
    run_condition_observed(book, corunner, victim, condition, qps, quick, seed, false).0
}

/// [`run_condition`] with optional observability: when `record` is set the
/// simulation runs with [`Obs::recording`] and the collected trace +
/// telemetry come back alongside the measurements.
#[allow(clippy::too_many_arguments)]
pub fn run_condition_observed(
    book: &ProfileBook,
    corunner: &str,
    victim: usize,
    condition: Condition,
    qps: f64,
    quick: bool,
    seed: u64,
    record: bool,
) -> (PropagationRun, Obs) {
    let bundle = if record { Obs::recording() } else { Obs::off() };
    let (run, obs, _report) =
        run_condition_with_obs(book, corunner, victim, condition, qps, quick, seed, bundle);
    (run, obs)
}

/// [`run_condition`] with a caller-supplied observability bundle (journal
/// sink, Prometheus hub, full recording, …) — the variant journal-enabled
/// runs use. Also returns the raw [`platform::RunReport`] so the caller can
/// export it for replay byte-diffing. The simulation is bit-identical for
/// any bundle.
#[allow(clippy::too_many_arguments)]
pub fn run_condition_with_obs(
    book: &ProfileBook,
    corunner: &str,
    victim: usize,
    condition: Condition,
    qps: f64,
    quick: bool,
    seed: u64,
    bundle: Obs,
) -> (PropagationRun, Obs, platform::RunReport) {
    let window = SimTime::from_secs(if quick { 20.0 } else { 60.0 });
    let sn = book.get("social-network", 40.0);
    let mut config = PlatformConfig::paper_testbed(seed);
    config.cluster = ClusterConfig::homogeneous(1, cluster::ServerSpec::paper_node());
    let mut sim = Simulation::new(config);
    sim.set_obs(bundle);
    let mut rng = SimRng::new(seed ^ 0x404);

    let mut rr = 0usize;
    let placement: Vec<Vec<PlacementDecision>> = (0..9)
        .map(|node| {
            let socket = if node == victim {
                0
            } else {
                rr += 1;
                1 + (rr - 1) % 3
            };
            vec![PlacementDecision { server: 0, socket }]
        })
        .collect();
    sim.deploy(Deployment {
        workload: sn.workload.clone(),
        placement,
        arrivals: ArrivalSpec::OpenLoop(poisson_arrivals(qps, window, &mut rng)),
    });

    if condition != Condition::Baseline {
        let co = book.get(corunner, 0.0);
        let socket = match condition {
            Condition::Interfered => 0,
            // The least-populated non-victim socket is 3 (two functions).
            Condition::Isolated => 3,
            Condition::Baseline => unreachable!(),
        };
        // Re-submit the job so the corunner persists through the window.
        let jct = co.solo_jct_s.max(1.0);
        let submissions: Vec<SimTime> = (0..)
            .map(|k| SimTime::from_secs(k as f64 * (jct + 1.0)))
            .take_while(|t| *t < window)
            .collect();
        sim.deploy(Deployment {
            workload: co.workload.clone(),
            placement: vec![vec![PlacementDecision { server: 0, socket }]],
            arrivals: ArrivalSpec::Jobs(submissions),
        });
    }
    sim.run_until(window);
    let obs = sim.take_obs();
    let report = sim.into_report();
    let series = &report.workloads[0];
    // Warm-phase statistics: drop the first 20 % of each series so the
    // cold-start transient does not dominate the p99 (the paper's long
    // runs dilute cold starts naturally).
    fn warm(v: &[f64]) -> &[f64] {
        &v[v.len() / 5..]
    }
    let mut p99 = [0.0; 9];
    for (i, slot) in p99.iter_mut().enumerate() {
        *slot = simcore::percentile(warm(&series.functions[i].local_latencies_ms), 99.0);
    }
    let e2e_lats = warm(&series.e2e_latencies_ms);
    let e2e = simcore::stats::Summary::of(e2e_lats);
    let run = PropagationRun {
        p99_ms: p99,
        e2e_p99_ms: e2e.p99,
        e2e_cov: e2e.cov,
        ipc: series.mean_ipc(),
        completions: series.completions,
    };
    (run, obs, report)
}

/// Entry point: reproduces both panels (interference at ① and at ⑥).
pub fn run(opts: &RunOpts) -> ExperimentResult {
    let quick = opts.quick;
    let mut book = ProfileBook::new();
    book.add(
        &workloads::socialnetwork::message_posting(),
        40.0,
        SEED,
        quick,
    );
    book.add(
        &workloads::functionbench::matrix_multiplication(),
        0.0,
        SEED,
        quick,
    );
    let mut result = ExperimentResult::new("fig4", "hotspot propagation & restoration");
    for (panel, victim) in [
        ("(a) interference at 1:compose-post", 0usize),
        ("(b) interference at 6:compose-and-upload", 5usize),
    ] {
        let seed = seed_stream(SEED, victim as u64);
        let record = opts.observing();
        let (base, base_obs) = run_condition_observed(
            &book,
            "matrix-multiplication",
            victim,
            Condition::Baseline,
            40.0,
            quick,
            seed,
            record,
        );
        // The interfered run is the panel's payload, so it is the journaled
        // one: attach a journal sink and/or live Prometheus hub when asked.
        let tag = if victim == 0 { "a" } else { "b" };
        let mut inter_bundle = if record { Obs::recording() } else { Obs::off() };
        if let Some(hub) = &opts.prom {
            inter_bundle = inter_bundle.with_prom(hub.clone());
        }
        let journal_path = opts
            .open_journal(
                &format!("fig4_{tag}_interfered.journal"),
                &crate::journal_runs::fig4_spec(victim, 40.0, quick, seed),
                Some(crate::journal_runs::CHECKPOINT_EVERY_US),
            )
            .map(|(j, path)| {
                inter_bundle = std::mem::take(&mut inter_bundle).with_journal(Box::new(j));
                path
            });
        let (inter, inter_obs, inter_report) = run_condition_with_obs(
            &book,
            "matrix-multiplication",
            victim,
            Condition::Interfered,
            40.0,
            quick,
            seed,
            inter_bundle,
        );
        if let Some(path) = journal_path {
            result.note(format!("({tag}) interfered journal -> {}", path.display()));
            let telemetry = inter_obs
                .telemetry
                .as_ref()
                .map(|t| t.to_jsonl())
                .unwrap_or_default();
            for (suffix, contents) in [
                (".report.json", inter_report.render_json()),
                (".telemetry.jsonl", telemetry),
            ] {
                let p = path.with_file_name(format!("fig4_{tag}_interfered{suffix}"));
                if let Err(e) = std::fs::write(&p, contents) {
                    eprintln!("warning: could not write {}: {e}", p.display());
                }
            }
        }
        let iso = run_condition(
            &book,
            "matrix-multiplication",
            victim,
            Condition::Isolated,
            40.0,
            quick,
            seed,
        );
        if record {
            let tag = if victim == 0 { "a" } else { "b" };
            observe_panel(opts, &mut result, tag, &base_obs, &inter_obs);
        }
        let mut t = TextTable::new(vec![
            "fn",
            "baseline p99(ms)",
            "interfered p99(ms)",
            "isolated p99(ms)",
        ]);
        for f in 0..9 {
            t.row(vec![
                format!("{}{}", f + 1, if f == victim { "*" } else { "" }),
                fnum(base.p99_ms[f], 2),
                fnum(inter.p99_ms[f], 2),
                fnum(iso.p99_ms[f], 2),
            ]);
        }
        t.row(vec![
            "e2e".to_string(),
            fnum(base.e2e_p99_ms, 1),
            fnum(inter.e2e_p99_ms, 1),
            fnum(iso.e2e_p99_ms, 1),
        ]);
        result.table(format!("{panel}\n{}", t.render()));
        result.note(format!(
            "{panel}: victim p99 {:.2} -> {:.2} (interfered) -> {:.2} (isolated)",
            base.p99_ms[victim], inter.p99_ms[victim], iso.p99_ms[victim]
        ));
        let tag = if victim == 0 { "a" } else { "b" };
        result
            .metric(format!("{tag}.victim_p99_baseline_ms"), base.p99_ms[victim])
            .metric(
                format!("{tag}.victim_p99_interfered_ms"),
                inter.p99_ms[victim],
            )
            .metric(format!("{tag}.victim_p99_isolated_ms"), iso.p99_ms[victim])
            .metric(format!("{tag}.e2e_p99_interfered_ms"), inter.e2e_p99_ms);
    }
    result.note(
        "paper shape: interference raises the victim's local p99, lowers the \
         other functions' (throttled arrivals); isolation restores the victim",
    );
    result
}

/// Export the recorded traces/telemetry of one panel and note the hotspot
/// signature: queue-wait spans lengthen at the interfered function, which is
/// directly visible on that function's lane in Perfetto.
fn observe_panel(
    opts: &RunOpts,
    result: &mut ExperimentResult,
    tag: &str,
    base: &Obs,
    inter: &Obs,
) {
    for (cond, obs) in [("baseline", base), ("interfered", inter)] {
        if let Some(sink) = obs.memory_sink() {
            if let Some(path) = opts.write_artifact(
                &format!("fig4_{tag}_{cond}.trace.json"),
                &sink.chrome_trace_json(),
            ) {
                result.note(format!(
                    "({tag}) {cond} trace -> {} (open in Perfetto / chrome://tracing)",
                    path.display()
                ));
            }
        }
        if let Some(t) = obs.telemetry.as_ref() {
            opts.write_artifact(&format!("fig4_{tag}_{cond}.telemetry.jsonl"), &t.to_jsonl());
        }
    }
    let wait_p95 = |o: &Obs| {
        o.telemetry
            .as_ref()
            .and_then(|t| t.histogram("instance.queue_wait_ms"))
            .map(|h| h.quantile(0.95))
    };
    if let (Some(b), Some(i)) = (wait_p95(base), wait_p95(inter)) {
        result.note(format!(
            "({tag}) queue-wait p95: {b:.2} ms baseline -> {i:.2} ms interfered"
        ));
        result.metric(format!("{tag}.queue_wait_p95_interfered_ms"), i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> ProfileBook {
        let mut b = ProfileBook::new();
        b.add(&workloads::socialnetwork::message_posting(), 40.0, 1, true);
        b.add(
            &workloads::functionbench::matrix_multiplication(),
            0.0,
            1,
            true,
        );
        b
    }

    #[test]
    fn interference_raises_victim_latency() {
        let b = book();
        let base = run_condition(
            &b,
            "matrix-multiplication",
            5,
            Condition::Baseline,
            40.0,
            true,
            7,
        );
        let inter = run_condition(
            &b,
            "matrix-multiplication",
            5,
            Condition::Interfered,
            40.0,
            true,
            7,
        );
        assert!(
            inter.p99_ms[5] > 1.2 * base.p99_ms[5],
            "victim p99 {} vs baseline {}",
            inter.p99_ms[5],
            base.p99_ms[5]
        );
    }

    #[test]
    fn isolation_restores_victim() {
        let b = book();
        let inter = run_condition(
            &b,
            "matrix-multiplication",
            5,
            Condition::Interfered,
            40.0,
            true,
            9,
        );
        let iso = run_condition(
            &b,
            "matrix-multiplication",
            5,
            Condition::Isolated,
            40.0,
            true,
            9,
        );
        assert!(
            iso.p99_ms[5] < inter.p99_ms[5],
            "isolated {} should be below interfered {}",
            iso.p99_ms[5],
            inter.p99_ms[5]
        );
    }

    #[test]
    fn all_functions_complete() {
        let b = book();
        let r = run_condition(
            &b,
            "matrix-multiplication",
            0,
            Condition::Interfered,
            40.0,
            true,
            11,
        );
        assert!(r.completions > 100);
        assert!(r.p99_ms.iter().all(|&v| v.is_finite() && v > 0.0));
    }
}
