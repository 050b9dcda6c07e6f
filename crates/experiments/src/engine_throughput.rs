//! Engine-throughput bench (extension; not a paper figure).
//!
//! Measures the discrete-event engine's serving rate on the chaos workload
//! mix — the quick `fault_sweep` chaos point (crash 2/min, slowdown 4/min,
//! seed 42) — on the paper's 8-server testbed and on 64-, 256- and
//! 1024-server topologies whose workload mix is scaled along (same
//! per-server load). The 8-server point follows the run's `--quick` horizon;
//! the scaled points always use the quick horizon, since the topology is
//! the scaled dimension.
//!
//! The headline figure is completed requests per wall second. Events per
//! second is reported too, but it counts only the live events the engine
//! dispatches, so it is not comparable across changes to how the engine
//! schedules events; requests/s is.

use crate::fault_sweep::{chaos_run_scaled, SweepPoint};
use crate::registry::{ExperimentResult, RunOpts};
use obs::Obs;
use simcore::table::{fnum, TextTable};

/// Bench topologies as `(scale, servers)`: the paper's 8-node testbed
/// multiplied, workload mix scaled along.
pub const TOPOLOGIES: [(usize, usize); 4] = [(1, 8), (8, 64), (32, 256), (128, 1024)];

/// Chaos seed pinned for the bench (same as the CI chaos-smoke golden).
const SEED: u64 = 42;

/// Timed runs per topology; each point reports its fastest.
const REPS: usize = 3;

fn bench_point() -> SweepPoint {
    SweepPoint {
        crash_per_min: 2.0,
        slowdown_per_min: 4.0,
    }
}

/// One topology's measurement (best of `REPS` runs).
#[derive(Debug, Clone)]
pub struct TopologyPoint {
    /// Cluster size (8 × scale).
    pub servers: usize,
    /// Events dispatched by one run.
    pub events: u64,
    /// Requests completed by one run.
    pub completions: u64,
    /// Fastest wall time of one run, seconds.
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_s: f64,
    /// `completions / wall_s`.
    pub requests_per_s: f64,
}

/// Serving-rate measurement across [`TOPOLOGIES`].
#[derive(Debug, Clone)]
pub struct EngineThroughput {
    /// One point per topology, in [`TOPOLOGIES`] order.
    pub points: Vec<TopologyPoint>,
}

/// Measure [`EngineThroughput`] — once per process and mode. `repro`
/// reads it twice on a run that selects the `engine_throughput` experiment
/// (the experiment table, then the `BENCH_repro.json` section); both report
/// the one measurement.
pub fn engine_throughput(quick: bool) -> EngineThroughput {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<EngineThroughput>; 2] = [OnceLock::new(), OnceLock::new()];
    CACHE[quick as usize].get_or_init(|| measure(quick)).clone()
}

fn measure(quick: bool) -> EngineThroughput {
    let points = TOPOLOGIES
        .iter()
        .map(|&(scale, _)| measure_point(scale, quick || scale > 1))
        .collect();
    EngineThroughput { points }
}

/// Best of [`REPS`] runs of the chaos point on the testbed scaled `scale`×.
fn measure_point(scale: usize, quick: bool) -> TopologyPoint {
    let mut wall_s = f64::INFINITY;
    let (mut events, mut completions) = (0, 0);
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let (out, _) = chaos_run_scaled(
            bench_point(),
            SEED,
            quick,
            Obs::telemetry_only().with_fault_log(),
            scale,
        );
        wall_s = wall_s.min(t0.elapsed().as_secs_f64());
        events = out.events_processed;
        completions = out.report.workloads.iter().map(|w| w.completions).sum();
    }
    let wall_s = wall_s.max(1e-12);
    TopologyPoint {
        servers: 8 * scale,
        events,
        completions,
        wall_s,
        events_per_s: events as f64 / wall_s,
        requests_per_s: completions as f64 / wall_s,
    }
}

/// Entry point.
pub fn run(opts: &RunOpts) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "engine_throughput",
        "serial event-engine serving rate across cluster sizes (extension)",
    );
    let tp = engine_throughput(opts.quick);
    let mut t = TextTable::new(vec![
        "servers",
        "requests",
        "events",
        "wall s",
        "requests/s",
        "events/s",
    ]);
    for p in &tp.points {
        t.row(vec![
            p.servers.to_string(),
            p.completions.to_string(),
            p.events.to_string(),
            fnum(p.wall_s, 3),
            fnum(p.requests_per_s, 0),
            fnum(p.events_per_s, 0),
        ]);
        let n = p.servers;
        result
            .metric(format!("requests_per_s_{n}srv"), p.requests_per_s)
            .metric(format!("events_per_s_{n}srv"), p.events_per_s)
            .metric(format!("events_{n}srv"), p.events as f64);
    }
    result.table(format!(
        "serial engine on the chaos point, best of {REPS} runs, per-server \
         load held constant\n{}",
        t.render()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_topology_serves_the_scaled_load() {
        let run = |scale| {
            chaos_run_scaled(
                bench_point(),
                SEED,
                true,
                Obs::telemetry_only().with_fault_log(),
                scale,
            )
            .0
        };
        let (base, scaled) = (run(1), run(8));
        let done = |o: &crate::fault_sweep::ChaosOutcome| -> u64 {
            o.report.workloads.iter().map(|w| w.completions).sum()
        };
        assert!(done(&base) > 0);
        assert!(scaled.events_processed > base.events_processed);
        // Eight times the servers and the load; the gateway sheds much of
        // it, but more requests still complete.
        assert!(
            done(&scaled) > done(&base),
            "{} vs {}",
            done(&scaled),
            done(&base)
        );
    }

    #[test]
    fn chaos_point_matches_stale_entry_artifacts() {
        // The bench's chaos point against the engine that queued a fresh
        // PhaseEnd per re-time and skipped the superseded one on pop: its
        // report, telemetry, fault log and journal digested to the value
        // below, and re-timing in place must reproduce them bit for bit.
        // The journal is compared without `Checkpoint.pending_events`,
        // which counted the superseded entries.
        const STALE_ENTRY_OUTPUTS: u64 = 0xca06_dc56_4d5b_67c9;
        let header = crate::journal_runs::fault_sweep_spec(bench_point(), SEED, true);
        let (bytes, artifacts) =
            crate::journal_runs::rerun_from_header(&header).expect("journaled run");
        let digest = crate::journal_runs::output_digest(&artifacts, &bytes).expect("digest");
        assert_eq!(digest.combined, STALE_ENTRY_OUTPUTS, "{digest:x?}");
        // The bench runs without a journal; that run reports the same.
        let (plain, post) = chaos_run_scaled(
            bench_point(),
            SEED,
            true,
            Obs::telemetry_only().with_fault_log(),
            1,
        );
        assert_eq!(plain.report.render_json(), artifacts.report_json);
        assert_eq!(
            post.telemetry.map(|t| t.to_jsonl()),
            artifacts.telemetry_jsonl
        );
        assert_eq!(plain.faults.to_jsonl(), artifacts.faults_jsonl);
    }

    #[test]
    fn chaos_point_reports_live_events_and_rates() {
        // A measured point reports one run's live event count and
        // completions, and rates derived from its fastest wall time. The
        // stale-entry engine dispatched 133387 events on this point.
        let p = measure_point(1, true);
        let (out, _) = chaos_run_scaled(
            bench_point(),
            SEED,
            true,
            Obs::telemetry_only().with_fault_log(),
            1,
        );
        assert_eq!(p.servers, 8);
        assert_eq!(p.events, out.events_processed);
        let done: u64 = out.report.workloads.iter().map(|w| w.completions).sum();
        assert_eq!(p.completions, done);
        assert!(p.completions > 0 && p.wall_s > 0.0);
        assert_eq!(p.events_per_s, p.events as f64 / p.wall_s);
        assert_eq!(p.requests_per_s, p.completions as f64 / p.wall_s);
        assert!(p.events < 133_387, "{} events", p.events);
    }
}
