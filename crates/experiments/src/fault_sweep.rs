//! Chaos sweep — availability and tail latency under seeded fault
//! injection (extension; not a paper figure).
//!
//! The paper's evaluation assumes a healthy cluster. This experiment runs
//! the same serverless mix (social network + e-commerce LS services plus a
//! `dd` job stream) while the [`faults`] layer injects server crashes,
//! transient slowdowns, OOM-kills, cold-start storms and gateway
//! drops/jitter at swept rates, with the platform's degradation policy
//! (bounded exponential-backoff retries, load shedding) switched on.
//!
//! Reported per sweep point: availability (completed / settled requests),
//! aggregate LS p99 latency and its slowdown relative to the fault-free
//! point, plus the per-kind fault-event counts. Every fault draw derives
//! from one `u64` seed (`repro fault_sweep --seed N`), so a storyline is
//! exactly replayable: two runs with the same seed produce bit-identical
//! fault logs — the property the CI chaos-smoke job diffs against a golden
//! summary.

use crate::registry::{ExperimentResult, RunOpts};
use baselines::WorstFit;
use faults::FaultConfig;
use obs::FaultLog;
use platform::engine::ScaleConfig;
use platform::report::RunReport;
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, ResilienceConfig, Simulation};
use simcore::rng::seed_stream;
use simcore::table::{fnum, fpct, TextTable};
use simcore::SimTime;
use workloads::loadgen::uniform_arrivals;

/// Default chaos seed (override with `repro fault_sweep --seed N`).
pub const DEFAULT_SEED: u64 = 0xC4A05;

/// One sweep point: discrete-fault rates in events per simulated minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Server crashes per minute.
    pub crash_per_min: f64,
    /// Transient slowdowns per minute.
    pub slowdown_per_min: f64,
}

/// Everything one chaos run produces.
pub struct ChaosOutcome {
    /// Platform report (per-workload series carry shed/failed/retries).
    pub report: RunReport,
    /// Seeded fault log (every injected fault + recovery + retry).
    pub faults: FaultLog,
    /// Simulation events dispatched over the run.
    pub events_processed: u64,
}

/// Fault configuration for one sweep point: crash and slowdown rates are
/// swept; the secondary fault classes scale along so a "more hostile"
/// point is hostile in every dimension.
pub fn sweep_fault_config(point: SweepPoint, seed: u64) -> FaultConfig {
    let chaotic = point.crash_per_min > 0.0 || point.slowdown_per_min > 0.0;
    FaultConfig {
        seed: seed_stream(seed, 0xFA),
        server_crash_rate_per_min: point.crash_per_min,
        crash_recovery: SimTime::from_secs(10.0),
        slowdown_rate_per_min: point.slowdown_per_min,
        slowdown_factor: 3.0,
        slowdown_duration: SimTime::from_secs(5.0),
        oom_rate_per_min: point.slowdown_per_min * 0.5,
        cold_storm_rate_per_min: point.crash_per_min * 0.5,
        cold_storm_duration: SimTime::from_secs(3.0),
        gateway_drop_prob: if chaotic { 0.002 } else { 0.0 },
        gateway_jitter_max: if chaotic {
            SimTime::from_micros(200)
        } else {
            SimTime::ZERO
        },
        ..FaultConfig::off()
    }
}

/// Run the chaos workload mix at one sweep point. Fully deterministic in
/// `(point, seed, quick)`.
pub fn chaos_run(point: SweepPoint, seed: u64, quick: bool) -> ChaosOutcome {
    chaos_run_scaled(
        point,
        seed,
        quick,
        obs::Obs::telemetry_only().with_fault_log(),
        1,
    )
    .0
}

/// [`chaos_run`] with a caller-supplied observability bundle (telemetry,
/// fault log, journal sink, …) on a topology `scale` that multiplies the paper's
/// 8-node testbed and its workload mix proportionally — `scale` 8 is a
/// 64-server cluster fed 8× the request rate and 8× the background-job
/// cadence, so per-server load (and thus the scheduling regime) matches
/// the base point; `scale` 1 is the testbed itself. The simulation is
/// bit-identical for any bundle — observability is strictly write-only.
/// Returns the outcome plus the post-run bundle (fault log already moved
/// into the outcome).
pub fn chaos_run_scaled(
    point: SweepPoint,
    seed: u64,
    quick: bool,
    bundle: obs::Obs,
    scale: usize,
) -> (ChaosOutcome, obs::Obs) {
    assert!(scale >= 1, "need at least the base topology");
    let horizon = SimTime::from_secs(if quick { 60.0 } else { 300.0 });
    let mut config = PlatformConfig::paper_testbed(seed);
    if scale > 1 {
        config.cluster =
            cluster::ClusterConfig::homogeneous(8 * scale, cluster::ServerSpec::paper_node());
    }
    let mut sim = Simulation::new(config);
    sim.set_obs(bundle);
    let n = sim.servers().len();

    // LS services, spread round-robin; the autoscaler (Worst Fit) handles
    // scale-out and crash re-warms.
    for (workload, rps) in [
        (
            workloads::socialnetwork::message_posting(),
            30.0 * scale as f64,
        ),
        (workloads::ecommerce::browse_and_buy(), 20.0 * scale as f64),
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
            arrivals: ArrivalSpec::OpenLoop(uniform_arrivals(rps, horizon)),
        });
    }
    // BG job stream; cadence scales with the topology so the batch-vs-LS
    // interference mix per server stays put.
    let dd = workloads::functionbench::dd();
    let base_period = if quick { 20.0 } else { 30.0 };
    let period = base_period / scale as f64;
    let submissions: Vec<SimTime> = (0..)
        .map(|k| SimTime::from_secs(5.0 + k as f64 * period))
        .take_while(|t| *t < horizon)
        .collect();
    sim.deploy(Deployment {
        workload: dd,
        placement: vec![vec![PlacementDecision {
            server: n - 1,
            socket: 0,
        }]],
        arrivals: ArrivalSpec::Jobs(submissions),
    });

    sim.set_placer(
        Box::new(WorstFit),
        ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: 24,
        },
    );
    sim.set_resilience(ResilienceConfig {
        request_timeout: None,
        max_retries: 3,
        backoff_base: SimTime::from_millis(200.0),
        backoff_jitter: 0.5,
        shed_queue_depth: Some(256),
    });
    sim.set_faults(sweep_fault_config(point, seed));
    sim.run_until(horizon);

    let mut bundle = sim.take_obs();
    let faults = bundle.faults.take().unwrap_or_default();
    let events_processed = sim.events_processed();
    (
        ChaosOutcome {
            report: sim.into_report(),
            faults,
            events_processed,
        },
        bundle,
    )
}

/// Aggregate settled-request counters of one report.
struct Settled {
    arrivals: u64,
    completions: u64,
    shed: u64,
    failed: u64,
    retries: u64,
}

fn settle(report: &RunReport) -> Settled {
    let mut s = Settled {
        arrivals: 0,
        completions: 0,
        shed: 0,
        failed: 0,
        retries: 0,
    };
    for w in &report.workloads {
        s.arrivals += w.arrivals;
        s.completions += w.completions;
        s.shed += w.shed;
        s.failed += w.failed;
        s.retries += w.retries;
    }
    s
}

fn availability(s: &Settled) -> f64 {
    let settled = s.completions + s.shed + s.failed;
    if settled == 0 {
        f64::NAN
    } else {
        s.completions as f64 / settled as f64
    }
}

/// Aggregate p99 end-to-end latency across every workload (ms).
fn p99_ms(report: &RunReport) -> f64 {
    let all: Vec<f64> = report
        .workloads
        .iter()
        .flat_map(|w| w.e2e_latencies_ms.iter().copied())
        .collect();
    if all.is_empty() {
        f64::NAN
    } else {
        // `Cdf` takes the already-owned vec and sorts in place, where
        // `simcore::percentile` would clone the whole sample set again.
        simcore::Cdf::new(all).percentile(99.0)
    }
}

/// Golden-diffable summary of one sweep point: integer counters only (no
/// floats beyond the sweep rates themselves), so a byte-for-byte diff
/// against a checked-in file is a sound determinism check.
fn point_summary(point: SweepPoint, s: &Settled, faults: &FaultLog) -> String {
    let mut out = format!(
        "[crash={}/min slowdown={}/min]\n\
         arrivals={} completions={} shed={} failed={} retries={}\n",
        point.crash_per_min,
        point.slowdown_per_min,
        s.arrivals,
        s.completions,
        s.shed,
        s.failed,
        s.retries
    );
    let counts = faults.summary();
    if counts.is_empty() {
        out.push_str("(no fault events)\n");
    } else {
        out.push_str(&counts);
    }
    out
}

/// The sweep grid.
pub fn sweep_points(quick: bool) -> Vec<SweepPoint> {
    let rates: &[(f64, f64)] = if quick {
        &[(0.0, 0.0), (2.0, 4.0), (6.0, 12.0)]
    } else {
        &[(0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)]
    };
    rates
        .iter()
        .map(|&(c, s)| SweepPoint {
            crash_per_min: c,
            slowdown_per_min: s,
        })
        .collect()
}

/// Entry point.
pub fn run(opts: &RunOpts) -> ExperimentResult {
    let seed = opts.seed.unwrap_or(DEFAULT_SEED);
    let points = sweep_points(opts.quick);
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "chaos sweep: availability & p99 under seeded fault injection (extension)",
    );
    let mut t = TextTable::new(vec![
        "crash/min",
        "slowdown/min",
        "arrivals",
        "availability",
        "failed",
        "shed",
        "retries",
        "p99 ms",
        "p99 slowdown",
        "fault events",
    ]);
    let mut baseline_p99 = f64::NAN;
    let mut summary = format!(
        "fault_sweep seed={seed} mode={}\n",
        if opts.quick { "quick" } else { "full" }
    );
    for (i, &point) in points.iter().enumerate() {
        // Build the observability bundle: telemetry + fault log always (as
        // before), plus an event journal when asked. Neither perturbs the
        // simulation.
        let mut bundle = obs::Obs::telemetry_only().with_fault_log();
        let journal_path = opts
            .open_journal(
                &format!("fault_sweep_p{i}.journal"),
                &crate::journal_runs::fault_sweep_spec(point, seed, opts.quick),
                Some(crate::journal_runs::CHECKPOINT_EVERY_US),
            )
            .map(|(j, path)| {
                bundle = std::mem::take(&mut bundle).with_journal(Box::new(j));
                path
            });
        let (out, post) = chaos_run_scaled(point, seed, opts.quick, bundle, 1);
        if let Some(path) = journal_path {
            result.note(format!("journal -> {}", path.display()));
            // Live-run artifacts next to the journal, so `repro replay` can
            // byte-diff its reconstruction against them.
            let stem = format!("fault_sweep_p{i}");
            let telemetry = post
                .telemetry
                .as_ref()
                .map(|t| t.to_jsonl())
                .unwrap_or_default();
            for (suffix, contents) in [
                (".report.json", out.report.render_json()),
                (".telemetry.jsonl", telemetry),
                (".faults.jsonl", out.faults.to_jsonl()),
                (".faults.summary.txt", out.faults.summary()),
            ] {
                let p = path.with_file_name(format!("{stem}{suffix}"));
                if let Err(e) = std::fs::write(&p, contents) {
                    eprintln!("warning: could not write {}: {e}", p.display());
                }
            }
        }
        let s = settle(&out.report);
        let av = availability(&s);
        let p99 = p99_ms(&out.report);
        if i == 0 {
            baseline_p99 = p99;
        }
        let p99_slowdown = p99 / baseline_p99;
        let events: usize = out.faults.counts().values().sum();
        t.row(vec![
            fnum(point.crash_per_min, 1),
            fnum(point.slowdown_per_min, 1),
            s.arrivals.to_string(),
            fpct(av),
            s.failed.to_string(),
            s.shed.to_string(),
            s.retries.to_string(),
            fnum(p99, 1),
            fnum(p99_slowdown, 2),
            events.to_string(),
        ]);
        summary.push_str(&point_summary(point, &s, &out.faults));
        result
            .metric(format!("p{i}_crash_per_min"), point.crash_per_min)
            .metric(format!("p{i}_availability"), av)
            .metric(format!("p{i}_p99_slowdown"), p99_slowdown);
        if let Some(path) = opts.write_artifact(
            &format!("fault_sweep_p{i}.faults.jsonl"),
            &out.faults.to_jsonl(),
        ) {
            result.note(format!("fault log -> {}", path.display()));
        }
    }
    result.table(t.render());
    journal_economics(&mut result);
    result.note(format!(
        "all fault draws derive from seed {seed}; identical seeds replay \
         bit-identical fault logs (rerun with --seed N for a new storyline)"
    ));
    if let Some(path) = opts.write_artifact("fault_sweep.summary.txt", &summary) {
        result.note(format!("golden-diffable summary -> {}", path.display()));
    }
    result
}

/// Measure the journal's write overhead and replay speedup
/// ([`crate::journal_runs::journal_bench`], which asserts the overhead
/// budget) and record them as one table and the `journal_*` metrics.
fn journal_economics(result: &mut ExperimentResult) {
    let jb = crate::journal_runs::journal_bench();
    let mut t = TextTable::new(vec![
        "records",
        "checkpoints",
        "bytes",
        "off s",
        "on s",
        "write overhead",
        "median pair",
        "budget",
        "replay s",
        "replay speedup",
        "bit-identical",
    ]);
    t.row(vec![
        jb.records.to_string(),
        jb.checkpoints.to_string(),
        jb.journal_bytes.to_string(),
        fnum(jb.baseline_wall_s, 3),
        fnum(jb.journaled_wall_s, 3),
        format!("{:.1}%", jb.write_overhead_pct),
        format!("{:.1}%", jb.write_overhead_median_pct),
        format!("{:.0}%", jb.write_overhead_budget_pct),
        fnum(jb.replay_wall_s, 3),
        format!("{:.1}x", jb.replay_speedup),
        jb.bit_identical.to_string(),
    ]);
    result.table(format!(
        "journal economics on the full-length chaos point at a pinned seed: \
         fastest journaling-off and journaling-on runs, write overhead of the \
         quietest and of the median pair, replay by fold against re-simulation\n{}",
        t.render()
    ));
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    result
        .metric("journal_bytes", jb.journal_bytes as f64)
        .metric("journal_records", jb.records as f64)
        .metric("journal_checkpoints", jb.checkpoints as f64)
        .metric("journal_write_overhead_pct", jb.write_overhead_pct)
        .metric(
            "journal_write_overhead_median_pct",
            jb.write_overhead_median_pct,
        )
        .metric("journal_within_budget", flag(jb.within_budget))
        .metric("journal_replay_speedup", jb.replay_speedup)
        .metric("journal_bit_identical", flag(jb.bit_identical));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_point_is_fully_available() {
        let out = chaos_run(
            SweepPoint {
                crash_per_min: 0.0,
                slowdown_per_min: 0.0,
            },
            7,
            true,
        );
        let s = settle(&out.report);
        assert!(s.arrivals > 0);
        assert_eq!(s.failed, 0);
        assert_eq!(s.shed, 0);
        assert!(out.faults.records().is_empty(), "no faults at zero rates");
        assert!((availability(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaotic_point_injects_and_replays_identically() {
        let point = SweepPoint {
            crash_per_min: 4.0,
            slowdown_per_min: 8.0,
        };
        let a = chaos_run(point, 11, true);
        assert!(
            !a.faults.records().is_empty(),
            "faults must fire at these rates"
        );
        let s = settle(&a.report);
        assert!(
            s.completions > 0,
            "the mix must keep completing under faults"
        );
        // Same seed → bit-identical fault log and report.
        let b = chaos_run(point, 11, true);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.report, b.report);
    }
}
