//! Property tests for the run journal: the TLA-derived ordering invariants
//! must hold on every journal the engine writes, replay must reconstruct
//! the live artifacts byte-for-byte, resume must complete a torn journal
//! bit-identically, and attaching a journal must never perturb the
//! simulation — across many seeds, with faults both on and off.

use experiments::fault_sweep::{chaos_run, SweepPoint};
use experiments::journal_runs::{
    fault_sweep_spec, journaled_chaos_run, replay_bytes, rerun_from_header, resume_bytes,
    truncate_bytes,
};
use obs::journal::{check_invariants, read_journal, JournalEvent, JournalRecord};
use obs::Telemetry;
use platform::replay::Fold;
use platform::RunReport;

const QUICK: bool = true;
const FAULTS_OFF: SweepPoint = SweepPoint {
    crash_per_min: 0.0,
    slowdown_per_min: 0.0,
};
const FAULTS_ON: SweepPoint = SweepPoint {
    crash_per_min: 2.0,
    slowdown_per_min: 4.0,
};

/// The telemetry keys the journal fold updates, one-to-one with an event.
const PAIRED_KEYS: &[&str] = &[
    "autoscaler.rewarms",
    "autoscaler.scale_outs",
    "function.local_ms",
    "functions.completions",
    "gateway.forward_ms",
    "gateway.forwards",
    "instances.cold_starts",
    "request.e2e_ms",
    "requests.arrivals",
    "requests.completions",
    "requests.failures",
    "requests.retries",
    "requests.shed",
];

/// The JSONL line of metric `key`, if the snapshot has one.
fn metric_line<'a>(jsonl: &'a str, key: &str) -> Option<&'a str> {
    let prefix = format!("{{\"name\":\"{key}\",");
    jsonl.lines().find(|l| l.starts_with(&prefix))
}

/// Fold the records into a fresh telemetry registry and check every paired
/// key renders exactly as in the run's journaled telemetry snapshot.
fn assert_paired_telemetry_matches(records: &[JournalRecord], context: &str) {
    let mut report = RunReport::default();
    let mut telemetry = Telemetry::new();
    let mut fold = Fold {
        report: &mut report,
        faults: None,
        telemetry: Some(&mut telemetry),
    };
    let mut snapshot = None;
    for rec in records {
        fold.apply(rec.at_us, &rec.event).expect("fold");
        if let JournalEvent::TelemetrySnapshot { jsonl } = &rec.event {
            snapshot = Some(jsonl.as_str());
        }
    }
    let snapshot = snapshot.expect("journaled telemetry snapshot");
    let folded = telemetry.to_jsonl();
    for key in PAIRED_KEYS {
        assert_eq!(
            metric_line(&folded, key),
            metric_line(snapshot, key),
            "{context}: folded telemetry {key} differs from the live snapshot"
        );
    }
}

/// 20 seeds x {faults off, faults on}: every journal parses strictly,
/// satisfies all ordering invariants, carries checkpoints, and folds back
/// into artifacts that byte-match the live run that wrote it — the paired
/// telemetry counters included.
#[test]
fn journal_invariants_and_replay_hold_across_twenty_seeds() {
    for seed in 0..20u64 {
        for point in [FAULTS_OFF, FAULTS_ON] {
            let header = fault_sweep_spec(point, seed, QUICK);
            let (bytes, live) = rerun_from_header(&header).expect("journaled run");

            let parsed = read_journal(&bytes).expect("strict parse");
            assert!(!parsed.records.is_empty(), "seed {seed}: empty journal");
            let violations = check_invariants(&parsed.records);
            assert!(
                violations.is_empty(),
                "seed {seed} point {point:?}: ordering invariants violated:\n  {}",
                violations.join("\n  ")
            );
            let checkpoints = parsed
                .records
                .iter()
                .filter(|r| matches!(r.event, JournalEvent::Checkpoint(_)))
                .count();
            assert!(checkpoints > 0, "seed {seed}: no checkpoint records");

            let replay = replay_bytes(&bytes).expect("replay");
            assert_eq!(
                replay.artifacts, live,
                "seed {seed} point {point:?}: replayed artifacts differ from live run"
            );
            assert_eq!(replay.checkpoints, checkpoints);
            assert_paired_telemetry_matches(
                &parsed.records,
                &format!("seed {seed} point {point:?}"),
            );
        }
    }
}

/// Fault events appear in the journal exactly when faults are injected:
/// none at the zero point, some at the chaotic point.
#[test]
fn fault_records_track_the_fault_regime() {
    let seed = 11u64;
    for (point, expect_faults) in [(FAULTS_OFF, false), (FAULTS_ON, true)] {
        let (bytes, _) = rerun_from_header(&fault_sweep_spec(point, seed, QUICK)).unwrap();
        let parsed = read_journal(&bytes).unwrap();
        let faults = parsed
            .records
            .iter()
            .filter(|r| matches!(r.event, JournalEvent::Fault { .. }))
            .count();
        assert_eq!(
            faults > 0,
            expect_faults,
            "point {point:?}: {faults} fault records"
        );
    }
}

/// Resume from a torn tail reproduces the uninterrupted journal and its
/// artifacts bit-identically, at several seeds and truncation points.
#[test]
fn resume_is_bit_identical_across_seeds_and_cut_points() {
    for seed in [3u64, 9, 17] {
        let header = fault_sweep_spec(FAULTS_ON, seed, QUICK);
        let (full, live) = rerun_from_header(&header).expect("journaled run");
        for frac in [0.25, 0.6, 0.95] {
            let torn = truncate_bytes(&full, frac);
            assert!(torn.len() < full.len());
            let resumed =
                resume_bytes(&torn).unwrap_or_else(|e| panic!("seed {seed} frac {frac}: {e}"));
            assert!(resumed.was_truncated);
            assert!(resumed.verified_records <= resumed.total_records);
            assert_eq!(
                resumed.full_journal, full,
                "seed {seed} frac {frac}: resumed journal is not byte-identical"
            );
            assert_eq!(resumed.artifacts, live);
        }
    }
}

/// Resuming an already-complete journal is a no-op that still verifies
/// every record.
#[test]
fn resume_of_complete_journal_verifies_everything() {
    let (full, live) = rerun_from_header(&fault_sweep_spec(FAULTS_ON, 5, QUICK)).unwrap();
    let resumed = resume_bytes(&full).expect("resume of complete journal");
    assert!(!resumed.was_truncated);
    assert_eq!(resumed.verified_records, resumed.total_records);
    assert_eq!(resumed.full_journal, full);
    assert_eq!(resumed.artifacts, live);
}

/// Journals of the scaled topologies (16, 32 and 64 servers, the workload
/// mix scaled along) satisfy the same ordering invariants and checkpoint
/// counters as the testbed's, and fold back into their own run's report
/// and fault log.
#[test]
fn scaled_topology_journals_satisfy_invariants_and_replay() {
    let seed = 13u64;
    for scale in [2usize, 4, 8] {
        let run = journaled_chaos_run(FAULTS_ON, seed, QUICK, scale);
        let parsed = read_journal(&run.bytes).expect("strict parse");
        let violations = check_invariants(&parsed.records);
        assert!(
            violations.is_empty(),
            "{}-server journal violates ordering invariants:\n  {}",
            8 * scale,
            violations.join("\n  ")
        );
        // `replay_bytes` also checks the checkpoint counters.
        let replay = replay_bytes(&run.bytes).expect("replay");
        assert_eq!(
            replay.artifacts.report_json,
            run.artifacts.report_json,
            "{}-server journal must fold back into its own run's report",
            8 * scale
        );
        assert_eq!(replay.artifacts.faults_jsonl, run.artifacts.faults_jsonl);
    }
}

/// Attaching a journal sink must not perturb the simulation: the journaled
/// run's report and fault log byte-match a plain run at the same seed.
#[test]
fn journaling_does_not_perturb_the_simulation() {
    for seed in [0u64, 7, 42] {
        let plain = chaos_run(FAULTS_ON, seed, QUICK);
        let (_, journaled) = rerun_from_header(&fault_sweep_spec(FAULTS_ON, seed, QUICK)).unwrap();
        assert_eq!(
            plain.report.render_json(),
            journaled.report_json,
            "seed {seed}: journaling changed the run report"
        );
        assert_eq!(plain.faults.to_jsonl(), journaled.faults_jsonl);
        assert_eq!(plain.faults.summary(), journaled.fault_summary);
    }
}
