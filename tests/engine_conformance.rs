//! Serial conformance suite for the event engine.
//!
//! The engine re-times a co-runner's pending `PhaseEnd` in place and
//! cancels an aborted task's, where it used to queue a fresh `PhaseEnd` and
//! skip the superseded entry on pop. A re-timed event takes the `(at, seq)`
//! key a fresh schedule would have taken, so every output must match the
//! stale-entry engine bit for bit. The digests below were recorded from
//! that engine on journaled chaos runs, 20 seeds × fault injection off/on:
//! report, telemetry, fault log, fault summary and journal records (see
//! [`output_digest`]; the journal is digested without
//! `Checkpoint.pending_events`, which counted the superseded entries).
//!
//! Also covered: resuming torn journals (and refusing one whose checkpoints
//! counted superseded entries), and checkpoint counters against the
//! records and the report around them.

use experiments::fault_sweep::SweepPoint;
use experiments::journal_runs::{
    fault_sweep_spec, journaled_chaos_run, output_digest, replay_bytes, rerun_from_header,
    resume_bytes, truncate_bytes, CHECKPOINT_EVERY_US,
};
use obs::journal::{checkpoint_violations, read_journal, JournalEvent, JournalSink, MemoryJournal};

const QUICK: bool = true;
const FAULTS_OFF: SweepPoint = SweepPoint {
    crash_per_min: 0.0,
    slowdown_per_min: 0.0,
};
const FAULTS_ON: SweepPoint = SweepPoint {
    crash_per_min: 2.0,
    slowdown_per_min: 4.0,
};

/// Combined output digests of the stale-entry engine, seeds 0..20, faults
/// off.
const STALE_ENTRY_FAULTS_OFF: [u64; 20] = [
    0x1ae9_acd1_9ce7_9cd4,
    0x9726_62af_c4b9_68f3,
    0x1764_0ad6_afc6_8526,
    0xb71d_f385_86dc_b0bb,
    0x018d_c874_0f75_d8b5,
    0xb300_f7fb_ecc3_27c3,
    0x8341_c285_c9bd_656b,
    0xca23_f6be_d65f_4945,
    0xc4ec_ed94_090e_078f,
    0xe8f4_b25e_41f8_dc74,
    0x3124_30d6_d42b_f037,
    0xa990_f195_7844_0a11,
    0xc4d3_f880_22bf_c8f5,
    0x4588_4aba_4d33_1b8a,
    0x60ad_ce95_6b1f_9d53,
    0x74ce_983e_9b09_23d7,
    0x2285_3da1_10b1_9e21,
    0xe572_fd64_8e95_8d98,
    0x08fd_e5c4_b554_0597,
    0xdbe7_ea1d_bf61_baba,
];

/// Combined output digests of the stale-entry engine, seeds 0..20, faults
/// on.
const STALE_ENTRY_FAULTS_ON: [u64; 20] = [
    0x56a4_eed1_d4c0_fe8f,
    0x7828_7e29_9422_0cc3,
    0xcacb_f40c_6584_27ad,
    0x73df_4b27_3928_9b19,
    0x0244_4133_38bc_75a1,
    0x1969_f93f_db6b_237d,
    0x708d_cb96_0cfd_a496,
    0xbe84_bc88_e9ba_bb14,
    0x5107_18c0_09cf_ae80,
    0xb84e_0406_83c2_ffc5,
    0x34c9_c811_faaa_eaf7,
    0x19dd_7932_2d8c_aa49,
    0xb862_270b_7efa_7c54,
    0xf6a3_e7bb_e537_beee,
    0x30e4_7ce4_e51c_3f24,
    0x1a0d_82a6_8f8e_b87b,
    0x4e58_d1d5_4346_b433,
    0xfc41_33c5_f216_8dd9,
    0xfac3_4469_c7ae_d6c1,
    0x07cd_97d3_867a_3c78,
];

/// Each seed's journaled run: outputs digest to the stale-entry engine's
/// value, and the journal passes every invariant and folds back into the
/// live artifacts.
fn assert_seeds_match_stale_entry_engine(point: SweepPoint, expect: &[u64; 20]) {
    for (seed, &want) in expect.iter().enumerate() {
        let header = fault_sweep_spec(point, seed as u64, QUICK);
        let (bytes, live) = rerun_from_header(&header).expect("journaled run");
        let digest = output_digest(&live, &bytes).expect("journal decodes");
        assert_eq!(
            digest.combined, want,
            "seed {seed} point {point:?}: outputs diverged from the stale-entry engine \
             (digests {digest:x?})"
        );
        let replay = replay_bytes(&bytes).expect("replay");
        assert_eq!(replay.artifacts, live, "seed {seed}: replay diverged");
    }
}

/// 20 seeds, fault injection off: every output byte-matches the
/// stale-entry serial engine.
#[test]
fn faults_off_twenty_seeds_match_stale_entry_digests() {
    assert_seeds_match_stale_entry_engine(FAULTS_OFF, &STALE_ENTRY_FAULTS_OFF);
}

/// 20 seeds, fault injection on: crashes, slowdowns, OOM kills, cold-start
/// storms and gateway faults abort and re-time tasks, and every output
/// still byte-matches the stale-entry serial engine.
#[test]
fn faults_on_twenty_seeds_match_stale_entry_digests() {
    assert_seeds_match_stale_entry_engine(FAULTS_ON, &STALE_ENTRY_FAULTS_ON);
}

/// A torn journal resumes into the bit-identical uninterrupted journal, its
/// checkpoints (live-queue `pending_events` included) verified record for
/// record. A journal whose checkpoints counted superseded entries, as the
/// stale-entry engine wrote them, decodes but is refused at its first
/// checkpoint.
#[test]
fn torn_journal_resumes_bit_identically() {
    let header = fault_sweep_spec(FAULTS_ON, 42, QUICK);
    let (full, live) = rerun_from_header(&header).expect("journaled run");
    for frac in [0.3, 0.7] {
        let torn = truncate_bytes(&full, frac);
        let resumed = resume_bytes(&torn).expect("resume from torn tail");
        assert!(resumed.was_truncated);
        assert!(resumed.verified_checkpoints > 0, "frac {frac}");
        assert_eq!(resumed.full_journal, full, "frac {frac}");
        assert_eq!(resumed.artifacts, live);
    }

    let parsed = read_journal(&full).expect("strict parse");
    let rewrite = |extra: u64| {
        let mut j = MemoryJournal::in_memory(&parsed.header, Some(CHECKPOINT_EVERY_US));
        for r in &parsed.records {
            let mut event = r.event.clone();
            if let JournalEvent::Checkpoint(c) = &mut event {
                c.pending_events += extra;
            }
            j.record(r.at_us, &event);
        }
        j.finish();
        j.bytes().to_vec()
    };
    assert_eq!(rewrite(0), full, "re-encoding the records is canonical");
    let stale = rewrite(3);
    assert!(replay_bytes(&stale).is_ok(), "older journals still replay");
    let first_checkpoint = parsed
        .records
        .iter()
        .position(|r| matches!(r.event, JournalEvent::Checkpoint(_)))
        .expect("checkpoint records");
    let err = resume_bytes(&truncate_bytes(&stale, 0.7)).expect_err("stale checkpoints");
    assert!(
        err.contains(&format!("failed at record {first_checkpoint}:")),
        "{err}"
    );
}

/// Checkpoint counters add up: at every checkpoint the requests created
/// split exactly into settled and open ones as the journal records them,
/// each collect tick samples every server of the cluster once, and the
/// journal's totals equal the report's.
#[test]
fn checkpoints_partition_the_cluster_and_sum_to_journal_totals() {
    let run = journaled_chaos_run(FAULTS_ON, 7, QUICK, 1);
    let out = &run.outcome;
    let records = read_journal(&run.bytes).expect("strict parse").records;
    let violations = checkpoint_violations(&records);
    assert!(
        violations.is_empty(),
        "checkpoint inconsistencies:\n  {}",
        violations.join("\n  ")
    );

    let servers = out.report.utilization[0].cpu.len();
    assert_eq!(servers, 8, "the paper testbed");
    let (mut arrivals, mut settled, mut checkpoints, mut ticks, mut faults) = (0u64, 0u64, 0, 0, 0);
    for r in &records {
        match &r.event {
            JournalEvent::Arrival { .. } => arrivals += 1,
            JournalEvent::Shed { .. }
            | JournalEvent::Completed { .. }
            | JournalEvent::Failed { .. } => settled += 1,
            JournalEvent::Utilization(u) => {
                assert_eq!((u.cpu.len(), u.memory.len()), (servers, servers));
                ticks += 1;
            }
            JournalEvent::Fault { .. } => faults += 1,
            JournalEvent::Checkpoint(c) => {
                assert_eq!(c.at_us % CHECKPOINT_EVERY_US, 0, "checkpoint off cadence");
                assert!(c.requests_settled <= c.requests_created);
                checkpoints += 1;
            }
            _ => {}
        }
    }
    assert_eq!(checkpoints, 6, "60 s at one checkpoint per 10 s");
    assert_eq!(ticks, out.report.utilization.len());
    let w = &out.report.workloads;
    assert_eq!(arrivals, w.iter().map(|w| w.arrivals).sum::<u64>());
    assert_eq!(
        settled,
        w.iter()
            .map(|w| w.completions + w.shed + w.failed)
            .sum::<u64>()
    );
    assert!(faults > 0, "the chaos point injects faults");
}
