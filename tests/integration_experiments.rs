//! Experiment-harness integration: the registry covers every paper
//! artifact, and representative experiments run end-to-end in quick mode
//! producing non-degenerate tables.
//!
//! (The heavier experiments — fig3/fig9/fig10/fig11/fig13 — are exercised
//! by their own module tests; re-running all of them here would double the
//! suite's cost for no extra coverage.)

use experiments::{all_experiments, ExperimentResult, RunOpts};

#[test]
fn registry_covers_every_paper_artifact() {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    for expected in [
        "fig3", "fig4", "fig5", "fig7", "table3", "fig8", "fig9", "fig10", "fig13", "fig11",
        "fig14",
    ] {
        assert!(ids.contains(&expected), "missing experiment {expected}");
    }
}

fn assert_result_shape(r: &ExperimentResult, min_tables: usize) {
    assert!(!r.id.is_empty());
    assert!(
        r.tables.len() >= min_tables,
        "{}: expected >= {min_tables} tables, got {}",
        r.id,
        r.tables.len()
    );
    for t in &r.tables {
        assert!(t.lines().count() >= 3, "{}: table too small:\n{t}", r.id);
    }
    let rendered = r.render();
    assert!(rendered.contains(r.id));
}

#[test]
fn table3_quick_run_produces_full_table() {
    let exps = all_experiments();
    let e = exps.iter().find(|e| e.id == "table3").unwrap();
    let r = (e.run)(&RunOpts::quick());
    assert_result_shape(&r, 1);
    // All 19 candidate metrics appear.
    assert!(r.tables[0].lines().count() >= 20);
    assert!(r.tables[0].contains("IPC"));
    assert!(r.tables[0].contains("Disk IO"));
}

#[test]
fn fig8_quick_run_produces_importances() {
    let exps = all_experiments();
    let e = exps.iter().find(|e| e.id == "fig8").unwrap();
    let r = (e.run)(&RunOpts::quick());
    assert_result_shape(&r, 1);
    assert!(r.tables[0].lines().count() >= 17, "16 metrics + header");
}

#[test]
fn fig14_quick_run_measures_overheads() {
    let exps = all_experiments();
    let e = exps.iter().find(|e| e.id == "fig14").unwrap();
    let r = (e.run)(&RunOpts::quick());
    assert_result_shape(&r, 2);
    let joined = r.notes.join("\n");
    assert!(joined.contains("inference"), "notes: {joined}");
    assert!(joined.contains("instance starting"), "notes: {joined}");
    // The metrics CI reads from `BENCH_repro.json`: a renamed or missing
    // one fails here too, not only in CI.
    let metric = |key: &str| -> f64 {
        let v = r.metrics.iter().find(|(k, _)| k == key);
        v.unwrap_or_else(|| panic!("fig14 has no metric {key}")).1
    };
    for key in [
        "seq_rows_per_s",
        "batch_rows_per_s",
        "batch_speedup",
        "train_rows_per_s_reference",
        "train_rows_per_s_kernel",
        "train_kernel_speedup",
        "train_irfr_rows_per_s_reference",
        "train_irfr_rows_per_s_kernel",
        "train_irfr_kernel_speedup",
    ] {
        assert!(metric(key).is_finite() && metric(key) > 0.0, "{key}");
    }
    for key in [
        "batch_bitwise_equal",
        "train_bit_identical",
        "train_irfr_bit_identical",
    ] {
        assert_eq!(metric(key), 1.0, "{key}");
    }
}

#[test]
fn fig7_quick_run_finds_threshold() {
    let exps = all_experiments();
    let e = exps.iter().find(|e| e.id == "fig7").unwrap();
    let r = (e.run)(&RunOpts::quick());
    assert_result_shape(&r, 1);
    let joined = r.notes.join("\n");
    assert!(
        joined.contains("IPC threshold"),
        "expected a derived SLA threshold, notes: {joined}"
    );
}

#[test]
fn fig4_quick_run_shows_restoration() {
    let exps = all_experiments();
    let e = exps.iter().find(|e| e.id == "fig4").unwrap();
    let r = (e.run)(&RunOpts::quick());
    // Two panels, each a full 9-function table.
    assert_result_shape(&r, 2);
    for t in &r.tables {
        assert!(t.lines().count() >= 12, "panel table incomplete:\n{t}");
    }
}
