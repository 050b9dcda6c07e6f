//! Experiment registry: uniform naming and output packaging so the `repro`
//! binary can regenerate any (or every) paper artifact by id.

use std::path::{Path, PathBuf};

/// Options shared by every experiment run.
///
/// `quick` shrinks scales for CI; `obs` turns on telemetry/audit collection
/// (tables are appended to the result); `trace_dir` additionally enables
/// request tracing and names the directory where experiments drop their
/// artifacts (Chrome traces, telemetry JSONL, audit logs).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Shrink scales for CI.
    pub quick: bool,
    /// Collect telemetry / audit / profiling output even without a
    /// `trace_dir`.
    pub obs: bool,
    /// Where to write observability artifacts; `None` disables export.
    pub trace_dir: Option<PathBuf>,
    /// Override the experiment's base RNG seed (`repro --seed N`). Used by
    /// seed-parameterised experiments like `fault_sweep`, where one seed
    /// pins one exactly replayable fault storyline; `None` = the
    /// experiment's built-in default.
    pub seed: Option<u64>,
    /// Where journal-enabled experiments write their event journals
    /// (`repro --journal-dir DIR`); `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
}

impl RunOpts {
    /// Quick mode, observability off.
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::default()
        }
    }

    /// Full (paper-scale) mode, observability off.
    pub fn full() -> Self {
        Self::default()
    }

    /// Whether experiments should collect observability data at all.
    pub fn observing(&self) -> bool {
        self.obs || self.trace_dir.is_some()
    }

    /// Whether experiments should record full request traces (requires an
    /// export directory — traces are too big to only print).
    pub fn tracing(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// Write `contents` to `<trace_dir>/<name>`, creating the directory.
    /// Returns the written path for display, `None` when export is off or
    /// the write failed (non-fatal, but warned on stderr — a bad
    /// `--trace-dir` must not silently drop every artifact).
    pub fn write_artifact(&self, name: &str, contents: &str) -> Option<PathBuf> {
        let dir: &Path = self.trace_dir.as_deref()?;
        let path = dir.join(name);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write artifact {}: {e}", path.display());
                None
            }
        }
    }

    /// Open a journal file at `<journal_dir>/<name>`, creating the
    /// directory. `None` when journaling is off or the file could not be
    /// created (warned on stderr, like [`RunOpts::write_artifact`]).
    pub fn open_journal(
        &self,
        name: &str,
        header: &obs::json::Json,
        checkpoint_every_us: Option<u64>,
    ) -> Option<(obs::journal::FileJournal, PathBuf)> {
        let dir: &Path = self.journal_dir.as_deref()?;
        let path = dir.join(name);
        let made = std::fs::create_dir_all(dir)
            .and_then(|()| obs::journal::FileJournal::create(&path, header, checkpoint_every_us));
        match made {
            Ok(j) => Some((j, path)),
            Err(e) => {
                eprintln!("warning: could not open journal {}: {e}", path.display());
                None
            }
        }
    }
}

/// Rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"fig9"`.
    pub id: &'static str,
    /// What the paper artifact shows.
    pub title: &'static str,
    /// Rendered text tables (one or more).
    pub tables: Vec<String>,
    /// Free-form notes: paper-vs-measured comparisons, caveats.
    pub notes: Vec<String>,
    /// Headline metrics for machine consumption (`BENCH_repro.json`).
    pub metrics: Vec<(String, f64)>,
}

impl ExperimentResult {
    /// New empty result.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Self {
            id,
            title,
            tables: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Append a rendered table.
    pub fn table(&mut self, t: String) -> &mut Self {
        self.tables.push(t);
        self
    }

    /// Append a note line.
    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    /// Record a headline metric (exported to `BENCH_repro.json`).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Render the whole result for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n\n", self.id, self.title));
        for t in &self.tables {
            out.push_str(t);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// One runnable experiment.
pub struct Experiment {
    /// Id used on the `repro` command line.
    pub id: &'static str,
    /// Short description.
    pub title: &'static str,
    /// Entry point.
    pub run: fn(opts: &RunOpts) -> ExperimentResult,
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig3",
            title: "partial-interference volatility & temporal variation (Fig. 3)",
            run: crate::fig3::run,
        },
        Experiment {
            id: "fig4",
            title: "hotspot propagation & restoration (Fig. 4)",
            run: crate::fig4::run,
        },
        Experiment {
            id: "fig5",
            title: "function-level vs workload-level profiling (Fig. 5)",
            run: crate::fig5::run,
        },
        Experiment {
            id: "fig7",
            title: "latency-IPC knee curve (Fig. 7)",
            run: crate::fig7::run,
        },
        Experiment {
            id: "table3",
            title: "metric correlations & selection (Table 3)",
            run: crate::table3::run,
        },
        Experiment {
            id: "fig8",
            title: "impurity-based metric importances (Fig. 8)",
            run: crate::fig8::run,
        },
        Experiment {
            id: "fig9",
            title: "prediction error across models & colocations (Fig. 9)",
            run: crate::fig9::run,
        },
        Experiment {
            id: "fig10",
            title: "convergence speed & workload-count sensitivity (Fig. 10)",
            run: crate::fig10::run,
        },
        Experiment {
            id: "fig13",
            title: "distribution-shift recovery (Fig. 13)",
            run: crate::fig13::run,
        },
        Experiment {
            id: "fig11",
            title: "scheduling: density, CPU & memory utilization CDFs (Fig. 11) + SLA (Fig. 12)",
            run: crate::fig11_12::run,
        },
        Experiment {
            id: "fig14",
            title: "online overhead & gateway scalability (Fig. 14)",
            run: crate::fig14::run,
        },
        Experiment {
            id: "ablation",
            title:
                "design-choice ablations: coding blocks, forest size, PCA, partitioning (extension)",
            run: crate::ablation::run,
        },
        Experiment {
            id: "fault_sweep",
            title: "chaos sweep: availability & p99 under seeded fault injection (extension)",
            run: crate::fault_sweep::run,
        },
        Experiment {
            id: "engine_throughput",
            title: "serial event-engine serving rate across cluster sizes (extension)",
            run: crate::engine_throughput::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let exps = all_experiments();
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), exps.len());
    }

    #[test]
    fn result_renders_tables_and_notes() {
        let mut r = ExperimentResult::new("figX", "demo");
        r.table("a b\n---\n1 2\n".into()).note("hello");
        r.metric("speed", 1.5);
        let s = r.render();
        assert!(s.contains("figX"));
        assert!(s.contains("1 2"));
        assert!(s.contains("note: hello"));
        assert_eq!(r.metrics, vec![("speed".to_string(), 1.5)]);
    }

    #[test]
    fn run_opts_modes() {
        assert!(!RunOpts::quick().observing());
        assert!(!RunOpts::full().quick);
        let o = RunOpts {
            quick: true,
            obs: true,
            ..RunOpts::default()
        };
        assert!(o.observing() && !o.tracing());
        let t = RunOpts {
            quick: true,
            trace_dir: Some(std::env::temp_dir()),
            ..RunOpts::default()
        };
        assert!(t.observing() && t.tracing());
    }

    #[test]
    fn write_artifact_none_without_dir() {
        assert!(RunOpts::quick().write_artifact("x.json", "{}").is_none());
    }
}
