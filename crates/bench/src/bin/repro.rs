//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--obs] [--trace-dir DIR] [--journal-dir DIR]
//!       [--json PATH] [--seed N] [id...]
//! repro --list                list experiment ids
//! repro replay JOURNAL        reconstruct a run's artifacts from its journal
//! repro resume JOURNAL        complete a truncated journal, verified
//! ```
//!
//! Full mode uses paper-scale parameters and can take tens of minutes; pass
//! `--quick` for a CI-sized pass with the same code paths.
//!
//! Observability: `--obs` collects telemetry/audit/profiling summaries into
//! the rendered output; `--trace-dir DIR` additionally records request
//! traces and writes the artifacts (Chrome trace JSON for Perfetto /
//! `chrome://tracing`, telemetry + audit JSONL) under `DIR`. Every run also
//! emits a machine-readable summary — per-experiment wall time and headline
//! metrics — to `BENCH_repro.json` (override with `--json PATH`).
//!
//! Journaling: `--journal-dir DIR` makes journal-enabled experiments
//! (`fault_sweep`, `fig4`) write append-only event journals plus the live
//! artifacts they must replay to. `repro replay DIR/x.journal` folds the
//! records back into the artifacts without re-simulating and byte-diffs
//! them against the live ones; `repro resume` completes a torn journal and
//! verifies every surviving record against the regenerated run.

use experiments::journal_runs;
use experiments::{all_experiments, Experiment, RunOpts};
use obs::json::Json;
use std::path::{Path, PathBuf};

struct Cli {
    opts: RunOpts,
    list: bool,
    json_path: PathBuf,
    ids: Vec<String>,
}

const USAGE: &str = "usage: repro [--quick] [--obs] [--trace-dir DIR] \
     [--journal-dir DIR] [--json PATH] [--seed N] [id...] \
     | repro replay JOURNAL | repro resume JOURNAL";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: RunOpts::full(),
        list: false,
        json_path: PathBuf::from("BENCH_repro.json"),
        ids: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.opts.quick = true,
            "--obs" => cli.opts.obs = true,
            "--list" => cli.list = true,
            "--trace-dir" => {
                let dir = it.next().ok_or("--trace-dir requires a directory")?;
                cli.opts.trace_dir = Some(PathBuf::from(dir));
            }
            "--journal-dir" => {
                let dir = it.next().ok_or("--journal-dir requires a directory")?;
                cli.opts.journal_dir = Some(PathBuf::from(dir));
            }
            "--json" => {
                let p = it.next().ok_or("--json requires a path")?;
                cli.json_path = PathBuf::from(p);
            }
            "--seed" => {
                let s = it.next().ok_or("--seed requires a u64")?;
                let seed: u64 = s.parse().map_err(|_| format!("bad seed {s}"))?;
                if seed > journal_runs::MAX_SEED {
                    return Err(format!(
                        "seed {s} is above 2^53: a journal header stores the seed \
                         as a JSON number, which would round it"
                    ));
                }
                cli.opts.seed = Some(seed);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id => cli.ids.push(id.to_string()),
        }
    }
    Ok(cli)
}

/// The experiments `ids` name, in registry order; every experiment when
/// `ids` is empty. Fails with the ids that match no experiment.
fn select<'a>(
    experiments: &'a [Experiment],
    ids: &[String],
) -> Result<Vec<&'a Experiment>, Vec<String>> {
    let unknown: Vec<String> = ids
        .iter()
        .filter(|id| !experiments.iter().any(|e| e.id == id.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    Ok(experiments
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id))
        .collect())
}

/// `(suffix, contents)` pairs a replay must reproduce, in diff order.
fn artifact_pairs(a: &journal_runs::Artifacts) -> Vec<(&'static str, String)> {
    vec![
        (".report.json", a.report_json.clone()),
        (
            ".telemetry.jsonl",
            a.telemetry_jsonl.clone().unwrap_or_default(),
        ),
        (".faults.jsonl", a.faults_jsonl.clone()),
        (".faults.summary.txt", a.fault_summary.clone()),
    ]
}

/// Byte-diff reconstructed artifacts against the live-run files written
/// next to the journal. Returns `(checked, mismatched)`.
fn diff_siblings(journal: &Path, artifacts: &journal_runs::Artifacts) -> (usize, usize) {
    let stem = journal
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut checked = 0;
    let mut mismatched = 0;
    for (suffix, reconstructed) in artifact_pairs(artifacts) {
        let sibling = journal.with_file_name(format!("{stem}{suffix}"));
        let Ok(live) = std::fs::read_to_string(&sibling) else {
            continue;
        };
        checked += 1;
        if live == reconstructed {
            println!("  {} … matches byte-for-byte", sibling.display());
        } else {
            mismatched += 1;
            eprintln!("  {} … MISMATCH", sibling.display());
        }
    }
    (checked, mismatched)
}

/// `repro replay JOURNAL`: fold the journal into the run's artifacts
/// (without re-simulating) and byte-diff them against the live run — the
/// sibling artifact files when present, a verified re-execution otherwise.
fn cmd_replay(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let r = journal_runs::replay_bytes(&bytes)?;
    println!(
        "replayed {}: {} records ({} checkpoints), header {}",
        path.display(),
        r.records,
        r.checkpoints,
        r.header.render()
    );
    let (checked, mismatched) = diff_siblings(path, &r.artifacts);
    if checked == 0 {
        println!("no live-run artifacts next to the journal; verifying by re-execution");
        let (_, live) = journal_runs::rerun_from_header(&r.header)?;
        if live == r.artifacts {
            println!("  re-executed run … matches byte-for-byte");
        } else {
            return Err("replayed artifacts differ from the re-executed run".into());
        }
    } else if mismatched > 0 {
        return Err(format!("{mismatched}/{checked} artifacts differ"));
    }
    Ok(())
}

/// `repro resume JOURNAL`: complete a (possibly truncated) journal by
/// verified re-execution and write the completed journal + artifacts next
/// to the input as `<stem>.resumed.*`.
fn cmd_resume(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let r = journal_runs::resume_bytes(&bytes)?;
    println!(
        "resumed {}: {} of {} records were present and verified ({} checkpoints); \
         input was {}",
        path.display(),
        r.verified_records,
        r.total_records,
        r.verified_checkpoints,
        if r.was_truncated {
            "truncated"
        } else {
            "already complete"
        }
    );
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let out = path.with_file_name(format!("{stem}.resumed.journal"));
    std::fs::write(&out, &r.full_journal)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("completed journal -> {}", out.display());
    for (suffix, contents) in artifact_pairs(&r.artifacts) {
        let p = path.with_file_name(format!("{stem}.resumed{suffix}"));
        std::fs::write(&p, contents).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        println!("artifact -> {}", p.display());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Journal subcommands take a journal path, not experiment ids.
    if let Some(cmd @ ("replay" | "resume")) = args.first().map(String::as_str) {
        let Some(journal) = args.get(1).map(PathBuf::from) else {
            eprintln!("repro {cmd} requires a journal path; {USAGE}");
            std::process::exit(2);
        };
        let outcome = match cmd {
            "replay" => cmd_replay(&journal),
            _ => cmd_resume(&journal),
        };
        if let Err(e) = outcome {
            eprintln!("{cmd} failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2);
        }
    };

    let experiments = all_experiments();
    if cli.list {
        for e in &experiments {
            println!("{:8}  {}", e.id, e.title);
        }
        return;
    }
    let selected = match select(&experiments, &cli.ids) {
        Ok(s) => s,
        Err(unknown) => {
            eprintln!("no experiment matches {unknown:?}; try --list; {USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# Gsight reproduction — {} mode{}\n",
        if cli.opts.quick { "quick" } else { "full" },
        match &cli.opts.trace_dir {
            Some(d) => format!(", tracing to {}", d.display()),
            None if cli.opts.obs => ", observability on".to_string(),
            None => String::new(),
        }
    );
    let suite_start = std::time::Instant::now();
    let mut bench_entries: Vec<Json> = Vec::new();
    for e in selected {
        let start = std::time::Instant::now();
        let result = (e.run)(&cli.opts);
        let wall_s = start.elapsed().as_secs_f64();
        println!("{}", result.render());
        println!("[{} finished in {wall_s:.1} s]\n", e.id);
        let metrics = result
            .metrics
            .iter()
            .fold(Json::obj(), |o, (k, v)| o.field(k.as_str(), *v));
        bench_entries.push(
            Json::obj()
                .field("id", e.id)
                .field("title", e.title)
                .field("wall_s", wall_s)
                .field("metrics", metrics),
        );
    }
    let bench = Json::obj()
        .field("mode", if cli.opts.quick { "quick" } else { "full" })
        .field("total_wall_s", suite_start.elapsed().as_secs_f64())
        .field("experiments", Json::Arr(bench_entries));
    if let Err(e) = std::fs::write(&cli.json_path, bench.render() + "\n") {
        eprintln!("could not write {}: {e}", cli.json_path.display());
        std::process::exit(1);
    }
    println!("machine-readable summary -> {}", cli.json_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for (args, want) in [
            (&["--serve", "127.0.0.1:0"][..], "unknown flag --serve"),
            (&["fig4", "--trace-dir"], "--trace-dir requires a directory"),
            (
                &["fig4", "--journal-dir"],
                "--journal-dir requires a directory",
            ),
            (&["fig4", "--json"], "--json requires a path"),
            (&["fig4", "--seed"], "--seed requires a u64"),
            (&["--seed", "notanumber"], "bad seed notanumber"),
            (
                &["--seed", "9007199254740993"],
                "seed 9007199254740993 is above 2^53: a journal header stores \
                 the seed as a JSON number, which would round it",
            ),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(want), "{args:?}");
        }
    }

    #[test]
    fn flags_and_ids_parse_into_run_opts() {
        let cli = parse(&["fig4", "--quick", "--seed", "42", "--journal-dir", "d"]).unwrap();
        assert!(cli.opts.quick && !cli.opts.obs && !cli.list);
        assert_eq!(cli.opts.seed, Some(42));
        assert_eq!(cli.opts.journal_dir, Some(PathBuf::from("d")));
        assert_eq!(cli.opts.trace_dir, None);
        assert_eq!(cli.json_path, PathBuf::from("BENCH_repro.json"));
        assert_eq!(cli.ids, ["fig4"]);
    }

    #[test]
    fn ids_select_experiments_in_registry_order() {
        let exps = all_experiments();
        let ids = |args: &[&str]| -> Vec<String> { args.iter().map(|a| a.to_string()).collect() };
        let picked = |args: &[&str]| -> Vec<&str> {
            select(&exps, &ids(args))
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect()
        };
        assert_eq!(picked(&[]).len(), exps.len());
        assert_eq!(picked(&["fig14", "fig4"]), ["fig4", "fig14"]);
        assert_eq!(picked(&["fig4", "fig4"]), ["fig4"]);
    }

    #[test]
    fn unknown_ids_are_named() {
        let exps = all_experiments();
        for (args, want) in [
            (&["fig4", "nosuch"][..], &["nosuch"][..]),
            (&["nosuch"], &["nosuch"]),
            (&["fig", "fig4", "FIG4"], &["fig", "FIG4"]),
        ] {
            let ids: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(select(&exps, &ids).err().unwrap(), want, "{args:?}");
        }
    }
}
