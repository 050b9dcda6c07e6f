//! Repository benchmark for gsight-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_diurnal|chaos_journal|gsight_pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is generated from `--seed`, set up, then run repeatedly on
//! the library's public entry points (serial engine) until `--seconds` have
//! passed. Every iteration checks its outputs. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced iterations alternate and the metrics are the
//! per-layer ones, spans are written to `perfbench/out/`, and the line
//! before the result carries host facts and workload figures in both modes.
//! See `perfbench/README.md` for the workloads and the metric map.

mod gsight_pipeline;
mod metrics;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use metrics::{median, Metric};
use std::time::Instant;
use trace::Spans;

/// What one iteration of a workload produces.
pub struct Iteration {
    /// Host seconds spent in the iteration's timed stages.
    pub run_s: f64,
    /// Fingerprint of every output; must repeat for a seed.
    pub fingerprint: u64,
    /// Output-check failures; empty when the iteration is correct.
    pub errors: Vec<String>,
    /// Workload-level figures, measured in every iteration.
    pub figures: Vec<(&'static str, f64)>,
    /// Per-layer metrics, measured in traced iterations only.
    pub layers: Vec<(&'static str, f64)>,
    /// Spans of a traced iteration.
    pub spans: Option<Spans>,
}

/// A workload: seeded set-up, then repeatable checked iterations.
pub trait Workload {
    type Input;
    /// Generate inputs and construct everything before the first timed
    /// stage; `traced` selects the timing wrappers.
    fn setup(&self, traced: bool) -> Self::Input;
    fn iterate(&self, input: Self::Input, traced: bool) -> Iteration;
}

/// After every iteration, the warm-up included, set-ups are timed back to
/// back at least [`SETUP_REPS`] times and for at least [`SETUP_BATCH_S`];
/// `setup_s` is the median of all of them. Spreading the batches over the
/// run lets `setup_s` see the host's slow and fast phases in the same
/// proportion as `run_s` does: one 0.1 s block of set-ups read 1.6x slower
/// in some runs than in others. The set-up each iteration consumes is not
/// timed: it follows an iteration that has flushed the caches, and on
/// `gsight_pipeline` it took twice as long as a back-to-back one.
const SETUP_REPS: usize = 2;
const SETUP_BATCH_S: f64 = 0.02;

fn timed_setups<W: Workload>(w: &W, secs: &mut Vec<f64>) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_BATCH_S {
        let t0 = Instant::now();
        let input = w.setup(false);
        secs.push(t0.elapsed().as_secs_f64());
        drop(input);
        reps += 1;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything a run of one workload measured.
struct RunResult {
    attempted: usize,
    failed: usize,
    setup_s: Vec<f64>,
    untraced: Vec<Iteration>,
    traced: Vec<Iteration>,
    first_error: Option<String>,
}

fn run<W: Workload>(w: &W, seconds: f64, trace: bool) -> RunResult {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed, mut first_error) = (0, 0, None);
    let (mut untraced, mut traced_iters) = (Vec::new(), Vec::new());
    let mut reference = None;
    // Iteration 0 warms caches and the allocator and is checked but not
    // timed; with tracing, untraced and traced iterations alternate.
    for i in 0usize.. {
        let traced = trace && i > 0 && i.is_multiple_of(2);
        let mut it = w.iterate(w.setup(traced), traced);
        let fp = *reference.get_or_insert(it.fingerprint);
        if it.fingerprint != fp {
            it.errors.push(format!(
                "fingerprint {:016x} differs from the first iteration's {fp:016x}",
                it.fingerprint
            ));
        }
        timed_setups(w, &mut setup_s);
        attempted += 1;
        if !it.errors.is_empty() {
            failed += 1;
            first_error.get_or_insert_with(|| it.errors.join("; "));
        }
        match (i, traced) {
            (0, _) => {}
            (_, true) => traced_iters.push(it),
            (_, false) => untraced.push(it),
        }
        let enough = !untraced.is_empty() && (!trace || !traced_iters.is_empty());
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    RunResult {
        attempted,
        failed,
        setup_s,
        untraced,
        traced: traced_iters,
        first_error,
    }
}

/// Median of one named value over a set of iterations; 0 when the
/// workload does not report it.
fn median_of(
    iters: &[Iteration],
    pick: impl Fn(&Iteration) -> &[(&'static str, f64)],
    name: &str,
) -> f64 {
    let values: Vec<f64> = iters
        .iter()
        .filter_map(|it| pick(it).iter().find(|(n, _)| *n == name).map(|p| p.1))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metric_object(values: &[(&Metric, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(*v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                metrics::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let r = match args.workload.as_str() {
        "serve_diurnal" => run(&serve::Serve::diurnal(args.seed), args.seconds, args.trace),
        "chaos_journal" => run(&serve::Serve::chaos(args.seed), args.seconds, args.trace),
        "gsight_pipeline" => run(
            &gsight_pipeline::Pipeline::new(args.seed),
            args.seconds,
            args.trace,
        ),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Some(e) = &r.first_error {
        eprintln!("check failed: {e}");
    }

    let run_s: Vec<f64> = r.untraced.iter().map(|it| it.run_s).collect();
    let figures: Vec<(&Metric, f64)> = metrics::FIGURES
        .iter()
        .map(|m| (m, median_of(&r.untraced, |it| &it.figures, m.name)))
        .collect();
    let metrics_json = if args.trace {
        let traced_run_s: Vec<f64> = r.traced.iter().map(|it| it.run_s).collect();
        let overhead = median(&traced_run_s) / median(&run_s) - 1.0;
        let layers: Vec<(&Metric, f64)> = metrics::LAYERS
            .iter()
            .map(|m| {
                let v = if m.name == "trace.overhead" {
                    overhead
                } else if let Some((_, v)) = figures.iter().find(|(f, _)| f.name == m.name) {
                    *v
                } else {
                    median_of(&r.traced, |it| &it.layers, m.name)
                };
                (m, v)
            })
            .collect();
        if let Some(spans) = r.traced.last().and_then(|it| it.spans.as_ref()) {
            let dir = std::path::Path::new("perfbench/out");
            let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        metric_object(&layers)
    } else {
        let e2e = metrics::END_TO_END;
        metric_object(&[
            (&e2e[0], median(&r.setup_s)),
            (&e2e[1], median(&run_s)),
            (&e2e[2], peak_rss_mb()),
        ])
    };

    println!(
        "{{\"host\":{{\"nproc\":{},\"available_workers\":{},\"build_profile\":\"{}\",\
         \"seed\":{},\"workload\":\"{}\",\"iterations\":{}}},\"figures\":{}}}",
        nproc(),
        simcore::par::available_workers(),
        build_profile(),
        args.seed,
        args.workload,
        run_s.len(),
        metric_object(&figures)
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json
    );
}
