//! `experiments` — one module per table/figure of the paper's evaluation.
//!
//! Each module exposes a `run(opts: &RunOpts) -> ExperimentResult` entry
//! point: `opts.quick` shrinks sample counts and simulation windows so the
//! whole suite runs in CI; full mode uses paper-scale parameters and is what
//! the `repro` binary and EXPERIMENTS.md use. `opts.obs` / `opts.trace_dir`
//! turn on observability collection and artifact export (see [`registry`]).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig3`] | Fig. 3(a) 36 partial-interference scenarios; Fig. 3(b) start-delay sweep |
//! | [`fig4`] | Fig. 4 hotspot propagation & restoration |
//! | [`fig5`] | Fig. 5 function- vs workload-level profiling |
//! | [`fig7`] | Fig. 7 latency–IPC knee |
//! | [`table3`] | Table 3 metric correlations & selection |
//! | [`fig8`] | Fig. 8 metric importances |
//! | [`fig9`] | Fig. 9 prediction error across models & colocations |
//! | [`fig10`] | Fig. 10 convergence & workload-count sensitivity |
//! | [`fig13`] | Fig. 13 distribution-shift recovery |
//! | [`fig11_12`] | Fig. 11 scheduling density/utilization CDFs; Fig. 12 SLA satisfaction |
//! | [`fig14`] | Fig. 14 online overhead & gateway scalability |
//! | [`ablation`] | design-choice ablations (extension, not a paper figure) |
//! | [`fault_sweep`] | chaos sweep: availability & p99 under seeded fault injection (extension) |
//! | [`engine_throughput`] | serial event-engine serving rate across cluster sizes (extension) |

pub mod ablation;
pub mod corpus;
pub mod engine_throughput;
pub mod fault_sweep;
pub mod fig10;
pub mod fig11_12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod journal_runs;
pub mod registry;
pub mod table3;

pub use registry::{all_experiments, Experiment, ExperimentResult, RunOpts};
