//! `platform` — a discrete-event simulator of an OpenFaaS-style serverless
//! platform (the paper's execution substrate, §5).
//!
//! Faithfully modelled mechanisms, each tied to a paper observation:
//!
//! * **Shared frontend gateway** — every invocation (external arrivals *and*
//!   inter-function calls) passes through one FIFO gateway whose per-forward
//!   cost grows super-linearly once the deployed instance count passes ~110
//!   (paper Fig. 14 and Observation 4's second mechanism: a saturated
//!   function's queue management "degrades the invocation speeds of all
//!   other functions").
//! * **Function instances with bounded concurrency** — requests beyond an
//!   instance's concurrency limit queue FIFO; queueing is what turns
//!   resource slowdowns into tail-latency blowups (the Fig. 7 knee).
//! * **Cold starts** — a new or long-idle instance prepends its cold-start
//!   phase to the next invocation (§5.2).
//! * **Piecewise-exact contention execution** — each executing phase
//!   advances at `1/slowdown` determined by the
//!   [`cluster`] contention model, re-evaluated whenever the instance set on
//!   its server changes.
//! * **Call-path semantics** — async (sequence-chain) and nested
//!   (caller-blocks) edges per [`workloads::dag`], which together produce
//!   the hotspot-propagation effects of Observations 4 and 5.
//! * **1 Hz metric collection** — synthesizes the 19 Table-3 counters per
//!   function, exactly the data the Gsight profiler and predictor consume.
//! * **Autoscaling hook** — a [`scale::Placer`] policy invoked when
//!   a function's queues back up, used by the scheduling case study.
//! * **Fault injection & degradation** — an optional seeded
//!   [`faults::FaultInjector`] (server crash/recovery, transient slowdowns,
//!   OOM-kills, cold-start storms, gateway drops/jitter, predictor outages)
//!   plus a [`config::ResilienceConfig`] degradation policy (per-request
//!   timeout, bounded exponential-backoff retries, gateway load shedding).
//!   Both default to off, leaving fault-free runs bit-identical.
//!
//! [`engine`] holds the simulator's state and run loop; its private child
//! modules hold one concern each: request execution, faults, autoscaling
//! and collection.

pub mod collector;
pub mod config;
pub mod engine;
pub mod gateway;
pub mod profiling;
pub mod replay;
pub mod report;
pub mod scale;

pub use config::{GatewayConfig, PlatformConfig, ResilienceConfig};
pub use engine::{ArrivalSpec, Deployment, Outcome, Simulation, WorkloadId};
pub use profiling::{profile_workload, ProfilingConfig};
pub use replay::{replay, Replayed};
pub use report::RunReport;
pub use scale::{ClusterView, NoScaling, Placer};
