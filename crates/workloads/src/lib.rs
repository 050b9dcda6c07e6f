//! `workloads` — models of the serverless applications the paper evaluates.
//!
//! The paper drives its testbed with FunctionBench microbenchmarks, the
//! DeathStarBench *social network* ported to OpenFaaS (Fig. 2's nine-function
//! message-posting call path), a TPC-W-style *e-commerce* application, and
//! invocation dynamics replayed from the Azure Functions production trace.
//! This crate models all of them:
//!
//! * [`function`] — functions as sequences of *phases*, each with a resource
//!   demand vector, bottleneck decomposition, interference sensitivity and a
//!   microarchitecture counter baseline.
//! * [`dag`] — call-path graphs with asynchronous (sequence-chain) and
//!   nested (caller-blocks) edges, plus critical-path analysis.
//! * [`functionbench`] — matrix multiplication, dd, iperf, video processing,
//!   float ops, feature generation, LogisticRegression and KMeans.
//! * [`socialnetwork`] / [`ecommerce`] — the two latency-sensitive
//!   applications with their paper SLAs (267 ms and 88 ms p99).
//! * [`azure_trace`] — diurnal/weekly invocation-rate generation matching
//!   the published Azure characterization.
//! * [`loadgen`] — the open-loop load generator of paper §6.4.
//!
//! # Examples
//!
//! ```
//! use workloads::socialnetwork;
//!
//! let w = socialnetwork::message_posting();
//! assert_eq!(w.num_functions(), 9);
//! // Fig. 2's critical path: compose-post -> upload-media ->
//! // compose-and-upload -> upload-home-timeline -> get-followers.
//! let cp = w.graph.critical_path();
//! assert!(cp.contains(&w.graph.find("upload-media").unwrap()));
//! assert!(!cp.contains(&w.graph.find("post-storage").unwrap()));
//! ```

pub mod azure_trace;
pub mod class;
pub mod dag;
pub mod ecommerce;
pub mod function;
pub mod functionbench;
pub mod loadgen;
pub mod socialnetwork;

pub use class::WorkloadClass;
pub use dag::{CallGraph, CallKind, NodeId};
pub use function::{FunctionSpec, PhaseSpec, Workload};
