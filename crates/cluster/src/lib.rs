//! `cluster` — the physical substrate of the reproduction.
//!
//! The paper runs on an 8-node cluster of 4-socket Intel Xeon E7-4820v4
//! servers (Table 4). This crate simulates that hardware: per-socket CPU
//! cores, last-level cache and memory bandwidth, server-wide disk, network
//! and memory, and — crucially — the *contention model* that converts a set
//! of colocated function instances into per-instance slowdowns and observable
//! microarchitecture metrics.
//!
//! The contention model is the "physics" that creates partial interference.
//! Everything above this crate (the platform simulator, the Gsight predictor,
//! the schedulers) treats it as an opaque machine: the predictor never reads
//! the model's internals, only the same 19 Table-3 metrics the paper collects
//! with `perf`/`pqos-msr`.

//!
//! # Examples
//!
//! ```
//! use cluster::{Boundedness, Demand, InstanceLoad, Sensitivity, ServerSpec, ServerState};
//!
//! let mut server = ServerState::new(ServerSpec::paper_node());
//! let victim = InstanceLoad {
//!     demand: Demand::new(1.0, 16.0, 4.0, 0.0, 0.0, 0.4),
//!     bounded: Boundedness::cpu_bound(),
//!     sens: Sensitivity::new(2.2, 2.5, 0.6),
//!     socket: 0,
//! };
//! server.add(victim);
//! // Alone: no interference by construction.
//! assert_eq!(server.contention().instance(&victim).slowdown, 1.0);
//! // A bandwidth hog on the same socket slows the sensitive victim.
//! server.add(InstanceLoad {
//!     demand: Demand::new(8.0, 60.0, 24.0, 0.0, 0.0, 2.0),
//!     bounded: Boundedness::cpu_bound(),
//!     sens: Sensitivity::new(1.5, 1.5, 0.5),
//!     socket: 0,
//! });
//! assert!(server.contention().instance(&victim).slowdown > 1.5);
//! ```

pub mod config;
pub mod contention;
pub mod microarch;
pub mod partitioning;
pub mod resources;
pub mod server;

pub use config::{ClusterConfig, ServerSpec};
pub use contention::{ContentionState, InstanceContention};
pub use partitioning::{PartitionClass, Partitioning};
pub use resources::{Boundedness, Demand, Resource, Sensitivity};
pub use server::{InstanceId, InstanceLoad, ServerState};
