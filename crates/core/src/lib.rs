//! `gsight` — the paper's primary contribution: an accurate QoS predictor
//! for colocated serverless workloads under *partial interference*
//! (SC '21, "Understanding, Predicting and Scheduling Serverless Workloads
//! under Partial Interference").
//!
//! The predictor's insight (paper §3.1): QoS prediction accuracy under
//! partial interference improves dramatically when the model input encodes
//! *where* (spatial overlap) and *when* (temporal overlap) colocated
//! functions intersect, on top of cheap per-function **solo-run profiles**
//! gathered along the end-to-end call path.
//!
//! Modules:
//! * [`coding`] — spatial overlap matrices (`U`/`R`, one row per server,
//!   with virtual-function aggregation), temporal overlap vectors
//!   (`D` start delays, `T` lifetimes), and the full/partial/zero
//!   interference classifier of Fig. 1.
//! * [`scenario`] — the description of one (actual or hypothetical)
//!   colocation the model predicts for.
//! * [`features`] — flattening a scenario into the `32nS + 2n`-dimensional
//!   model input (paper §6.4).
//! * [`predictor`] — [`GsightPredictor`]: incremental learning over
//!   scenarios, one model per QoS target (IPC, tail latency, JCT).
//! * [`sla`] — the latency↔IPC correlation curve (Fig. 7) used to convert
//!   a latency SLA into an IPC threshold for scheduling (§6.3).
//! * [`compress`] — PCA-compressed prediction, the scalability extension
//!   the paper proposes as future work (§6.4).

//!
//! # Examples
//!
//! ```
//! use gsight::{feature_dim, CodingConfig};
//!
//! // The paper's model input: 8 servers x 10 workload slots -> 32nS + 2n.
//! let coding = CodingConfig::paper();
//! assert_eq!(feature_dim(&coding), 32 * 10 * 8 + 2 * 10);
//! ```

pub mod coding;
pub mod compress;
pub mod features;
pub mod predictor;
pub mod scenario;
pub mod sla;

pub use coding::{interference_kind, CodingConfig, InterferenceKind};
pub use compress::CompressedPredictor;
pub use features::{feature_dim, featurize, featurize_into};
pub use predictor::{GsightConfig, GsightPredictor, QosTarget};
pub use scenario::{ColoWorkload, Scenario};
pub use sla::LatencyIpcCurve;
