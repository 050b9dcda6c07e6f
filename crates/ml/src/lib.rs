//! `mlcore` — from-scratch regression learners.
//!
//! The paper builds Gsight on scikit-learn's regressors with incremental
//! updates; this crate reimplements the needed family in Rust:
//!
//! * [`tree`] — CART regression trees (variance-reduction splits, feature
//!   subsampling, depth/leaf bounds, impurity importances), trained by a
//!   presorted column-major split-search kernel.
//! * [`reference`] — the original exhaustive per-node split search, kept as
//!   the bit-identical oracle the kernel is validated (and benchmarked)
//!   against.
//! * [`forest`] — random-forest regression (bagging + feature subsampling,
//!   parallel training, averaged impurity importances) — the paper's
//!   chosen model (RFR/IRFR).
//! * [`flat`] — the flattened branchless SoA inference kernel fitted
//!   forests compile into; every prediction (single-row and batch, one
//!   row at a time) runs on it, with the enum walker retained as the
//!   bit-identity oracle.
//! * [`knn`] — k-nearest-neighbours regression.
//! * [`linear`] — ridge regression trained by mini-batch SGD (the paper's
//!   "LR" comparator).
//! * [`svr`] — linear ε-insensitive support-vector regression via SGD.
//! * [`mlp`] — a one-hidden-layer perceptron with ReLU, SGD backprop.
//! * [`incremental`] — the online-update wrappers (IRFR, IKNN, ILR, ISVR,
//!   IMLP): a bounded sample buffer plus model-specific `partial_fit`.
//! * [`pca`] — principal component analysis (power iteration), the
//!   dimensionality-reduction extension the paper proposes as future work.
//! * [`dataset`] — row-major datasets, train/test splitting, error metrics
//!   (the paper's prediction error `|P̂ − P| / P`), and feature scaling.
//!
//! Every training routine takes an explicit seed and is deterministic given
//! it; forest training parallelises per tree with per-tree derived seeds so
//! results do not depend on thread scheduling.
//!
//! # Examples
//!
//! ```
//! use mlcore::{Dataset, ForestParams, RandomForest};
//!
//! // y = 2·x0 + x1
//! let mut data = Dataset::new(2);
//! for i in 0..200 {
//!     let x0 = (i % 20) as f64;
//!     let x1 = (i / 20) as f64;
//!     data.push(&[x0, x1], 2.0 * x0 + x1);
//! }
//! let forest = RandomForest::fit(&data, ForestParams::default(), 7);
//! let pred = forest.predict(&[5.0, 3.0]);
//! assert!((pred - 13.0).abs() < 2.0);
//! ```

pub mod dataset;
pub mod flat;
pub mod forest;
pub mod incremental;
pub mod knn;
pub mod linear;
pub mod mlp;
pub mod pca;
pub mod reference;
pub mod svr;
pub mod tree;

pub use dataset::{mape, ColumnStore, Dataset, Scaler};
pub use flat::FlatForest;
pub use forest::{ForestParams, RandomForest, TrainBackend};
pub use incremental::{IncrementalModel, IncrementalParams, ModelKind};
pub use knn::KnnRegressor;
pub use linear::RidgeSgd;
pub use mlp::MlpRegressor;
pub use pca::Pca;
pub use svr::LinearSvr;
pub use tree::{RegressionTree, TreeParams};
