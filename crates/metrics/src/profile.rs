//! Solo-run profiles (paper §3.2).
//!
//! Gsight profiles each function *alone* on a dedicated server, sampling the
//! metric vector once per second for a profiling window (5 minutes in the
//! paper, driven by an open-loop load generator). The resulting
//! [`FunctionProfile`] — not any co-location measurement — is what the
//! prediction model consumes, which is the paper's key cost saving over
//! pairwise or microbenchmark profiling.
//!
//! A profile's samples are shared and immutable: the series and the
//! function name sit behind [`Arc`]s, so cloning a [`FunctionProfile`] —
//! and with it a [`WorkloadProfile`] or any scenario built from one — is
//! O(1) per function and never copies the 1 Hz series. The scheduler
//! builds one hypothetical scenario per candidate probe, and the corpus
//! keeps one per labelled sample; all of them point at the same samples.

use crate::metric::MetricVector;
use simcore::SimTime;
use std::sync::Arc;

/// One 1 Hz sample of a function's metric vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSample {
    /// Time offset from the start of the profiling window.
    pub at: SimTime,
    /// Metric values observed in this second.
    pub metrics: MetricVector,
}

/// Solo-run profile of one function.
///
/// Profiles are write-once: a changed window means a new profile. The
/// samples and the name are shared, immutable storage, so `clone` is O(1)
/// (two reference-count increments) and clones compare equal to, and
/// point at the same samples as, their source. The whole-window mean is
/// fixed at construction, so [`mean`](Self::mean) — the value the spatial
/// coding reads for every function on every featurized scenario — is a
/// copy, not an O(samples) reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Name of the profiled function (unique within its workload).
    pub function: Arc<str>,
    /// 1 Hz samples over the profiling window, in time order. Shared by
    /// every clone and immutable — the cached mean is not recomputed.
    pub samples: Arc<[ProfileSample]>,
    /// Whether the samples include the cold-start phase (paper §5.2: a cold
    /// start is treated as an ordinary execution phase; the predictor picks
    /// the profile variant matching whether the invocation is cold or warm).
    pub includes_cold_start: bool,
    /// Whole-window mean, precomputed by [`new`](Self::new) with the same
    /// fold as [`MetricVector::mean_of`] (sum in sample order, then scale).
    mean: MetricVector,
}

impl FunctionProfile {
    /// Build a profile from raw samples (moved once into shared storage).
    pub fn new(
        function: impl Into<Arc<str>>,
        samples: Vec<ProfileSample>,
        includes_cold_start: bool,
    ) -> Self {
        let mut acc = MetricVector::zero();
        for s in &samples {
            acc = acc.add(&s.metrics);
        }
        let mean = if samples.is_empty() {
            MetricVector::zero()
        } else {
            acc.scale(1.0 / samples.len() as f64)
        };
        Self {
            function: function.into(),
            samples: samples.into(),
            includes_cold_start,
            mean,
        }
    }

    /// Mean metric vector over the whole window — the row the spatial
    /// overlap matrix carries for this function. Precomputed; O(1).
    #[inline]
    pub fn mean(&self) -> MetricVector {
        self.mean
    }

    /// Duration covered by the profile (time of the last sample, zero when
    /// empty).
    pub fn duration(&self) -> SimTime {
        self.samples.last().map(|s| s.at).unwrap_or(SimTime::ZERO)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Solo-run profiles for every function of one workload, in call-path order.
///
/// For *workload-level* profiling (the baseline in paper Fig. 5 /
/// Observation 6), use [`WorkloadProfile::merged`] which collapses all
/// functions into a single monolithic profile. Cloning copies only the
/// outer vector and the workload name: every function's samples are shared.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name.
    pub workload: String,
    /// One profile per function.
    pub functions: Vec<FunctionProfile>,
}

impl WorkloadProfile {
    /// Build from per-function profiles.
    pub fn new(workload: impl Into<String>, functions: Vec<FunctionProfile>) -> Self {
        Self {
            workload: workload.into(),
            functions,
        }
    }

    /// Find a function profile by name.
    pub fn function(&self, name: &str) -> Option<&FunctionProfile> {
        self.functions.iter().find(|f| &*f.function == name)
    }

    /// Collapse to a single monolithic profile by summing metric vectors of
    /// concurrently-sampled functions (workload-level profiling treats the
    /// whole application as one container, so rates add).
    pub fn merged(&self) -> FunctionProfile {
        let n = self
            .functions
            .iter()
            .map(|f| f.samples.len())
            .max()
            .unwrap_or(0);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = MetricVector::zero();
            let mut at = SimTime::ZERO;
            for f in &self.functions {
                if let Some(s) = f.samples.get(i) {
                    acc = acc.add(&s.metrics);
                    at = s.at;
                }
            }
            samples.push(ProfileSample { at, metrics: acc });
        }
        FunctionProfile::new(
            format!("{}::merged", self.workload),
            samples,
            self.functions.iter().any(|f| f.includes_cold_start),
        )
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the workload has no profiled functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;

    fn sample(at_s: f64, ipc: f64) -> ProfileSample {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        ProfileSample {
            at: SimTime::from_secs(at_s),
            metrics: m,
        }
    }

    #[test]
    fn profile_mean() {
        let p = FunctionProfile::new("f", vec![sample(0.0, 1.0), sample(1.0, 3.0)], false);
        assert_eq!(p.mean().get(Metric::Ipc), 2.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn duration_of_empty_profile() {
        let p = FunctionProfile::new("f", vec![], false);
        assert_eq!(p.duration(), SimTime::ZERO);
        assert!(p.is_empty());
    }

    #[test]
    fn workload_lookup() {
        let w = WorkloadProfile::new(
            "sn",
            vec![
                FunctionProfile::new("a", vec![sample(0.0, 1.0)], false),
                FunctionProfile::new("b", vec![sample(0.0, 2.0)], true),
            ],
        );
        assert!(w.function("a").is_some());
        assert!(w.function("missing").is_none());
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn merged_sums_concurrent_samples() {
        let w = WorkloadProfile::new(
            "sn",
            vec![
                FunctionProfile::new("a", vec![sample(0.0, 1.0), sample(1.0, 1.0)], false),
                FunctionProfile::new("b", vec![sample(0.0, 2.0)], false),
            ],
        );
        let m = w.merged();
        assert_eq!(m.samples.len(), 2);
        assert_eq!(m.samples[0].metrics.get(Metric::Ipc), 3.0);
        assert_eq!(m.samples[1].metrics.get(Metric::Ipc), 1.0);
    }

    #[test]
    fn clones_share_samples_and_names() {
        let w = WorkloadProfile::new(
            "sn",
            vec![
                FunctionProfile::new("a", vec![sample(0.0, 1.0), sample(1.0, 4.0)], false),
                FunctionProfile::new("b", vec![sample(0.0, 2.0)], true),
            ],
        );
        let f = w.functions[0].clone();
        assert!(Arc::ptr_eq(&f.samples, &w.functions[0].samples));
        assert!(Arc::ptr_eq(&f.function, &w.functions[0].function));
        assert_eq!(f.mean(), w.functions[0].mean());
        assert_eq!(f.duration(), w.functions[0].duration());

        let copy = w.clone();
        assert_eq!(copy, w);
        for (c, o) in copy.functions.iter().zip(&w.functions) {
            assert!(Arc::ptr_eq(&c.samples, &o.samples));
            assert!(Arc::ptr_eq(&c.function, &o.function));
            assert_eq!(c.mean(), o.mean());
            assert_eq!(c.duration(), o.duration());
        }
        assert_eq!(copy.merged(), w.merged());
        assert_eq!(copy.merged().mean().get(Metric::Ipc), 3.5);
    }

    #[test]
    fn merged_propagates_cold_start_flag() {
        let w = WorkloadProfile::new("sn", vec![FunctionProfile::new("a", vec![], true)]);
        assert!(w.merged().includes_cold_start);
    }
}
