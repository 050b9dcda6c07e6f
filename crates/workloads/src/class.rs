//! The paper's three-way workload taxonomy (Table 1).

/// Workload class, determining which QoS metric applies and how the
/// prediction model's temporal-overlap code is formed (paper §3.3):
///
/// * **LS** — QoS is IPC / p99 tail latency; `D = 0`, `T = 0` (invoked
///   repeatedly, so QPS — not start delay — is the interference factor).
/// * **SC** — QoS is job completion time; `D` is the start delay relative to
///   the first-arriving job, `T` its solo-run lifetime.
/// * **BG** — lenient requirements; never a prediction target, but still a
///   source of interference (coded like SC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Scheduled-background: triggered or scheduled intermittently, no
    /// latency requirements (IoT data collection, monitoring).
    Background,
    /// Short-term computing: minute-level processing times; millisecond
    /// changes in completion time are trivial (big data, linear algebra).
    ShortTerm,
    /// Latency-sensitive: frequent invocations; millisecond latency
    /// increases degrade user experience (web search, e-commerce, social
    /// networks).
    LatencySensitive,
}

impl WorkloadClass {
    /// Whether the class uses the start-delay/lifetime temporal code
    /// (SC/BG) rather than the zeroed LS form.
    pub fn uses_temporal_code(self) -> bool {
        !matches!(self, WorkloadClass::LatencySensitive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_zeroes_temporal_code() {
        assert!(!WorkloadClass::LatencySensitive.uses_temporal_code());
        assert!(WorkloadClass::ShortTerm.uses_temporal_code());
        assert!(WorkloadClass::Background.uses_temporal_code());
    }
}
