//! Runtime state of one simulated server: the set of function instances
//! currently pinned to its sockets.

use crate::config::ServerSpec;
use crate::contention::ContentionState;
use crate::resources::{Boundedness, Demand, Resource, Sensitivity};
use std::collections::BTreeMap;

/// Opaque handle to an instance placed on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

/// The load one placed instance exerts on its server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceLoad {
    /// Solo-run resource demand of the currently-executing phase.
    pub demand: Demand,
    /// Bottleneck decomposition of the phase.
    pub bounded: Boundedness,
    /// Memory-subsystem sensitivity of the phase.
    pub sens: Sensitivity,
    /// Socket the instance is pinned to.
    pub socket: usize,
}

/// Mutable server state: placed instances and their socket pinning.
///
/// Uses a `BTreeMap` so iteration order is deterministic — the contention
/// model and metric synthesis must not depend on hash order.
#[derive(Debug, Clone)]
pub struct ServerState {
    spec: ServerSpec,
    instances: BTreeMap<InstanceId, InstanceLoad>,
    next_id: u64,
}

impl ServerState {
    /// Empty server with the given hardware spec.
    pub fn new(spec: ServerSpec) -> Self {
        Self {
            spec,
            instances: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Place an instance. Panics if the socket index is out of range —
    /// placement decisions upstream must already be valid.
    pub fn add(&mut self, load: InstanceLoad) -> InstanceId {
        assert!(
            load.socket < self.spec.sockets as usize,
            "socket {} out of range (server has {})",
            load.socket,
            self.spec.sockets
        );
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.instances.insert(id, load);
        id
    }

    /// Remove an instance, returning its load (None if unknown).
    pub fn remove(&mut self, id: InstanceId) -> Option<InstanceLoad> {
        self.instances.remove(&id)
    }

    /// Look up an instance's load.
    pub fn get(&self, id: InstanceId) -> Option<&InstanceLoad> {
        self.instances.get(&id)
    }

    /// Replace an instance's load (e.g. on a phase transition). Returns
    /// false if the instance is unknown.
    pub fn update(&mut self, id: InstanceId, load: InstanceLoad) -> bool {
        match self.instances.get_mut(&id) {
            Some(slot) => {
                assert!(
                    load.socket < self.spec.sockets as usize,
                    "socket out of range"
                );
                *slot = load;
                true
            }
            None => false,
        }
    }

    /// Number of placed instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the server is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Deterministic iteration over `(id, load)`.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &InstanceLoad)> {
        self.instances.iter().map(|(&id, load)| (id, load))
    }

    /// Socket with the lowest current CPU demand, optionally excluding one
    /// socket (used when migrating a corunner *away* from a victim).
    pub fn least_loaded_socket(&self, exclude: Option<usize>) -> usize {
        let sockets = self.spec.sockets as usize;
        let mut cpu = vec![0.0f64; sockets];
        for load in self.instances.values() {
            cpu[load.socket] += load.demand.get(Resource::Cpu);
        }
        (0..sockets)
            .filter(|&s| Some(s) != exclude)
            .min_by(|&a, &b| cpu[a].partial_cmp(&cpu[b]).expect("NaN cpu load"))
            .unwrap_or(0)
    }

    /// Total demand summed over all instances (for utilization accounting).
    pub fn total_demand(&self) -> Demand {
        self.instances
            .values()
            .fold(Demand::zero(), |acc, l| acc.add(&l.demand))
    }

    /// Snapshot the contention state for the current instance set.
    pub fn contention(&self) -> ContentionState {
        ContentionState::compute(&self.spec, self.instances.values())
    }

    /// CPU utilization fraction: total CPU demand over physical cores,
    /// clamped to 1.
    pub fn cpu_utilization(&self) -> f64 {
        (self.total_demand().get(Resource::Cpu) / self.spec.cores as f64).min(1.0)
    }

    /// Memory utilization fraction, clamped to 1.
    pub fn memory_utilization(&self) -> f64 {
        (self.total_demand().get(Resource::Memory) / self.spec.memory_gb).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(cpu: f64, socket: usize) -> InstanceLoad {
        InstanceLoad {
            demand: Demand::new(cpu, 1.0, 1.0, 0.0, 0.0, 0.5),
            bounded: Boundedness::cpu_bound(),
            sens: Sensitivity::new(0.5, 0.5, 0.2),
            socket,
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut s = ServerState::new(ServerSpec::small());
        let id = s.add(load(1.0, 0));
        assert_eq!(s.len(), 1);
        assert!(s.get(id).is_some());
        let removed = s.remove(id).unwrap();
        assert_eq!(removed.demand.get(Resource::Cpu), 1.0);
        assert!(s.is_empty());
        assert!(s.remove(id).is_none());
    }

    #[test]
    fn ids_unique_even_after_removal() {
        let mut s = ServerState::new(ServerSpec::small());
        let a = s.add(load(1.0, 0));
        s.remove(a);
        let b = s.add(load(1.0, 0));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "socket")]
    fn add_rejects_bad_socket() {
        let mut s = ServerState::new(ServerSpec::small());
        s.add(load(1.0, 5));
    }

    #[test]
    fn least_loaded_socket_picks_empty() {
        let mut s = ServerState::new(ServerSpec::dual_socket());
        s.add(load(3.0, 0));
        assert_eq!(s.least_loaded_socket(None), 1);
        assert_eq!(s.least_loaded_socket(Some(1)), 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = ServerState::new(ServerSpec::small()); // 4 cores, 16 GB
        s.add(load(2.0, 0));
        s.add(load(1.0, 0));
        assert!((s.cpu_utilization() - 0.75).abs() < 1e-12);
        assert!((s.memory_utilization() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamped() {
        let mut s = ServerState::new(ServerSpec::small());
        for _ in 0..10 {
            s.add(load(4.0, 0));
        }
        assert_eq!(s.cpu_utilization(), 1.0);
    }

    #[test]
    fn update_replaces_load() {
        let mut s = ServerState::new(ServerSpec::small());
        let id = s.add(load(1.0, 0));
        assert!(s.update(id, load(2.5, 0)));
        assert_eq!(s.get(id).unwrap().demand.get(Resource::Cpu), 2.5);
        assert!(!s.update(InstanceId(42), load(1.0, 0)));
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut s = ServerState::new(ServerSpec::small());
        let ids: Vec<InstanceId> = (0..5).map(|i| s.add(load(i as f64, 0))).collect();
        let seen: Vec<InstanceId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, ids);
    }
}
