//! Placement policy hook used for initial deployment and autoscaling.
//!
//! The platform is policy-agnostic: it surfaces a read-only
//! [`ClusterView`] and asks a [`Placer`] where a new instance should go.
//! The Gsight scheduler (crate `sched`) and the Best-Fit / Worst-Fit
//! baselines (crate `baselines`) implement this trait.

use cluster::{Demand, ServerState};
use workloads::{FunctionSpec, Workload};

/// Read-only view of cluster occupancy offered to placement policies.
pub struct ClusterView<'a> {
    servers: &'a [ServerState],
    /// Per-server liveness; `None` (a view built by [`ClusterView::new`])
    /// means every server is alive.
    alive: Option<&'a [bool]>,
}

impl<'a> ClusterView<'a> {
    /// Wrap the server list.
    pub fn new(servers: &'a [ServerState]) -> Self {
        Self {
            servers,
            alive: None,
        }
    }

    /// Wrap the server list together with a liveness mask (every view the
    /// engine builds); dead servers never satisfy [`ClusterView::fits`].
    pub fn with_liveness(servers: &'a [ServerState], alive: &'a [bool]) -> Self {
        debug_assert_eq!(servers.len(), alive.len());
        Self {
            servers,
            alive: Some(alive),
        }
    }

    /// Whether a server is up (always true without a liveness mask).
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive.is_none_or(|a| a[idx])
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// One server's state.
    pub fn server(&self, idx: usize) -> &ServerState {
        &self.servers[idx]
    }

    /// Iterate servers with indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ServerState)> {
        self.servers.iter().enumerate()
    }

    /// Remaining CPU headroom (cores) on a server.
    pub fn cpu_headroom(&self, idx: usize) -> f64 {
        let s = &self.servers[idx];
        s.spec().cores as f64 - s.total_demand().get(cluster::Resource::Cpu)
    }

    /// Remaining memory headroom (GB) on a server.
    pub fn memory_headroom(&self, idx: usize) -> f64 {
        let s = &self.servers[idx];
        s.spec().memory_gb - s.total_demand().get(cluster::Resource::Memory)
    }

    /// Whether a demand fits a server's remaining CPU and memory capacity.
    /// Dead servers (see [`ClusterView::with_liveness`]) never fit.
    pub fn fits(&self, idx: usize, demand: &Demand) -> bool {
        self.is_alive(idx)
            && self.cpu_headroom(idx) >= demand.get(cluster::Resource::Cpu)
            && self.memory_headroom(idx) >= demand.get(cluster::Resource::Memory)
    }
}

/// A placement decision: server and socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// Target server index.
    pub server: usize,
    /// Target socket on that server.
    pub socket: usize,
}

/// Journal record for one placement decision — initial deploy, autoscaler
/// scale-out, or crash-recovery re-warm.
pub(crate) fn placement_journal_event(
    kind: obs::journal::PlacementKind,
    wl: usize,
    node: usize,
    p: &PlacementDecision,
) -> obs::journal::JournalEvent {
    obs::journal::JournalEvent::Placement {
        kind,
        wl: wl as u32,
        node: node as u32,
        server: p.server as u32,
        socket: p.socket as u32,
    }
}

/// Placement policy invoked at scale-out time.
pub trait Placer {
    /// Choose where a new instance of `(workload, node)` should run, or
    /// `None` to refuse the scale-out (no feasible placement).
    fn place(
        &mut self,
        view: &ClusterView<'_>,
        workload: &Workload,
        node: usize,
        spec: &FunctionSpec,
    ) -> Option<PlacementDecision>;

    /// Simulation-time hint, called by the platform right before
    /// [`Placer::place`] so audit-logging policies can timestamp their
    /// decision records. Default: ignored.
    fn note_time(&mut self, _now_ms: f64) {}

    /// Fault hook: the interference predictor became (un)available.
    /// Policies that depend on a predictor should switch to/from an
    /// interference-oblivious fallback. Default: ignored.
    fn set_predictor_available(&mut self, _available: bool) {}

    /// Fault hook: a server crashed and its instances are gone. Policies
    /// that mirror cluster state (e.g. per-workload instance lists) must
    /// drop anything placed there. Default: ignored.
    fn note_server_down(&mut self, _server: usize) {}

    /// Downcast support, so experiments can recover a concrete policy (and
    /// its audit log / predictor-call counters) from the boxed trait object
    /// the simulation owns.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A policy that never scales out — used by the controlled interference
/// experiments where placement is fixed by hand.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoScaling;

impl Placer for NoScaling {
    fn place(
        &mut self,
        _view: &ClusterView<'_>,
        _workload: &Workload,
        _node: usize,
        _spec: &FunctionSpec,
    ) -> Option<PlacementDecision> {
        None
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Boundedness, InstanceLoad, Sensitivity, ServerSpec};

    fn view_fixture() -> Vec<ServerState> {
        let mut a = ServerState::new(ServerSpec::small()); // 4 cores, 16 GB
        a.add(InstanceLoad {
            demand: Demand::new(3.0, 0.0, 0.0, 0.0, 0.0, 10.0),
            bounded: Boundedness::cpu_bound(),
            sens: Sensitivity::immune(),
            socket: 0,
        });
        let b = ServerState::new(ServerSpec::small());
        vec![a, b]
    }

    #[test]
    fn headroom_accounting() {
        let servers = view_fixture();
        let v = ClusterView::new(&servers);
        assert!((v.cpu_headroom(0) - 1.0).abs() < 1e-12);
        assert!((v.cpu_headroom(1) - 4.0).abs() < 1e-12);
        assert!((v.memory_headroom(0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn fits_checks_cpu_and_memory() {
        let servers = view_fixture();
        let v = ClusterView::new(&servers);
        let small = Demand::new(0.5, 0.0, 0.0, 0.0, 0.0, 1.0);
        let big_cpu = Demand::new(2.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        let big_mem = Demand::new(0.5, 0.0, 0.0, 0.0, 0.0, 8.0);
        assert!(v.fits(0, &small));
        assert!(!v.fits(0, &big_cpu));
        assert!(!v.fits(0, &big_mem));
        assert!(v.fits(1, &big_cpu));
    }

    #[test]
    fn dead_server_never_fits() {
        let servers = view_fixture();
        let alive = [true, false];
        let v = ClusterView::with_liveness(&servers, &alive);
        let small = Demand::new(0.5, 0.0, 0.0, 0.0, 0.0, 1.0);
        assert!(v.fits(0, &small));
        assert!(!v.fits(1, &small), "server 1 is dead: nothing fits");
        assert!(v.is_alive(0));
        assert!(!v.is_alive(1));
        // Without a mask everything is alive.
        assert!(ClusterView::new(&servers).is_alive(1));
    }

    #[test]
    fn no_scaling_refuses() {
        let servers = view_fixture();
        let v = ClusterView::new(&servers);
        let w = workloads::functionbench::dd();
        let spec = w.graph.func(w.graph.roots()[0]).clone();
        assert!(NoScaling.place(&v, &w, 0, &spec).is_none());
    }
}
