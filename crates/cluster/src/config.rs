//! Server and cluster configuration (paper Table 4).

use crate::resources::Demand;

/// Static description of one physical server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Physical cores across all sockets.
    pub cores: u32,
    /// Hardware threads (SMT) across all sockets.
    pub threads: u32,
    /// Number of CPU sockets; cores, LLC and memory bandwidth are
    /// partitioned evenly across sockets.
    pub sockets: u32,
    /// Memory capacity, GB.
    pub memory_gb: f64,
    /// Shared last-level cache per socket, MB.
    pub llc_mb_per_socket: f64,
    /// Memory bandwidth per socket, GB/s.
    pub membw_gbs_per_socket: f64,
    /// Disk bandwidth (server-wide), MB/s.
    pub disk_mbs: f64,
    /// Network bandwidth (server-wide), MB/s.
    pub net_mbs: f64,
    /// Base CPU frequency, GHz.
    pub base_freq_ghz: f64,
}

impl ServerSpec {
    /// The paper's testbed node: Intel Xeon E7-4820v4, 4 sockets, 40
    /// physical cores / 80 threads, 25 MB LLC per socket, 256 GB RAM,
    /// 960 GB SSD, 2.0 GHz base frequency (Table 4). Bandwidth figures are
    /// representative for that platform (E7-4820v4: ~68 GB/s per socket DDR4;
    /// SATA SSD ~500 MB/s; 10 GbE ~1250 MB/s).
    pub fn paper_node() -> Self {
        Self {
            cores: 40,
            threads: 80,
            sockets: 4,
            memory_gb: 256.0,
            llc_mb_per_socket: 25.0,
            membw_gbs_per_socket: 68.0,
            disk_mbs: 500.0,
            net_mbs: 1250.0,
            base_freq_ghz: 2.0,
        }
    }

    /// A small node for fast unit tests: 1 socket, 4 cores, tight caches.
    pub fn small() -> Self {
        Self {
            cores: 4,
            threads: 8,
            sockets: 1,
            memory_gb: 16.0,
            llc_mb_per_socket: 8.0,
            membw_gbs_per_socket: 20.0,
            disk_mbs: 200.0,
            net_mbs: 500.0,
            base_freq_ghz: 2.0,
        }
    }

    /// A two-socket node for tests of per-socket placement and contention.
    pub fn dual_socket() -> Self {
        Self {
            cores: 8,
            threads: 16,
            sockets: 2,
            memory_gb: 32.0,
            llc_mb_per_socket: 10.0,
            membw_gbs_per_socket: 25.0,
            disk_mbs: 300.0,
            net_mbs: 800.0,
            base_freq_ghz: 2.0,
        }
    }

    /// Physical cores per socket.
    pub fn cores_per_socket(&self) -> f64 {
        self.cores as f64 / self.sockets as f64
    }

    /// Hardware threads per socket.
    pub fn threads_per_socket(&self) -> f64 {
        self.threads as f64 / self.sockets as f64
    }

    /// Total capacity as a [`Demand`]-shaped vector (socket-local resources
    /// summed across sockets) — used for normalising demands.
    pub fn total_capacity(&self) -> Demand {
        Demand::new(
            self.cores as f64,
            self.membw_gbs_per_socket * self.sockets as f64,
            self.llc_mb_per_socket * self.sockets as f64,
            self.disk_mbs,
            self.net_mbs,
            self.memory_gb,
        )
    }
}

/// A cluster of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Per-server specifications, index = server id.
    pub servers: Vec<ServerSpec>,
}

impl ClusterConfig {
    /// Homogeneous cluster of `n` copies of `spec`.
    pub fn homogeneous(n: usize, spec: ServerSpec) -> Self {
        Self {
            servers: vec![spec; n],
        }
    }

    /// The paper's 8-node testbed (Table 4).
    pub fn paper_testbed() -> Self {
        Self::homogeneous(8, ServerSpec::paper_node())
    }

    /// Number of servers (`S` in the paper's spatial-overlap coding).
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_table4() {
        let c = ClusterConfig::paper_testbed();
        assert_eq!(c.num_servers(), 8);
        let s = &c.servers[0];
        assert_eq!(s.cores, 40);
        assert_eq!(s.threads, 80);
        assert_eq!(s.sockets, 4);
        assert_eq!(s.memory_gb, 256.0);
        assert_eq!(s.llc_mb_per_socket, 25.0);
        assert_eq!(s.base_freq_ghz, 2.0);
    }

    #[test]
    fn cores_per_socket() {
        let s = ServerSpec::paper_node();
        assert_eq!(s.cores_per_socket(), 10.0);
        assert_eq!(s.threads_per_socket(), 20.0);
    }

    #[test]
    fn total_capacity_shape() {
        let s = ServerSpec::small();
        let cap = s.total_capacity();
        assert_eq!(cap.get(crate::resources::Resource::Cpu), 4.0);
        assert_eq!(cap.get(crate::resources::Resource::Llc), 8.0);
        assert_eq!(cap.get(crate::resources::Resource::Memory), 16.0);
    }

    #[test]
    fn homogeneous_clones_spec() {
        let c = ClusterConfig::homogeneous(3, ServerSpec::small());
        assert_eq!(c.num_servers(), 3);
        assert_eq!(c.servers[0], c.servers[2]);
    }
}
