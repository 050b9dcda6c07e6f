//! The shared-resource contention model — the mechanism that *creates*
//! partial interference in this reproduction.
//!
//! Given the set of instances on a server, the model computes, per instance,
//! how much each shared resource stretches its execution:
//!
//! * **CPU**: plain timesharing — when socket CPU demand `X` exceeds the
//!   socket's cores `C`, every CPU-bound phase stretches by `X/C`, plus a
//!   superlinear SMT/scheduling term scaled by the phase's `smt`
//!   sensitivity.
//! * **Memory bandwidth** (socket-local): oversubscription pressure
//!   `(X/C − 1)⁺` stretches memory-sensitive phases.
//! * **LLC** (socket-local): when the sum of footprints exceeds the cache,
//!   every footprint is squeezed proportionally; the squeeze fraction drives
//!   extra misses for LLC-sensitive phases.
//! * **Disk / network** (server-wide): bandwidth shares stretch I/O-bound
//!   phases by `max(1, X/C)`.
//! * **Memory capacity** (server-wide): oversubscription models swapping
//!   with a steep multiplicative penalty on everything.
//!
//! A phase's total slowdown combines these through its
//! [`Boundedness`](crate::resources::Boundedness) decomposition, so a
//! network-bound function is untouched by a CPU-hungry corunner
//! (Observation 1's volatility) while two cache-hungry functions on the same
//! socket hurt each other badly.

use crate::config::ServerSpec;
use crate::resources::{Resource, Sensitivity};
use crate::server::InstanceLoad;

/// Aggregate load on one socket.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SocketLoad {
    /// Sum of CPU core demand.
    pub cpu: f64,
    /// Sum of memory-bandwidth demand (GB/s).
    pub membw: f64,
    /// Sum of LLC footprints (MB).
    pub llc: f64,
}

/// Snapshot of a server's contention state for one instance set.
///
/// The socket-wide and server-wide pressure terms are computed once, when
/// the loads are aggregated; [`ContentionState::instance`] then adds only
/// the instance's own terms. `Default` is an empty placeholder to
/// [`recompute`](ContentionState::recompute) into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContentionState {
    /// Per-socket aggregate loads.
    sockets: Vec<SocketLoad>,
    cores_per_socket: f64,
    membw_per_socket: f64,
    llc_per_socket: f64,
    disk_cap: f64,
    net_cap: f64,
    /// Per-socket pressure terms, parallel to `sockets`.
    terms: Vec<SocketTerms>,
    /// Server-wide disk stretch `max(1, X/C)`.
    disk_stretch: f64,
    /// Server-wide network stretch `max(1, X/C)`.
    net_stretch: f64,
    /// Server-wide memory-capacity oversubscription `(X/C − 1)⁺`.
    mem_excess: f64,
}

/// The pressure terms every instance on one socket shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SocketTerms {
    cpu_share: f64,
    membw_pressure: f64,
    llc_squeeze: f64,
}

/// The contention experienced by one instance, decomposed by mechanism.
///
/// `slowdown` is the headline number: solo phase time × slowdown = corun
/// phase time. The components are kept so the metric synthesizer can derive
/// consistent counter values (IPC from memory factors, context switches from
/// CPU sharing, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceContention {
    /// CPU timesharing stretch (≥ 1), including the SMT term.
    pub cpu_stretch: f64,
    /// Raw CPU oversubscription ratio `X/C` (may be < 1).
    pub cpu_share: f64,
    /// Memory-bandwidth oversubscription pressure `(X/C − 1)⁺` on the
    /// instance's socket.
    pub membw_pressure: f64,
    /// LLC squeeze fraction in `[0, 1)`: how much of every footprint is
    /// pushed out of the socket's cache.
    pub llc_squeeze: f64,
    /// Combined memory-subsystem CPI inflation factor (≥ 1) after applying
    /// this instance's sensitivities.
    pub mem_factor: f64,
    /// Disk bandwidth stretch (≥ 1).
    pub disk_stretch: f64,
    /// Network bandwidth stretch (≥ 1).
    pub net_stretch: f64,
    /// Memory-capacity oversubscription `(X/C − 1)⁺` (server-wide).
    pub mem_excess: f64,
    /// Total execution-time stretch (≥ 1).
    pub slowdown: f64,
}

impl InstanceContention {
    /// The contention state of an instance running completely alone.
    pub fn solo() -> Self {
        Self {
            cpu_stretch: 1.0,
            cpu_share: 0.0,
            membw_pressure: 0.0,
            llc_squeeze: 0.0,
            mem_factor: 1.0,
            disk_stretch: 1.0,
            net_stretch: 1.0,
            mem_excess: 0.0,
            slowdown: 1.0,
        }
    }
}

/// Steepness of the swapping penalty when memory capacity is oversubscribed.
const SWAP_PENALTY: f64 = 4.0;

/// Smooth memory-bandwidth pressure curve over utilization `u = X/C`.
///
/// Real DRAM loaded latency grows smoothly with bandwidth utilization and
/// steeply near saturation; a hard `(u − 1)⁺` threshold would make
/// sub-capacity colocations interference-free, which contradicts the
/// measured behaviour the paper builds on. Convex ramp below capacity,
/// linear growth beyond:
///
/// ```text
/// p(u) = 0.5·u⁴                     for u ≤ 1
/// p(u) = min(1, 0.5 + 2·(u − 1))    for u > 1
/// ```
///
/// The cap bounds the sensitivity-weighted stretch: once bandwidth is
/// saturated the hardware degrades toward fair-share throughput (≈ `u×`
/// stretch for fully bandwidth-bound phases), not unboundedly.
#[inline]
pub fn membw_curve(u: f64) -> f64 {
    if u <= 1.0 {
        0.5 * u.powi(4)
    } else {
        (0.5 + 2.0 * (u - 1.0)).min(1.0)
    }
}

/// LLC squeeze fraction of `footprint` MB on a `cache` MB cache:
/// `1 − min(1, C/F)`.
#[inline]
fn llc_squeeze(footprint: f64, cache: f64) -> f64 {
    if footprint <= cache {
        0.0
    } else {
        1.0 - cache / footprint
    }
}

impl ContentionState {
    /// Aggregate the loads of an instance set on a server.
    pub fn compute<'a>(
        spec: &ServerSpec,
        instances: impl Iterator<Item = &'a InstanceLoad>,
    ) -> Self {
        let mut state = Self::default();
        state.recompute(spec, instances);
        state
    }

    /// [`ContentionState::compute`] in place, reusing the per-socket
    /// buffers.
    pub fn recompute<'a>(
        &mut self,
        spec: &ServerSpec,
        instances: impl Iterator<Item = &'a InstanceLoad>,
    ) {
        self.sockets.clear();
        self.sockets
            .resize(spec.sockets as usize, SocketLoad::default());
        let (mut disk, mut net, mut memory) = (0.0, 0.0, 0.0);
        for load in instances {
            let s = &mut self.sockets[load.socket];
            s.cpu += load.demand.get(Resource::Cpu);
            s.membw += load.demand.get(Resource::MemBw);
            s.llc += load.demand.get(Resource::Llc);
            disk += load.demand.get(Resource::Disk);
            net += load.demand.get(Resource::Net);
            memory += load.demand.get(Resource::Memory);
        }
        self.cores_per_socket = spec.cores_per_socket();
        self.membw_per_socket = spec.membw_gbs_per_socket;
        self.llc_per_socket = spec.llc_mb_per_socket;
        self.disk_cap = spec.disk_mbs;
        self.net_cap = spec.net_mbs;

        self.terms.clear();
        for s in &self.sockets {
            self.terms.push(SocketTerms {
                cpu_share: s.cpu / self.cores_per_socket,
                membw_pressure: membw_curve(s.membw / self.membw_per_socket),
                llc_squeeze: llc_squeeze(s.llc, self.llc_per_socket),
            });
        }
        self.disk_stretch = (disk / self.disk_cap).max(1.0);
        self.net_stretch = (net / self.net_cap).max(1.0);
        self.mem_excess = (memory / spec.memory_gb - 1.0).max(0.0);
    }

    /// Full contention decomposition for one instance.
    ///
    /// Every component is normalised *relative to the instance running
    /// alone*: a phase's spec duration is its measured solo duration, so
    /// the model must report the additional stretch corunners cause, not
    /// the absolute pressure (which includes the instance's own demand).
    /// An instance alone on a server therefore always gets slowdown 1.
    #[inline]
    pub fn instance(&self, load: &InstanceLoad) -> InstanceContention {
        let shared = self.terms[load.socket];
        let smt = load.sens.smt;
        let cpu_timeshare = |u: f64| {
            if u <= 1.0 {
                1.0
            } else {
                u * (1.0 + smt * (u - 1.0))
            }
        };
        let cpu_share = shared.cpu_share;
        let cpu_own = load.demand.get(Resource::Cpu) / self.cores_per_socket;
        let cpu_stretch = cpu_timeshare(cpu_share) / cpu_timeshare(cpu_own);

        let p_all = shared.membw_pressure;
        let p_own = membw_curve(load.demand.get(Resource::MemBw) / self.membw_per_socket);
        let membw_pressure = (p_all - p_own).max(0.0);

        let sq_all = shared.llc_squeeze;
        let sq_own = llc_squeeze(load.demand.get(Resource::Llc), self.llc_per_socket);
        let llc_squeeze = (sq_all - sq_own).max(0.0);

        let mem_factor = ((1.0 + load.sens.membw * p_all) / (1.0 + load.sens.membw * p_own))
            * ((1.0 + load.sens.llc * sq_all) / (1.0 + load.sens.llc * sq_own));

        let disk_own = (load.demand.get(Resource::Disk) / self.disk_cap).max(1.0);
        let disk_stretch = self.disk_stretch / disk_own;
        let net_own = (load.demand.get(Resource::Net) / self.net_cap).max(1.0);
        let net_stretch = self.net_stretch / net_own;
        let mem_excess = self.mem_excess;

        let slowdown_core = load.bounded.cpu * cpu_stretch * mem_factor
            + load.bounded.disk * disk_stretch
            + load.bounded.net * net_stretch;
        let slowdown = slowdown_core * (1.0 + SWAP_PENALTY * mem_excess);

        InstanceContention {
            cpu_stretch,
            cpu_share,
            membw_pressure,
            llc_squeeze,
            mem_factor,
            disk_stretch,
            net_stretch,
            mem_excess,
            slowdown,
        }
    }
}

/// Memory-subsystem CPI inflation for given sensitivities and pressures.
#[inline]
pub fn mem_factor(sens: &Sensitivity, membw_pressure: f64, llc_squeeze: f64) -> f64 {
    (1.0 + sens.membw * membw_pressure) * (1.0 + sens.llc * llc_squeeze)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerSpec;
    use crate::resources::{Boundedness, Demand};
    use crate::server::{InstanceId, ServerState};
    use simcore::SimRng;
    use std::collections::BTreeMap;

    fn inst(
        cpu: f64,
        membw: f64,
        llc: f64,
        disk: f64,
        net: f64,
        bounded: Boundedness,
        socket: usize,
    ) -> InstanceLoad {
        InstanceLoad {
            demand: Demand::new(cpu, membw, llc, disk, net, 0.5),
            bounded,
            sens: Sensitivity::new(1.0, 1.0, 0.5),
            socket,
        }
    }

    #[test]
    fn solo_instance_no_slowdown() {
        // small(): 4 cores, 20 GB/s, 8 MB LLC, 200 MB/s disk, 500 MB/s net.
        let mut s = ServerState::new(ServerSpec::small());
        let load = inst(1.0, 2.0, 2.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        s.add(load);
        let c = s.contention();
        let ic = c.instance(&load);
        assert_eq!(ic.slowdown, 1.0);
        assert_eq!(ic.llc_squeeze, 0.0);
        assert_eq!(ic.membw_pressure, 0.0);
    }

    #[test]
    fn cpu_oversubscription_stretches() {
        let mut s = ServerState::new(ServerSpec::small());
        let load = inst(3.0, 0.0, 0.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        s.add(load);
        s.add(load);
        let c = s.contention();
        let ic = c.instance(&load);
        // 6 cores demanded on 4: share 1.5, stretch = 1.5*(1+0.5*0.5) = 1.875.
        assert!((ic.cpu_share - 1.5).abs() < 1e-12);
        assert!((ic.cpu_stretch - 1.875).abs() < 1e-12);
        assert!(ic.slowdown > 1.5);
    }

    #[test]
    fn llc_squeeze_when_footprints_exceed_cache() {
        let mut s = ServerState::new(ServerSpec::small()); // 8 MB LLC
        let load = inst(1.0, 0.0, 6.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        s.add(load);
        s.add(load);
        let c = s.contention();
        let ic = c.instance(&load);
        // 12 MB footprint on 8 MB cache: squeeze = 1 - 8/12 = 1/3.
        assert!((ic.llc_squeeze - 1.0 / 3.0).abs() < 1e-12);
        assert!(ic.mem_factor > 1.3);
        assert!(ic.slowdown > 1.3);
    }

    #[test]
    fn network_bound_immune_to_cpu_contention() {
        let mut s = ServerState::new(ServerSpec::small());
        let mut net_load = inst(0.1, 0.0, 0.1, 0.0, 100.0, Boundedness::net_bound(), 0);
        net_load.sens = Sensitivity::immune();
        s.add(net_load);
        // Heavy CPU corunners.
        let cpu_load = inst(4.0, 0.0, 0.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        s.add(cpu_load);
        s.add(cpu_load);
        let c = s.contention();
        let ic = c.instance(&net_load);
        // Net capacity 500 MB/s, demand 100 MB/s: no stretch at all.
        assert_eq!(ic.slowdown, 1.0);
    }

    #[test]
    fn disk_bound_stretched_by_disk_corunner() {
        let mut s = ServerState::new(ServerSpec::small()); // 200 MB/s disk
        let dd = inst(0.2, 0.0, 0.1, 150.0, 0.0, Boundedness::disk_bound(), 0);
        s.add(dd);
        s.add(dd);
        let c = s.contention();
        let ic = c.instance(&dd);
        // 300 MB/s demanded on 200: stretch 1.5.
        assert!((ic.disk_stretch - 1.5).abs() < 1e-12);
        assert!((ic.slowdown - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sockets_isolate_llc_and_cpu() {
        let spec = ServerSpec::dual_socket(); // 4 cores & 10 MB per socket
        let mut s = ServerState::new(spec);
        let victim = inst(2.0, 0.0, 8.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        s.add(victim);
        // Aggressor on the *other* socket.
        let aggressor = inst(4.0, 0.0, 20.0, 0.0, 0.0, Boundedness::cpu_bound(), 1);
        s.add(aggressor);
        let c = s.contention();
        let ic = c.instance(&victim);
        assert_eq!(ic.slowdown, 1.0, "cross-socket CPU/LLC must not interfere");
        // Same socket now.
        let aggressor_same = InstanceLoad {
            socket: 0,
            ..aggressor
        };
        s.add(aggressor_same);
        let ic2 = s.contention().instance(&victim);
        assert!(ic2.slowdown > 1.2);
    }

    #[test]
    fn memory_oversubscription_penalises_everything() {
        let mut s = ServerState::new(ServerSpec::small()); // 16 GB
        let mut big = inst(0.5, 0.0, 0.0, 0.0, 0.0, Boundedness::cpu_bound(), 0);
        big.demand.set(Resource::Memory, 12.0);
        s.add(big);
        s.add(big);
        let ic = s.contention().instance(&big);
        // 24 GB on 16: excess 0.5, penalty (1 + 4*0.5) = 3.
        assert!((ic.mem_excess - 0.5).abs() < 1e-12);
        assert!((ic.slowdown - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_boundedness_weights_components() {
        let mut s = ServerState::new(ServerSpec::small());
        let mixed = inst(
            2.0,
            0.0,
            0.0,
            150.0,
            0.0,
            Boundedness::new(0.5, 0.5, 0.0),
            0,
        );
        s.add(mixed);
        s.add(mixed);
        let ic = s.contention().instance(&mixed);
        // cpu: share 1.0 -> stretch 1.0; disk: 300/200 -> 1.5.
        // slowdown = 0.5*1.0 + 0.5*1.5 = 1.25.
        assert!((ic.slowdown - 1.25).abs() < 1e-12);
    }

    #[test]
    fn mem_factor_composes_multiplicatively() {
        let sens = Sensitivity::new(2.0, 3.0, 0.0);
        let f = mem_factor(&sens, 0.5, 0.5);
        assert!((f - (1.0 + 1.0) * (1.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn contention_state_solo_constructor() {
        let ic = InstanceContention::solo();
        assert_eq!(ic.slowdown, 1.0);
        assert_eq!(ic.mem_factor, 1.0);
    }

    /// A load on a random socket, with demands from idle to several times
    /// a socket's capacity and memory that can oversubscribe the server.
    fn random_load(rng: &mut SimRng, spec: &ServerSpec) -> InstanceLoad {
        let cpu_w = rng.f64();
        let disk_w = rng.f64() * (1.0 - cpu_w);
        InstanceLoad {
            demand: Demand::new(
                rng.f64() * 6.0,
                rng.f64() * 40.0,
                rng.f64() * 30.0,
                rng.f64() * 300.0,
                rng.f64() * 600.0,
                rng.f64() * 40.0,
            ),
            bounded: Boundedness::new(cpu_w, disk_w, 1.0 - cpu_w - disk_w),
            sens: Sensitivity::new(rng.f64() * 2.0, rng.f64() * 2.0, rng.f64()),
            socket: rng.index(spec.sockets as usize),
        }
    }

    /// Seeded walk of interleaved adds (half the steps), updates and
    /// removes on one server, mirrored into a `BTreeMap` keyed by id;
    /// `check` runs after every step.
    fn random_walk(
        spec: &ServerSpec,
        seed: u64,
        mut check: impl FnMut(&ServerState, &BTreeMap<InstanceId, InstanceLoad>),
    ) {
        let mut rng = SimRng::new(seed);
        let mut s = ServerState::new(spec.clone());
        let mut reference = BTreeMap::new();
        for _ in 0..300 {
            let ids: Vec<InstanceId> = reference.keys().copied().collect();
            let op = if ids.is_empty() { 0 } else { rng.index(4) };
            match op {
                0 | 1 => {
                    let load = random_load(&mut rng, spec);
                    reference.insert(s.add(load), load);
                }
                2 => {
                    let id = ids[rng.index(ids.len())];
                    let load = random_load(&mut rng, spec);
                    assert!(s.update(id, load));
                    reference.insert(id, load);
                }
                _ => {
                    let id = ids[rng.index(ids.len())];
                    assert_eq!(s.remove(id), reference.remove(&id));
                    assert_eq!(s.remove(id), None);
                }
            }
            check(&s, &reference);
        }
    }

    fn specs() -> [(ServerSpec, u64); 3] {
        [
            (ServerSpec::small(), 1),
            (ServerSpec::dual_socket(), 2),
            (ServerSpec::paper_node(), 4),
        ]
    }

    #[test]
    fn server_state_keeps_id_order_under_random_walk() {
        for (spec, seed) in specs() {
            random_walk(&spec, seed, |s, reference| {
                let got: Vec<(InstanceId, InstanceLoad)> =
                    s.iter().map(|(id, l)| (id, *l)).collect();
                let want: Vec<(InstanceId, InstanceLoad)> =
                    reference.iter().map(|(&id, &l)| (id, l)).collect();
                assert_eq!(got, want);
                for (&id, load) in reference {
                    assert_eq!(s.get(id), Some(load));
                }
                // Least-loaded socket as a per-socket array sum over the
                // map, in id order.
                let mut cpu = vec![0.0f64; spec.sockets as usize];
                for load in reference.values() {
                    cpu[load.socket] += load.demand.get(Resource::Cpu);
                }
                for exclude in [None, Some(0)] {
                    let want = (0..cpu.len())
                        .filter(|&k| Some(k) != exclude)
                        .min_by(|&a, &b| cpu[a].partial_cmp(&cpu[b]).unwrap())
                        .unwrap_or(0);
                    assert_eq!(s.least_loaded_socket(exclude), want);
                }
            });
        }
    }

    fn bits(ic: &InstanceContention) -> [u64; 9] {
        [
            ic.cpu_stretch,
            ic.cpu_share,
            ic.membw_pressure,
            ic.llc_squeeze,
            ic.mem_factor,
            ic.disk_stretch,
            ic.net_stretch,
            ic.mem_excess,
            ic.slowdown,
        ]
        .map(f64::to_bits)
    }

    /// The per-instance model written out whole: every socket-wide and
    /// server-wide term recomputed from the raw loads for this instance.
    fn per_instance_oracle(
        spec: &ServerSpec,
        s: &ServerState,
        load: &InstanceLoad,
    ) -> InstanceContention {
        let (mut cpu, mut membw, mut llc) = (0.0, 0.0, 0.0);
        let (mut disk, mut net, mut memory) = (0.0, 0.0, 0.0);
        for (_, l) in s.iter() {
            if l.socket == load.socket {
                cpu += l.demand.get(Resource::Cpu);
                membw += l.demand.get(Resource::MemBw);
                llc += l.demand.get(Resource::Llc);
            }
            disk += l.demand.get(Resource::Disk);
            net += l.demand.get(Resource::Net);
            memory += l.demand.get(Resource::Memory);
        }
        let own = |r: Resource| load.demand.get(r);
        let cores = spec.cores_per_socket();
        let smt = load.sens.smt;
        let timeshare = |u: f64| {
            if u <= 1.0 {
                1.0
            } else {
                u * (1.0 + smt * (u - 1.0))
            }
        };
        let curve = |u: f64| {
            if u <= 1.0 {
                0.5 * u.powi(4)
            } else {
                (0.5 + 2.0 * (u - 1.0)).min(1.0)
            }
        };
        let cache = spec.llc_mb_per_socket;
        let squeeze = |f: f64| if f <= cache { 0.0 } else { 1.0 - cache / f };

        let cpu_share = cpu / cores;
        let cpu_stretch = timeshare(cpu_share) / timeshare(own(Resource::Cpu) / cores);
        let p_all = curve(membw / spec.membw_gbs_per_socket);
        let p_own = curve(own(Resource::MemBw) / spec.membw_gbs_per_socket);
        let sq_all = squeeze(llc);
        let sq_own = squeeze(own(Resource::Llc));
        let mem_factor = ((1.0 + load.sens.membw * p_all) / (1.0 + load.sens.membw * p_own))
            * ((1.0 + load.sens.llc * sq_all) / (1.0 + load.sens.llc * sq_own));
        let disk_stretch =
            (disk / spec.disk_mbs).max(1.0) / (own(Resource::Disk) / spec.disk_mbs).max(1.0);
        let net_stretch =
            (net / spec.net_mbs).max(1.0) / (own(Resource::Net) / spec.net_mbs).max(1.0);
        let mem_excess = (memory / spec.memory_gb - 1.0).max(0.0);
        let slowdown = (load.bounded.cpu * cpu_stretch * mem_factor
            + load.bounded.disk * disk_stretch
            + load.bounded.net * net_stretch)
            * (1.0 + 4.0 * mem_excess);
        InstanceContention {
            cpu_stretch,
            cpu_share,
            membw_pressure: (p_all - p_own).max(0.0),
            llc_squeeze: (sq_all - sq_own).max(0.0),
            mem_factor,
            disk_stretch,
            net_stretch,
            mem_excess,
            slowdown,
        }
    }

    #[test]
    fn shared_terms_match_per_instance_formula_bit_for_bit() {
        // One state recomputed in place across every step and spec, as the
        // engine reuses one across servers.
        let mut reused = ContentionState::default();
        let mut checked = 0;
        for (spec, seed) in specs() {
            random_walk(&spec, seed, |s, _| {
                let fresh = s.contention();
                s.contention_into(&mut reused);
                assert_eq!(reused, fresh);
                for (_, load) in s.iter() {
                    let want = per_instance_oracle(&spec, s, load);
                    assert_eq!(bits(&fresh.instance(load)), bits(&want), "{load:?}");
                    checked += 1;
                }
            });
        }
        assert!(checked > 10_000, "{checked} instances checked");
    }
}
