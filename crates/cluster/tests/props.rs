//! Property tests for the contention model's physical invariants. Each test
//! loops over seeds, draws its cases from `SimRng::new(seed)` and names the
//! seed in every assert message.

use cluster::{Boundedness, Demand, InstanceLoad, Resource, Sensitivity, ServerSpec, ServerState};
use simcore::SimRng;

/// A random load on one of `sockets` sockets.
fn load(rng: &mut SimRng, sockets: usize) -> InstanceLoad {
    let mut u = |lo: f64, hi: f64| lo + rng.f64() * (hi - lo);
    InstanceLoad {
        demand: Demand::new(
            u(0.1, 6.0),   // cpu
            u(0.0, 40.0),  // membw
            u(0.0, 15.0),  // llc
            u(0.0, 300.0), // disk
            u(0.0, 600.0), // net
            u(0.1, 4.0),   // memory
        ),
        bounded: Boundedness::new(0.6, 0.2, 0.2),
        sens: Sensitivity::new(u(0.0, 2.0), u(0.0, 2.0), u(0.0, 1.0)),
        socket: rng.index(sockets),
    }
}

#[test]
fn slowdown_at_least_one() {
    for seed in 0..512u64 {
        let mut rng = SimRng::new(seed);
        let loads: Vec<InstanceLoad> = (0..1 + rng.index(7)).map(|_| load(&mut rng, 4)).collect();
        let mut s = ServerState::new(ServerSpec::paper_node());
        for l in &loads {
            s.add(*l);
        }
        let c = s.contention();
        for l in &loads {
            let ic = c.instance(l);
            assert!(
                ic.slowdown >= 1.0 - 1e-9,
                "seed {seed}: slowdown {}",
                ic.slowdown
            );
            assert!(
                ic.mem_factor >= 1.0 - 1e-9,
                "seed {seed}: mem {}",
                ic.mem_factor
            );
            assert!(
                ic.cpu_stretch >= 1.0 - 1e-9,
                "seed {seed}: cpu {}",
                ic.cpu_stretch
            );
        }
    }
}

#[test]
fn solo_instance_exactly_unaffected() {
    for seed in 0..512u64 {
        let mut rng = SimRng::new(seed);
        let l = load(&mut rng, 4);
        let mut s = ServerState::new(ServerSpec::paper_node());
        s.add(l);
        let slowdown = s.contention().instance(&l).slowdown;
        assert!(
            (slowdown - 1.0).abs() < 1e-9,
            "seed {seed}: solo slowdown {slowdown}"
        );
    }
}

#[test]
fn adding_corunner_never_speeds_up_victim() {
    for seed in 0..512u64 {
        let mut rng = SimRng::new(seed);
        // Single-socket server: everything on socket 0 interacts.
        let [victim, corunner, extra] = [(); 3].map(|_| load(&mut rng, 1));
        let mut s = ServerState::new(ServerSpec::small());
        s.add(victim);
        s.add(corunner);
        let before = s.contention().instance(&victim).slowdown;
        s.add(extra);
        let after = s.contention().instance(&victim).slowdown;
        assert!(
            after >= before - 1e-9,
            "seed {seed}: victim sped up {before} -> {after}"
        );
    }
}

#[test]
fn cross_socket_cpu_membw_isolated() {
    for seed in 0..512u64 {
        let mut rng = SimRng::new(seed);
        // Disk, net and memory are server-wide, so zero them to test the
        // socket-local dimensions in isolation.
        let [victim, aggressor] = [0, 1].map(|socket| {
            let mut l = load(&mut rng, 1);
            l.socket = socket;
            l.demand.set(Resource::Disk, 0.0);
            l.demand.set(Resource::Net, 0.0);
            l.demand.set(Resource::Memory, 0.1);
            l
        });
        let mut s = ServerState::new(ServerSpec::dual_socket());
        s.add(victim);
        s.add(aggressor);
        let slowdown = s.contention().instance(&victim).slowdown;
        assert!(
            (slowdown - 1.0).abs() < 1e-9,
            "seed {seed}: cross-socket leak {slowdown}"
        );
    }
}
