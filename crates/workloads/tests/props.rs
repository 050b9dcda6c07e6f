//! Property tests for call-graph analysis invariants. Each test loops over
//! seeds, draws a random DAG from `SimRng::new(seed)` and names the seed in
//! every assert message.

use simcore::{SimRng, SimTime};
use workloads::dag::{CallGraph, CallKind};
use workloads::function::{FunctionSpec, PhaseSpec};
use workloads::NodeId;

const CASES: u64 = 512;

/// A random DAG of 2–9 functions lasting 1–499 ms each, and those
/// durations. Node `i` may call node `j > i`, which keeps it acyclic.
fn random_dag(rng: &mut SimRng) -> (CallGraph, Vec<u64>) {
    let n = 2 + rng.index(8);
    let durations: Vec<u64> = (0..n).map(|_| 1 + rng.index(499) as u64).collect();
    let mut g = CallGraph::new();
    let ids: Vec<NodeId> = durations
        .iter()
        .enumerate()
        .map(|(i, &ms)| {
            let phase = PhaseSpec {
                duration: SimTime::from_micros(ms * 1000),
                demand: cluster::Demand::new(0.5, 1.0, 1.0, 0.0, 0.0, 0.25),
                bounded: cluster::Boundedness::cpu_bound(),
                sens: cluster::Sensitivity::new(1.0, 1.0, 0.5),
                micro: cluster::microarch::MicroarchBaseline::generic(),
            };
            g.add(FunctionSpec::single_phase(format!("f{i}"), phase))
        })
        .collect();
    let mut has_nested_parent = vec![false; n];
    let mut has_async_parent = vec![false; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (edge, nested) = (rng.chance(0.5), rng.chance(0.5));
            if !edge || has_nested_parent[j] {
                continue;
            }
            // The platform's constraint: a node has either async parents
            // or one nested parent.
            if nested && !has_async_parent[j] {
                g.link(ids[i], ids[j], CallKind::Nested);
                has_nested_parent[j] = true;
            } else {
                g.link(ids[i], ids[j], CallKind::Async);
                has_async_parent[j] = true;
            }
        }
    }
    (g, durations)
}

#[test]
fn critical_path_bounded() {
    for seed in 0..CASES {
        let (g, durations) = random_dag(&mut SimRng::new(seed));
        let total: u64 = durations.iter().sum();
        let longest = *durations.iter().max().unwrap();
        let cp = g.critical_path_duration().as_millis();
        assert!(
            cp >= longest as f64 - 1e-9,
            "seed {seed}: cp {cp} < longest node {longest}"
        );
        assert!(
            cp <= total as f64 + 1e-9,
            "seed {seed}: cp {cp} > serial total {total}"
        );
    }
}

#[test]
fn topo_order_is_valid() {
    for seed in 0..CASES {
        let (g, _) = random_dag(&mut SimRng::new(seed));
        let order = g.topo_order().expect("acyclic by construction");
        assert_eq!(order.len(), g.len(), "seed {seed}");
        let mut pos = vec![usize::MAX; g.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.0] = i;
        }
        for id in g.ids() {
            for &(child, _) in g.children(id) {
                assert!(
                    pos[id.0] < pos[child.0],
                    "seed {seed}: {id:?} after {child:?}"
                );
            }
        }
    }
}

#[test]
fn solo_schedule_consistent() {
    for seed in 0..CASES {
        let (g, _) = random_dag(&mut SimRng::new(seed));
        let t = g.solo_schedule();
        for (i, timing) in t.iter().enumerate() {
            assert!(timing.service_end >= timing.start, "seed {seed}: node {i}");
            assert!(
                timing.completion >= timing.service_end,
                "seed {seed}: node {i}"
            );
            // A child never starts before its gate.
            for &(p, kind) in g.parents(NodeId(i)) {
                let gate = match kind {
                    CallKind::Async => t[p.0].completion,
                    CallKind::Nested => t[p.0].service_end,
                };
                assert!(
                    timing.start >= gate,
                    "seed {seed}: node {i} starts before {p:?}"
                );
            }
        }
    }
}

#[test]
fn critical_path_nodes_exist() {
    for seed in 0..CASES {
        let (g, _) = random_dag(&mut SimRng::new(seed));
        let cp = g.critical_path();
        assert!(!cp.is_empty(), "seed {seed}");
        assert!(cp.iter().all(|id| id.0 < g.len()), "seed {seed}: {cp:?}");
    }
}
