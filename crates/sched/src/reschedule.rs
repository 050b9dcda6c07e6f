//! Consolidation rescheduling (paper §4).
//!
//! *"When the invocation load varies but does not yet cause scaling-out
//! operations, it is also possible to further optimize resource efficiency
//! by rescheduling the existing instances."*
//!
//! The pass proposes migrations that empty lightly-used servers: instances
//! on the least-loaded *donor* servers are moved onto more-loaded
//! *receiver* servers whenever the predictor says every SLA still holds
//! after the move. Emptied servers can then be powered down — the
//! density/utilization win of Fig. 11 extended to load troughs.
//!
//! # Predictor-call reduction
//!
//! Checking one hypothetical move used to issue one predictor call per
//! SLA-bearing workload. Two optimizations cut that cost:
//!
//! 1. **Batching** — all per-entry scenarios of one move are gathered into
//!    a single [`GsightPredictor::predict_batch_with_scratch`] call, which
//!    runs one fused featurize-and-walk per scenario through a scratch
//!    buffer the planner reuses across every probed move, so no probe
//!    allocates a feature row (bit-identical to per-row `predict`).
//! 2. **Skipping** — under the spatial-overlap interference model, a move
//!    only changes colocation on the donor and receiver servers; an SLA
//!    entry with no instance on either server keeps its overlap pattern,
//!    so its (already satisfied) prediction is not re-evaluated.
//!
//! [`ReschedulePlan::predictor_calls`] counts *scenario evaluations* (batch
//! rows), so counts stay comparable with the pre-batching implementation —
//! the skip makes them strictly smaller whenever an SLA entry sits away
//! from the move.

use crate::placer::WorkloadEntry;
use cluster::Demand;
use gsight::{ColoWorkload, GsightPredictor, Scenario};

/// One proposed migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Index of the workload in the entry list handed to
    /// [`plan_consolidation`]. Rollback and [`apply_plan_checked`] resolve the
    /// entry by this index — names may repeat across entries.
    pub entry: usize,
    /// Workload name (display only; not used for resolution).
    pub workload: String,
    /// Index into the workload's instance list.
    pub instance: usize,
    /// Current server.
    pub from: usize,
    /// Proposed server.
    pub to: usize,
}

/// Outcome of a consolidation pass.
#[derive(Debug, Clone, Default)]
pub struct ReschedulePlan {
    /// Migrations, in application order.
    pub migrations: Vec<Migration>,
    /// Servers left empty if the plan is applied.
    pub freed_servers: Vec<usize>,
    /// Predictor scenario evaluations spent building the plan: scenarios
    /// fed to [`GsightPredictor::predict_batch_with_scratch`], each one
    /// featurize-and-walk, the same work as one `predict` call.
    pub predictor_calls: usize,
}

/// Scenario view of an entry list, with instance `(wl, idx)` optionally
/// re-homed to `server`.
fn colo_views(
    entries: &[WorkloadEntry],
    moved: Option<(usize, usize, usize)>,
) -> Vec<Option<ColoWorkload>> {
    entries
        .iter()
        .enumerate()
        .map(|(w, e)| {
            if e.instances.is_empty() {
                return None;
            }
            let functions: Vec<metricsd::FunctionProfile> = e
                .instances
                .iter()
                .map(|&(node, _)| e.profile.functions[node].clone())
                .collect();
            let demands: Vec<Demand> = e
                .instances
                .iter()
                .map(|&(node, _)| e.demands[node])
                .collect();
            let placement: Vec<usize> = e
                .instances
                .iter()
                .enumerate()
                .map(|(i, &(_, server))| match moved {
                    Some((mw, mi, to)) if mw == w && mi == i => to,
                    _ => server,
                })
                .collect();
            Some(ColoWorkload::new(
                metricsd::WorkloadProfile::new(e.name.clone(), functions),
                e.class,
                demands,
                placement,
            ))
        })
        .collect()
}

/// Check every SLA under a hypothetical placement, gathering all scenario
/// evaluations of the move into one `predict_batch_with_scratch` call (one
/// fused featurize-and-walk per scenario).
///
/// When `moved` is set, SLA entries with no instance on the donor or
/// receiver server are skipped: the move does not change colocation on any
/// server they occupy, so their previously satisfied prediction stands.
///
/// `row_scratch` is the reusable featurization buffer passed to
/// [`GsightPredictor::predict_batch_with_scratch`]; each scenario's row is
/// written into it and walked before the next overwrites it. Planners
/// allocate it once and reuse it across every probed move.
fn slas_hold(
    predictor: &GsightPredictor,
    entries: &[WorkloadEntry],
    moved: Option<(usize, usize, usize)>,
    num_servers: usize,
    calls: &mut usize,
    row_scratch: &mut Vec<f64>,
) -> bool {
    let views = colo_views(entries, moved);
    // Servers whose colocation the move changes: the instance's current
    // home (`entries` is not yet mutated) and its proposed one.
    let touched: Option<(usize, usize)> = moved.map(|(w, i, to)| (entries[w].instances[i].1, to));
    let mut thresholds: Vec<f64> = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let Some(min_ipc) = e.sla.min_ipc else {
            continue;
        };
        let Some(target) = views[i].clone() else {
            continue;
        };
        if let Some((from, to)) = touched {
            if !e.instances.iter().any(|&(_, s)| s == from || s == to) {
                continue;
            }
        }
        let others: Vec<ColoWorkload> = views
            .iter()
            .enumerate()
            .filter(|(j, v)| *j != i && v.is_some())
            .map(|(_, v)| v.clone().expect("filtered Some"))
            .collect();
        scenarios.push(Scenario::new(target, others, num_servers));
        thresholds.push(min_ipc);
    }
    *calls += scenarios.len();
    let predicted = predictor.predict_batch_with_scratch(&scenarios, row_scratch);
    predicted
        .iter()
        .zip(&thresholds)
        .all(|(ipc, min_ipc)| ipc >= min_ipc)
}

/// Build a consolidation plan: repeatedly try to empty the server hosting
/// the fewest instances by migrating each of its instances onto the
/// most-populated feasible server, accepting each move only when all SLAs
/// still hold.
///
/// The entry list is *not* mutated; apply the returned migrations with
/// [`apply_plan_checked`] (and the corresponding platform/cluster actions)
/// if accepted.
pub fn plan_consolidation(
    predictor: &GsightPredictor,
    entries: &[WorkloadEntry],
    num_servers: usize,
) -> ReschedulePlan {
    let mut working: Vec<WorkloadEntry> = entries
        .iter()
        .map(|e| WorkloadEntry {
            name: e.name.clone(),
            class: e.class,
            profile: e.profile.clone(),
            demands: e.demands.clone(),
            sla: e.sla,
            instances: e.instances.clone(),
        })
        .collect();
    let mut plan = ReschedulePlan::default();
    let mut row_scratch: Vec<f64> = Vec::new();

    loop {
        // Instance count per server.
        let mut count = vec![0usize; num_servers];
        for e in &working {
            for &(_, s) in &e.instances {
                count[s] += 1;
            }
        }
        let active: Vec<usize> = (0..num_servers).filter(|&s| count[s] > 0).collect();
        if active.len() < 2 {
            break;
        }
        // Donor: fewest instances; receivers: everything else, most-loaded
        // first.
        let &donor = active
            .iter()
            .min_by_key(|&&s| count[s])
            .expect("non-empty active set");
        let mut receivers: Vec<usize> = active.iter().copied().filter(|&s| s != donor).collect();
        receivers.sort_by_key(|&s| std::cmp::Reverse(count[s]));

        // Try to move every donor instance; if any cannot move, the donor
        // cannot be emptied and consolidation stops (moving a strict subset
        // would not free a server).
        let donor_instances: Vec<(usize, usize)> = working
            .iter()
            .enumerate()
            .flat_map(|(w, e)| {
                e.instances
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, s))| s == donor)
                    .map(move |(i, _)| (w, i))
            })
            .collect();
        let mut staged: Vec<Migration> = Vec::new();
        let mut ok = true;
        for (w, i) in donor_instances {
            let mut placed = false;
            for &to in &receivers {
                if slas_hold(
                    predictor,
                    &working,
                    Some((w, i, to)),
                    num_servers,
                    &mut plan.predictor_calls,
                    &mut row_scratch,
                ) {
                    staged.push(Migration {
                        entry: w,
                        workload: working[w].name.clone(),
                        instance: i,
                        from: donor,
                        to,
                    });
                    working[w].instances[i].1 = to;
                    placed = true;
                    break;
                }
            }
            if !placed {
                ok = false;
                break;
            }
        }
        if !ok {
            // Roll back the staged moves of this round, resolving each
            // entry by index (names may repeat across entries).
            for m in staged.iter().rev() {
                working[m.entry].instances[m.instance].1 = m.from;
            }
            break;
        }
        plan.migrations.extend(staged);
        plan.freed_servers.push(donor);
    }
    plan
}

/// Why a plan was rejected by [`apply_plan_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// A migration's source no longer matches the entry list: placements
    /// changed (e.g. a crash re-homed instances) since the plan was built.
    Stale {
        /// Entry index of the mismatching migration.
        entry: usize,
        /// Instance index within the entry.
        instance: usize,
        /// Server the plan expected the instance on.
        expected: usize,
        /// Server the instance actually sits on.
        found: usize,
    },
    /// A migration targets a server that is no longer alive.
    DeadTarget {
        /// The dead target server.
        server: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Stale {
                entry,
                instance,
                expected,
                found,
            } => write!(
                f,
                "stale plan: entry {entry} instance {instance} expected on \
                 server {expected}, found on {found}"
            ),
            Self::DeadTarget { server } => {
                write!(f, "plan targets dead server {server}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Apply a plan to an entry list (the caller also performs the platform
/// migrations). Entries are resolved by [`Migration::entry`] index, so the
/// list must be the one (or a same-order copy of the one) the plan was
/// built from; duplicate workload names are fine. The whole plan is checked
/// against the current entry list and the server liveness vector *before*
/// any migration is applied, so a rejected plan leaves `entries` untouched
/// (instead of panicking half-applied, or silently migrating instances onto
/// a crashed server).
pub fn apply_plan_checked(
    entries: &mut [WorkloadEntry],
    plan: &ReschedulePlan,
    alive: &[bool],
) -> Result<(), PlanError> {
    // Dry-run over a scratch copy of the server assignments; later
    // migrations may legitimately move an instance a second time.
    let mut staged: Vec<Vec<usize>> = entries
        .iter()
        .map(|e| e.instances.iter().map(|&(_, s)| s).collect())
        .collect();
    for m in &plan.migrations {
        if !alive.get(m.to).copied().unwrap_or(false) {
            return Err(PlanError::DeadTarget { server: m.to });
        }
        let found = staged[m.entry][m.instance];
        if found != m.from {
            return Err(PlanError::Stale {
                entry: m.entry,
                instance: m.instance,
                expected: m.from,
                found,
            });
        }
        staged[m.entry][m.instance] = m.to;
    }
    for (e, servers) in entries.iter_mut().zip(staged) {
        for (inst, s) in e.instances.iter_mut().zip(servers) {
            inst.1 = s;
        }
    }
    Ok(())
}

/// Build a drain plan for crashed servers: every instance still recorded on
/// a dead server (`alive[s] == false`) is migrated onto an alive server.
/// Receivers are tried most-populated first (density objective) and the
/// first receiver where every SLA still holds wins; when no receiver passes
/// the SLA check the instance degrades to the *least*-loaded alive server —
/// a drain must evacuate, not block. Migrations never target a dead server.
pub fn plan_drain(
    predictor: &GsightPredictor,
    entries: &[WorkloadEntry],
    num_servers: usize,
    alive: &[bool],
) -> ReschedulePlan {
    assert_eq!(alive.len(), num_servers, "liveness vector length mismatch");
    let mut working: Vec<WorkloadEntry> = entries
        .iter()
        .map(|e| WorkloadEntry {
            name: e.name.clone(),
            class: e.class,
            profile: e.profile.clone(),
            demands: e.demands.clone(),
            sla: e.sla,
            instances: e.instances.clone(),
        })
        .collect();
    let mut plan = ReschedulePlan::default();
    let mut row_scratch: Vec<f64> = Vec::new();
    for dead in (0..num_servers).filter(|&s| !alive[s]) {
        let victims: Vec<(usize, usize)> = working
            .iter()
            .enumerate()
            .flat_map(|(w, e)| {
                e.instances
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, s))| s == dead)
                    .map(move |(i, _)| (w, i))
            })
            .collect();
        if victims.is_empty() {
            continue;
        }
        let mut drained = true;
        for (w, i) in victims {
            let mut count = vec![0usize; num_servers];
            for e in &working {
                for &(_, s) in &e.instances {
                    count[s] += 1;
                }
            }
            let mut receivers: Vec<usize> = (0..num_servers).filter(|&s| alive[s]).collect();
            receivers.sort_by_key(|&s| std::cmp::Reverse(count[s]));
            let to = receivers
                .iter()
                .copied()
                .find(|&to| {
                    slas_hold(
                        predictor,
                        &working,
                        Some((w, i, to)),
                        num_servers,
                        &mut plan.predictor_calls,
                        &mut row_scratch,
                    )
                })
                .or_else(|| receivers.last().copied());
            let Some(to) = to else {
                // No alive server at all: nothing can be drained.
                drained = false;
                break;
            };
            plan.migrations.push(Migration {
                entry: w,
                workload: working[w].name.clone(),
                instance: i,
                from: dead,
                to,
            });
            working[w].instances[i].1 = to;
        }
        if drained {
            plan.freed_servers.push(dead);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::SlaSpec;
    use gsight::{CodingConfig, GsightConfig, QosTarget};
    use metricsd::{FunctionProfile, Metric, MetricVector, ProfileSample, WorkloadProfile};
    use mlcore::ModelKind;
    use simcore::{SimRng, SimTime};
    use workloads::WorkloadClass;

    const S: usize = 4;

    fn profile(n: usize, ipc: f64) -> WorkloadProfile {
        let mut m = MetricVector::zero();
        m.set(Metric::Ipc, ipc);
        m.set(Metric::L3Mpki, 4.0);
        WorkloadProfile::new(
            "w",
            (0..n)
                .map(|i| {
                    FunctionProfile::new(
                        format!("f{i}"),
                        vec![ProfileSample {
                            at: SimTime::ZERO,
                            metrics: m,
                        }],
                        false,
                    )
                })
                .collect(),
        )
    }

    /// Ground truth: IPC shrinks with same-server overlap count.
    fn predictor() -> GsightPredictor {
        let config = GsightConfig {
            coding: CodingConfig {
                num_servers: S,
                max_workloads: 3,
            },
            target: QosTarget::Ipc,
            kind: ModelKind::Irfr,
            update_batch: 50,
            seed: 21,
        };
        let mut rng = SimRng::new(22);
        let mut samples = Vec::new();
        for _ in 0..1500 {
            let tp: Vec<usize> = (0..2).map(|_| rng.index(S)).collect();
            let op: Vec<usize> = (0..2).map(|_| rng.index(S)).collect();
            let overlap = tp.iter().filter(|s| op.contains(s)).count();
            let y = 2.0 / (1.0 + 0.15 * overlap as f64);
            let mk = |p: Vec<usize>, ipc: f64| {
                gsight::ColoWorkload::new(
                    profile(2, ipc),
                    WorkloadClass::LatencySensitive,
                    vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
                    p,
                )
            };
            samples.push((Scenario::new(mk(tp, 2.0), vec![mk(op, 1.0)], S), y));
        }
        let mut p = GsightPredictor::new(config);
        p.bootstrap(&samples);
        p
    }

    fn entry(name: &str, sla: Option<f64>, instances: Vec<(usize, usize)>) -> WorkloadEntry {
        WorkloadEntry {
            name: name.into(),
            class: WorkloadClass::LatencySensitive,
            profile: profile(2, if sla.is_some() { 2.0 } else { 1.0 }),
            demands: vec![Demand::new(1.0, 2.0, 4.0, 0.0, 0.0, 0.5); 2],
            sla: SlaSpec { min_ipc: sla },
            instances,
        }
    }

    #[test]
    fn loose_slas_consolidate_to_one_server() {
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 2), (1, 3)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        assert!(
            !plan.freed_servers.is_empty(),
            "spread instances should consolidate: {plan:?}"
        );
        // Apply and verify the freed servers really are empty.
        let mut after = entries;
        apply_plan_checked(&mut after, &plan, &[true; S]).expect("plan applies");
        for &freed in &plan.freed_servers {
            for e in &after {
                assert!(e.instances.iter().all(|&(_, s)| s != freed));
            }
        }
    }

    #[test]
    fn tight_sla_blocks_consolidation() {
        let p = predictor();
        // Predicted IPC at full overlap ≈ 2/(1+0.15·2·2) < 1.9; requiring
        // 1.9 forbids stacking everything together.
        let entries = vec![
            entry("a", Some(1.95), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 1), (1, 1)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        assert!(
            plan.freed_servers.is_empty(),
            "tight SLA must block: {plan:?}"
        );
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn single_active_server_is_a_noop() {
        let p = predictor();
        let entries = vec![entry("a", Some(0.5), vec![(0, 1), (1, 1)])];
        let plan = plan_consolidation(&p, &entries, S);
        assert!(plan.migrations.is_empty());
        assert!(plan.freed_servers.is_empty());
    }

    #[test]
    fn checked_apply_rejects_stale_plan_without_mutating() {
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 2), (1, 3)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        let m = plan.migrations.first().expect("plan has moves").clone();
        let mut moved = entries;
        // A crash re-homed the instance after planning.
        let elsewhere = (m.from + 1) % S;
        moved[m.entry].instances[m.instance].1 = elsewhere;
        let before: Vec<Vec<(usize, usize)>> = moved.iter().map(|e| e.instances.clone()).collect();
        let err = apply_plan_checked(&mut moved, &plan, &[true; S]).unwrap_err();
        assert_eq!(
            err,
            PlanError::Stale {
                entry: m.entry,
                instance: m.instance,
                expected: m.from,
                found: elsewhere,
            }
        );
        let after: Vec<Vec<(usize, usize)>> = moved.iter().map(|e| e.instances.clone()).collect();
        assert_eq!(before, after, "rejected plan must leave entries untouched");
    }

    #[test]
    fn checked_apply_rejects_dead_target() {
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 2), (1, 3)]),
        ];
        // Plan computed pre-crash…
        let plan = plan_consolidation(&p, &entries, S);
        let target = plan.migrations.first().expect("plan has moves").to;
        // …then the target server dies before the plan is applied.
        let mut alive = [true; S];
        alive[target] = false;
        let mut moved = entries;
        let err = apply_plan_checked(&mut moved, &plan, &alive).unwrap_err();
        assert_eq!(err, PlanError::DeadTarget { server: target });
        // With everything alive the same plan applies cleanly.
        apply_plan_checked(&mut moved, &plan, &[true; S]).expect("plan applies");
    }

    #[test]
    #[should_panic(expected = "plan out of date")]
    fn stale_plan_rejected() {
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 2), (1, 3)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        let mut moved = entries;
        // Placement changed since planning.
        if let Some(m) = plan.migrations.first() {
            let e = &mut moved[m.entry];
            e.instances[m.instance].1 = 9_999 % S;
            if e.instances[m.instance].1 == m.from {
                e.instances[m.instance].1 = (m.from + 1) % S;
            }
        }
        apply_plan_checked(&mut moved, &plan, &[true; S]).expect("plan out of date");
    }

    #[test]
    fn duplicate_names_resolve_by_entry_index() {
        // Regression: two distinct entries share the name "dup". The old
        // name-based resolution in plan application/rollback always picked the
        // first match, mutating the wrong entry (the stale-plan assert
        // fired spuriously). Resolution by entry index ignores the clash.
        let p = predictor();
        let entries = vec![
            entry("dup", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("dup", None, vec![(0, 2)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        assert!(
            plan.migrations.iter().all(|m| m.entry == 1),
            "only the second 'dup' occupies the donor: {plan:?}"
        );
        let mut after = entries;
        apply_plan_checked(&mut after, &plan, &[true; S]).expect("plan applies");
        assert_eq!(
            after[0].instances,
            vec![(0, 0), (1, 0)],
            "first 'dup' untouched"
        );
        for &freed in &plan.freed_servers {
            for e in &after {
                assert!(e.instances.iter().all(|&(_, s)| s != freed));
            }
        }
    }

    #[test]
    fn drain_never_targets_dead_server() {
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 1)]),
            entry("b", None, vec![(0, 0), (1, 2)]),
        ];
        // Server 0 crashed.
        let alive = [false, true, true, true];
        let plan = plan_drain(&p, &entries, S, &alive);
        assert!(!plan.migrations.is_empty(), "dead server must be drained");
        for m in &plan.migrations {
            assert_eq!(m.from, 0, "only the dead server is drained: {m:?}");
            assert!(alive[m.to], "migration targets dead server: {m:?}");
        }
        assert_eq!(plan.freed_servers, vec![0]);
        let mut after = entries;
        apply_plan_checked(&mut after, &plan, &alive).expect("plan applies");
        for e in &after {
            assert!(
                e.instances.iter().all(|&(_, s)| s != 0),
                "instance left on the crashed server: {:?}",
                e.instances
            );
        }
    }

    #[test]
    fn untouched_sla_entries_are_not_reevaluated() {
        // Entry "c" has an SLA but sits on server 3, which the first
        // round's move (donor 2 → receiver 0) never touches — its scenario
        // must not be re-evaluated, so the whole plan costs strictly fewer
        // scenario evaluations than the two-per-check naive pass.
        let p = predictor();
        let entries = vec![
            entry("a", Some(0.5), vec![(0, 0), (1, 0)]),
            entry("b", None, vec![(0, 2)]),
            entry("c", Some(0.5), vec![(0, 3), (1, 3)]),
        ];
        let plan = plan_consolidation(&p, &entries, S);
        assert!(
            !plan.migrations.is_empty(),
            "loose SLAs should allow consolidation: {plan:?}"
        );
        // Two SLA entries → a naive all-entries check costs 2 rows per
        // accepted move; the donor-2 round skips "c" (server 3 untouched).
        assert!(
            plan.predictor_calls < 2 * plan.migrations.len(),
            "skip must save evaluations: {} calls for {} migrations",
            plan.predictor_calls,
            plan.migrations.len()
        );
    }
}
