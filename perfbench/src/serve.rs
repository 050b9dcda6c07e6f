//! `serve_diurnal` and `chaos_journal`: the paper testbed serving
//! social-network and e-commerce traffic with Azure-like diurnal arrivals,
//! plus recurring matrix-multiplication, video-processing and dd jobs, on
//! the serial engine with the Worst-Fit autoscaler. `chaos_journal` adds
//! fault injection, retries and shedding, journals every event into memory,
//! and then decodes, checks and folds the journal back.

use crate::trace::{Spans, TimedJournal, TimedPlacer};
use crate::{Iteration, Workload};
use baselines::WorstFit;
use faults::FaultConfig;
use obs::journal::{check_invariants, read_journal, MemoryJournal};
use obs::Obs;
use platform::engine::ScaleConfig;
use platform::scale::PlacementDecision;
use platform::{ArrivalSpec, Deployment, PlatformConfig, ResilienceConfig, Simulation};
use simcore::rng::seed_stream;
use simcore::{SimRng, SimTime};
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;
use workloads::azure_trace::RateProfile;
use workloads::loadgen::profile_arrivals;

/// Simulated time per iteration, shared among the replicas.
const HORIZON_S: f64 = 1800.0;
/// Mean social-network and e-commerce request rates (before the diurnal
/// shape; near midnight the shape runs at ~0.55 of the mean).
const SN_RPS: f64 = 20.0;
const EC_RPS: f64 = 30.0;
/// Independent chaos simulations per iteration. Fault storylines diverge
/// sharply between seeds (one badly timed crash can double a run's event
/// count), so `chaos_journal` averages eight shorter storylines.
const CHAOS_REPLICAS: u64 = 8;
/// Instances per service call-graph node at deploy time, and the
/// autoscaler's cap per node.
const INITIAL_INSTANCES: usize = 3;
const MAX_INSTANCES: usize = 4;
/// Submission period of each recurring batch job.
const JOB_PERIOD_S: f64 = 60.0;
/// Checkpoint cadence of the chaos journal (simulated microseconds).
const CHECKPOINT_EVERY_US: u64 = 10_000_000;
/// `chaos_journal` must keep availability inside this band: below it the
/// run mostly measures failure handling, above it the faults barely fire.
pub const CHAOS_AVAILABILITY: (f64, f64) = (0.90, 0.99);
/// `serve_diurnal` must not shed or fail more than this share.
pub const SERVE_MIN_AVAILABILITY: f64 = 0.99;

pub struct Serve {
    seed: u64,
    chaos: bool,
    /// Independent simulations per iteration, each over an equal share of
    /// [`HORIZON_S`] with its own seed stream.
    replicas: u64,
}

pub struct Input {
    sims: Vec<Simulation>,
    origin: Instant,
}

impl Serve {
    pub fn diurnal(seed: u64) -> Self {
        Self {
            seed,
            chaos: false,
            replicas: 1,
        }
    }

    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            chaos: true,
            replicas: CHAOS_REPLICAS,
        }
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(HORIZON_S / self.replicas as f64)
    }

    fn fault_config(seed: u64) -> FaultConfig {
        FaultConfig {
            seed: seed_stream(seed, 0xFA),
            server_crash_rate_per_min: 0.1,
            crash_recovery: SimTime::from_secs(10.0),
            slowdown_rate_per_min: 1.0,
            slowdown_factor: 3.0,
            slowdown_duration: SimTime::from_secs(5.0),
            oom_rate_per_min: 0.5,
            cold_storm_rate_per_min: 0.25,
            cold_storm_duration: SimTime::from_secs(3.0),
            gateway_drop_prob: 0.03,
            gateway_jitter_max: SimTime::from_micros(200),
            ..FaultConfig::off()
        }
    }

    fn build(&self, seed: u64, traced: bool, origin: Instant) -> Simulation {
        let horizon = self.horizon();
        let mut sim = Simulation::new(PlatformConfig::paper_testbed(seed));
        let mut bundle = Obs::telemetry_only();
        if self.chaos {
            let header = obs::json::Json::obj()
                .field("benchmark", "chaos_journal")
                .field("seed", seed);
            let journal = MemoryJournal::in_memory(&header, Some(CHECKPOINT_EVERY_US));
            bundle = bundle.with_fault_log();
            bundle = if traced {
                bundle.with_journal(Box::new(TimedJournal::new(journal)))
            } else {
                bundle.with_journal(Box::new(journal))
            };
        }
        sim.set_obs(bundle);
        let n = sim.servers().len();
        let mut rng = SimRng::new(seed_stream(seed, 0xA77));
        for (workload, rps) in [
            (workloads::socialnetwork::message_posting(), SN_RPS),
            (workloads::ecommerce::browse_and_buy(), EC_RPS),
        ] {
            // Pre-provisioned instances, spread over the cluster, so the
            // autoscaler tops up to its cap early instead of ratcheting
            // along a seed-dependent path.
            let placement: Vec<Vec<PlacementDecision>> = workload
                .graph
                .ids()
                .map(|id| {
                    (0..INITIAL_INSTANCES)
                        .map(|j| PlacementDecision {
                            server: (id.0 + 3 * j) % n,
                            socket: 0,
                        })
                        .collect()
                })
                .collect();
            let arrivals = profile_arrivals(&RateProfile::azure_like(rps), horizon, &mut rng);
            sim.deploy(Deployment {
                workload,
                placement,
                arrivals: ArrivalSpec::OpenLoop(arrivals),
            });
        }
        for (i, workload) in [
            workloads::functionbench::matrix_multiplication(),
            workloads::functionbench::video_processing(),
            workloads::functionbench::dd(),
        ]
        .into_iter()
        .enumerate()
        {
            let submissions: Vec<SimTime> = (0..)
                .map(|k| SimTime::from_secs(10.0 + i as f64 * 15.0 + k as f64 * JOB_PERIOD_S))
                .take_while(|t| *t < horizon)
                .collect();
            sim.deploy(Deployment {
                placement: vec![vec![PlacementDecision {
                    server: n - 1 - i,
                    socket: 0,
                }]],
                workload,
                arrivals: ArrivalSpec::Jobs(submissions),
            });
        }
        let scale = ScaleConfig {
            queue_per_instance: 1.5,
            busy_fraction: 0.75,
            max_instances_per_node: MAX_INSTANCES,
        };
        if traced {
            sim.set_placer(Box::new(TimedPlacer::new(WorstFit, origin)), scale);
        } else {
            sim.set_placer(Box::new(WorstFit), scale);
        }
        if self.chaos {
            sim.set_resilience(ResilienceConfig {
                request_timeout: None,
                max_retries: 1,
                backoff_base: SimTime::from_millis(200.0),
                backoff_jitter: 0.5,
                shed_queue_depth: Some(256),
            });
            sim.set_faults(Self::fault_config(seed));
        }
        sim
    }
}

/// Everything the replay must reproduce byte for byte.
fn artifacts(
    report: &platform::RunReport,
    telemetry: Option<String>,
    faults: &obs::FaultLog,
) -> [String; 4] {
    [
        report.render_json(),
        telemetry.unwrap_or_default(),
        faults.to_jsonl(),
        faults.summary(),
    ]
}

/// Sums over the replicas of one iteration.
#[derive(Default)]
struct Totals {
    run_s: f64,
    events: u64,
    completed: u64,
    settled: u64,
    retries: u64,
    shed: u64,
    fault_events: usize,
    place_calls: usize,
    place_accepted: usize,
    place_busy_s: f64,
    records: u64,
    journal_bytes: usize,
    journal_busy_ns: Option<u64>,
    decode_s: f64,
    check_s: f64,
    fold_s: f64,
    /// Response times of the latency-sensitive services.
    latencies_ms: Vec<f64>,
}

impl Serve {
    /// Run one replica, check its outputs, and add it to `t`.
    fn run_replica(
        &self,
        mut sim: Simulation,
        spans: &mut Spans,
        t: &mut Totals,
        fp: &mut DefaultHasher,
        errors: &mut Vec<String>,
    ) {
        let horizon = self.horizon();
        let ((), run) = spans.time("platform.run", None, || sim.run_until(horizon));
        t.run_s += spans.secs(run);
        let events = sim.events_processed();
        t.events += events;
        if let Some(p) = sim
            .placer()
            .and_then(|p| p.as_any().downcast_ref::<TimedPlacer<WorstFit>>())
        {
            spans.adopt("sched.place", run, &p.intervals);
            t.place_calls += p.intervals.len();
            t.place_accepted += p.accepted;
            t.place_busy_s += p.busy_s();
        }
        let mut post = sim.take_obs();
        let telemetry = post.telemetry.as_ref().map(|t| t.to_jsonl());
        let faults = post.faults.take().unwrap_or_default();
        let report = sim.into_report();
        for w in &report.workloads {
            t.completed += w.completions;
            t.settled += w.completions + w.shed + w.failed;
            t.retries += w.retries;
            t.shed += w.shed;
        }
        // The two latency-sensitive services are deployed first; batch
        // job completion times are not request latencies.
        for w in report.workloads.iter().take(2) {
            t.latencies_ms.extend_from_slice(&w.e2e_latencies_ms);
        }
        t.fault_events += faults.records().len();
        let live = artifacts(&report, telemetry, &faults);
        fp.write_u64(events);
        for a in &live {
            fp.write(a.as_bytes());
        }

        let Some(journal) = post.journal.take() else {
            return;
        };
        let any = journal.as_any();
        let (bytes, busy_ns) = match any.downcast_ref::<TimedJournal>() {
            Some(j) => (j.inner.bytes(), Some(j.busy_ns)),
            None => (
                any.downcast_ref::<MemoryJournal>()
                    .expect("the chaos journal is in memory")
                    .bytes(),
                None,
            ),
        };
        fp.write(bytes);
        let records = journal.stats().records;
        t.records += records;
        t.journal_bytes += bytes.len();
        if let Some(ns) = busy_ns {
            *t.journal_busy_ns.get_or_insert(0) += ns;
        }
        let (parsed, decode) = spans.time("obs.replay.decode", None, || read_journal(bytes));
        t.decode_s += spans.secs(decode);
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => {
                errors.push(format!("journal does not decode: {e}"));
                return;
            }
        };
        let (violations, check) = spans.time("obs.replay.check", None, || {
            check_invariants(&parsed.records)
        });
        t.check_s += spans.secs(check);
        errors.extend(violations);
        let (folded, fold) = spans.time("platform.replay.fold", None, || {
            platform::replay(&parsed.records)
        });
        t.fold_s += spans.secs(fold);
        match folded {
            Ok(r) => {
                let replayed = artifacts(&r.report, r.telemetry_jsonl.clone(), &r.faults);
                for (what, (a, b)) in ["report", "telemetry", "fault log", "fault summary"]
                    .iter()
                    .zip(live.iter().zip(&replayed))
                {
                    if a != b {
                        errors.push(format!("replayed {what} differs from the live run"));
                    }
                }
                if r.records as u64 != records {
                    errors.push(format!(
                        "replay folded {} records, the journal holds {records}",
                        r.records
                    ));
                }
            }
            Err(e) => errors.push(format!("replay failed: {e}")),
        }
    }
}

impl Workload for Serve {
    type Input = Input;

    fn setup(&self, traced: bool) -> Input {
        let origin = Instant::now();
        let sims = (0..self.replicas)
            .map(|r| self.build(seed_stream(self.seed, r), traced, origin))
            .collect();
        Input { sims, origin }
    }

    fn iterate(&self, input: Input, traced: bool) -> Iteration {
        let mut spans = Spans::new(input.origin);
        let mut errors = Vec::new();
        let mut fp = DefaultHasher::new();
        let mut t = Totals::default();
        for sim in input.sims {
            self.run_replica(sim, &mut spans, &mut t, &mut fp, &mut errors);
        }
        let replay_s = t.decode_s + t.check_s + t.fold_s;
        let total_s = t.run_s + replay_s;
        let availability = t.completed as f64 / t.settled.max(1) as f64;
        let (lo, hi) = if self.chaos {
            CHAOS_AVAILABILITY
        } else {
            (SERVE_MIN_AVAILABILITY, 1.0)
        };
        if !(lo..=hi).contains(&availability) {
            errors.push(format!(
                "availability {availability:.4} outside [{lo}, {hi}]"
            ));
        }
        if t.completed == 0 {
            errors.push("the run completed nothing".into());
        }

        let events = t.events as f64;
        let mut figures = vec![
            ("sim_events_per_s", events / t.run_s),
            ("sim_requests_per_s", t.completed as f64 / t.run_s),
            (
                "sim_p99_ms",
                simcore::Cdf::new(std::mem::take(&mut t.latencies_ms)).percentile(99.0),
            ),
            ("availability", availability),
        ];
        let journal_busy_s = t.journal_busy_ns.unwrap_or(0) as f64 * 1e-9;
        let mut layers = vec![
            ("platform.run_s", t.run_s),
            ("platform.self_s", t.run_s - t.place_busy_s - journal_busy_s),
            ("platform.ns_per_event", t.run_s * 1e9 / events),
            ("platform.events", events),
            ("platform.events_per_request", events / t.completed as f64),
            ("sched.place.calls", t.place_calls as f64),
            ("sched.place.busy_s", t.place_busy_s),
            ("sched.place.share", t.place_busy_s / total_s),
            (
                "sched.place.accept_ratio",
                t.place_accepted as f64 / t.place_calls.max(1) as f64,
            ),
            ("faults.events", t.fault_events as f64),
            ("platform.retries", t.retries as f64),
            ("platform.shed", t.shed as f64),
        ];
        if t.records > 0 {
            let records = t.records as f64;
            figures.push(("replay_records_per_s", records / replay_s));
            layers.extend([
                ("obs.journal.records", records),
                (
                    "obs.journal.bytes_per_record",
                    t.journal_bytes as f64 / records,
                ),
                ("obs.journal.ns_per_record", journal_busy_s * 1e9 / records),
                ("obs.journal.share", journal_busy_s / total_s),
                ("obs.replay.decode_s", t.decode_s),
                ("obs.replay.check_s", t.check_s),
                ("platform.replay.fold_s", t.fold_s),
            ]);
        }
        Iteration {
            run_s: total_s,
            fingerprint: fp.finish(),
            errors,
            figures,
            layers: if traced { layers } else { Vec::new() },
            spans: traced.then_some(spans),
        }
    }
}
