//! `faults` — seeded, deterministic fault injection for the simulator.
//!
//! The discrete-event engine consults a [`FaultInjector`] for *when* the next
//! fault fires, *what kind* it is, and *which target* it hits. All draws come
//! from dedicated RNG streams derived from one `u64` seed via
//! [`simcore::rng::seed_stream`], never from the simulation's own generator:
//! a run with every rate at zero is bit-identical to a run without a fault
//! layer at all, and two chaos runs with the same seed replay exactly.
//!
//! Fault taxonomy (the scenarios the platform layer knows how to apply):
//!
//! * [`FaultKind::ServerCrash`] — a server goes dark, killing its instances;
//!   it recovers after `crash_recovery` (instances do not come back — the
//!   scaler re-warms them elsewhere).
//! * [`FaultKind::ServerSlowdown`] — a transient interference spike
//!   multiplies every colocated task's service time by `slowdown_factor`
//!   for `slowdown_duration`.
//! * [`FaultKind::InstanceOom`] — one instance is OOM-killed; its running
//!   and queued requests fail over.
//! * [`FaultKind::ColdStartStorm`] — keep-alive state is considered lost
//!   for `cold_storm_duration`: every dispatch pays the cold-start penalty.
//! * [`FaultKind::PredictorOutage`] — the interference predictor is
//!   unavailable for `predictor_outage_duration`; schedulers must degrade
//!   to an interference-oblivious policy.
//!
//! Gateway-level faults (request drop, forward-latency jitter) are not
//! discrete events but per-forward Bernoulli/uniform draws from their own
//! stream: [`FaultInjector::gateway_drop`] / [`FaultInjector::gateway_jitter`].

use simcore::events::SimTime;
use simcore::rng::{seed_stream, SimRng};

/// Kinds of injectable faults (cluster-level discrete events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    ServerCrash,
    ServerSlowdown,
    InstanceOom,
    ColdStartStorm,
    PredictorOutage,
}

impl FaultKind {
    /// Stable lowercase label used in fault-log records and summaries.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::ServerCrash => "server_crash",
            FaultKind::ServerSlowdown => "slowdown",
            FaultKind::InstanceOom => "oom_kill",
            FaultKind::ColdStartStorm => "cold_storm",
            FaultKind::PredictorOutage => "predictor_outage",
        }
    }
}

/// Rates and magnitudes of every fault class. All rates are events per
/// simulated minute across the whole cluster; a rate of zero disables the
/// class. [`FaultConfig::off`] (the `Default`) disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG streams.
    pub seed: u64,
    /// Server crashes per simulated minute.
    pub server_crash_rate_per_min: f64,
    /// How long a crashed server stays dark before rejoining (empty).
    pub crash_recovery: SimTime,
    /// Transient per-server slowdowns per minute.
    pub slowdown_rate_per_min: f64,
    /// Service-time multiplier while a slowdown is active (> 1.0).
    pub slowdown_factor: f64,
    /// Duration of one slowdown episode.
    pub slowdown_duration: SimTime,
    /// Instance OOM-kills per minute.
    pub oom_rate_per_min: f64,
    /// Cold-start storms per minute (keep-alive state lost cluster-wide).
    pub cold_storm_rate_per_min: f64,
    /// Duration of one cold-start storm.
    pub cold_storm_duration: SimTime,
    /// Probability a forwarded request is dropped at the gateway.
    pub gateway_drop_prob: f64,
    /// Upper bound of uniform extra forward latency (zero disables jitter).
    pub gateway_jitter_max: SimTime,
    /// Predictor-unavailable windows per minute.
    pub predictor_outage_rate_per_min: f64,
    /// Duration of one predictor outage.
    pub predictor_outage_duration: SimTime,
}

impl FaultConfig {
    /// Everything disabled; the engine injects nothing and draws nothing.
    pub fn off() -> Self {
        FaultConfig {
            seed: 0,
            server_crash_rate_per_min: 0.0,
            crash_recovery: SimTime::from_secs(30.0),
            slowdown_rate_per_min: 0.0,
            slowdown_factor: 2.0,
            slowdown_duration: SimTime::from_secs(10.0),
            oom_rate_per_min: 0.0,
            cold_storm_rate_per_min: 0.0,
            cold_storm_duration: SimTime::from_secs(5.0),
            gateway_drop_prob: 0.0,
            gateway_jitter_max: SimTime::ZERO,
            predictor_outage_rate_per_min: 0.0,
            predictor_outage_duration: SimTime::from_secs(30.0),
        }
    }

    /// Sum of the discrete-event rates (events per minute).
    fn total_event_rate(&self) -> f64 {
        self.server_crash_rate_per_min
            + self.slowdown_rate_per_min
            + self.oom_rate_per_min
            + self.cold_storm_rate_per_min
            + self.predictor_outage_rate_per_min
    }

    /// True if any fault class can fire (the engine only installs an
    /// injector — and only perturbs its event flow — when this holds).
    pub fn enabled(&self) -> bool {
        self.total_event_rate() > 0.0
            || self.gateway_drop_prob > 0.0
            || self.gateway_jitter_max > SimTime::ZERO
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// Draws fault timings, kinds and targets from seeded private streams.
///
/// The injector is a pure source of randomness plus the static config; the
/// platform layer owns all state (which servers are dead, when storms end)
/// so that fault handling stays inside the engine's event loop.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Inter-arrival times of discrete fault events.
    schedule_rng: SimRng,
    /// Kind selection and target picks.
    draw_rng: SimRng,
    /// Per-forward gateway drop / jitter draws.
    gateway_rng: SimRng,
}

impl FaultInjector {
    pub fn new(config: FaultConfig) -> Self {
        let seed = config.seed;
        FaultInjector {
            config,
            schedule_rng: SimRng::new(seed_stream(seed, 1)),
            draw_rng: SimRng::new(seed_stream(seed, 2)),
            gateway_rng: SimRng::new(seed_stream(seed, 3)),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Absolute time of the next discrete fault event after `now`, drawn
    /// from the merged Poisson process over all enabled classes. `None`
    /// when every event rate is zero.
    pub fn next_event_after(&mut self, now: SimTime) -> Option<SimTime> {
        let rate_per_min = self.config.total_event_rate();
        if rate_per_min <= 0.0 {
            return None;
        }
        let rate_per_us = rate_per_min / 60_000_000.0;
        let u = self.schedule_rng.f64();
        let dt_us = (-(1.0 - u).ln() / rate_per_us).ceil().max(1.0) as u64;
        Some(now.plus(SimTime::from_micros(dt_us)))
    }

    /// Which fault class fires at the next event, proportional to rates.
    pub fn draw_kind(&mut self) -> FaultKind {
        let c = &self.config;
        let total = c.total_event_rate();
        debug_assert!(total > 0.0, "draw_kind with all rates zero");
        let mut x = self.draw_rng.f64() * total;
        for (rate, kind) in [
            (c.server_crash_rate_per_min, FaultKind::ServerCrash),
            (c.slowdown_rate_per_min, FaultKind::ServerSlowdown),
            (c.oom_rate_per_min, FaultKind::InstanceOom),
            (c.cold_storm_rate_per_min, FaultKind::ColdStartStorm),
            (c.predictor_outage_rate_per_min, FaultKind::PredictorOutage),
        ] {
            x -= rate;
            if x < 0.0 {
                return kind;
            }
        }
        // Floating-point tail: attribute to the last enabled class.
        FaultKind::PredictorOutage
    }

    /// Pick a target among `n` candidates (e.g. the i-th alive server).
    /// Panics if `n == 0` — callers must check for an empty candidate set.
    pub fn pick(&mut self, n: usize) -> usize {
        self.draw_rng.index(n)
    }

    /// Bernoulli draw: is this forwarded request dropped at the gateway?
    pub fn gateway_drop(&mut self) -> bool {
        if self.config.gateway_drop_prob <= 0.0 {
            return false;
        }
        self.gateway_rng.chance(self.config.gateway_drop_prob)
    }

    /// Deterministic fingerprint of the injector's RNG positions (FNV-1a
    /// fold over all three streams' state words). Checkpoint records carry
    /// it so a resumed run can verify the injector walked through the same
    /// draw sequence as the original.
    pub fn state_fingerprint(&self) -> u64 {
        let mut fp = simcore::fnv::OFFSET;
        for rng in [&self.schedule_rng, &self.draw_rng, &self.gateway_rng] {
            for w in rng.state() {
                simcore::fnv::mix_word(&mut fp, w);
            }
        }
        fp
    }

    /// Extra forward latency for this request, uniform in
    /// `[0, gateway_jitter_max)`. Zero when jitter is disabled.
    pub fn gateway_jitter(&mut self) -> SimTime {
        let max = self.config.gateway_jitter_max.as_micros();
        if max == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_micros(self.gateway_rng.index(max as usize) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_config(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            server_crash_rate_per_min: 2.0,
            slowdown_rate_per_min: 4.0,
            oom_rate_per_min: 1.0,
            cold_storm_rate_per_min: 0.5,
            gateway_drop_prob: 0.05,
            gateway_jitter_max: SimTime::from_millis(2.0),
            predictor_outage_rate_per_min: 0.25,
            ..FaultConfig::off()
        }
    }

    #[test]
    fn off_config_is_disabled_and_schedules_nothing() {
        let cfg = FaultConfig::off();
        assert!(!cfg.enabled());
        let mut inj = FaultInjector::new(cfg);
        assert_eq!(inj.next_event_after(SimTime::ZERO), None);
        assert!(!inj.gateway_drop());
        assert_eq!(inj.gateway_jitter(), SimTime::ZERO);
    }

    #[test]
    fn same_seed_replays_exactly() {
        let mut a = FaultInjector::new(chaos_config(99));
        let mut b = FaultInjector::new(chaos_config(99));
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            let ta = a.next_event_after(now).unwrap();
            let tb = b.next_event_after(now).unwrap();
            assert_eq!(ta, tb);
            assert_eq!(a.draw_kind(), b.draw_kind());
            assert_eq!(a.pick(8), b.pick(8));
            assert_eq!(a.gateway_drop(), b.gateway_drop());
            assert_eq!(a.gateway_jitter(), b.gateway_jitter());
            now = ta;
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(chaos_config(1));
        let mut b = FaultInjector::new(chaos_config(2));
        let same = (0..100)
            .filter(|_| a.next_event_after(SimTime::ZERO) == b.next_event_after(SimTime::ZERO))
            .count();
        assert!(same < 5, "schedules from different seeds should diverge");
    }

    #[test]
    fn event_times_strictly_advance() {
        let mut inj = FaultInjector::new(chaos_config(7));
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let next = inj.next_event_after(now).unwrap();
            assert!(next > now);
            now = next;
        }
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        // 7.75 events/min total → mean gap ≈ 60/7.75 s.
        let mut inj = FaultInjector::new(chaos_config(21));
        let n = 20_000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now = inj.next_event_after(now).unwrap();
        }
        let mean_s = now.as_secs() / n as f64;
        let expect = 60.0 / 7.75;
        assert!(
            (mean_s - expect).abs() / expect < 0.05,
            "mean gap {mean_s:.2}s, expected ≈{expect:.2}s"
        );
    }

    #[test]
    fn kind_distribution_proportional_to_rates() {
        let mut inj = FaultInjector::new(chaos_config(5));
        let n = 40_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            *counts.entry(inj.draw_kind().label()).or_insert(0usize) += 1;
        }
        let total_rate = 7.75;
        for (label, rate) in [
            ("server_crash", 2.0),
            ("slowdown", 4.0),
            ("oom_kill", 1.0),
            ("cold_storm", 0.5),
            ("predictor_outage", 0.25),
        ] {
            let got = counts[label] as f64 / n as f64;
            let want = rate / total_rate;
            assert!(
                (got - want).abs() < 0.02,
                "{label}: got {got:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_draw_position() {
        let a = FaultInjector::new(chaos_config(31));
        let mut b = FaultInjector::new(chaos_config(31));
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        b.next_event_after(SimTime::ZERO);
        assert_ne!(
            a.state_fingerprint(),
            b.state_fingerprint(),
            "schedule draws move the fingerprint"
        );
        assert_ne!(
            FaultInjector::new(chaos_config(32)).state_fingerprint(),
            a.state_fingerprint(),
            "different seeds fingerprint differently"
        );
    }

    #[test]
    fn gateway_drop_frequency_near_probability() {
        let mut inj = FaultInjector::new(chaos_config(3));
        let n = 50_000;
        let drops = (0..n).filter(|_| inj.gateway_drop()).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn jitter_bounded_by_max() {
        let mut inj = FaultInjector::new(chaos_config(13));
        for _ in 0..10_000 {
            let j = inj.gateway_jitter();
            assert!(j < SimTime::from_millis(2.0));
        }
    }

    #[test]
    fn rng_lanes_replay_deterministically() {
        // The injector's three lanes (schedule, kind/target, gateway) each
        // replay the same sequence however the engine interleaves its
        // calls, and end at the same fingerprint.
        let mut a = FaultInjector::new(chaos_config(17));
        let mut b = FaultInjector::new(chaos_config(17));
        let mut now_a = SimTime::ZERO;
        let mut a_trace = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..200 {
            now_a = a.next_event_after(now_a).unwrap();
            a_trace.0.push(now_a);
            a_trace.1.push((a.draw_kind(), a.pick(8)));
            a_trace.2.push((a.gateway_drop(), a.gateway_jitter()));
        }
        let gateway: Vec<_> = (0..200)
            .map(|_| (b.gateway_drop(), b.gateway_jitter()))
            .collect();
        let draws: Vec<_> = (0..200).map(|_| (b.draw_kind(), b.pick(8))).collect();
        let mut now_b = SimTime::ZERO;
        let schedule: Vec<_> = (0..200)
            .map(|_| {
                now_b = b.next_event_after(now_b).unwrap();
                now_b
            })
            .collect();
        assert_eq!(schedule, a_trace.0);
        assert_eq!(draws, a_trace.1);
        assert_eq!(gateway, a_trace.2);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn rng_lanes_are_independent_and_order_sensitive() {
        // Gateway draws (one per forwarded request) never move the fault
        // schedule or the kind/target picks, so request volume cannot shift
        // when or where faults land.
        let mut quiet = FaultInjector::new(chaos_config(23));
        let mut busy = FaultInjector::new(chaos_config(23));
        let (mut t_quiet, mut t_busy) = (SimTime::ZERO, SimTime::ZERO);
        for i in 0..300 {
            for _ in 0..i % 17 {
                busy.gateway_drop();
                busy.gateway_jitter();
            }
            t_quiet = quiet.next_event_after(t_quiet).unwrap();
            t_busy = busy.next_event_after(t_busy).unwrap();
            assert_eq!(
                t_quiet, t_busy,
                "event {i}: gateway draws moved the schedule"
            );
            assert_eq!(quiet.draw_kind(), busy.draw_kind());
            assert_eq!(quiet.pick(8), busy.pick(8));
        }
        // The fingerprint still tells the lanes apart: one draw on the
        // schedule lane and one on the gateway lane fingerprint differently.
        let mut on_schedule = FaultInjector::new(chaos_config(23));
        let mut on_gateway = FaultInjector::new(chaos_config(23));
        on_schedule.next_event_after(SimTime::ZERO);
        on_gateway.gateway_drop();
        assert_ne!(
            on_schedule.state_fingerprint(),
            on_gateway.state_fingerprint()
        );
    }
}
