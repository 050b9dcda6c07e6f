//! Platform telemetry: named counters, gauges and histograms.
//!
//! A [`Telemetry`] registry is a flat, insertion-cheap map from metric name
//! to state. Counters are monotonic `u64`s; gauges remember their last
//! sample plus running moments; histograms add a deterministic log-spaced
//! bucket array for percentile queries (no RNG, unlike
//! `simcore::stats::Reservoir`, so recording a metric can never perturb a
//! seeded simulation). Everything exports as JSONL (one metric per line) or
//! CSV via the shared summary schema.

use crate::json::Json;
use simcore::stats::OnlineStats;
use std::collections::BTreeMap;

/// Log-spaced histogram over positive values.
///
/// 8 sub-buckets per power of two between 2^-10 (~1 µs when recording ms)
/// and 2^30, plus an underflow bucket — enough range and resolution (≤9%
/// relative error) for every latency/depth metric the platform records.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    counts: Vec<(i32, u64)>, // (sub-bucket index, count), sparse & sorted
    stats: OnlineStats,
}

const SUB_BUCKETS: i32 = 8;
const MIN_EXP: i32 = -10;

fn bucket_of(value: f64) -> i32 {
    if value <= 0.0 || !value.is_finite() {
        return i32::MIN / 2; // underflow/invalid bucket
    }
    // Fractional log2 quantised to SUB_BUCKETS steps per octave.
    let idx = (value.log2() * SUB_BUCKETS as f64).floor() as i32;
    idx.max(MIN_EXP * SUB_BUCKETS)
}

fn bucket_midpoint(idx: i32) -> f64 {
    if idx <= MIN_EXP * SUB_BUCKETS {
        return 0.0;
    }
    // Geometric midpoint of [2^(idx/8), 2^((idx+1)/8)).
    ((idx as f64 + 0.5) / SUB_BUCKETS as f64).exp2()
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.stats.push(value);
        let b = bucket_of(value);
        match self.counts.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(pos) => self.counts[pos].1 += 1,
            Err(pos) => self.counts.insert(pos, (b, 1)),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Approximate quantile (`q` in [0, 1]) from the bucket midpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(idx, c) in &self.counts {
            seen += c;
            if seen >= target {
                return bucket_midpoint(idx);
            }
        }
        bucket_midpoint(self.counts.last().map(|&(i, _)| i).unwrap_or(0))
    }
}

/// One metric's state.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(u64),
    Gauge { last: f64, stats: OnlineStats },
    Histogram(LogHistogram),
}

/// The registry. Metric kind is fixed by first use; re-using a name with a
/// different kind panics (it is always a bug at the producer site).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    metrics: BTreeMap<String, Metric>,
}

impl Telemetry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a counter (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        let metric = match self.metrics.get_mut(name) {
            Some(m) => m,
            None => self.insert(name, Metric::Counter(0)),
        };
        match metric {
            Metric::Counter(c) => *c += by,
            _ => panic!("telemetry metric '{name}' is not a counter"),
        }
    }

    /// Set a gauge's current value (also feeds its running moments).
    pub fn gauge(&mut self, name: &str, value: f64) {
        let metric = match self.metrics.get_mut(name) {
            Some(m) => m,
            None => self.insert(
                name,
                Metric::Gauge {
                    last: 0.0,
                    stats: OnlineStats::new(),
                },
            ),
        };
        match metric {
            Metric::Gauge { last, stats } => {
                *last = value;
                stats.push(value);
            }
            _ => panic!("telemetry metric '{name}' is not a gauge"),
        }
    }

    /// Record an observation into a histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        let metric = match self.metrics.get_mut(name) {
            Some(m) => m,
            None => self.insert(name, Metric::Histogram(LogHistogram::default())),
        };
        match metric {
            Metric::Histogram(h) => h.observe(value),
            _ => panic!("telemetry metric '{name}' is not a histogram"),
        }
    }

    /// First use of `name`: the only update that allocates its key.
    fn insert(&mut self, name: &str, metric: Metric) -> &mut Metric {
        self.metrics.entry(name.to_string()).or_insert(metric)
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Last value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge { last, .. }) => Some(*last),
            _ => None,
        }
    }

    /// Histogram state, if the metric exists and is one.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// Fold another registry into this one (counters add, gauges keep the
    /// other's last value, histograms merge moments and buckets).
    pub fn merge(&mut self, other: &Telemetry) {
        for (name, metric) in &other.metrics {
            match metric {
                Metric::Counter(c) => self.incr(name, *c),
                Metric::Gauge { last, stats } => {
                    match self.metrics.entry(name.clone()).or_insert(Metric::Gauge {
                        last: *last,
                        stats: OnlineStats::new(),
                    }) {
                        Metric::Gauge { last: l, stats: s } => {
                            *l = *last;
                            s.merge(stats);
                        }
                        _ => panic!("telemetry metric '{name}' is not a gauge"),
                    }
                }
                Metric::Histogram(h) => {
                    match self
                        .metrics
                        .entry(name.clone())
                        .or_insert_with(|| Metric::Histogram(LogHistogram::default()))
                    {
                        Metric::Histogram(mine) => {
                            mine.stats.merge(&h.stats);
                            for &(idx, c) in &h.counts {
                                match mine.counts.binary_search_by_key(&idx, |&(i, _)| i) {
                                    Ok(pos) => mine.counts[pos].1 += c,
                                    Err(pos) => mine.counts.insert(pos, (idx, c)),
                                }
                            }
                        }
                        _ => panic!("telemetry metric '{name}' is not a histogram"),
                    }
                }
            }
        }
    }

    fn metric_json(&self, name: &str, metric: &Metric) -> Json {
        let base = Json::obj().field("name", name);
        match metric {
            Metric::Counter(c) => base.field("kind", "counter").field("value", *c),
            Metric::Gauge { last, stats } => base
                .field("kind", "gauge")
                .field("last", *last)
                .field("count", stats.count())
                .field("mean", stats.mean())
                .field("min", stats.min())
                .field("max", stats.max()),
            Metric::Histogram(h) => base
                .field("kind", "histogram")
                .field("count", h.count())
                .field("mean", h.stats.mean())
                .field("p50", h.quantile(0.50))
                .field("p95", h.quantile(0.95))
                .field("p99", h.quantile(0.99))
                .field("min", h.stats.min())
                .field("max", h.stats.max()),
        }
    }

    /// One JSON object per metric, newline-separated (JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            out.push_str(&self.metric_json(name, metric).render());
            out.push('\n');
        }
        out
    }

    /// CSV with a fixed header; fields that do not apply to a kind are
    /// left empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,value,count,mean,p50,p95,p99,min,max\n");
        for (name, metric) in &self.metrics {
            let line = match metric {
                Metric::Counter(c) => format!("{name},counter,{c},,,,,,,"),
                Metric::Gauge { last, stats } => format!(
                    "{name},gauge,{last},{},{},,,,{},{}",
                    stats.count(),
                    stats.mean(),
                    stats.min(),
                    stats.max()
                ),
                Metric::Histogram(h) => format!(
                    "{name},histogram,,{},{},{},{},{},{},{}",
                    h.count(),
                    h.stats.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.stats.min(),
                    h.stats.max()
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::new();
        t.incr("cold_starts", 1);
        t.incr("cold_starts", 2);
        assert_eq!(t.counter("cold_starts"), 3);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn gauges_track_last_and_moments() {
        let mut t = Telemetry::new();
        t.gauge("queue.depth", 4.0);
        t.gauge("queue.depth", 10.0);
        assert_eq!(t.gauge_value("queue.depth"), Some(10.0));
    }

    #[test]
    fn histogram_quantiles_are_log_accurate() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 500.0 - 1.0).abs() < 0.15, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 990.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_handles_zero_and_negative() {
        let mut h = LogHistogram::default();
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn jsonl_one_line_per_metric() {
        let mut t = Telemetry::new();
        t.incr("a", 1);
        t.gauge("b", 2.0);
        t.observe("c", 3.0);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("kind").is_some());
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Telemetry::new();
        t.incr("a", 7);
        t.observe("lat", 12.0);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name,kind"));
        assert!(lines[1].starts_with("a,counter,7"));
    }

    #[test]
    fn merge_combines_registries() {
        let mut a = Telemetry::new();
        a.incr("n", 1);
        a.observe("h", 10.0);
        let mut b = Telemetry::new();
        b.incr("n", 2);
        b.observe("h", 20.0);
        b.gauge("g", 5.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge_value("g"), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut t = Telemetry::new();
        t.gauge("x", 1.0);
        t.incr("x", 1);
    }
}
