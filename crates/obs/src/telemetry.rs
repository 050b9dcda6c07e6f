//! Platform telemetry: named counters, gauges and histograms.
//!
//! A [`Telemetry`] registry holds metric state in a vector, indexed by a
//! sorted name map that fixes the export order; updates resolve their
//! `&'static str` name through an address cache, so once a metric exists
//! an update compares no strings and allocates nothing. Counters are
//! monotonic `u64`s; gauges remember their last sample plus running
//! moments; histograms add a deterministic log-spaced bucket array for
//! percentile queries (no RNG, unlike `simcore::stats::Reservoir`, so
//! recording a metric can never perturb a seeded simulation). Everything
//! exports as JSONL, one metric per line.

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

fn new_gauge() -> Metric {
    Metric::Gauge {
        last: 0.0,
        stats: OnlineStats::new(),
    }
}

/// The registry. Metric kind is fixed by first use; re-using a name with a
/// different kind panics (it is always a bug at the producer site).
///
/// Updates name their metric with a `&'static str` and are resolved through
/// an address cache: the first update through a given literal looks the
/// name up (creating the metric if it is new) and remembers the literal's
/// `(address, length)`; later updates through it compare two words instead
/// of a string. Static memory is never reused, so a cache hit always names
/// the same metric. Reads, exports and [`Telemetry::merge`] go by name.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Metric state in first-use order.
    metrics: Vec<Metric>,
    /// Name → index into `metrics`; its sorted order is the export order.
    index: BTreeMap<String, usize>,
    /// `(address, length, index)` of every name literal seen so far.
    by_addr: Vec<(usize, usize, usize)>,
}

impl Telemetry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a counter (creating it at zero).
    pub fn incr(&mut self, name: &'static str, by: u64) {
        match self.slot(name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            _ => panic!("telemetry metric '{name}' is not a counter"),
        }
    }

    /// Set a gauge's current value (also feeds its running moments).
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        match self.slot(name, new_gauge) {
            Metric::Gauge { last, stats } => {
                *last = value;
                stats.push(value);
            }
            _ => panic!("telemetry metric '{name}' is not a gauge"),
        }
    }

    /// Record an observation into a histogram.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        match self.slot(name, || Metric::Histogram(LogHistogram::default())) {
            Metric::Histogram(h) => h.observe(value),
            _ => panic!("telemetry metric '{name}' is not a histogram"),
        }
    }

    /// The metric a name literal refers to, via the address cache.
    #[inline]
    fn slot(&mut self, name: &'static str, new: fn() -> Metric) -> &mut Metric {
        let (addr, len) = (name.as_ptr() as usize, name.len());
        let idx = match self.by_addr.iter().find(|e| e.0 == addr && e.1 == len) {
            Some(&(_, _, idx)) => idx,
            None => {
                let idx = self.index_of(name, new);
                self.by_addr.push((addr, len, idx));
                idx
            }
        };
        &mut self.metrics[idx]
    }

    /// Index of `name`, creating the metric with `new` on first use: the
    /// only update that allocates its key.
    fn index_of(&mut self, name: &str, new: impl FnOnce() -> Metric) -> usize {
        if let Some(&idx) = self.index.get(name) {
            return idx;
        }
        self.metrics.push(new());
        self.index.insert(name.to_string(), self.metrics.len() - 1);
        self.metrics.len() - 1
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.index.get(name).map(|&idx| &self.metrics[idx])
    }

    /// `(name, metric)` in sorted name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.index
            .iter()
            .map(|(name, &idx)| (name.as_str(), &self.metrics[idx]))
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Last value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Metric::Gauge { last, .. }) => Some(*last),
            _ => None,
        }
    }

    /// Histogram state, if the metric exists and is one.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Fold another registry into this one (counters add, gauges keep the
    /// other's last value, histograms merge moments and buckets).
    pub fn merge(&mut self, other: &Telemetry) {
        for (name, metric) in other.iter() {
            match metric {
                Metric::Counter(by) => {
                    let idx = self.index_of(name, || Metric::Counter(0));
                    match &mut self.metrics[idx] {
                        Metric::Counter(c) => *c += by,
                        _ => panic!("telemetry metric '{name}' is not a counter"),
                    }
                }
                Metric::Gauge { last, stats } => {
                    let idx = self.index_of(name, || Metric::Gauge {
                        last: *last,
                        stats: OnlineStats::new(),
                    });
                    match &mut self.metrics[idx] {
                        Metric::Gauge { last: l, stats: s } => {
                            *l = *last;
                            s.merge(stats);
                        }
                        _ => panic!("telemetry metric '{name}' is not a gauge"),
                    }
                }
                Metric::Histogram(h) => {
                    let idx = self.index_of(name, || Metric::Histogram(LogHistogram::default()));
                    match &mut self.metrics[idx] {
                        Metric::Histogram(mine) => {
                            mine.stats.merge(&h.stats);
                            for &(bucket, c) in &h.counts {
                                match mine.counts.binary_search_by_key(&bucket, |&(i, _)| i) {
                                    Ok(pos) => mine.counts[pos].1 += c,
                                    Err(pos) => mine.counts.insert(pos, (bucket, c)),
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
        for (name, metric) in self.iter() {
            out.push_str(&self.metric_json(name, metric).render());
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
        t.incr("a", 7);
        t.gauge("b", 2.0);
        t.observe("c", 3.0);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("kind").is_some());
        }
        assert_eq!(lines[0], r#"{"name":"a","kind":"counter","value":7}"#);
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

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn kind_mismatch_panics_on_a_cached_name() {
        let name: &'static str = "x";
        let mut t = Telemetry::new();
        t.incr(name, 1);
        t.incr(name, 1);
        assert_eq!(t.by_addr.len(), 1, "the literal is in the address cache");
        t.observe(name, 1.0);
    }

    /// A mixed sequence of updates: kind (`c`ounter, `g`auge, `h`istogram),
    /// name, value. Names repeat, out of sorted order.
    const UPDATES: &[(char, &str, f64)] = &[
        ('c', "requests.arrivals", 1.0),
        ('h', "gateway.forward_ms", 0.75),
        ('g', "tasks.queued", 3.0),
        ('c', "contention.recomputes", 1.0),
        ('c', "requests.arrivals", 1.0),
        ('h', "gateway.forward_ms", 12.5),
        ('h', "function.local_ms", 0.0),
        ('g', "tasks.queued", 0.0),
        ('c', "contention.recomputes", 4.0),
        ('h', "gateway.forward_ms", -1.0),
        ('g', "gateway.depth", 17.0),
        ('c', "autoscaler.rejections", 0.0),
        ('h', "function.local_ms", 1e6),
    ];

    fn apply(t: &mut Telemetry, kind: char, name: &'static str, value: f64) {
        match kind {
            'c' => t.incr(name, value as u64),
            'g' => t.gauge(name, value),
            _ => t.observe(name, value),
        }
    }

    #[test]
    fn cached_updates_match_by_name_rebuild() {
        let mut cached = Telemetry::new();
        let mut by_name = Telemetry::new();
        for &(kind, name, value) in UPDATES {
            apply(&mut cached, kind, name, value);
            // A fresh copy of the name has an address never seen before, so
            // every update of `by_name` misses the cache and goes by name.
            let fresh: &'static str = Box::leak(name.to_string().into_boxed_str());
            assert_ne!(fresh.as_ptr(), name.as_ptr());
            apply(&mut by_name, kind, fresh, value);
        }
        assert_eq!(by_name.by_addr.len(), UPDATES.len());
        assert_eq!(cached.names().count(), 7);
        assert_eq!(cached.to_jsonl(), by_name.to_jsonl());
        assert_eq!(cached.counter("contention.recomputes"), 5);
        assert_eq!(cached.histogram("gateway.forward_ms").unwrap().count(), 3);
    }

    #[test]
    fn metric_appears_only_after_first_update() {
        let mut t = Telemetry::new();
        assert_eq!(t.counter("n"), 0);
        assert_eq!(t.gauge_value("g"), None);
        assert!(t.histogram("h").is_none());
        assert_eq!(t.names().count(), 0, "reads create nothing");
        assert_eq!(t.to_jsonl(), "");
        t.incr("n", 0);
        assert_eq!(t.names().collect::<Vec<_>>(), ["n"]);
        t.observe("h", 2.0);
        assert_eq!(t.names().collect::<Vec<_>>(), ["h", "n"]);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn merged_metrics_share_the_cached_path() {
        let mut a = Telemetry::new();
        a.incr("n", 1);
        let mut b = Telemetry::new();
        b.incr("n", 2);
        b.gauge("g", 5.0);
        b.observe("h", 1.0);
        a.merge(&b);
        // Names that entered by merge resolve to the same metric on their
        // first cached update, and names already cached keep theirs.
        a.gauge("g", 6.0);
        a.observe("h", 4.0);
        a.incr("n", 4);
        assert_eq!(a.counter("n"), 7);
        assert_eq!(a.gauge_value("g"), Some(6.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.names().collect::<Vec<_>>(), ["g", "h", "n"]);
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
