//! Property tests for the simulation substrate. Each test loops over
//! seeds, draws its cases from `SimRng::new(seed)` and names the seed in
//! every assert message, so a failure replays from its seed alone.

use simcore::stats::{percentile, Cdf, OnlineStats};
use simcore::{EventId, EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// The queue as the engine used it before timers were cancellable: a
/// binary heap that never removes an entry. Re-timing pushes a fresh entry
/// under a new token; cancelling bumps the token; pop skips every entry
/// whose token is stale.
#[derive(Default)]
struct StaleSkippingModel {
    /// `(at, seq, handle, token)`, min-first.
    heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    /// Current token per handle; `None` once popped or cancelled.
    tokens: Vec<Option<u64>>,
    seq: u64,
    live: usize,
}

impl StaleSkippingModel {
    fn push(&mut self, at: u64, handle: usize) {
        let token = self.tokens[handle].map_or(0, |t| t + 1);
        if self.tokens[handle].is_none() {
            self.live += 1;
        }
        self.tokens[handle] = Some(token);
        self.heap.push(Reverse((at, self.seq, handle, token)));
        self.seq += 1;
    }

    fn schedule(&mut self, at: u64) -> usize {
        self.tokens.push(None);
        let handle = self.tokens.len() - 1;
        self.push(at, handle);
        handle
    }

    fn cancel(&mut self, handle: usize) {
        self.tokens[handle] = None;
        self.live -= 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        while let Some(Reverse((at, _, handle, token))) = self.heap.pop() {
            if self.tokens[handle] == Some(token) {
                self.tokens[handle] = None;
                self.live -= 1;
                return Some((at, handle));
            }
        }
        None
    }
}

#[test]
fn cancellable_queue_matches_the_stale_skipping_heap() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = StaleSkippingModel::default();
        // Handles still pending, by model handle (== payload).
        let mut pending: Vec<(usize, EventId)> = Vec::new();
        let mut pops = 0usize;
        for _ in 0..6_000 {
            let now = q.now().as_micros();
            let at = now + rng.next_u64() % 500;
            let roll = rng.f64();
            if pending.is_empty() || roll < 0.35 {
                let handle = model.schedule(at);
                pending.push((handle, q.schedule(SimTime(at), handle)));
            } else if roll < 0.65 {
                let (handle, id) = pending[rng.index(pending.len())];
                model.push(at, handle);
                q.reschedule(id, SimTime(at));
            } else if roll < 0.75 {
                let (handle, id) = pending.swap_remove(rng.index(pending.len()));
                model.cancel(handle);
                assert_eq!(q.cancel(id), handle);
            } else {
                let want = model.pop();
                let got = q.pop().map(|(at, handle)| (at.as_micros(), handle));
                assert_eq!(got, want, "seed {seed}: pop {pops} diverged");
                if let Some((_, handle)) = got {
                    pending.retain(|&(h, _)| h != handle);
                }
                pops += 1;
            }
            assert_eq!(q.len(), model.live, "seed {seed}: live count");
            assert_eq!(q.len(), pending.len());
        }
        while let Some(want) = model.pop() {
            assert_eq!(q.pop().map(|(at, h)| (at.as_micros(), h)), Some(want));
        }
        assert!(q.is_empty(), "seed {seed}: queue outlived the model");
        assert!(pops > 1_000, "seed {seed}: only {pops} pops");
    }
}

/// `len` in `lens`, each value uniform in `[lo, hi)`.
fn values(rng: &mut SimRng, lens: Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let len = lens.start + rng.index(lens.len());
    (0..len).map(|_| lo + rng.f64() * (hi - lo)).collect()
}

#[test]
fn percentile_bounded_by_extremes() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let mut v = values(&mut rng, 1..200, -1e6, 1e6);
        let p = rng.f64() * 100.0;
        let q = percentile(&v, p);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            q >= v[0] - 1e-9,
            "seed {seed}: p{p} = {q} below min {}",
            v[0]
        );
        let max = v[v.len() - 1];
        assert!(q <= max + 1e-9, "seed {seed}: p{p} = {q} above max {max}");
    }
}

#[test]
fn percentile_monotone_in_p() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let v = values(&mut rng, 1..100, -1e6, 1e6);
        let (p1, p2) = (rng.f64() * 100.0, rng.f64() * 100.0);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let (q_lo, q_hi) = (percentile(&v, lo), percentile(&v, hi));
        assert!(
            q_lo <= q_hi + 1e-9,
            "seed {seed}: p{lo} = {q_lo} > p{hi} = {q_hi}"
        );
    }
}

#[test]
fn online_stats_merge_equals_sequential() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let a = values(&mut rng, 0..100, -1e3, 1e3);
        let b = values(&mut rng, 0..100, -1e3, 1e3);
        let mut whole = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &a {
            whole.push(x);
            left.push(x);
        }
        for &x in &b {
            whole.push(x);
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count(), "seed {seed}: count");
        let (m, w) = (left.mean(), whole.mean());
        assert!((m - w).abs() < 1e-6, "seed {seed}: mean {m} vs {w}");
        let (m, w) = (left.variance(), whole.variance());
        assert!((m - w).abs() < 1e-4, "seed {seed}: variance {m} vs {w}");
    }
}

#[test]
fn cdf_is_monotone_and_normalised() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let cdf = Cdf::new(values(&mut rng, 1..200, -1e6, 1e6));
        let mut probes = values(&mut rng, 2..20, -1e6, 1e6);
        probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &probes {
            let f = cdf.at(x);
            assert!((0.0..=1.0).contains(&f), "seed {seed}: F({x}) = {f}");
            assert!(f >= prev - 1e-12, "seed {seed}: F({x}) = {f} < {prev}");
            prev = f;
        }
    }
}

#[test]
fn rng_index_always_in_range() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.index(9_999);
        let mut under_test = SimRng::new(rng.next_u64());
        for _ in 0..100 {
            let i = under_test.index(n);
            assert!(i < n, "seed {seed}: index({n}) = {i}");
        }
    }
}

#[test]
fn rng_sample_indices_distinct() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        let (n, k) = (1 + rng.index(499), rng.index(500));
        let mut under_test = SimRng::new(rng.next_u64());
        let s = under_test.sample_indices(n, k);
        assert_eq!(s.len(), k.min(n), "seed {seed}: n {n}, k {k}");
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len(), "seed {seed}: repeated index");
        assert!(
            d.iter().all(|&i| i < n),
            "seed {seed}: index out of [0, {n})"
        );
    }
}

#[test]
fn simtime_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = SimRng::new(seed);
        // Half the cases span the whole range, half stay below an hour.
        let us = rng.next_u64() >> (1 + 31 * rng.index(2) as u32);
        let t = SimTime::from_micros(us);
        assert_eq!(t.as_micros(), us, "seed {seed}");
        let secs = us as f64 / 1e6;
        assert!(
            (t.as_secs() - secs).abs() < 1e-9 * (1.0 + secs),
            "seed {seed}: {us} us reads {} s",
            t.as_secs()
        );
    }
}
