//! Property tests for the simulation substrate.
//!
//! The seeded differential test below runs everywhere. The
//! property-based suites need the crates.io `proptest` crate, which this
//! offline workspace cannot fetch; they compile only when the crate's
//! `proptest` feature is enabled (see Cargo.toml).

use simcore::{EventId, EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

#[cfg(feature = "proptest")]
mod proptests {
    use proptest::prelude::*;
    use simcore::stats::{percentile, Cdf, OnlineStats};
    use simcore::{EventQueue, SimRng, SimTime};

    proptest! {
        #[test]
        fn percentile_bounded_by_extremes(
            mut v in prop::collection::vec(-1e6f64..1e6, 1..200),
            p in 0.0f64..100.0,
        ) {
            let q = percentile(&v, p);
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(q >= v[0] - 1e-9);
            prop_assert!(q <= v[v.len() - 1] + 1e-9);
        }

        #[test]
        fn percentile_monotone_in_p(
            v in prop::collection::vec(-1e6f64..1e6, 1..100),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&v, lo) <= percentile(&v, hi) + 1e-9);
        }

        #[test]
        fn online_stats_merge_equals_sequential(
            a in prop::collection::vec(-1e3f64..1e3, 0..100),
            b in prop::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let mut whole = OnlineStats::new();
            for &x in a.iter().chain(&b) {
                whole.push(x);
            }
            let mut left = OnlineStats::new();
            for &x in &a {
                left.push(x);
            }
            let mut right = OnlineStats::new();
            for &x in &b {
                right.push(x);
            }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-4);
        }

        #[test]
        fn cdf_is_monotone_and_normalised(
            v in prop::collection::vec(-1e6f64..1e6, 1..200),
            probes in prop::collection::vec(-1e6f64..1e6, 2..20),
        ) {
            let cdf = Cdf::new(v);
            let mut sorted = probes.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for &x in &sorted {
                let f = cdf.at(x);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f >= prev - 1e-12);
                prev = f;
            }
        }

        #[test]
        fn rng_index_always_in_range(seed in any::<u64>(), n in 1usize..10_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.index(n) < n);
            }
        }

        #[test]
        fn rng_sample_indices_distinct(seed in any::<u64>(), n in 1usize..500, k in 0usize..500) {
            let mut rng = SimRng::new(seed);
            let s = rng.sample_indices(n, k);
            prop_assert_eq!(s.len(), k.min(n));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), s.len());
        }

        #[test]
        fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let mut prev = SimTime::ZERO;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at >= prev);
                prev = at;
            }
        }

        #[test]
        fn simtime_roundtrip(us in 0u64..u64::MAX / 2) {
            let t = SimTime::from_micros(us);
            prop_assert_eq!(t.as_micros(), us);
            prop_assert!((t.as_secs() - us as f64 / 1e6).abs() < 1e-9 * (1.0 + us as f64 / 1e6));
        }
    }
}
