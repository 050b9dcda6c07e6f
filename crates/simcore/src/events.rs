//! Discrete-event simulation primitives: a microsecond-resolution clock and
//! a stable (FIFO tie-broken) event queue with cancellable timers.
//!
//! Simulation time is an integer number of microseconds. Integer time makes
//! event ordering exact and platform-independent, which matters because the
//! reproduction promises bit-for-bit repeatable experiments.

use crate::arena::{EventHeap, EventId};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: f64) -> SimTime {
        debug_assert!(s >= 0.0, "negative sim time");
        SimTime((s * 1e6).round() as u64)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> SimTime {
        debug_assert!(ms >= 0.0, "negative sim time");
        SimTime((ms * 1e3).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating difference (`self - earlier`), clamped at zero.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Add a duration.
    pub fn plus(self, d: SimTime) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs())
    }
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// Every [`EventQueue::schedule`] and [`EventQueue::reschedule`] takes the
/// next number from one sequence counter, and events pop in `(at, seq)`
/// order. A re-timed event therefore gets exactly the key a fresh push at
/// that moment would have got: re-timing in place pops the live events in
/// the same order as pushing a replacement and skipping the superseded
/// entry on pop, without ever queueing the superseded entry.
pub struct EventQueue<E> {
    heap: EventHeap<E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: EventHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`, returning a handle that can
    /// re-time or cancel it until it pops.
    ///
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in a discrete-event simulation.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq(at);
        self.heap.push(at, seq, event)
    }

    /// Move a pending event to time `at`. It takes a new sequence number,
    /// so it orders exactly as a fresh [`EventQueue::schedule`] would.
    ///
    /// Panics if `at` is in the past; `id` must not have popped or been
    /// cancelled (checked in debug builds).
    pub fn reschedule(&mut self, id: EventId, at: SimTime) {
        let seq = self.next_seq(at);
        self.heap.rekey(id, at, seq);
    }

    /// Remove a pending event, returning it. `id` must not have popped or
    /// been cancelled (checked in debug builds).
    pub fn cancel(&mut self, id: EventId) -> E {
        self.heap.remove(id)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|(at, _, event)| {
            self.now = at;
            (at, event)
        })
    }

    /// Pop the earliest event if it is due at or before `horizon`; `None`
    /// (clock untouched) if the queue is empty or the next event lies
    /// beyond `horizon`. A run loop that stops at a horizon is
    /// `while let Some((at, ev)) = q.pop_until(end) { ... }`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek_key().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_secs(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_millis(2.0).as_micros(), 2_000);
        assert!((SimTime::from_micros(500).as_millis() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simtime_since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(b.since(a), SimTime::from_secs(1.0));
        assert_eq!(a.since(b), SimTime::ZERO);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop();
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(42), ());
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reschedule_orders_like_a_fresh_schedule() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        // Moved to t=20 after "b" was scheduled: it pops after "b".
        q.reschedule(a, SimTime(20));
        q.schedule(SimTime(20), "c");
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(20), "c"));
    }

    #[test]
    fn cancel_removes_the_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.cancel(a), "a");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap(), (SimTime(20), "b"));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rescheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        let later = q.schedule(SimTime(200), ());
        q.pop();
        q.reschedule(later, SimTime(50));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not pending")]
    fn cancelling_a_popped_event_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), ());
        q.pop();
        q.schedule(SimTime(2), ());
        q.cancel(a);
    }

    /// Stale-skipping reference queue: every re-time schedules a fresh
    /// entry under a new generation and the superseded one is skipped on
    /// pop — the behaviour in-place re-timing must reproduce.
    struct Reference {
        q: EventQueue<(u64, u32)>,
        live: Vec<Option<u32>>,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                q: EventQueue::new(),
                live: Vec::new(),
            }
        }

        fn schedule(&mut self, at: SimTime, id: u64) {
            assert_eq!(id as usize, self.live.len());
            self.live.push(Some(0));
            self.q.schedule(at, (id, 0));
        }

        fn retime(&mut self, id: u64, at: SimTime) {
            let gen = self.live[id as usize].expect("re-timing a live event") + 1;
            self.live[id as usize] = Some(gen);
            self.q.schedule(at, (id, gen));
        }

        fn cancel(&mut self, id: u64) {
            self.live[id as usize] = None;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            while let Some((at, (id, gen))) = self.q.pop() {
                if self.live[id as usize] == Some(gen) {
                    self.live[id as usize] = None;
                    return Some((at, id));
                }
            }
            None
        }
    }

    #[test]
    fn handle_pop_order_matches_stale_skipping_queue() {
        // Events spread over many handles, re-timed and cancelled through
        // them, pop exactly as the stale-skipping serial queue pops when
        // every re-time is a fresh schedule: the shared sequence counter is
        // the whole determinism argument.
        let plan: Vec<(u64, u64)> = (0..200).map(|i: u64| (i * 7919 % 97, i)).collect();
        let mut reference = Reference::new();
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for &(at, id) in &plan {
            reference.schedule(SimTime(at), id);
            ids.push(q.schedule(SimTime(at), id));
        }
        for &(at, id) in plan.iter().filter(|(_, id)| id % 3 == 0) {
            let moved = SimTime((at * 31 + id) % 97);
            reference.retime(id, moved);
            q.reschedule(ids[id as usize], moved);
        }
        for id in (0..200u64).filter(|id| id % 7 == 3) {
            reference.cancel(id);
            assert_eq!(q.cancel(ids[id as usize]), id);
        }
        loop {
            let a = reference.pop();
            let b = q.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_retimed_past_the_horizon_waits_for_the_next_window() {
        // An event re-timed past the horizon of the open window is not
        // delivered in it, and a refused pop leaves the clock alone.
        let mut q = EventQueue::new();
        let moved = q.schedule(SimTime(200), "moved");
        q.schedule(SimTime(100), "local");
        q.reschedule(moved, SimTime(500));
        assert_eq!(q.pop_until(SimTime(300)), Some((SimTime(100), "local")));
        assert_eq!(q.pop_until(SimTime(300)), None);
        assert_eq!(q.now(), SimTime(100));
        assert_eq!(q.len(), 1);
        // The horizon is inclusive: an event due exactly at it is delivered.
        assert_eq!(q.pop_until(SimTime(500)), Some((SimTime(500), "moved")));
        assert!(q.is_empty());
    }

    #[test]
    fn windows_inside_one_epoch_share_a_single_drain() {
        // Consecutive windows deliver exactly the stream one unbounded drain
        // delivers: events on a window bound go out once, in that window.
        let times = [10u64, 300, 300, 301, 700, 900, 900, 1_000];
        let mut drained = EventQueue::new();
        let mut windowed = EventQueue::new();
        for (i, &at) in times.iter().enumerate() {
            drained.schedule(SimTime(at), i);
            windowed.schedule(SimTime(at), i);
        }
        let mut expect = Vec::new();
        while let Some(ev) = drained.pop() {
            expect.push(ev);
        }
        let mut got = Vec::new();
        let mut per_window = Vec::new();
        for bound in [300u64, 700, 900, 1_000] {
            let before = got.len();
            while let Some(ev) = windowed.pop_until(SimTime(bound)) {
                got.push(ev);
            }
            per_window.push(got.len() - before);
        }
        assert_eq!(got, expect);
        assert_eq!(per_window, vec![3, 2, 2, 1]);
    }

    #[test]
    fn len_counts_live_events_across_retimes_and_cancels() {
        // `len` counts live events only: re-times leave it unchanged,
        // cancels and pops lower it.
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 0);
        q.pop_until(SimTime(100));
        let a = q.schedule(SimTime(50), 1);
        let b = q.schedule(SimTime(60), 2);
        q.schedule(SimTime(70), 3);
        assert_eq!(q.len(), 3);
        q.reschedule(a, SimTime(80));
        q.reschedule(a, SimTime(65));
        q.reschedule(b, SimTime(200));
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancel(b), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_until(SimTime(100)), Some((SimTime(65), 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_behind_a_windowed_pop_panics() {
        // A windowed pop moves the clock; scheduling behind it panics.
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        q.pop_until(SimTime(1_000));
        q.schedule(SimTime(50), ());
    }

    #[test]
    fn event_retimed_earlier_inside_a_window_pops_first() {
        // Inside one wide window, an event re-timed earlier (a co-runner
        // finished, so its neighbour speeds up) is delivered before the
        // later events of the same window; one re-timed past the bound
        // waits for the next window.
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), 1u64);
        let sped_up = q.schedule(SimTime(9_000), 2u64);
        q.schedule(SimTime(9_500), 3u64);
        let slowed = q.schedule(SimTime(9_600), 4u64);
        let mut out = Vec::new();
        while let Some((at, v)) = q.pop_until(SimTime(10_000)) {
            out.push((at.0, v));
            if v == 1 {
                q.reschedule(sped_up, SimTime(4_000));
                q.reschedule(slowed, SimTime(12_000));
            }
        }
        assert_eq!(out, vec![(100, 1), (4_000, 2), (9_500, 3)]);
        assert_eq!(q.pop_until(SimTime(20_000)), Some((SimTime(12_000), 4)));
    }

    /// Fuzz windowed delivery against one unbounded drain, with events
    /// spawning, re-timing and cancelling one another: across seeds and
    /// random window widths, no pop delivers an event past its window's
    /// horizon, and the windowed stream equals the unbounded one.
    #[test]
    fn fuzz_adaptive_lookahead_never_delivers_past_the_published_bound() {
        /// What popping event `id` at `at` does next, from a hash of both.
        fn follow_up(
            at: u64,
            id: u64,
            issued: u64,
        ) -> (Option<u64>, Option<(u64, u64)>, Option<u64>) {
            let h = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ at).rotate_left(21);
            let spawn = (!h.is_multiple_of(4) && issued < 3_000).then_some(at + h % 67);
            let retime = h
                .is_multiple_of(3)
                .then_some((h / 5 % issued, at + h / 7 % 90));
            let cancel = h.is_multiple_of(11).then_some(h / 13 % issued);
            (spawn, retime, cancel)
        }

        /// Drain `q` in windows (`widths` yields each window's width; `None`
        /// = one unbounded drain), applying the follow-up rule.
        fn run(
            seed: u64,
            horizon: u64,
            mut widths: impl FnMut() -> Option<u64>,
        ) -> Vec<(u64, u64)> {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            for i in 0..48u64 {
                ids.push(Some(q.schedule(SimTime((i * 29 + seed * 13) % 211), i)));
            }
            let mut out = Vec::new();
            while let Some(t0) = q.peek_time() {
                if t0.0 > horizon {
                    break;
                }
                let bound = widths().map_or(horizon, |w| (t0.0 + w).min(horizon));
                while let Some((at, id)) = q.pop_until(SimTime(bound)) {
                    assert!(at.0 <= bound, "seed {seed}: {at:?} delivered past {bound}");
                    ids[id as usize] = None;
                    out.push((at.0, id));
                    let (spawn, retime, cancel) = follow_up(at.0, id, ids.len() as u64);
                    if let Some((k, to)) = retime {
                        if let Some(handle) = ids[k as usize] {
                            q.reschedule(handle, SimTime(to));
                        }
                    }
                    if let Some(k) = cancel {
                        if let Some(handle) = ids[k as usize].take() {
                            q.cancel(handle);
                        }
                    }
                    if let Some(to) = spawn {
                        let next = ids.len() as u64;
                        ids.push(Some(q.schedule(SimTime(to), next)));
                    }
                }
            }
            out
        }

        for seed in 0..24u64 {
            let horizon = 500 + (seed % 7) * 130;
            let expect = run(seed, horizon, || None);
            assert!(expect.len() > 48, "seed {seed}: follow-ups never fired");
            let mut rng = crate::SimRng::new(seed);
            let got = run(seed, horizon, || Some(rng.next_u64() % 64));
            assert_eq!(got, expect, "seed {seed}: windowed stream diverged");
        }
    }
}
