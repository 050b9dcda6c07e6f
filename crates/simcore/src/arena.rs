//! Arena-backed, indexed 4-ary min-heap for event storage.
//!
//! The engine orders *large* payloads (an engine event is tens of bytes) by
//! a *small* totally-ordered key `(at, seq)`, and re-times pending events
//! in place: a task start or finish on a server changes the finish time of
//! every task running beside it. [`EventHeap`] splits the concerns:
//!
//! * a **slab** (`slots` + free list) stores each payload exactly once — a
//!   payload is written at push, read at pop or removal, and never moved in
//!   between;
//! * a **4-ary index heap** (`keys`) orders 24-byte `(at, seq, slot)`
//!   entries. Four-way branching halves the tree depth of a binary heap,
//!   and the four children of a node share one or two cache lines;
//! * a **position index** (`index`) maps each slot to its key's position
//!   in the heap, so an [`EventId`] can be re-keyed or removed in
//!   `O(log n)` without searching.
//!
//! Pop order is exactly a `BinaryHeap`'s min order on `(at, seq)`: `seq` is
//! unique, so neither the arity nor the slab layout can change which entry
//! is the minimum.

use crate::SimTime;

/// Heap key: timestamp, sequence number, and the slab slot of the payload.
/// Ordered by `(at, seq)`; `seq` uniqueness means the slot index never
/// participates in an ordering decision.
type Key = (SimTime, u64, u32);

/// Children per node. Four keeps sift-down comparisons per level cheap
/// (three extra compares against one swap) while halving tree depth.
const ARITY: usize = 4;

/// Position of a free slot.
const FREE: u32 = u32::MAX;

/// Handle to a pending event, valid until the event is popped or removed.
///
/// The generation makes a handle to a popped event distinguishable from
/// the handle of a later event that reuses its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Where a slot's key sits in the heap, and the slot's current generation.
#[derive(Clone, Copy)]
struct SlotIndex {
    pos: u32,
    gen: u32,
}

/// Min-heap of `(at, seq)`-keyed events whose payloads live in a slab and
/// never move after insertion.
pub struct EventHeap<E> {
    /// The index heap, in implicit d-ary layout.
    keys: Vec<Key>,
    /// Payload slab; `None` marks a free slot awaiting reuse.
    slots: Vec<Option<E>>,
    /// Per-slot heap position and generation.
    index: Vec<SlotIndex>,
    /// Free slots, reused LIFO so hot slots stay cache-resident.
    free: Vec<u32>,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// Empty heap.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            slots: Vec::new(),
            index: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The minimum `(at, seq)` key, without popping.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.keys.first().map(|&(at, seq, _)| (at, seq))
    }

    /// Whether `id` names an event that is still pending.
    pub fn contains(&self, id: EventId) -> bool {
        self.index
            .get(id.slot as usize)
            .is_some_and(|ix| ix.gen == id.gen && ix.pos != FREE)
    }

    /// Insert an event. The payload is written into its slab slot once; only
    /// the 24-byte key moves during the sift.
    pub fn push(&mut self, at: SimTime, seq: u64, event: E) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event arena overflow");
                self.slots.push(Some(event));
                self.index.push(SlotIndex { pos: FREE, gen: 0 });
                s
            }
        };
        self.keys.push((at, seq, slot));
        self.sift_up(self.keys.len() - 1);
        EventId {
            slot,
            gen: self.index[slot as usize].gen,
        }
    }

    /// Pop the minimum-keyed event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let &(at, seq, slot) = self.keys.first()?;
        self.take_at(0);
        Some((at, seq, self.release(slot)))
    }

    /// Give a pending event a new key, moving it where it now belongs.
    pub fn rekey(&mut self, id: EventId, at: SimTime, seq: u64) {
        debug_assert!(self.contains(id), "re-keying an event that is not pending");
        let pos = self.index[id.slot as usize].pos as usize;
        let old = self.keys[pos];
        self.keys[pos] = (at, seq, id.slot);
        if key_lt(self.keys[pos], old) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Remove a pending event, returning its payload.
    pub fn remove(&mut self, id: EventId) -> E {
        debug_assert!(self.contains(id), "removing an event that is not pending");
        let pos = self.index[id.slot as usize].pos as usize;
        self.take_at(pos);
        self.release(id.slot)
    }

    /// Drop the key at `pos`, filling the hole with the last key and
    /// restoring heap order around it.
    fn take_at(&mut self, pos: usize) {
        let last = self.keys.pop().expect("non-empty heap has a last key");
        if pos < self.keys.len() {
            let removed = self.keys[pos];
            self.keys[pos] = last;
            if key_lt(last, removed) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
    }

    /// Free a slot whose key has left the heap, returning its payload.
    fn release(&mut self, slot: u32) -> E {
        let ix = &mut self.index[slot as usize];
        ix.pos = FREE;
        ix.gen = ix.gen.wrapping_add(1);
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("heap key pointed at a live slot")
    }

    #[inline]
    fn place(&mut self, i: usize, key: Key) {
        self.keys[i] = key;
        self.index[key.2 as usize].pos = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key_lt(key, self.keys[parent]) {
                self.place(i, self.keys[parent]);
                i = parent;
            } else {
                break;
            }
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        let key = self.keys[i];
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in (first + 1)..(first + ARITY).min(len) {
                if key_lt(self.keys[c], self.keys[best]) {
                    best = c;
                }
            }
            if key_lt(self.keys[best], key) {
                self.place(i, self.keys[best]);
                i = best;
            } else {
                break;
            }
        }
        self.place(i, key);
    }
}

/// Strict `(at, seq)` order; the slot component is deliberately excluded so
/// slab reuse can never influence heap order (it could not anyway — `seq`
/// is unique — but excluding it makes that structural, not incidental).
#[inline]
fn key_lt(a: Key, b: Key) -> bool {
    (a.0, a.1) < (b.0, b.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_key_order_with_fifo_ties() {
        let mut h = EventHeap::new();
        h.push(SimTime(30), 0, "c");
        h.push(SimTime(10), 1, "a");
        h.push(SimTime(10), 2, "a2");
        h.push(SimTime(20), 3, "b");
        assert_eq!(h.peek_key(), Some((SimTime(10), 1)));
        assert_eq!(h.pop(), Some((SimTime(10), 1, "a")));
        assert_eq!(h.pop(), Some((SimTime(10), 2, "a2")));
        assert_eq!(h.pop(), Some((SimTime(20), 3, "b")));
        assert_eq!(h.pop(), Some((SimTime(30), 0, "c")));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn matches_binary_heap_under_random_interleaved_ops() {
        // Differential test: random push/pop interleavings must pop the
        // exact sequence a std BinaryHeap (min on (at, seq)) pops.
        let mut rng = SimRng::new(7);
        let mut h = EventHeap::new();
        let mut model: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if model.is_empty() || rng.f64() < 0.6 {
                let at = rng.next_u64() % 1_000;
                h.push(SimTime(at), seq, seq * 3);
                model.push(std::cmp::Reverse((at, seq)));
                seq += 1;
            } else {
                let got = h.pop().expect("model non-empty");
                let std::cmp::Reverse((at, s)) = model.pop().expect("non-empty");
                assert_eq!((got.0, got.1, got.2), (SimTime(at), s, s * 3));
            }
            assert_eq!(h.len(), model.len());
        }
        while let Some(std::cmp::Reverse((at, s))) = model.pop() {
            assert_eq!(h.pop(), Some((SimTime(at), s, s * 3)));
        }
        assert!(h.pop().is_none());
    }

    #[test]
    fn slab_slots_are_reused_not_grown() {
        let mut h = EventHeap::new();
        for round in 0..100u64 {
            for i in 0..8 {
                h.push(SimTime(round * 10 + i), round * 8 + i, i);
            }
            for _ in 0..8 {
                h.pop();
            }
        }
        assert!(
            h.slots.len() <= 8,
            "slab grew to {} slots for a working set of 8",
            h.slots.len()
        );
    }

    #[test]
    fn rekey_and_remove_keep_the_position_index_exact() {
        let mut h = EventHeap::new();
        let ids: Vec<EventId> = (0..40u64)
            .map(|i| h.push(SimTime(i * 7 % 31), i, i))
            .collect();
        h.rekey(ids[5], SimTime(0), 100);
        h.rekey(ids[0], SimTime(99), 101);
        assert_eq!(h.remove(ids[17]), 17);
        assert!(!h.contains(ids[17]));
        for (pos, &(_, _, slot)) in h.keys.iter().enumerate() {
            assert_eq!(h.index[slot as usize].pos as usize, pos);
        }
        // Event 31 also sits at t=0 and keeps its older sequence number.
        assert_eq!(h.pop(), Some((SimTime(0), 31, 31)));
        assert_eq!(h.pop(), Some((SimTime(0), 100, 5)));
        let mut last = (SimTime(0), 0);
        while let Some((at, seq, _)) = h.pop() {
            assert!((at, seq) > last);
            last = (at, seq);
        }
        assert_eq!(last, (SimTime(99), 101));
    }

    #[test]
    fn handles_of_popped_events_go_stale_even_when_the_slot_is_reused() {
        let mut h = EventHeap::new();
        let a = h.push(SimTime(1), 0, 'a');
        assert!(h.contains(a));
        h.pop();
        assert!(!h.contains(a));
        let b = h.push(SimTime(2), 1, 'b');
        assert_eq!(a.slot, b.slot, "the slot is reused");
        assert!(!h.contains(a));
        assert!(h.contains(b));
    }

    #[test]
    fn drain_unordered_moves_everything_out() {
        // Removing every pending event through its handle, in an order
        // unrelated to the keys, moves each payload out exactly once and
        // frees every slot: refilling reuses the slab instead of growing it.
        let mut h = EventHeap::new();
        let ids: Vec<EventId> = (0..50u64)
            .map(|i| h.push(SimTime(i * 17 % 13), i, i))
            .collect();
        let mut order: Vec<usize> = (0..50).collect();
        SimRng::new(3).shuffle(&mut order);
        let mut out: Vec<u64> = order.iter().map(|&i| h.remove(ids[i])).collect();
        assert!(h.is_empty());
        assert!(ids.iter().all(|&id| !h.contains(id)));
        out.sort_unstable();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        for i in 0..50u64 {
            h.push(SimTime(i), 50 + i, i);
        }
        assert_eq!(h.slots.len(), 50, "refill grew the slab");
    }
}
