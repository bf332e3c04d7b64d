//! The event queue at the heart of the discrete-event kernel.

use std::cmp::Ordering;

use crate::profile::{self, Phase};
use crate::rng::mix;
use crate::time::{SimDuration, SimTime};

/// How same-instant events are ordered relative to each other.
///
/// The policy never reorders events across distinct timestamps — time is
/// always the primary key — and every policy is a pure function of the
/// queue's inputs, so any run replays byte-for-byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Same-instant events pop in push order (for owner-keyed pushes: in
    /// `(owner, per-owner seq)` order, which is the push order of any
    /// single-threaded run). The default, and the order every figure in
    /// EXPERIMENTS.md is regenerated under.
    #[default]
    Fifo,
    /// Same-instant events pop in a pseudorandom permutation of owner
    /// order, derived from the given seed. Used by the `mnp-check` fuzz
    /// harness to explore schedules the FIFO order never exercises; the
    /// same seed yields the same permutation, so failures replay
    /// deterministically.
    ///
    /// The hash input is the *owner*, not the per-owner sequence number:
    /// two events scheduled by the same owner for the same instant always
    /// keep their scheduling order. That invariant is load-bearing — the
    /// kernel relies on it to keep causal chains (e.g. a reception start
    /// before the matching abort) in order under every policy.
    SeededPermutation(u64),
}

impl TieBreak {
    /// The secondary sort key for an event pushed at `time` by `group`
    /// (an owner id for keyed pushes, a unique per-push value for plain
    /// ones). FIFO keys are constant (the owner key decides); the
    /// permutation policy hashes `(seed, time, group)`.
    fn key(self, time: SimTime, group: u64) -> u64 {
        match self {
            TieBreak::Fifo => 0,
            TieBreak::SeededPermutation(seed) => mix(mix(seed, time.as_micros()), group),
        }
    }
}

/// Pseudo-owner bit for plain [`EventQueue::push`] calls. Real owners are
/// node ids (`< 2^31`) packed into the upper half of the owner key, so the
/// top bit cleanly separates the two namespaces and every plain push gets
/// a distinct permutation group.
const ANON_OWNER_BIT: u64 = 1 << 63;

/// A popped event together with its canonical rank components.
///
/// The rank `(time, key, owner_key)` is a total order over all events of a
/// run (owner keys are unique), and it is canonical: it is fixed when the
/// event is scheduled, so the pop order is a function of schedule order
/// alone.
#[derive(Debug, PartialEq, Eq)]
pub struct Popped<E> {
    pub time: SimTime,
    /// Tie-break policy key (0 under FIFO).
    pub key: u64,
    /// `(owner as u64) << 32 | per-owner seq` for keyed pushes; an
    /// anonymous unique value (top bit set) for plain pushes.
    pub owner_key: u64,
    pub event: E,
}

/// A priority queue of timestamped events with deterministic tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order they were
/// pushed (FIFO), which makes a whole simulation run a pure function of its
/// inputs and seed. This property is load-bearing for the reproduction: every
/// figure in EXPERIMENTS.md is regenerated from fixed seeds.
///
/// [`EventQueue::with_tie_break`] swaps the same-instant order for a seeded
/// permutation ([`TieBreak::SeededPermutation`]), which the fuzz harness uses
/// to explore alternative schedules while staying fully reproducible.
///
/// The kernel schedules through [`EventQueue::push_owned`], which ranks an
/// event by `(time, policy key, owner, per-owner seq)` — a key that does not
/// depend on when, or into which queue, the push lands: same-instant
/// events of one owner pop in that owner's scheduling order.
///
/// # Example
///
/// ```
/// use mnp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c');
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// A 4-ary min-heap holding only the events below `horizon`. Four
    /// children per node halves the tree depth of a binary heap, and the
    /// horizon split keeps the heap small enough (a few hundred entries)
    /// to stay cache-resident even when a big grid has tens of thousands
    /// of events pending. The pop *order* is identical to any heap's:
    /// `(time, key, owner_key)` is a total order (owner keys are unique),
    /// so "remove the minimum" has exactly one answer and determinism is
    /// structural, not incidental.
    heap: Vec<Entry<E>>,
    /// Events at or beyond `horizon`, unsorted. Pushing here is O(1); the
    /// buffer is re-partitioned (one linear scan) each time the heap
    /// drains and the horizon advances. The heap remains the sole arbiter
    /// of pop order — far events always mature *into* the heap before
    /// they can pop, so the split never affects the delivered sequence.
    far: Vec<Entry<E>>,
    /// Smallest timestamp in `far`; `None` exactly when `far` is empty.
    /// (This used to be a bare `SimTime` with a zero sentinel that was
    /// only safe behind `is_empty` guards; the differential property
    /// below now pins the behaviour and the `Option` makes it
    /// structural.)
    far_min: Option<SimTime>,
    /// Events strictly below this time live in the heap.
    horizon: SimTime,
    next_seq: u64,
    tie_break: TieBreak,
}

/// Heap arity. Four children fit a sift-down's candidate scan in 1–3
/// cache lines of the entry array while halving tree depth vs binary.
const ARITY: usize = 4;

/// Width of the near-horizon window, in simulated time. Each horizon
/// advance matures at least one far event and everything within `WINDOW`
/// after it; larger windows mean fewer far-buffer rescans but a deeper
/// heap. 64 simulated milliseconds keeps the heap at a few hundred
/// entries for the event densities the MNP grids produce.
const WINDOW: SimDuration = SimDuration::from_millis(64);

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    /// Policy-derived secondary key (0 under FIFO; a hash under the seeded
    /// permutation). `owner_key` below keeps the order total either way.
    key: u64,
    owner_key: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Min-heap ordering key: earliest `(time, key, owner_key)` wins.
    #[inline]
    fn rank(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.owner_key)
    }

    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with FIFO tie-breaking.
    pub fn new() -> Self {
        EventQueue::with_tie_break(TieBreak::Fifo)
    }

    /// Creates an empty queue with the given same-instant ordering policy.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            heap: Vec::new(),
            far: Vec::new(),
            far_min: None,
            horizon: SimTime::ZERO,
            next_seq: 0,
            tie_break,
        }
    }

    /// The same-instant ordering policy this queue was built with.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is allowed (the event pops immediately at its
    /// recorded timestamp); the network layer asserts monotonicity instead.
    ///
    /// Plain pushes rank behind every owner-keyed push at the same instant
    /// and among themselves in push order (FIFO) or a per-push permutation.
    /// The kernel uses [`EventQueue::push_owned`] exclusively; this entry
    /// point serves tests and standalone uses of the queue.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_group(time, ANON_OWNER_BIT | seq, event);
    }

    /// Schedules `event` at `time` under the canonical owner key
    /// `(owner << 32) | seq`.
    ///
    /// `owner` is the node that scheduled the event and `seq` its
    /// monotonically increasing per-owner scheduling counter. The pair is
    /// unique per run and independent of queue placement, which keeps the
    /// pop order a function of schedule order alone.
    pub fn push_owned(&mut self, time: SimTime, owner: u32, seq: u32, event: E) {
        debug_assert!(owner <= i32::MAX as u32, "owner collides with anon bit");
        self.push_with_group(time, (u64::from(owner) << 32) | u64::from(seq), event);
    }

    fn push_with_group(&mut self, time: SimTime, owner_key: u64, event: E) {
        let _span = profile::span(Phase::QueuePush);
        let key = {
            let _span = profile::span(Phase::TieBreak);
            // Permute by owner (upper half), never by per-owner seq: an
            // owner's same-instant events must keep their scheduling order
            // under every policy. Anonymous pushes carry a unique group in
            // the full key, so they still permute individually.
            let group = if owner_key & ANON_OWNER_BIT != 0 {
                owner_key
            } else {
                owner_key >> 32
            };
            self.tie_break.key(time, group)
        };
        let entry = Entry {
            time,
            key,
            owner_key,
            event,
        };
        // A saturated horizon is inclusive (see `mature`): the heap already
        // holds the end of time, so a late push at `SimTime::MAX` must rank
        // against the entries there.
        if time < self.horizon || self.horizon == SimTime::MAX {
            self.push_near(entry);
        } else {
            if self.far_min.is_none_or(|m| time < m) {
                self.far_min = Some(time);
            }
            self.far.push(entry);
        }
    }

    fn push_near(&mut self, entry: Entry<E>) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties pop in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_ranked().map(|p| (p.time, p.event))
    }

    /// Like [`EventQueue::pop`], but also returns the event's canonical
    /// rank components.
    pub fn pop_ranked(&mut self) -> Option<Popped<E>> {
        let _span = profile::span(Phase::QueuePop);
        if self.heap.is_empty() && !self.mature() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let e = self.heap.pop().expect("matured non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(Popped {
            time: e.time,
            key: e.key,
            owner_key: e.owner_key,
            event: e.event,
        })
    }

    /// Advances the horizon past the earliest far event and moves every
    /// far event inside the new window into the heap. Returns whether the
    /// heap is non-empty afterwards. Called only when the heap is empty,
    /// so popped times stay monotone: everything earlier already popped.
    #[cold]
    fn mature(&mut self) -> bool {
        debug_assert!(self.heap.is_empty());
        let Some(far_min) = self.far_min else {
            debug_assert!(self.far.is_empty());
            return false;
        };
        self.horizon = (far_min + WINDOW).max(self.horizon);
        // `far_min + WINDOW` saturates within 64 ms of `SimTime::MAX`; no
        // time lies beyond that horizon, so it includes its own instant —
        // otherwise an event at `SimTime::MAX` could never mature.
        let saturated = self.horizon == SimTime::MAX;
        let mut i = 0;
        while i < self.far.len() {
            if self.far[i].time < self.horizon || saturated {
                let entry = self.far.swap_remove(i);
                self.push_near(entry);
                // The swapped-in tail entry now sits at `i`; re-check it.
            } else {
                i += 1;
            }
        }
        self.far_min = self.far.iter().map(|e| e.time).min();
        debug_assert!(!self.heap.is_empty(), "far_min matured by construction");
        true
    }

    /// Restores the heap property upward from `i` after a push.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[i].cmp(&self.heap[parent]) == Ordering::Less {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap property downward from `i` after a pop.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to ARITY children.
            let mut min = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if self.heap[c].cmp(&self.heap[min]) == Ordering::Less {
                    min = c;
                }
            }
            if self.heap[min].cmp(&self.heap[i]) == Ordering::Less {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// The heap's root bounds every heap entry and `far_min` bounds every
    /// far entry, so the global minimum is known without maturing.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = self.heap.first().map(|e| e.time);
        match (near, self.far_min) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (n, f) => n.or(f),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.far.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.far.clear();
        self.far_min = None;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(5), i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), 10);
        q.push(SimTime::from_micros(1), 11);
        q.push(SimTime::from_micros(5), 12);
        q.push(SimTime::from_micros(1), 13);
        assert_eq!(drain(&mut q), vec![(1, 11), (1, 13), (5, 10), (5, 12)]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), 0);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn owned_ties_pop_in_owner_then_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        q.push_owned(t, 2, 0, 20);
        q.push_owned(t, 1, 1, 11);
        q.push_owned(t, 1, 0, 10);
        q.push_owned(t, 0, 7, 7);
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, vec![7, 10, 11, 20]);
    }

    #[test]
    fn owner_key_rank_is_queue_placement_independent() {
        // The same owner-keyed events split across two queues pop, within
        // each queue, in the same relative order as the single queue —
        // merging by rank reproduces the sequential schedule.
        let events: [(u64, u32, u32); 6] = [
            (5, 0, 0),
            (5, 3, 0),
            (5, 1, 0),
            (9, 0, 1),
            (5, 1, 1),
            (2, 2, 0),
        ];
        for tie in [TieBreak::Fifo, TieBreak::SeededPermutation(42)] {
            let mut whole = EventQueue::with_tie_break(tie);
            let mut left = EventQueue::with_tie_break(tie);
            let mut right = EventQueue::with_tie_break(tie);
            for &(t, owner, seq) in &events {
                let t = SimTime::from_micros(t);
                whole.push_owned(t, owner, seq, (owner, seq));
                if owner < 2 {
                    left.push_owned(t, owner, seq, (owner, seq));
                } else {
                    right.push_owned(t, owner, seq, (owner, seq));
                }
            }
            let seq_order: Vec<_> =
                std::iter::from_fn(|| whole.pop_ranked().map(|p| (p.rank_tuple(), p.event)))
                    .collect();
            let mut merged: Vec<_> =
                std::iter::from_fn(|| left.pop_ranked().map(|p| (p.rank_tuple(), p.event)))
                    .collect();
            merged.extend(std::iter::from_fn(|| {
                right.pop_ranked().map(|p| (p.rank_tuple(), p.event))
            }));
            // Each queue's stream is already rank-sorted (pop order), so
            // a stable sort by rank is exactly the k-way merge.
            merged.sort_by_key(|m| m.0);
            assert_eq!(merged, seq_order, "tie policy {tie:?}");
        }
    }

    impl<E> Popped<E> {
        fn rank_tuple(&self) -> (SimTime, u64, u64) {
            (self.time, self.key, self.owner_key)
        }
    }

    #[test]
    fn same_owner_same_instant_keeps_seq_order_under_permutation() {
        // The permutation policy must never flip a single owner's
        // same-instant events: rx-start/rx-abort causal chains depend on
        // it.
        for seed in 0..64u64 {
            let mut q = EventQueue::with_tie_break(TieBreak::SeededPermutation(seed));
            let t = SimTime::from_micros(4_166);
            for seq in 0..8u32 {
                q.push_owned(t, 17, seq, seq);
            }
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(popped, (0..8).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn seeded_permutation_reorders_ties_but_not_times() {
        // 32 same-instant events: the permutation must visibly deviate from
        // push order for at least one seed while keeping the set intact.
        let drain_with = |seed: u64| {
            let mut q = EventQueue::with_tie_break(TieBreak::SeededPermutation(seed));
            for i in 0..32u32 {
                q.push(SimTime::from_secs(1), i);
            }
            q.push(SimTime::from_secs(2), 99);
            q.push(SimTime::ZERO, 98);
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        let popped = drain_with(7);
        // Distinct timestamps keep their order around the tie group.
        assert_eq!(popped.first(), Some(&(SimTime::ZERO, 98)));
        assert_eq!(popped.last(), Some(&(SimTime::from_secs(2), 99)));
        let ties: Vec<u32> = popped[1..popped.len() - 1]
            .iter()
            .map(|&(_, e)| e)
            .collect();
        let mut sorted = ties.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
        assert_ne!(ties, (0..32).collect::<Vec<_>>(), "not the FIFO order");
        // Byte-identical replay under the same seed; different under another.
        assert_eq!(popped, drain_with(7));
        assert_ne!(popped, drain_with(8));
    }

    #[test]
    fn fifo_and_with_tie_break_fifo_agree() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_tie_break(TieBreak::Fifo);
        assert_eq!(a.tie_break(), TieBreak::Fifo);
        for i in 0..20u32 {
            a.push(SimTime::from_micros(u64::from(i % 3)), i);
            b.push(SimTime::from_micros(u64::from(i % 3)), i);
        }
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    #[test]
    fn far_events_mature_in_order_across_windows() {
        // Times spread over ~11 horizon windows, pushed in reverse, with a
        // same-instant tie pair straddling each window boundary.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in (0..100u32).rev() {
            q.push(SimTime::from_millis(u64::from(i) * 7), i);
        }
        for i in 0..100u32 {
            expect.push((u64::from(i) * 7_000, i));
        }
        q.push(SimTime::from_millis(64), 900);
        q.push(SimTime::from_millis(64), 901);
        let mut got = drain(&mut q);
        // The two boundary ties land between the i=9 (63ms) and i=10
        // (70ms) entries, in push order.
        let pos = got.iter().position(|&(t, _)| t == 64_000).unwrap();
        assert_eq!(got.remove(pos), (64_000, 900));
        assert_eq!(got.remove(pos), (64_000, 901));
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaving_pushes_with_pops_respects_the_horizon() {
        // Pop a far-future event first (maturing it), then push earlier
        // events — they must still pop before the remaining far ones.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.push(SimTime::from_secs(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        q.push(SimTime::from_secs(15), 3);
        q.push(SimTime::from_secs(19), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(15)));
        assert_eq!(
            drain(&mut q),
            vec![(15_000_000, 3), (19_000_000, 4), (20_000_000, 2)]
        );
    }

    #[test]
    fn an_event_at_the_end_of_time_pops() {
        // `far_min + WINDOW` saturates here; the horizon must then include
        // its own instant or the event never matures (this used to panic).
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 7);
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
        assert_eq!(q.pop(), Some((SimTime::MAX, 7)));
        assert_eq!(q.pop(), None);
        // Pushes after the horizon saturated still rank against the
        // end-of-time entries already matured into the heap.
        let mut q = EventQueue::new();
        let near_end = SimTime::from_micros(u64::MAX - 10);
        q.push_owned(near_end, 0, 0, 0);
        q.push_owned(SimTime::MAX, 5, 0, 50);
        assert_eq!(q.pop(), Some((near_end, 0)));
        q.push_owned(SimTime::MAX, 2, 0, 20);
        q.push_owned(near_end, 3, 0, 30);
        assert_eq!(
            drain(&mut q),
            vec![(u64::MAX - 10, 30), (u64::MAX, 20), (u64::MAX, 50)]
        );
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        // A cleared queue accepts far pushes again (far_min reset).
        q.push(SimTime::from_secs(9), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{check, SimRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Between `min_len` and `max_len - 1` draws from `[0, hi)`.
    fn draws(rng: &mut SimRng, min_len: u64, max_len: u64, hi: u64) -> Vec<u64> {
        (0..rng.range_u64(min_len, max_len))
            .map(|_| rng.range_u64(0, hi))
            .collect()
    }

    /// Pushes `times` in order, event `i` at `times[i]`, and drains the
    /// queue as `(time, event)` pairs.
    fn drained(mut q: EventQueue<usize>, times: &[u64]) -> Vec<(u64, usize)> {
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect()
    }

    /// `times` as `(time, push index)`, stably sorted.
    fn stable_sort(times: &[u64]) -> Vec<(u64, usize)> {
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort(); // stable on (time, insertion index)
        expect
    }

    /// Popping yields a non-decreasing time sequence, and equal-time
    /// events keep their push order.
    #[test]
    fn prop_pop_order_is_stable_sort() {
        check("prop_pop_order_is_stable_sort", 32, |rng| {
            let times = draws(rng, 1, 200, 50);
            assert_eq!(drained(EventQueue::new(), &times), stable_sort(&times));
        });
    }

    /// `SeededPermutation` delivers exactly the FIFO event set — nothing
    /// lost, nothing duplicated — and never reorders across distinct
    /// timestamps.
    #[test]
    fn prop_permutation_preserves_the_event_set() {
        check("prop_permutation_preserves_the_event_set", 32, |rng| {
            let times = draws(rng, 1, 200, 20);
            let seed = rng.next_u64();
            let mut fifo = drained(EventQueue::new(), &times);
            let perm_out = drained(
                EventQueue::with_tie_break(TieBreak::SeededPermutation(seed)),
                &times,
            );
            // Same multiset of (time, event) pairs.
            let mut perm_sorted = perm_out.clone();
            fifo.sort_unstable();
            perm_sorted.sort_unstable();
            assert_eq!(fifo, perm_sorted);
            // Times still pop in non-decreasing order: the permutation only
            // ever reshuffles within one instant.
            for w in perm_out.windows(2) {
                assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            }
        });
    }

    /// The permutation is a pure function of the seed: two queues fed
    /// the same pushes pop identically.
    #[test]
    fn prop_permutation_is_deterministic_per_seed() {
        check("prop_permutation_is_deterministic_per_seed", 32, |rng| {
            let times = draws(rng, 1, 200, 20);
            let tie = TieBreak::SeededPermutation(rng.next_u64());
            assert_eq!(
                drained(EventQueue::with_tie_break(tie), &times),
                drained(EventQueue::with_tie_break(tie), &times)
            );
        });
    }

    /// Wide time ranges (spanning many 64 ms horizon windows) still pop
    /// as a stable sort: maturation from the far buffer cannot reorder.
    #[test]
    fn prop_pop_order_is_stable_across_horizon_windows() {
        check(
            "prop_pop_order_is_stable_across_horizon_windows",
            32,
            |rng| {
                let times = draws(rng, 1, 300, 2_000_000);
                assert_eq!(drained(EventQueue::new(), &times), stable_sort(&times));
            },
        );
    }

    /// Interleaved pushes and pops match a linear-scan model: every pop
    /// returns the pending event with the smallest (time, push order).
    /// (The drain-only property above never exercises sift-down from a
    /// partially consumed heap.)
    #[test]
    fn prop_interleaved_pops_return_the_pending_minimum() {
        check(
            "prop_interleaved_pops_return_the_pending_minimum",
            32,
            |rng| {
                // Values below 30 push at that time (stretched so the pushes
                // span multiple horizon windows); 30+ pop.
                let mut q = EventQueue::new();
                let mut model: Vec<(u64, usize)> = Vec::new();
                for (i, op) in draws(rng, 1, 300, 50).into_iter().enumerate() {
                    match op {
                        t if t < 30 => {
                            let us = t * 97_003;
                            q.push(SimTime::from_micros(us), i);
                            model.push((us, i));
                        }
                        _ => {
                            let popped = q.pop().map(|(t, e)| (t.as_micros(), e));
                            let want = model
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &(t, seq))| (t, seq))
                                .map(|(pos, _)| pos);
                            assert_eq!(popped, want.map(|pos| model.remove(pos)));
                        }
                    }
                }
            },
        );
    }

    /// Differential test of the horizon-split queue against a naive
    /// `BinaryHeap` oracle over random push/pop interleavings mixing
    /// plain, owner-keyed, and boxed cold-variant events, under both
    /// tie policies. Exercises far-buffer maturation (`far_min`
    /// maintenance) from arbitrary intermediate states, including the
    /// advance-drains-the-single-smallest-far-event case an earlier
    /// audit called out. Far times reach hours (a mobile
    /// run's motion horizon) and the two last representable instants,
    /// where the horizon saturates.
    #[test]
    fn prop_differential_vs_binary_heap_oracle() {
        check("prop_differential_vs_binary_heap_oracle", 32, |rng| {
            // A payload with a boxed variant, mirroring the kernel's cold
            // `SetLink` events: maturation must move boxes without
            // confusing ranks.
            #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
            enum Ev {
                Hot(usize),
                Cold(Box<(usize, u64)>),
            }
            let ops: Vec<(u64, u64, u32)> = (0..rng.range_u64(1, 400))
                .map(|_| {
                    (
                        rng.range_u64(0, 10),
                        rng.range_u64(0, 40),
                        rng.index(6) as u32,
                    )
                })
                .collect();
            let seed = rng.next_u64();
            let permute = rng.next_u64() & 1 == 1;
            let tie = if permute {
                TieBreak::SeededPermutation(seed)
            } else {
                TieBreak::Fifo
            };
            let mut q: EventQueue<Ev> = EventQueue::with_tie_break(tie);
            // Oracle: a plain min-heap over the same (time, key, owner_key)
            // ranks, computed with the same policy function.
            type Rank = (SimTime, u64, u64);
            let mut oracle: BinaryHeap<Reverse<(Rank, Ev)>> = BinaryHeap::new();
            let far_time = |t_raw: u64, scale: u64| match t_raw {
                39 => SimTime::MAX,
                38 => SimTime::from_micros(u64::MAX - 1),
                t => SimTime::from_micros(t * scale),
            };
            let mut anon_seq = 0u64;
            let mut owner_seqs = [0u32; 6];
            for (i, (op, t_raw, owner)) in ops.into_iter().enumerate() {
                match op {
                    // 0–3: plain push (hot), times clustered near zero.
                    0..=3 => {
                        let t = SimTime::from_micros(t_raw * 11);
                        let ev = Ev::Hot(i);
                        q.push(t, ev.clone());
                        let group = ANON_OWNER_BIT | anon_seq;
                        oracle.push(Reverse(((t, tie.key(t, group), group), ev)));
                        anon_seq += 1;
                    }
                    // 4–5: plain push far beyond the horizon window:
                    // seconds away (4) or up to ~4 h away (5).
                    4..=5 => {
                        let t = far_time(t_raw, if op == 4 { 97_003 } else { 367_000_013 });
                        let ev = Ev::Cold(Box::new((i, t_raw)));
                        q.push(t, ev.clone());
                        let group = ANON_OWNER_BIT | anon_seq;
                        oracle.push(Reverse(((t, tie.key(t, group), group), ev)));
                        anon_seq += 1;
                    }
                    // 6–7: owner-keyed push, mixed near/far times.
                    6..=7 => {
                        let t = if op == 6 {
                            SimTime::from_micros(t_raw * 13)
                        } else {
                            far_time(t_raw, 70_111)
                        };
                        let seq = owner_seqs[owner as usize];
                        owner_seqs[owner as usize] += 1;
                        let ev = Ev::Hot(i);
                        q.push_owned(t, owner, seq, ev.clone());
                        let group = u64::from(owner);
                        let okey = (u64::from(owner) << 32) | u64::from(seq);
                        oracle.push(Reverse(((t, tie.key(t, group), okey), ev)));
                    }
                    // 8–9: pop and compare against the oracle minimum.
                    _ => {
                        let got = q
                            .pop_ranked()
                            .map(|p| ((p.time, p.key, p.owner_key), p.event));
                        let want = oracle.pop().map(|Reverse(x)| x);
                        assert_eq!(got, want);
                    }
                }
                assert_eq!(q.len(), oracle.len());
                assert_eq!(
                    q.peek_time(),
                    oracle.peek().map(|Reverse(((t, _, _), _))| *t)
                );
            }
            // Drain the rest: full agreement to the end.
            loop {
                let got = q
                    .pop_ranked()
                    .map(|p| ((p.time, p.key, p.owner_key), p.event));
                let want = oracle.pop().map(|Reverse(x)| x);
                let done = got.is_none();
                assert_eq!(got, want);
                if done {
                    break;
                }
            }
        });
    }

    /// len() equals pushes minus pops at every step.
    #[test]
    fn prop_len_is_consistent() {
        check("prop_len_is_consistent", 32, |rng| {
            let mut q = EventQueue::new();
            let mut model = 0usize;
            for i in 0..rng.range_u64(1, 300) as usize {
                if rng.next_u64() & 1 == 1 {
                    q.push(SimTime::from_micros(i as u64 % 17), i);
                    model += 1;
                } else if q.pop().is_some() {
                    model -= 1;
                }
                assert_eq!(q.len(), model);
                assert_eq!(q.is_empty(), model == 0);
            }
        });
    }
}
