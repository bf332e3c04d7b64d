//! Generational payload arena for in-flight frame payloads.
//!
//! One frame on the air is one payload; however many receivers decode it,
//! they all read the same arena slot. The arena replaces shared-ownership
//! smart pointers on the delivery hot path with plain indices: a
//! [`PayloadHandle`] is `Copy`, 8 bytes, and `Send`, so a medium over a
//! `Send` payload type — and with it a whole simulation — can move to
//! another thread.
//!
//! Slots are recycled through a free list, and every recycle bumps the
//! slot's generation, so a handle kept past its payload's release can never
//! silently read the *next* frame's payload: [`PayloadArena::get`] returns
//! `None` and [`PayloadArena::take`] panics on a stale handle.
//!
//! The arena is deliberately self-contained (no global state, no interior
//! mutability): the medium owns one, and handles never leave it.

use mnp_sim::profile::{self, Phase};

/// Index of one in-flight payload in a [`PayloadArena`].
///
/// Stale handles (the slot was released and possibly recycled) are
/// detected by generation mismatch rather than undefined behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PayloadHandle {
    index: u32,
    generation: u32,
}

/// One arena cell: the payload of a single in-flight transmission, plus
/// the generation stamp that invalidates old handles when the cell is
/// recycled.
#[derive(Clone, Debug)]
struct PayloadSlot<P> {
    generation: u32,
    /// `None` while the slot sits on the free list.
    payload: Option<P>,
}

/// A generational arena of in-flight frame payloads.
///
/// Allocation pops the free list (or grows by one slot when it is empty),
/// so the slot count never exceeds the high-water mark of *concurrent*
/// payloads; in steady state, insertion performs no heap allocation
/// beyond what the payload itself owns.
///
/// # Example
///
/// ```
/// use mnp_radio::PayloadArena;
///
/// let mut arena: PayloadArena<&str> = PayloadArena::new();
/// let h = arena.insert("frame");
/// assert_eq!(arena.get(h), Some(&"frame"));
/// assert_eq!(arena.take(h), "frame");
/// // The handle is stale once taken: reads fail safely.
/// assert_eq!(arena.get(h), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PayloadArena<P> {
    slots: Vec<PayloadSlot<P>>,
    free: Vec<u32>,
    live: usize,
}

impl<P> PayloadArena<P> {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `payload`, recycling a freed slot when one is available.
    pub fn insert(&mut self, payload: P) -> PayloadHandle {
        let _span = profile::span(Phase::ArenaAlloc);
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.payload.is_none(), "free-listed slot holds a payload");
                slot.payload = Some(payload);
                PayloadHandle {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("more than u32::MAX payloads");
                self.slots.push(PayloadSlot {
                    generation: 0,
                    payload: Some(payload),
                });
                PayloadHandle {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Reads the payload behind `handle`, or `None` if the handle is stale
    /// (its slot was released, and possibly recycled for a later payload).
    pub fn get(&self, handle: PayloadHandle) -> Option<&P> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.payload.as_ref()
    }

    /// Removes and returns the payload behind `handle`, bumping the slot's
    /// generation and returning the slot to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale — a caller holding a released handle
    /// is a double-free bug, not a recoverable condition.
    pub fn take(&mut self, handle: PayloadHandle) -> P {
        let _span = profile::span(Phase::ArenaFree);
        let slot = self
            .slots
            .get_mut(handle.index as usize)
            .expect("payload handle outlives its arena slot");
        assert_eq!(
            slot.generation, handle.generation,
            "stale payload handle: slot already released"
        );
        let payload = slot
            .payload
            .take()
            .expect("generation matched a freed slot");
        // Wrapping keeps release safe after 2^32 recycles of one slot; an
        // astronomically old handle could then false-match, which a
        // simulation run cannot reach (it would need 4 billion frames
        // through a single slot).
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.live -= 1;
        payload
    }

    /// Number of live payloads.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no live payloads.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever created (live + free-listed). Bounded by the
    /// high-water mark of concurrently live payloads.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_take_roundtrip() {
        let mut a: PayloadArena<u32> = PayloadArena::new();
        let h = a.insert(7);
        assert_eq!(a.get(h), Some(&7));
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(h), 7);
        assert_eq!(a.live(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn released_slot_is_recycled_with_a_new_generation() {
        let mut a: PayloadArena<u32> = PayloadArena::new();
        let h1 = a.insert(1);
        a.take(h1);
        let h2 = a.insert(2);
        // Same slot, different generation: the arena reuses storage
        // without letting the old handle alias the new payload.
        assert_eq!(a.slot_count(), 1);
        assert_ne!(h1, h2);
        assert_eq!(a.get(h1), None, "stale handle reads nothing");
        assert_eq!(a.get(h2), Some(&2));
    }

    #[test]
    #[should_panic(expected = "stale payload handle")]
    fn double_take_panics() {
        let mut a: PayloadArena<u32> = PayloadArena::new();
        let h = a.insert(1);
        a.take(h);
        a.take(h);
    }

    #[test]
    fn slot_count_tracks_concurrency_not_throughput() {
        let mut a: PayloadArena<u32> = PayloadArena::new();
        // 100 sequential transmissions with at most 2 in flight.
        for i in 0..100 {
            let h1 = a.insert(i);
            let h2 = a.insert(i + 1);
            a.take(h1);
            a.take(h2);
        }
        assert_eq!(a.slot_count(), 2);
    }

    #[test]
    fn out_of_range_handle_reads_none() {
        let mut a: PayloadArena<u32> = PayloadArena::new();
        let h = a.insert(1);
        let other: PayloadArena<u32> = PayloadArena::new();
        assert_eq!(other.get(h), None);
        a.take(h);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    /// Random alloc/free/reuse sequences never let a stale handle
    /// dereference a recycled slot, every live handle reads back its
    /// own value, and storage never exceeds the high-water mark of
    /// concurrently live payloads.
    #[test]
    fn prop_arena_handles_never_alias() {
        mnp_sim::check("prop_arena_handles_never_alias", 32, |rng| {
            let mut arena: PayloadArena<u64> = PayloadArena::new();
            let mut live: Vec<(PayloadHandle, u64)> = Vec::new();
            let mut stale: Vec<PayloadHandle> = Vec::new();
            let mut tag = 0u64;
            let mut max_live = 0usize;
            for _ in 0..rng.range_u64(1, 400) {
                // Weights 4 : 3 : 2 for insert, take a live handle, and
                // re-read a released one; a take or re-read with no handle
                // to pick is skipped.
                match rng.index(9) {
                    0..=3 => {
                        tag += 1;
                        let h = arena.insert(tag);
                        live.push((h, tag));
                        max_live = max_live.max(live.len());
                    }
                    4..=6 if !live.is_empty() => {
                        let (h, expect) = live.swap_remove(rng.index(live.len()));
                        assert_eq!(arena.take(h), expect);
                        stale.push(h);
                    }
                    7..=8 if !stale.is_empty() => {
                        let h = stale[rng.index(stale.len())];
                        assert_eq!(arena.get(h), None, "stale handle must not read");
                    }
                    _ => continue,
                }
                // Every live handle still reads exactly its own payload.
                for &(h, expect) in &live {
                    assert_eq!(arena.get(h), Some(&expect));
                }
                assert_eq!(arena.live(), live.len());
                assert!(
                    arena.slot_count() <= max_live,
                    "slots {} exceed high water {}",
                    arena.slot_count(),
                    max_live
                );
            }
        });
    }
}
