//! Per-node kernel state: a hot/cold split arena indexed by [`NodeId`].
//!
//! The network kernel used to carry ~12 parallel `Vec`s of per-node state;
//! this module packs them into one arena with an explicit temperature
//! split. The *hot* column ([`NodeHot`]) is the handful of flags and
//! epochs the dispatcher consults on every event — liveness, wakefulness,
//! the epoch counters that stale-filter queued events, and the in-flight
//! transmission. The *cold* columns (RNGs, deferred sleep)
//! are touched once per MAC decision or per run at most, so they live in
//! separate allocations and stay out of the dispatch cache lines.
//!
//! Every accessor takes a `NodeId` rather than exposing raw vector
//! indexing.

use mnp_radio::{NodeId, TxId};
use mnp_sim::{SimRng, SimTime};

/// The per-node state the dispatcher reads on (nearly) every event.
///
/// Kept `Copy` and small so a node's whole hot state loads in one cache
/// line alongside its neighbours'.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeHot {
    /// Radio up and protocol reachable (false while sleeping or dead).
    pub awake: bool,
    /// Fail-stopped (crash / battery death).
    pub dead: bool,
    /// Bumped on sleep/kill/restart; stale `MacAttempt` events carry the
    /// old epoch and are dropped.
    pub mac_epoch: u64,
    /// Bumped on each sleep request and on restart; stale `Wake` events
    /// carry the old epoch and are dropped.
    pub sleep_epoch: u64,
    /// The node's in-flight transmission, for mid-frame aborts.
    pub inflight: Option<TxId>,
}

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<NodeHot>() <= 32);

impl NodeHot {
    fn new() -> Self {
        NodeHot {
            awake: true,
            dead: false,
            mac_epoch: 0,
            sleep_epoch: 0,
            inflight: None,
        }
    }
}

/// Hot/cold split per-node state of every node.
#[derive(Debug)]
pub(crate) struct NodeArena {
    hot: Vec<NodeHot>,
    // Cold columns: read at MAC/protocol cadence or at finalisation, not
    // per dispatched event.
    node_rngs: Vec<SimRng>,
    mac_rngs: Vec<SimRng>,
    pending_sleep: Vec<Option<(SimTime, u64)>>,
    /// Per-node event-scheduling sequence numbers: every event a node
    /// schedules gets the next value, making `(node, seq)` a globally
    /// unique event identity (the queue's owner key).
    push_seqs: Vec<u32>,
}

impl NodeArena {
    /// Builds an arena over nodes `0..node_rngs.len()`, all awake and
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if the RNG columns disagree in length.
    pub fn new(node_rngs: Vec<SimRng>, mac_rngs: Vec<SimRng>) -> Self {
        assert_eq!(node_rngs.len(), mac_rngs.len());
        let n = node_rngs.len();
        NodeArena {
            hot: vec![NodeHot::new(); n],
            node_rngs,
            mac_rngs,
            pending_sleep: vec![None; n],
            push_seqs: vec![0; n],
        }
    }

    /// Number of nodes in the arena.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Reads `node`'s hot state (it is `Copy`).
    pub fn hot(&self, node: NodeId) -> NodeHot {
        self.hot[node.index()]
    }

    /// Mutable access to `node`'s hot state.
    pub fn hot_mut(&mut self, node: NodeId) -> &mut NodeHot {
        &mut self.hot[node.index()]
    }

    /// `node`'s protocol RNG.
    pub fn rng_mut(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.node_rngs[node.index()]
    }

    /// `node`'s MAC RNG (a stream separate from the protocol's, so MAC
    /// backoff draws never perturb protocol randomness).
    pub fn mac_rng_mut(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.mac_rngs[node.index()]
    }

    /// Defers `node`'s sleep until its in-flight frame ends.
    pub fn set_pending_sleep(&mut self, node: NodeId, wake_at: SimTime, epoch: u64) {
        self.pending_sleep[node.index()] = Some((wake_at, epoch));
    }

    /// Takes (and clears) `node`'s deferred sleep, if any.
    pub fn take_pending_sleep(&mut self, node: NodeId) -> Option<(SimTime, u64)> {
        self.pending_sleep[node.index()].take()
    }

    /// Allocates `node`'s next event sequence number. The `(node, seq)`
    /// pair identifies one scheduled event across the whole run — the
    /// owner key that ranks same-instant events by schedule order.
    pub fn next_seq(&mut self, node: NodeId) -> u32 {
        let i = node.index();
        let seq = self.push_seqs[i];
        self.push_seqs[i] += 1;
        seq
    }

    /// Allocates `count` consecutive sequence numbers of `node` at once and
    /// returns the first: the numbers `count` calls of
    /// [`NodeArena::next_seq`] would have returned.
    pub fn reserve_seqs(&mut self, node: NodeId, count: u32) -> u32 {
        let i = node.index();
        let first = self.push_seqs[i];
        self.push_seqs[i] += count;
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(n: usize) -> NodeArena {
        let root = SimRng::new(1);
        let node_rngs = (0..n).map(|i| root.derive(i as u64)).collect();
        let mac_rngs = (0..n).map(|i| root.derive(100 + i as u64)).collect();
        NodeArena::new(node_rngs, mac_rngs)
    }

    #[test]
    fn nodes_start_awake_alive_and_idle() {
        let a = arena(3);
        assert_eq!(a.len(), 3);
        let h = a.hot(NodeId(1));
        assert!(h.awake && !h.dead);
        assert_eq!((h.mac_epoch, h.sleep_epoch), (0, 0));
        assert!(h.inflight.is_none());
    }

    #[test]
    fn mutations_land_on_the_addressed_node_only() {
        let mut a = arena(3);
        a.hot_mut(NodeId(2)).dead = true;
        a.hot_mut(NodeId(2)).mac_epoch += 1;
        assert!(a.hot(NodeId(2)).dead);
        assert_eq!(a.hot(NodeId(2)).mac_epoch, 1);
        assert!(!a.hot(NodeId(0)).dead && !a.hot(NodeId(1)).dead);
    }

    #[test]
    fn a_based_arena_translates_node_ids() {
        // Accessors take the NodeId, never a raw column index.
        let mut a = arena(7);
        a.hot_mut(NodeId(5)).awake = false;
        assert!(!a.hot(NodeId(5)).awake);
        assert!(a.hot(NodeId(4)).awake && a.hot(NodeId(6)).awake);
        a.set_pending_sleep(NodeId(6), SimTime::from_secs(1), 7);
        assert_eq!(
            a.take_pending_sleep(NodeId(6)),
            Some((SimTime::from_secs(1), 7))
        );
        assert_eq!(a.take_pending_sleep(NodeId(6)), None);
    }

    #[test]
    fn a_reserved_block_is_what_single_draws_would_give() {
        let (mut a, mut b) = (arena(3), arena(3));
        for _ in 0..2 {
            a.next_seq(NodeId(1));
            b.next_seq(NodeId(1));
        }
        assert_eq!(a.reserve_seqs(NodeId(1), 4), 2);
        let drawn: Vec<u32> = (0..4).map(|_| b.next_seq(NodeId(1))).collect();
        assert_eq!(drawn, [2, 3, 4, 5]);
        assert_eq!(a.next_seq(NodeId(1)), b.next_seq(NodeId(1)));
        assert_eq!(a.reserve_seqs(NodeId(2), 0), 0);
        assert_eq!(a.next_seq(NodeId(2)), 0);
    }
}
