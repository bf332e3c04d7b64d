//! Advertise-round scheduling and ReqCtr-based sender selection.

use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimRng};

/// A rival source's standing in the sender-selection competition, as
/// learned from its advertisement or from the `ReqCtr` echoed inside an
/// overheard download request (the hidden-terminal defence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Offer {
    /// Segment the rival is advertising.
    pub seg: u16,
    /// The rival's distinct-requester count.
    pub req_ctr: u8,
    /// The rival source's id (the deterministic tie-break).
    pub source: NodeId,
}

/// The advertise-state bookkeeping of the paper's sender selection (§3.2,
/// Fig. 2): randomized advertisement pacing within a round, the distinct
/// requester counter `ReqCtr`, the exponentially backed-off quiet gap
/// between rounds, and the lose/win comparison against rival offers.
///
/// The scheduler is config-agnostic — intervals, counts and caps are
/// passed in by the protocol — and draws randomness only from the caller's
/// RNG, preserving replay determinism.
#[derive(Clone, Debug, Default)]
pub struct AdvertiseScheduler {
    seg: u16,
    req_ctr: u8,
    requesters: Vec<NodeId>,
    advs_in_round: u8,
    quiet_gap: SimDuration,
    wake_fast: bool,
}

impl AdvertiseScheduler {
    /// A scheduler with no round in progress.
    pub fn new() -> Self {
        AdvertiseScheduler::default()
    }

    /// Segment currently advertised.
    pub fn seg(&self) -> u16 {
        self.seg
    }

    /// Distinct requesters heard this round ("ReqCtr").
    pub fn req_ctr(&self) -> u8 {
        self.req_ctr
    }

    /// Whether at least one requester asked this round.
    pub fn has_requesters(&self) -> bool {
        self.req_ctr > 0
    }

    /// Starts a fresh advertise round for `seg`: requester accounting and
    /// the per-round advertisement count reset.
    pub fn begin_round(&mut self, seg: u16) {
        self.seg = seg;
        self.req_ctr = 0;
        self.requesters.clear();
        self.advs_in_round = 0;
    }

    /// Re-aims the round at a lower segment (pipelining rule 3: "whenever
    /// a node receives a download request for segment y while advertising
    /// segment x, if y < x, then it starts advertising y"). Requester
    /// accounting resets; the advertisement count of the round does not.
    ///
    /// Requests for the current or a higher segment are a no-op (returns
    /// `false`): under schedule perturbation a duplicate request for the
    /// segment already served can arrive after the switch, and wiping
    /// `ReqCtr` for it — let alone asserting it away — would corrupt the
    /// sender-selection standing mid-round.
    pub fn retarget(&mut self, seg: u16) -> bool {
        if seg >= self.seg {
            return false;
        }
        self.seg = seg;
        self.req_ctr = 0;
        self.requesters.clear();
        true
    }

    /// Records a download request from `requester`; returns `true` if it
    /// is a new distinct requester (which bumps `ReqCtr`).
    pub fn note_request(&mut self, requester: NodeId) -> bool {
        if self.requesters.contains(&requester) {
            return false;
        }
        self.requesters.push(requester);
        self.req_ctr = self.req_ctr.saturating_add(1);
        true
    }

    /// The randomized delay before the next advertisement of a round.
    pub fn next_adv_delay(
        &self,
        rng: &mut SimRng,
        interval_min: SimDuration,
        interval_max: SimDuration,
    ) -> SimDuration {
        let spread = (interval_max - interval_min).max(SimDuration::from_millis(1));
        rng.jittered(interval_min, spread)
    }

    /// Whether the round still owes advertisements ("after advertising K
    /// times", Fig. 2 — the decision fires after `adv_count` sends).
    pub fn should_send(&self, adv_count: u8) -> bool {
        self.advs_in_round < adv_count
    }

    /// Counts one advertisement sent in this round. Saturates: a round
    /// kept open past 255 sends (a quiet round never closed by a timer
    /// lost to a crash) must not wrap the counter back to "owes more".
    pub fn record_sent(&mut self) {
        self.advs_in_round = self.advs_in_round.saturating_add(1);
    }

    /// Closes a quiet (requester-less) round so the next one advertises
    /// again.
    pub fn end_quiet_round(&mut self) {
        self.advs_in_round = 0;
    }

    /// Resets the backoff to its eager initial value (network activity:
    /// a new requester, fresh content to serve, a fast wake).
    pub fn reset_quiet_gap(&mut self, initial: SimDuration) {
        self.quiet_gap = initial;
    }

    /// Seeds the backoff if it has never been set.
    pub fn ensure_quiet_gap(&mut self, initial: SimDuration) {
        if self.quiet_gap.is_zero() {
            self.quiet_gap = initial;
        }
    }

    /// Doubles the backoff after a quiet round, up to `cap` ("we
    /// exponentially increase the advertise interval if no request is
    /// received"); returns the new gap.
    pub fn grow_quiet_gap(&mut self, cap: SimDuration) -> SimDuration {
        self.quiet_gap = (self.quiet_gap * 2).min(cap);
        self.quiet_gap
    }

    /// Whether the pending sleep should reset the backoff on wake (true
    /// for activity sleeps: lost competitions and post-forward rests).
    pub fn wake_fast(&self) -> bool {
        self.wake_fast
    }

    /// Marks the pending sleep as an activity sleep (or not).
    pub fn set_wake_fast(&mut self, fast: bool) {
        self.wake_fast = fast;
    }

    /// The sender-selection comparison (Fig. 2 / pipelining rule 4): does
    /// this source, identified by `my_id`, lose to `rival`?
    ///
    /// * Lower segments have priority: yield to any rival serving one if
    ///   it has at least one requester.
    /// * Same segment: the higher `ReqCtr` wins; ties break toward the
    ///   higher node id.
    /// * A rival on a higher segment never beats us.
    pub fn loses_to(&self, my_id: NodeId, rival: Offer) -> bool {
        if rival.seg < self.seg {
            rival.req_ctr > 0
        } else if rival.seg == self.seg {
            rival.req_ctr > 0
                && (rival.req_ctr > self.req_ctr
                    || (rival.req_ctr == self.req_ctr && rival.source > my_id))
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn competing(seg: u16, req_ctr: u8) -> AdvertiseScheduler {
        let mut a = AdvertiseScheduler::new();
        a.begin_round(seg);
        for i in 0..req_ctr {
            a.note_request(NodeId(100 + u32::from(i)));
        }
        a
    }

    #[test]
    fn lower_segment_with_requesters_always_wins() {
        let me = competing(3, 5);
        assert!(me.loses_to(
            NodeId(1),
            Offer {
                seg: 2,
                req_ctr: 1,
                source: NodeId(9)
            }
        ));
        // ... but an idle rival on a lower segment does not force a yield.
        assert!(!me.loses_to(
            NodeId(1),
            Offer {
                seg: 2,
                req_ctr: 0,
                source: NodeId(9)
            }
        ));
    }

    #[test]
    fn same_segment_higher_req_ctr_wins() {
        let me = competing(1, 2);
        let rival = |req_ctr, source| Offer {
            seg: 1,
            req_ctr,
            source,
        };
        assert!(me.loses_to(NodeId(4), rival(3, NodeId(2))));
        assert!(!me.loses_to(NodeId(4), rival(1, NodeId(2))));
        // A rival with zero requesters never wins, whatever the ids.
        assert!(!me.loses_to(NodeId(4), rival(0, NodeId(9))));
    }

    #[test]
    fn same_segment_tie_breaks_toward_higher_id() {
        let me = competing(1, 2);
        let rival = |source| Offer {
            seg: 1,
            req_ctr: 2,
            source,
        };
        assert!(me.loses_to(NodeId(4), rival(NodeId(5))), "higher id wins");
        assert!(!me.loses_to(NodeId(4), rival(NodeId(3))), "lower id loses");
        // Symmetry: exactly one of a pair yields.
        let other = competing(1, 2);
        let my_offer = Offer {
            seg: 1,
            req_ctr: 2,
            source: NodeId(4),
        };
        assert!(other.loses_to(NodeId(5), my_offer) != me.loses_to(NodeId(4), rival(NodeId(5))));
    }

    #[test]
    fn higher_segment_rival_never_wins() {
        let me = competing(1, 0);
        assert!(!me.loses_to(
            NodeId(1),
            Offer {
                seg: 2,
                req_ctr: 200,
                source: NodeId(9)
            }
        ));
    }

    #[test]
    fn note_request_counts_distinct_requesters_once() {
        let mut a = AdvertiseScheduler::new();
        a.begin_round(0);
        assert!(a.note_request(NodeId(1)));
        assert!(!a.note_request(NodeId(1)), "duplicate must not re-count");
        assert!(a.note_request(NodeId(2)));
        assert_eq!(a.req_ctr(), 2);
    }

    #[test]
    fn retarget_resets_requesters_but_not_the_round() {
        let mut a = AdvertiseScheduler::new();
        a.begin_round(3);
        a.note_request(NodeId(1));
        a.record_sent();
        assert!(a.retarget(1));
        assert_eq!(a.seg(), 1);
        assert_eq!(a.req_ctr(), 0);
        assert!(!a.should_send(1), "advertisement budget is preserved");
    }

    #[test]
    fn retarget_to_current_or_higher_segment_is_a_no_op() {
        let mut a = AdvertiseScheduler::new();
        a.begin_round(2);
        a.note_request(NodeId(1));
        // A duplicate request for the segment already served (reordered
        // across the switch) must not wipe the round's standing.
        assert!(!a.retarget(2));
        assert_eq!(a.req_ctr(), 1, "ReqCtr survives the duplicate");
        assert!(!a.retarget(5), "higher segments never retarget");
        assert_eq!(a.seg(), 2);
        assert_eq!(a.req_ctr(), 1);
    }

    #[test]
    fn record_sent_saturates_instead_of_wrapping() {
        let mut a = AdvertiseScheduler::new();
        a.begin_round(0);
        for _ in 0..300 {
            a.record_sent();
        }
        // A wrapped counter would read as "owes more advertisements".
        assert!(!a.should_send(u8::MAX));
        a.end_quiet_round();
        assert!(a.should_send(1), "closing the round re-opens the budget");
    }

    #[test]
    fn quiet_gap_doubles_to_the_cap() {
        let mut a = AdvertiseScheduler::new();
        a.ensure_quiet_gap(SimDuration::from_secs(2));
        a.ensure_quiet_gap(SimDuration::from_secs(99)); // already set: no-op
        assert_eq!(a.quiet_gap, SimDuration::from_secs(2));
        let cap = SimDuration::from_secs(10);
        assert_eq!(a.grow_quiet_gap(cap), SimDuration::from_secs(4));
        assert_eq!(a.grow_quiet_gap(cap), SimDuration::from_secs(8));
        assert_eq!(a.grow_quiet_gap(cap), cap, "capped");
        a.reset_quiet_gap(SimDuration::from_secs(2));
        assert_eq!(a.quiet_gap, SimDuration::from_secs(2));
    }
}
