//! Epoch-scoped timer tokens, and refreshable timeouts on one kernel timer.

use mnp_net::Context;
use mnp_sim::{SimDuration, SimTime};

/// Epoch bits available above the kind byte: `64 - 8 = 56`.
const EPOCH_BITS: u32 = 56;

/// Largest representable epoch. [`TimerMux::invalidate`] saturates here so
/// a token can never alias an earlier epoch by wrapping or shifting bits
/// out the top of the word.
pub const MAX_EPOCH: u64 = (1 << EPOCH_BITS) - 1;

/// Encodes timer tokens as `(epoch << 8) | kind` and filters stale ones.
///
/// Timers set through [`mnp_net::Context::set_timer`] are not cancellable —
/// mirroring TinyOS, where fired timer events of torn-down state machines
/// are filtered in the handler. A protocol owns one `TimerMux` per timer
/// sequence; tearing down a state calls [`TimerMux::invalidate`], after
/// which every token minted before it decodes to `None`.
///
/// The kind must fit the low byte (`< 256`) — enforced in release builds,
/// not just debug. The remaining 56 bits carry the epoch, which saturates
/// at [`MAX_EPOCH`] instead of silently shifting set bits out of the
/// token: at the saturation point staleness filtering degrades (tokens
/// from the saturated epoch stay valid across further invalidations)
/// rather than corrupting the kind. Reaching it would take 2^56
/// invalidations — about 2 000 years of state changes at one per
/// microsecond — so real runs never see the degraded mode.
///
/// # Example
///
/// ```
/// use mnp::engine::TimerMux;
///
/// let mut mux = TimerMux::new();
/// let t = mux.token(3);
/// assert_eq!(mux.decode(t), Some(3));
/// mux.invalidate();
/// assert_eq!(mux.decode(t), None, "stale token from a torn-down state");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerMux {
    epoch: u64,
}

impl TimerMux {
    /// A fresh sequence at epoch 0.
    pub const fn new() -> Self {
        TimerMux { epoch: 0 }
    }

    /// Mints a token for `kind` in the current epoch.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too) if `kind` does not fit the low byte:
    /// a kind of 256 would silently decode as epoch+1's kind 0, turning a
    /// stale timer into a live one.
    pub fn token(&self, kind: u64) -> u64 {
        assert!(kind < 0x100, "timer kind {kind} must fit the low byte");
        (self.epoch << 8) | kind
    }

    /// Decodes a token; `None` if it was minted before the last
    /// [`invalidate`](TimerMux::invalidate).
    pub fn decode(&self, token: u64) -> Option<u64> {
        (token >> 8 == self.epoch).then_some(token & 0xff)
    }

    /// Starts a new epoch: all previously minted tokens become stale.
    ///
    /// Saturates at [`MAX_EPOCH`] (the 56 bits the token layout can carry)
    /// instead of shifting the epoch out of the token.
    pub fn invalidate(&mut self) {
        if self.epoch < MAX_EPOCH {
            self.epoch += 1;
        }
    }
}

/// A timeout that is refreshed far more often than it expires, kept on at
/// most one kernel timer.
///
/// MNP's download and update states, and a Deluge-style receiver, push
/// their timeout out on every data packet. Queuing a fresh timer per
/// packet leaves a trail of kernel events that fire only to re-arm or to
/// find themselves stale. A `Deadline` instead moves its instant and
/// queues a timer only when none with the caller's current token is
/// pending. When that timer fires early it re-arms once for the remainder,
/// so the expiry lands exactly on the last refreshed instant — the same
/// instant a timer per refresh would have reported.
///
/// The pending mark is the token itself: after [`TimerMux::invalidate`]
/// the caller's token changes, so the next [`arm`](Deadline::arm) queues a
/// fresh timer and the old one fires stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline {
    at: SimTime,
    /// The token of the queued, not yet fired kernel timer, if any.
    pending: Option<u64>,
}

impl Deadline {
    /// An unarmed deadline.
    pub const fn new() -> Self {
        Deadline {
            at: SimTime::ZERO,
            pending: None,
        }
    }

    /// Moves the deadline to `now + span`, queuing a kernel timer for
    /// `token` only if none with that token is pending. While one is, the
    /// span must not shrink: the pending timer would fire after the new
    /// deadline.
    pub fn arm<M>(&mut self, ctx: &mut Context<'_, M>, span: SimDuration, token: u64) {
        let at = ctx.now + span;
        if self.pending == Some(token) {
            debug_assert!(at >= self.at, "a pending deadline only moves later");
        } else {
            self.pending = Some(token);
            ctx.set_timer(span, token);
        }
        self.at = at;
    }

    /// Handles a live firing of the pending timer `token`. Before the
    /// deadline it re-arms for the remainder and returns `false`; at or
    /// after it, it clears the pending mark and returns `true`.
    pub fn expired<M>(&mut self, ctx: &mut Context<'_, M>, token: u64) -> bool {
        debug_assert_eq!(self.pending, Some(token), "not the pending timer");
        match self.remaining(ctx.now) {
            Some(rest) => {
                ctx.set_timer(rest, token);
                false
            }
            None => {
                self.pending = None;
                true
            }
        }
    }

    /// Time left until the deadline, or `None` once it has come.
    pub fn remaining(&self, now: SimTime) -> Option<SimDuration> {
        (now < self.at).then(|| self.at.saturating_since(now))
    }

    /// Moves the deadline to `at` without queuing anything, for a caller
    /// that keeps its own timers and asks [`remaining`](Deadline::remaining).
    pub fn move_to(&mut self, at: SimTime) {
        self.at = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_net::{NetworkBuilder, Protocol, WireMsg};
    use mnp_radio::{LinkTable, NodeId};
    use mnp_trace::MsgClass;

    #[test]
    fn token_round_trips_every_kind() {
        let mut mux = TimerMux::new();
        for epoch in 0..4 {
            assert_eq!(mux.epoch, epoch);
            for kind in 0..=0xff {
                assert_eq!(mux.decode(mux.token(kind)), Some(kind));
            }
            mux.invalidate();
        }
    }

    #[test]
    fn invalidate_stales_all_outstanding_tokens() {
        let mut mux = TimerMux::new();
        let minted: Vec<u64> = (0..6).map(|k| mux.token(k)).collect();
        mux.invalidate();
        for t in minted {
            assert_eq!(mux.decode(t), None);
        }
        // Fresh tokens decode again.
        assert_eq!(mux.decode(mux.token(2)), Some(2));
    }

    #[test]
    fn epoch_zero_tokens_equal_their_kind() {
        // Protocols without teardown (XNP, flood) keep epoch 0 forever, so
        // their tokens stay the raw kind values — wire-compatible with a
        // hand-rolled `match token`.
        let mux = TimerMux::new();
        assert_eq!(mux.token(1), 1);
        assert_eq!(mux.token(7), 7);
    }

    #[test]
    fn independent_sequences_do_not_interfere() {
        // Deluge holds two muxes (maintenance intervals vs transfer
        // epochs); invalidating one must not stale the other's tokens.
        let mut a = TimerMux::new();
        let b = TimerMux::new();
        let tb = b.token(5);
        a.invalidate();
        assert_eq!(b.decode(tb), Some(5));
    }

    #[test]
    #[should_panic(expected = "must fit the low byte")]
    fn oversized_kind_panics_in_release_too() {
        let mux = TimerMux::new();
        let _ = mux.token(0x100);
    }

    #[test]
    fn epoch_saturates_instead_of_overflowing_the_token() {
        let mut mux = TimerMux {
            epoch: MAX_EPOCH - 1,
        };
        mux.invalidate();
        assert_eq!(mux.epoch, MAX_EPOCH);
        // At saturation the epoch no longer advances...
        mux.invalidate();
        assert_eq!(mux.epoch, MAX_EPOCH);
        // ...and tokens still round-trip their kind exactly: nothing is
        // shifted out of the 64-bit word.
        for kind in [0, 1, 0x7f, 0xff] {
            let t = mux.token(kind);
            assert_eq!(t >> 8, MAX_EPOCH);
            assert_eq!(mux.decode(t), Some(kind));
        }
    }

    const SPAN: SimDuration = SimDuration::from_secs(10);
    const T_TIMEOUT: u64 = 1;
    /// A raw token the mux never mints (kind 0xff): re-arms the deadline.
    const POKE: u64 = 0xff;

    #[derive(Clone, Copy, Debug)]
    struct Silent;

    impl WireMsg for Silent {
        fn wire_bytes(&self) -> usize {
            0
        }
        fn class(&self) -> MsgClass {
            MsgClass::Control
        }
    }

    /// One node that arms its deadline `arms` times at start and once
    /// more at each poke, invalidating its mux first if asked. Every
    /// deadline-timer firing is recorded by outcome, so the three lists
    /// together count the kernel timers the deadline queued.
    #[derive(Default)]
    struct Probe {
        timers: TimerMux,
        deadline: Deadline,
        arms: usize,
        /// `(seconds after start, invalidate first)`.
        pokes: Vec<(u64, bool)>,
        early: Vec<u64>,
        expired: Vec<u64>,
        stale: Vec<u64>,
    }

    impl Probe {
        fn arm(&mut self, ctx: &mut Context<'_, Silent>) {
            let token = self.timers.token(T_TIMEOUT);
            self.deadline.arm(ctx, SPAN, token);
        }
    }

    impl Protocol for Probe {
        type Msg = Silent;

        fn on_start(&mut self, ctx: &mut Context<'_, Silent>) {
            for _ in 0..self.arms {
                self.arm(ctx);
            }
            for &(secs, _) in &self.pokes {
                ctx.set_timer(SimDuration::from_secs(secs), POKE);
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, Silent>, _: NodeId, _: &Silent) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, Silent>, token: u64) {
            let secs = ctx.now.as_micros() / 1_000_000;
            if token == POKE {
                let (_, invalidate) = self.pokes.iter().find(|p| p.0 == secs).copied().unwrap();
                if invalidate {
                    self.timers.invalidate();
                }
                self.arm(ctx);
            } else if self.timers.decode(token).is_none() {
                self.stale.push(secs);
            } else if self.deadline.expired(ctx, token) {
                self.expired.push(secs);
            } else {
                self.early.push(secs);
            }
        }
    }

    /// Runs `probe` to quiescence; returns `(early, expired, stale)`.
    fn run(probe: Probe) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut probe = Some(probe);
        let mut net = NetworkBuilder::new(LinkTable::new(1), 1).build(|_, _| probe.take().unwrap());
        net.run_to_deadline(SimTime::from_secs(3_600));
        let p = net.protocol(NodeId(0));
        (p.early.clone(), p.expired.clone(), p.stale.clone())
    }

    #[test]
    fn a_hundred_arms_queue_one_timer() {
        let (early, expired, stale) = run(Probe {
            arms: 100,
            ..Probe::default()
        });
        assert_eq!((early, expired, stale), (vec![], vec![10], vec![]));
    }

    #[test]
    fn an_early_firing_rearms_once_and_expires_exactly_at_the_deadline() {
        // Armed at 0 s and refreshed at 4 s: the one timer fires at 10 s,
        // re-arms once for the remaining 4 s, and reports expiry at 14 s.
        let (early, expired, stale) = run(Probe {
            arms: 1,
            pokes: vec![(4, false)],
            ..Probe::default()
        });
        assert_eq!((early, expired, stale), (vec![10], vec![14], vec![]));
    }

    #[test]
    fn an_expired_deadline_arms_afresh() {
        // The pending mark clears at expiry: arming again at 20 s in the
        // same epoch queues a new timer.
        let (early, expired, stale) = run(Probe {
            arms: 1,
            pokes: vec![(20, false)],
            ..Probe::default()
        });
        assert_eq!((early, expired, stale), (vec![], vec![10, 30], vec![]));
    }

    #[test]
    fn invalidate_makes_the_next_arm_queue_a_fresh_timer() {
        // The 0 s timer carries the old epoch and fires stale at 10 s; the
        // 4 s arm queued its own, which expires at 14 s without re-arming.
        let (early, expired, stale) = run(Probe {
            arms: 1,
            pokes: vec![(4, true)],
            ..Probe::default()
        });
        assert_eq!((early, expired, stale), (vec![], vec![14], vec![10]));
    }
}
