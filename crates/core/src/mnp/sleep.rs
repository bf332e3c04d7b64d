//! Rest spans, the sleep ablation, and wake handling.

use mnp_net::Context;
use mnp_sim::SimDuration;

use crate::config::TIMINGS;
use crate::message::MnpMsg;

use super::{Mnp, MnpState, T_REST};

impl Mnp {
    pub(super) fn sleep_span(&self, ctx: &mut Context<'_, MnpMsg>) -> SimDuration {
        // "The sleeping period ... lasts for approximately the expected code
        // transmission time" — of one segment, plus jitter so sleepers do
        // not wake in lockstep.
        let base = TIMINGS.segment_tx_time(self.store.layout());
        ctx.rng.jittered(base, base / 4)
    }

    /// Sits out the next advertisement round after a forward round: the
    /// post-forward sleep jittered by half of itself.
    pub(super) fn rest_after_forward(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        let base = TIMINGS.post_forward_sleep;
        let span = ctx.rng.jittered(base, base / 2);
        self.rest(ctx, span);
    }

    pub(super) fn rest(&mut self, ctx: &mut Context<'_, MnpMsg>, span: SimDuration) {
        self.rest_with(ctx, span, true);
    }

    /// Sleeps for `span`; `fast_wake` marks an activity sleep (the next
    /// advertise round starts eagerly).
    pub(super) fn rest_with(
        &mut self,
        ctx: &mut Context<'_, MnpMsg>,
        span: SimDuration,
        fast_wake: bool,
    ) {
        self.timers.invalidate();
        self.state = MnpState::Sleep;
        self.parent = None;
        self.adv.set_wake_fast(fast_wake);
        self.stats.sleeps += 1;
        // The sleep ablation (A2) keeps the radio on behind an equivalent
        // timer; the schedule is identical either way, the energy is not.
        if self.sleep_enabled {
            ctx.sleep_for(span);
        } else {
            ctx.set_timer(span, self.timers.token(T_REST));
        }
    }

    pub(super) fn wake(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Sleep);
        // "When the sleep timer fires, the source node wakes up and
        // re-enters advertise state" (or idle if it has nothing to serve).
        // After an activity sleep (lost competition, finished forward) the
        // new selection round advertises eagerly; after a quiet-gap sleep
        // the exponential backoff is preserved.
        if self.adv.wake_fast() {
            self.adv.reset_quiet_gap(TIMINGS.quiet_gap_initial);
        }
        self.enter_advertise(ctx);
    }
}
