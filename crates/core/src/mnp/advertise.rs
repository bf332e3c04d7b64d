//! The advertise state: round pacing, requester accounting, and the
//! Fig. 2 sender selection, driven by the engine's
//! [`AdvertiseScheduler`](crate::engine::AdvertiseScheduler).

use mnp_net::Context;

use crate::config::TIMINGS;
use crate::engine::Offer;
use crate::message::{Advertisement, DownloadRequest, MnpMsg};

use super::{Mnp, MnpState, T_ADV};

impl Mnp {
    /// Enters the advertise state if this node is allowed to serve data;
    /// falls back to idle otherwise.
    pub(super) fn enter_advertise(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        let prefix = self.expected_seg();
        let may_serve = prefix > 0 && (self.pipelining || self.completed);
        if !may_serve {
            self.enter_idle();
            return;
        }
        self.timers.invalidate();
        self.state = MnpState::Advertise;
        self.adv.begin_round(prefix - 1);
        self.fwd.reset();
        self.adv.ensure_quiet_gap(TIMINGS.quiet_gap_initial);
        self.schedule_adv(ctx);
    }

    pub(super) fn schedule_adv(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        // Advertisements within a round are paced at the base random
        // interval; the between-round backoff is the sleep gap instead.
        let delay =
            self.adv
                .next_adv_delay(ctx.rng, TIMINGS.adv_interval_min, TIMINGS.adv_interval_max);
        ctx.set_timer(delay, self.timers.token(T_ADV));
    }

    /// Re-aims the advertised segment at `seg` if it is lower than the
    /// one currently served (pipelining rule 3: "whenever a node receives
    /// a download request for segment y while advertising segment x, if
    /// y < x, then it starts advertising y"). Requests for the current or
    /// a higher segment leave the round — including the forward bitmap —
    /// untouched, so duplicate requests reordered across the switch are
    /// harmless.
    fn switch_adv_segment(&mut self, seg: u16) {
        if self.adv.retarget(seg) {
            self.fwd.reset();
        }
    }

    pub(super) fn on_advertisement(&mut self, ctx: &mut Context<'_, MnpMsg>, adv: &Advertisement) {
        if adv.program != self.store.program() {
            return;
        }
        if !self.heard_any_adv {
            self.heard_any_adv = true;
            ctx.note_first_heard();
        }
        // Requester role (Fig. 3): idle and advertising nodes ask every
        // source whose offer covers their next needed segment.
        let expected = self.expected_seg();
        let may_request = matches!(self.state, MnpState::Idle | MnpState::Advertise);
        if self.interested && may_request && !self.completed && adv.seg >= expected {
            ctx.send(MnpMsg::DownloadRequest(DownloadRequest {
                dest: adv.source,
                requester: ctx.id,
                dest_req_ctr: adv.req_ctr,
                seg: expected,
                missing: self.missing_for(expected),
            }));
            self.stats.requests_sent += 1;
            self.requested_from.insert(adv.source);
        }
        // Source competition (Fig. 2 / pipelining rule 4).
        if self.state == MnpState::Advertise && self.sender_selection {
            let rival = Offer {
                seg: adv.seg,
                req_ctr: adv.req_ctr,
                source: adv.source,
            };
            if self.adv.loses_to(ctx.id, rival) {
                let span = self.sleep_span(ctx);
                self.rest(ctx, span);
            }
        }
    }

    pub(super) fn on_download_request(
        &mut self,
        ctx: &mut Context<'_, MnpMsg>,
        req: &DownloadRequest,
    ) {
        if self.state != MnpState::Advertise {
            return;
        }
        if req.dest == ctx.id {
            if req.seg > self.adv.seg() {
                return; // we do not hold that segment yet
            }
            self.switch_adv_segment(req.seg);
            if self.adv.note_request(req.requester) {
                // Active updating phase: resume eager advertising
                // ("applying different advertise frequencies enables fast
                // data propagation when the network is in active updating
                // state").
                self.adv.reset_quiet_gap(TIMINGS.quiet_gap_initial);
            }
            self.fwd.union_with(&req.missing);
        } else if self.sender_selection {
            // Overheard request to another source k: the echoed ReqCtr
            // tells us k's standing even if we never heard k (hidden
            // terminal defence).
            let rival = Offer {
                seg: req.seg,
                req_ctr: req.dest_req_ctr,
                source: req.dest,
            };
            if self.adv.loses_to(ctx.id, rival) {
                let span = self.sleep_span(ctx);
                self.rest(ctx, span);
            } else {
                // The rival has no winning standing; if it serves a lower
                // segment with no requesters yet, serve that segment
                // ourselves instead of yielding (no-op otherwise).
                self.switch_adv_segment(req.seg);
            }
        }
    }

    pub(super) fn on_adv_timer(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Advertise);
        if self.adv.should_send(TIMINGS.adv_count) {
            ctx.send(MnpMsg::Advertisement(Advertisement {
                program: self.store.program(),
                total_segments: self.total_segments(),
                source: ctx.id,
                req_ctr: self.adv.req_ctr(),
                seg: self.adv.seg(),
            }));
            self.stats.advertisements_sent += 1;
            self.adv.record_sent();
            // The decision fires one interval after the Kth advertisement,
            // leaving a grace window for requests the last advertisement
            // provoked.
            self.schedule_adv(ctx);
            return;
        }
        if self.adv.has_requesters() {
            self.enter_forward(ctx);
            return;
        }
        // Quiet round: advertise "with reduced frequency", duty-cycling
        // through an exponentially growing sleep gap (§6's sleep-length
        // tradeoff: a sleeping node may miss its neighbours'
        // advertisements). A node still missing segments caps its gap
        // low so it reliably catches upstream advertisement rounds; a
        // complete node has nothing to listen for and backs off far.
        self.adv.end_quiet_round();
        if self.completed {
            let gap = self.adv.grow_quiet_gap(TIMINGS.quiet_gap_cap);
            let span = ctx.rng.jittered(gap, gap / 4);
            self.rest_with(ctx, span, false);
        } else {
            // Still missing segments: stay awake through the gap — this
            // node is simultaneously a requester and must hear upstream
            // advertisement bursts the moment they happen.
            let gap = self.adv.grow_quiet_gap(TIMINGS.quiet_gap_cap_incomplete);
            let span = ctx.rng.jittered(gap, gap / 4);
            ctx.set_timer(span, self.timers.token(T_ADV));
        }
    }
}
