//! The §5 query/update loss-recovery phase: the sender polls its children
//! for losses (query state) and retransmits the union of their repair
//! bitmaps; a child with gaps requests them one bitmap at a time (update
//! state).

use mnp_net::Context;
use mnp_radio::NodeId;

use crate::bitmap::PacketBitmap;
use crate::config::TIMINGS;
use crate::message::{DataPacket, MnpMsg};

use super::{Mnp, MnpState, T_QUERY_IDLE, T_UPDATE};

impl Mnp {
    /// Sender side: after the forward pass, poll children for losses.
    pub(super) fn enter_query(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        self.timers.invalidate();
        self.state = MnpState::Query;
        self.fwd.reset();
        self.repair_ticking = false;
        ctx.send(MnpMsg::Query {
            source: ctx.id,
            seg: self.fwd_seg,
        });
        self.deadline.move_to(ctx.now + TIMINGS.query_idle_timeout);
        ctx.set_timer(TIMINGS.query_idle_timeout, self.timers.token(T_QUERY_IDLE));
    }

    pub(super) fn on_query(&mut self, ctx: &mut Context<'_, MnpMsg>, source: NodeId, seg: u16) {
        if self.state == MnpState::Download
            && self.awaiting_query
            && seg == self.dl_seg
            && Some(source) == self.parent
        {
            if self.missing.is_empty() {
                // Sibling repairs already filled our gaps while we waited.
                self.finish_segment(ctx);
                return;
            }
            self.timers.invalidate();
            self.state = MnpState::Update;
            self.update_retries = 0;
            self.send_repair_request(ctx);
        }
    }

    fn send_repair_request(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        if self.missing.is_empty() {
            self.finish_segment(ctx);
            return;
        }
        // The parent slot can be empty by the time a retry fires (e.g. a
        // future transition that clears it while a T_UPDATE timer is
        // outstanding). With nobody to repair from, fall back through the
        // fail state to idle and re-listen for advertisements: stored
        // packets persist, so the re-requested download only fetches what
        // is still missing. This used to be an
        // `expect("update state has a parent")` panic.
        let Some(dest) = self.parent else {
            self.stats.fails_update += 1;
            self.fail(ctx);
            return;
        };
        ctx.send(MnpMsg::Repair {
            dest,
            requester: ctx.id,
            seg: self.dl_seg,
            missing: self.missing,
        });
        self.arm_update_timeout(ctx);
    }

    pub(super) fn arm_update_timeout(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        let token = self.timers.token(T_UPDATE);
        self.deadline.arm(ctx, TIMINGS.update_timeout, token);
    }

    pub(super) fn on_repair(
        &mut self,
        ctx: &mut Context<'_, MnpMsg>,
        dest: NodeId,
        seg: u16,
        missing: &PacketBitmap,
    ) {
        if self.state != MnpState::Query || dest != ctx.id || seg != self.fwd_seg {
            return;
        }
        self.fwd.union_with(missing);
        self.deadline.move_to(ctx.now + TIMINGS.query_idle_timeout);
        ctx.set_timer(TIMINGS.query_idle_timeout, self.timers.token(T_QUERY_IDLE));
        if !self.repair_ticking {
            self.repair_ticking = true;
            self.schedule_fwd(ctx);
        }
    }

    /// One tick of the query-state retransmission loop.
    pub(super) fn on_repair_tick(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Query);
        match self.fwd.pop_first() {
            Some(pkt) => {
                let held = self
                    .store
                    .read_packet(self.fwd_seg, pkt)
                    .expect("a sender holds every packet of its forwarded segment");
                ctx.send(MnpMsg::Data(DataPacket::new(self.fwd_seg, pkt, held)));
                self.stats.retransmissions += 1;
                self.deadline.move_to(ctx.now + TIMINGS.query_idle_timeout);
                self.schedule_fwd(ctx);
            }
            None => {
                self.repair_ticking = false;
                ctx.set_timer(TIMINGS.query_idle_timeout, self.timers.token(T_QUERY_IDLE));
            }
        }
    }

    pub(super) fn on_query_idle(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Query);
        if self.repair_ticking {
            return; // the retransmission loop re-arms the idle timer
        }
        // Not `Deadline::arm`/`expired`: the idle timer is re-set when the
        // loop drains without moving the deadline, and firings while it
        // ticks are dropped, so its expiry instant is not the deadline's.
        if let Some(remaining) = self.deadline.remaining(ctx.now) {
            ctx.set_timer(remaining, self.timers.token(T_QUERY_IDLE));
            return;
        }
        // "No more repair request → set sleep timer."
        self.rest_after_forward(ctx);
    }

    pub(super) fn on_update_timeout(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Update);
        if !self.deadline.expired(ctx, self.timers.token(T_UPDATE)) {
            return;
        }
        // The repair request or its answer was lost (or the parent is
        // busy serving a sibling): retry a few times before failing.
        if self.update_retries < 3 {
            self.update_retries += 1;
            self.send_repair_request(ctx);
        } else {
            self.stats.fails_update += 1;
            self.fail(ctx);
        }
    }
}
