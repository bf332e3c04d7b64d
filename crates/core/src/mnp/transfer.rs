//! Pipelined segment transfer: download (receiver side) and forward
//! (sender side), on the engine's MissingVector/ForwardVector bookkeeping
//! and the write-once EEPROM discipline.

use mnp_net::Context;
use mnp_radio::NodeId;

use crate::config::TIMINGS;
use crate::engine;
use crate::message::{DataPacket, MnpMsg};

use super::{Mnp, MnpState, T_DL_TIMEOUT, T_FWD};

impl Mnp {
    fn enter_download(&mut self, ctx: &mut Context<'_, MnpMsg>, parent: NodeId, seg: u16) {
        self.timers.invalidate();
        self.state = MnpState::Download;
        self.parent = Some(parent);
        self.dl_seg = seg;
        self.missing = self.missing_for(seg);
        self.awaiting_query = false;
        ctx.note_parent(parent);
        self.arm_dl_timeout(ctx);
    }

    fn arm_dl_timeout(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        let token = self.timers.token(T_DL_TIMEOUT);
        self.deadline.arm(ctx, TIMINGS.download_timeout, token);
    }

    pub(super) fn enter_forward(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        self.timers.invalidate();
        self.state = MnpState::Forward;
        self.fwd_seg = self.adv.seg();
        self.fwd.rewind();
        if self.fwd.is_empty() {
            // Defensive: a requester exists but its bitmap was empty.
            self.fwd
                .fill(self.store.layout().packets_in_segment(self.fwd_seg));
        }
        self.stats.forward_rounds += 1;
        ctx.note_became_sender();
        ctx.send(MnpMsg::StartDownload {
            source: ctx.id,
            seg: self.fwd_seg,
        });
        self.schedule_fwd(ctx);
    }

    pub(super) fn schedule_fwd(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        let delay = ctx
            .rng
            .jittered(TIMINGS.data_packet_period, TIMINGS.data_packet_jitter);
        ctx.set_timer(delay, self.timers.token(T_FWD));
    }

    pub(super) fn on_start_download(
        &mut self,
        ctx: &mut Context<'_, MnpMsg>,
        source: NodeId,
        seg: u16,
    ) {
        match self.state {
            MnpState::Idle | MnpState::Advertise => {
                if self.interested
                    && !self.completed
                    && seg == self.expected_seg()
                    && self.requested_from.contains(source)
                {
                    self.enter_download(ctx, source, seg);
                } else if self.interested && !self.completed && seg == self.expected_seg() {
                    // A stream we can use but did not ask for: listen
                    // passively (see `on_data`) without locking on.
                } else if self.state == MnpState::Advertise {
                    if self.sender_selection {
                        // "Some node in the neighborhood has won this round."
                        let span = self.sleep_span(ctx);
                        self.rest(ctx, span);
                    }
                } else {
                    // Idle node about to overhear a segment it cannot use:
                    // power down for the transfer (the paper's idle-listening
                    // saving).
                    let span = self.sleep_span(ctx);
                    self.rest(ctx, span);
                }
            }
            _ => {}
        }
    }

    pub(super) fn on_data(&mut self, ctx: &mut Context<'_, MnpMsg>, from: NodeId, d: &DataPacket) {
        match self.state {
            MnpState::Download if d.seg == self.dl_seg => {
                // "A sensor node can receive packets in any order and from
                // any node" — only the segment must match.
                #[allow(clippy::collapsible_match)]
                if self.missing.get(d.pkt) {
                    if engine::store_named_packet(&mut self.store, d.seg, d.pkt) {
                        ctx.note_eeprom_write(d.seg, d.pkt);
                        self.missing.clear(d.pkt);
                    } else {
                        // A transient EEPROM write fault: the missing bit
                        // stays set, so the normal query/update recovery
                        // re-requests the packet.
                        self.stats.write_faults += 1;
                        ctx.note_eeprom_write_failed(d.seg, d.pkt);
                    }
                }
                self.arm_dl_timeout(ctx);
            }
            MnpState::Update if d.seg == self.dl_seg => {
                // Retransmissions stream in (the parent answers a whole
                // repair bitmap); store progress and keep the deadline
                // pushed out. Packets we already hold — other children's
                // repairs — are ignored silently.
                #[allow(clippy::collapsible_match)]
                if self.missing.get(d.pkt) {
                    if engine::store_named_packet(&mut self.store, d.seg, d.pkt) {
                        ctx.note_eeprom_write(d.seg, d.pkt);
                        self.missing.clear(d.pkt);
                        // Progress: the retry budget resets.
                        self.update_retries = 0;
                        if self.missing.is_empty() {
                            self.finish_segment(ctx);
                        } else {
                            self.arm_update_timeout(ctx);
                        }
                    } else {
                        // Write fault: keep the bit set and the deadline
                        // armed; the next repair round retries the packet.
                        self.stats.write_faults += 1;
                        ctx.note_eeprom_write_failed(d.seg, d.pkt);
                        self.arm_update_timeout(ctx);
                    }
                }
            }
            MnpState::Idle | MnpState::Advertise => {
                if self.interested && !self.completed && d.seg == self.expected_seg() {
                    // An overheard packet of the segment we need: store it
                    // passively ("when a node receives a packet for the
                    // first time, it stores that packet in EEPROM"). We do
                    // not lock onto the stream — only a StartDownload
                    // establishes a parent — so a marginal link cannot trap
                    // us in a failing download.
                    if engine::store_named_packet(&mut self.store, d.seg, d.pkt) {
                        ctx.note_eeprom_write(d.seg, d.pkt);
                        ctx.note_parent(from);
                        if self.store.segment_complete(d.seg) {
                            // Completed the segment purely by listening.
                            self.dl_seg = d.seg;
                            self.finish_segment(ctx);
                        }
                    }
                } else if self.sender_selection || self.state == MnpState::Idle {
                    // A neighbour transfers a segment we cannot use: sleep
                    // out the transfer.
                    let span = self.sleep_span(ctx);
                    self.rest(ctx, span);
                }
            }
            _ => {}
        }
    }

    pub(super) fn on_end_download(
        &mut self,
        ctx: &mut Context<'_, MnpMsg>,
        source: NodeId,
        seg: u16,
    ) {
        if self.state != MnpState::Download || seg != self.dl_seg || Some(source) != self.parent {
            return;
        }
        if self.missing.is_empty() {
            self.finish_segment(ctx);
        } else if self.query_update {
            // Hold on for the parent's query.
            self.awaiting_query = true;
            self.arm_dl_timeout(ctx);
        } else {
            self.fail(ctx);
        }
    }

    pub(super) fn on_fwd_timer(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Forward);
        let limit = self.store.layout().packets_in_segment(self.fwd_seg);
        match self.fwd.next_in_order(limit) {
            Some(pkt) => {
                let held = self
                    .store
                    .read_packet(self.fwd_seg, pkt)
                    .expect("a sender holds every packet of its forwarded segment");
                ctx.send(MnpMsg::Data(DataPacket::new(self.fwd_seg, pkt, held)));
                self.schedule_fwd(ctx);
            }
            None => {
                ctx.send(MnpMsg::EndDownload {
                    source: ctx.id,
                    seg: self.fwd_seg,
                });
                if self.query_update {
                    self.enter_query(ctx);
                } else {
                    // "After l finishes transmitting the code, it quits the
                    // competition temporarily by sleeping for a while."
                    self.rest_after_forward(ctx);
                }
            }
        }
    }

    pub(super) fn on_dl_timeout(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert_eq!(self.state, MnpState::Download);
        // A packet arrival may have pushed the deadline; if so this re-arms
        // for the rest.
        if !self.deadline.expired(ctx, self.timers.token(T_DL_TIMEOUT)) {
            return;
        }
        if self.missing.is_empty() {
            // Everything arrived but the EndDownload was lost.
            self.finish_segment(ctx);
        } else {
            self.stats.fails_dl_timeout += 1;
            self.fail(ctx);
        }
    }
}
