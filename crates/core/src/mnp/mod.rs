//! The MNP per-node state machine (Fig. 4 of the paper), assembled from
//! the reusable components in [`crate::engine`].
//!
//! The paper's mechanisms are separable, and the module tree mirrors that
//! separation:
//!
//! * [`states`] — the Fig. 4 state enum and per-state time accounting;
//! * [`advertise`] — the advertise round and Fig. 2 sender selection,
//!   driven by an [`crate::engine::AdvertiseScheduler`];
//! * [`transfer`] — pipelined segment download/forward on the engine's
//!   MissingVector/ForwardVector bookkeeping;
//! * [`recovery`] — the optional query/update repair phase (§5);
//! * [`sleep`] — rest spans and wake handling through the engine's
//!   [`crate::engine::SleepController`];
//! * [`stats`] — the counters surfaced to the experiment harness.
//!
//! This module owns the `Mnp` struct, its constructors, the transient
//! fail state, and the [`Protocol`] impl that routes network callbacks
//! into the handler modules.

pub mod advertise;
pub mod recovery;
pub mod sleep;
pub mod states;
pub mod stats;
pub mod transfer;

#[cfg(test)]
mod tests;

use mnp_net::{Context, EepromOps, Protocol, StateLabel};
use mnp_radio::NodeId;
use mnp_sim::SimTime;
use mnp_storage::{PacketStore, ProgramImage};

use crate::bitmap::PacketBitmap;
use crate::config::MnpConfig;
use crate::engine::{
    self, AdvertiseScheduler, ForwardVector, SleepController, StateClock, TimerMux,
};
use crate::message::MnpMsg;

pub use states::{MnpState, StateTimes};
pub use stats::MnpStats;

// Timer kinds, encoded in the low byte of the timer token; the rest of the
// token is the `TimerMux` epoch, so timers from torn-down states are
// ignored (see `Protocol` docs on epochs).
const T_ADV: u64 = 1;
const T_DL_TIMEOUT: u64 = 2;
const T_FWD: u64 = 3;
const T_QUERY_IDLE: u64 = 4;
const T_UPDATE: u64 = 5;
const T_REST: u64 = 6;

/// One node running MNP.
///
/// Construct with [`Mnp::base_station`] (holds the image from the start)
/// or [`Mnp::node`]; hand to a [`mnp_net::Network`].
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Mnp {
    cfg: MnpConfig,
    store: PacketStore,
    is_base: bool,
    /// Whether this node wants the program at all (§6 subset
    /// dissemination: "we can send different types of data to several
    /// disjoint or non-disjoint subsets of the network"). An uninterested
    /// node never requests or stores; it treats every transfer as
    /// not-of-interest and sleeps through it.
    interested: bool,
    state: MnpState,
    timers: TimerMux,
    completed: bool,
    heard_any_adv: bool,

    /// Advertise-round bookkeeping: the advertised segment, `ReqCtr`, the
    /// quiet-gap backoff and the wake-fast flag.
    adv: AdvertiseScheduler,
    /// Union of requesters' missing packets ("ForwardVector").
    fwd: ForwardVector,

    // --- Download / Update state ---
    /// Sources this node has sent download requests to since it last
    /// completed a segment (bounded). A StartDownload only makes us a
    /// child of a source we actually asked — joining an unrequested
    /// (typically marginal) stream wastes a download slot; passive
    /// storage still collects its packets.
    requested_from: Vec<NodeId>,
    parent: Option<NodeId>,
    dl_seg: u16,
    /// The receiver's "MissingVector" for the segment in flight.
    missing: PacketBitmap,
    awaiting_query: bool,
    dl_deadline: SimTime,
    update_deadline: SimTime,
    update_retries: u8,

    // --- Forward / Query state ---
    fwd_seg: u16,
    query_deadline: SimTime,
    /// Whether the query-state retransmission loop is running.
    repair_ticking: bool,

    sleeper: SleepController,
    /// Counters for the harness.
    pub stats: MnpStats,
    /// Per-state time accounting (event-granular).
    pub state_times: StateTimes,
    clock: StateClock,
}

impl Mnp {
    /// Creates the base station: it holds the complete image and starts in
    /// the advertise state.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config's program/layout, or if
    /// the config is inconsistent.
    pub fn base_station(cfg: MnpConfig, image: &ProgramImage) -> Self {
        cfg.validate();
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        // The base's image arrived over the programming board, not the
        // radio, so it is preloaded rather than written.
        let store = PacketStore::preloaded(image, cfg.layout.segment_count());
        let mut node = Mnp::with_store(cfg, store);
        node.is_base = true;
        node.completed = true;
        node
    }

    /// Creates an ordinary node with empty flash.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent.
    pub fn node(cfg: MnpConfig) -> Self {
        cfg.validate();
        let store = PacketStore::new(cfg.program, cfg.layout);
        Mnp::with_store(cfg, store)
    }

    /// Creates a node that already holds the first `prefix_segments`
    /// segments — the §6 incremental-update scenario ("by dividing the
    /// data into small segments, we allow incremental data updates"): a
    /// new image version that shares a prefix with the deployed one only
    /// transfers the tail.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config's program/layout, if
    /// the config is inconsistent, or if `prefix_segments` exceeds the
    /// image.
    pub fn node_with_prefix(cfg: MnpConfig, image: &ProgramImage, prefix_segments: u16) -> Self {
        cfg.validate();
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        // The prefix survived from the previous version on flash.
        let store = PacketStore::preloaded(image, prefix_segments);
        Mnp::with_store(cfg, store)
    }

    /// Creates a node that is *not* in the program's target subset (§6).
    /// It never requests, downloads or stores; it powers its radio down
    /// whenever neighbours transfer the program.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent.
    pub fn node_uninterested(cfg: MnpConfig) -> Self {
        let mut n = Mnp::node(cfg);
        n.interested = false;
        n
    }

    /// Whether this node is in the program's target subset.
    pub fn is_interested(&self) -> bool {
        self.interested
    }

    fn with_store(cfg: MnpConfig, store: PacketStore) -> Self {
        let sleeper = SleepController::new(cfg.sleep_enabled);
        Mnp {
            cfg,
            store,
            is_base: false,
            interested: true,
            state: MnpState::Idle,
            timers: TimerMux::new(),
            completed: false,
            heard_any_adv: false,
            adv: AdvertiseScheduler::new(),
            fwd: ForwardVector::new(),
            requested_from: Vec::new(),
            parent: None,
            dl_seg: 0,
            missing: PacketBitmap::empty(),
            awaiting_query: false,
            dl_deadline: SimTime::ZERO,
            update_deadline: SimTime::ZERO,
            update_retries: 0,
            fwd_seg: 0,
            query_deadline: SimTime::ZERO,
            repair_ticking: false,
            sleeper,
            stats: MnpStats::default(),
            state_times: StateTimes::default(),
            clock: StateClock::new(),
        }
    }

    /// The node's current protocol state.
    pub fn state(&self) -> MnpState {
        self.state
    }

    /// Whether the node holds the complete, checksum-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store (for test assertions).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The protocol configuration.
    pub fn config(&self) -> &MnpConfig {
        &self.cfg
    }

    /// Bills the span since the last event to the state active across it.
    fn bill_state_time(&mut self, now: SimTime) {
        self.clock
            .bill(now, &mut self.state_times.micros[self.state as usize]);
    }

    // ----- derived values -----

    /// Index of the next segment this node needs (its received prefix).
    fn expected_seg(&self) -> u16 {
        self.store.segments_received_prefix()
    }

    fn total_segments(&self) -> u16 {
        self.cfg.layout.segment_count()
    }

    /// A fresh `MissingVector` for `seg` given what flash already holds.
    fn missing_for(&self, seg: u16) -> PacketBitmap {
        engine::missing_vector(&self.store, seg)
    }

    // ----- transient states -----

    fn enter_idle(&mut self) {
        self.timers.invalidate();
        self.state = MnpState::Idle;
        self.parent = None;
    }

    fn fail(&mut self, _ctx: &mut Context<'_, MnpMsg>) {
        // "Fail state is a temporary state. A node in fail state releases
        // EEPROM resource, and switches to idle state immediately." Stored
        // packets persist; the next download request only asks for what is
        // still missing.
        self.stats.fails += 1;
        self.enter_idle();
    }

    fn finish_segment(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        debug_assert!(self.store.segment_complete(self.dl_seg));
        ctx.note_segment_complete(self.dl_seg);
        self.requested_from.clear();
        if !self.completed && self.store.verify_complete(self.cfg.expected_checksum) {
            self.completed = true;
            ctx.note_completion();
        }
        // Fresh content to serve: advertise eagerly again.
        self.adv.reset_quiet_gap(self.cfg.quiet_gap_initial);
        self.enter_advertise(ctx);
    }
}

impl Protocol for Mnp {
    type Msg = MnpMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        // Segments already on flash (a preloaded prefix, or the base's full
        // image) are reported up front so observers' in-order segment
        // accounting starts from the right baseline.
        for seg in 0..self.expected_seg() {
            ctx.note_segment_complete(seg);
        }
        if self.is_base {
            ctx.note_completion();
            self.adv.reset_quiet_gap(self.cfg.quiet_gap_initial);
            self.enter_advertise(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MnpMsg>, from: NodeId, msg: &MnpMsg) {
        self.bill_state_time(ctx.now);
        match msg {
            MnpMsg::Advertisement(adv) => self.on_advertisement(ctx, adv),
            MnpMsg::DownloadRequest(req) => self.on_download_request(ctx, req),
            MnpMsg::StartDownload { source, seg } => self.on_start_download(ctx, *source, *seg),
            MnpMsg::Data(d) => self.on_data(ctx, from, d),
            MnpMsg::EndDownload { source, seg } => self.on_end_download(ctx, *source, *seg),
            MnpMsg::Query { source, seg } => self.on_query(ctx, *source, *seg),
            MnpMsg::Repair {
                dest, seg, missing, ..
            } => self.on_repair(ctx, *dest, *seg, missing),
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        self.timers.decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, MnpMsg>, kind: u64) {
        self.bill_state_time(ctx.now);
        match kind {
            T_ADV => self.on_adv_timer(ctx),
            T_FWD => {
                if self.state == MnpState::Query {
                    self.on_repair_tick(ctx);
                } else {
                    self.on_fwd_timer(ctx);
                }
            }
            T_DL_TIMEOUT => self.on_dl_timeout(ctx),
            T_QUERY_IDLE => self.on_query_idle(ctx),
            T_UPDATE => self.on_update_timeout(ctx),
            T_REST => self.wake(ctx),
            other => unreachable!("unknown timer kind {other}"),
        }
    }

    fn on_stale_timer(&mut self, ctx: &mut Context<'_, MnpMsg>, _token: u64) {
        // A stale firing from a torn-down state still marks the passage of
        // active time in the current state.
        self.bill_state_time(ctx.now);
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        self.bill_state_time(ctx.now);
        self.wake(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, MnpMsg>) {
        // A crash wipes RAM but not flash: rebuild the volatile state from
        // the persistent store and re-enter the protocol from idle.
        // Pre-crash timer events may still be queued in the kernel; the
        // epoch bump makes them decode as stale when they fire.
        self.timers.invalidate();
        self.state = MnpState::Idle;
        self.completed = self.store.is_complete();
        self.heard_any_adv = false;
        self.adv = AdvertiseScheduler::new();
        self.fwd = ForwardVector::new();
        self.requested_from.clear();
        self.parent = None;
        self.dl_seg = 0;
        self.missing = PacketBitmap::empty();
        self.awaiting_query = false;
        self.dl_deadline = SimTime::ZERO;
        self.update_deadline = SimTime::ZERO;
        self.update_retries = 0;
        self.fwd_seg = 0;
        self.query_deadline = SimTime::ZERO;
        self.repair_ticking = false;
        self.sleeper = SleepController::new(self.cfg.sleep_enabled);
        // The outage bills to no state: restart the state clock at now.
        self.clock.resync(ctx.now);
        // Segments verified on flash were reported before the crash;
        // re-reporting them would violate the observers' in-order segment
        // accounting, so only the protocol side re-arms here. A node that
        // rebooted holding the complete image (the base always does)
        // resumes serving it.
        if self.completed {
            self.adv.reset_quiet_gap(self.cfg.quiet_gap_initial);
            self.enter_advertise(ctx);
        }
    }

    fn inject_storage_fault(&mut self, failures: u32) {
        self.store.inject_write_faults(failures);
    }

    fn eeprom_ops(&self) -> EepromOps {
        EepromOps {
            line_reads: self.store.line_reads,
            line_writes: self.store.line_writes,
        }
    }

    fn state_label(&self) -> &'static str {
        StateLabel::label(self.state)
    }
}
