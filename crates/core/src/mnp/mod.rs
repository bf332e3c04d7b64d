//! The MNP per-node state machine (Fig. 4 of the paper), assembled from
//! the reusable components in [`crate::engine`].
//!
//! The paper's mechanisms are separable, and the module tree mirrors that
//! separation:
//!
//! * [`states`] — the Fig. 4 state enum;
//! * [`advertise`] — the advertise round and Fig. 2 sender selection,
//!   driven by an [`crate::engine::AdvertiseScheduler`];
//! * [`transfer`] — pipelined segment download/forward on the engine's
//!   MissingVector/ForwardVector bookkeeping;
//! * [`recovery`] — the optional query/update repair phase (§5);
//! * [`sleep`] — rest spans, the sleep ablation's radio-on path, and wake
//!   handling;
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
use mnp_storage::{PacketStore, ProgramImage};

use crate::bitmap::PacketBitmap;
use crate::config::{MnpConfig, TIMINGS};
use crate::engine::{self, AdvertiseScheduler, Deadline, ForwardVector, TimerMux};
use crate::message::MnpMsg;

pub use states::MnpState;
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
    /// The flash store; its image handle is the node's one reference to
    /// the program (id, layout and bytes).
    store: PacketStore,
    // The ablation switches (see `MnpConfig`).
    query_update: bool,
    sender_selection: bool,
    sleep_enabled: bool,
    pipelining: bool,
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
    requested_from: Requested,
    parent: Option<NodeId>,
    dl_seg: u16,
    /// The receiver's "MissingVector" for the segment in flight.
    missing: PacketBitmap,
    awaiting_query: bool,
    /// The Download, Update or Query timeout. One suffices: the three
    /// states are exclusive and entering each invalidates the timer epoch.
    deadline: Deadline,
    update_retries: u8,

    // --- Forward / Query state ---
    fwd_seg: u16,
    /// Whether the query-state retransmission loop is running.
    repair_ticking: bool,

    /// Counters for the harness.
    pub stats: MnpStats,
}

// Per-node byte budget (DESIGN §13), checked by the compiler. Download,
// Update and Query are exclusive states, so they share one `Deadline`; the
// image is one shared handle, held by the store; the timings are
// constants; state residence is read off `State` events, not billed per
// node.
const _: () = assert!(std::mem::size_of::<Mnp>() <= 304);

/// The sources a node has sent download requests to: at most the newest
/// eight, oldest first, inline, so recording one never allocates. Unused
/// slots hold [`Requested::EMPTY`], which names no node (node ids stop at
/// `i32::MAX`), and sit before the ids.
#[derive(Clone, Copy, Debug)]
struct Requested([NodeId; 8]);

impl Requested {
    const EMPTY: NodeId = NodeId(u32::MAX);
    const NONE: Requested = Requested([Self::EMPTY; 8]);

    fn contains(&self, id: NodeId) -> bool {
        self.0.contains(&id)
    }

    /// Records `id` unless it is already held; the slot shifted out is
    /// unused or the oldest.
    fn insert(&mut self, id: NodeId) {
        if !self.contains(id) {
            self.0.copy_within(1.., 0);
            self.0[7] = id;
        }
    }
}

impl Mnp {
    /// Creates the base station: it holds the complete image and starts in
    /// the advertise state.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config's program/layout.
    pub fn base_station(cfg: MnpConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.image.id(), "image/program mismatch");
        assert_eq!(image.layout(), cfg.image.layout(), "image/layout mismatch");
        // The base's image arrived over the programming board, not the
        // radio, so it is preloaded rather than written.
        let store = PacketStore::preloaded(&cfg.image, cfg.image.layout().segment_count());
        let mut node = Mnp::with_store(&cfg, store);
        node.is_base = true;
        node.completed = true;
        node
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: MnpConfig) -> Self {
        let store = PacketStore::new(&cfg.image);
        Mnp::with_store(&cfg, store)
    }

    /// Creates a node that already holds the first `prefix_segments`
    /// segments — the §6 incremental-update scenario ("by dividing the
    /// data into small segments, we allow incremental data updates"): a
    /// new image version that shares a prefix with the deployed one only
    /// transfers the tail.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config's program/layout, or if
    /// `prefix_segments` exceeds the image.
    pub fn node_with_prefix(cfg: MnpConfig, image: &ProgramImage, prefix_segments: u16) -> Self {
        assert_eq!(image.id(), cfg.image.id(), "image/program mismatch");
        assert_eq!(image.layout(), cfg.image.layout(), "image/layout mismatch");
        // The prefix survived from the previous version on flash.
        let store = PacketStore::preloaded(&cfg.image, prefix_segments);
        Mnp::with_store(&cfg, store)
    }

    /// Creates a node that is *not* in the program's target subset (§6).
    /// It never requests, downloads or stores; it powers its radio down
    /// whenever neighbours transfer the program.
    pub fn node_uninterested(cfg: MnpConfig) -> Self {
        let mut n = Mnp::node(cfg);
        n.interested = false;
        n
    }

    /// Whether this node is in the program's target subset.
    pub fn is_interested(&self) -> bool {
        self.interested
    }

    fn with_store(cfg: &MnpConfig, store: PacketStore) -> Self {
        Mnp {
            store,
            query_update: cfg.query_update,
            sender_selection: cfg.sender_selection,
            sleep_enabled: cfg.sleep_enabled,
            pipelining: cfg.pipelining,
            is_base: false,
            interested: true,
            state: MnpState::Idle,
            timers: TimerMux::new(),
            completed: false,
            heard_any_adv: false,
            adv: AdvertiseScheduler::new(),
            fwd: ForwardVector::new(),
            requested_from: Requested::NONE,
            parent: None,
            dl_seg: 0,
            missing: PacketBitmap::empty(),
            awaiting_query: false,
            deadline: Deadline::new(),
            update_retries: 0,
            fwd_seg: 0,
            repair_ticking: false,
            stats: MnpStats::default(),
        }
    }

    /// The node's current protocol state.
    pub fn state(&self) -> MnpState {
        self.state
    }

    /// Whether the node holds the complete, write-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store (for test assertions).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    // ----- derived values -----

    /// Index of the next segment this node needs (its received prefix).
    fn expected_seg(&self) -> u16 {
        self.store.segments_received_prefix()
    }

    fn total_segments(&self) -> u16 {
        self.store.layout().segment_count()
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
        self.requested_from = Requested::NONE;
        if !self.completed && self.store.is_complete() {
            self.completed = true;
            ctx.note_completion();
        }
        // Fresh content to serve: advertise eagerly again.
        self.adv.reset_quiet_gap(TIMINGS.quiet_gap_initial);
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
            self.adv.reset_quiet_gap(TIMINGS.quiet_gap_initial);
            self.enter_advertise(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MnpMsg>, from: NodeId, msg: &MnpMsg) {
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

    fn on_wake(&mut self, ctx: &mut Context<'_, MnpMsg>) {
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
        self.requested_from = Requested::NONE;
        self.parent = None;
        self.dl_seg = 0;
        self.missing = PacketBitmap::empty();
        self.awaiting_query = false;
        self.deadline = Deadline::new();
        self.update_retries = 0;
        self.fwd_seg = 0;
        self.repair_ticking = false;
        // Segments verified on flash were reported before the crash;
        // re-reporting them would violate the observers' in-order segment
        // accounting, so only the protocol side re-arms here. A node that
        // rebooted holding the complete image (the base always does)
        // resumes serving it.
        if self.completed {
            self.adv.reset_quiet_gap(TIMINGS.quiet_gap_initial);
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
