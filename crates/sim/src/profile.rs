//! Span-based self-profiler core for the simulation kernel.
//!
//! The kernel's hot phases (queue operations, medium propagation, protocol
//! dispatch) are bracketed with [`span`] guards. When profiling is disabled
//! — the default — opening a guard is one thread-local flag check and
//! dropping it does nothing. Profiling never reads sim state and sim state
//! never reads the profiler, so seeded runs stay byte-identical with
//! profiling on, off, or absent.
//!
//! When enabled, every span counts a call and one counter samples 1 in
//! *stride* top-level spans. Inside a sampled span one phase register
//! names the phase being billed: each span entry and exit reads the clock
//! once and bills the interval since the last reading, less the profiler's
//! own cost per transition (calibrated by [`set_enabled`]), to the phase
//! being left. Self time is thus exclusive: the phases' self times
//! partition each sampled transaction. Spans under an unsampled top-level
//! span are counted, never timed. Accumulation uses fixed thread-local
//! [`Cell`] slots — no allocation, locks or atomics — and `mnp-obs` scales
//! the timed totals up by `calls / timed` to estimate full-run phase costs.
//!
//! # Example
//!
//! ```
//! use mnp_sim::profile::{self, Phase};
//!
//! profile::reset();
//! profile::set_enabled(true);
//! {
//!     let _outer = profile::span(Phase::Dispatch);
//!     let _inner = profile::span(Phase::Protocol);
//! }
//! profile::set_enabled(false);
//! let stats = profile::snapshot();
//! let dispatch = stats[Phase::Dispatch as usize];
//! assert_eq!(dispatch.calls, 1);
//! assert!(dispatch.self_ns <= dispatch.total_ns);
//! ```

use std::cell::Cell;
use std::time::Instant;

/// Number of instrumented phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 13;

/// Phase register outside every span.
const IDLE: u8 = PHASE_COUNT as u8;
/// Phase register inside a top-level span that was not sampled.
const UNSAMPLED: u8 = IDLE + 1;
/// [`Span::outer`] of a span opened while profiling was disabled.
const OFF: u8 = UNSAMPLED + 1;

/// A kernel phase instrumented with [`span`] guards.
///
/// The discriminant doubles as the index into [`snapshot`]'s slot array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// `EventQueue::pop` — heap sift-down on the kernel event queue.
    QueuePop = 0,
    /// `EventQueue::push` — heap insert, including tie-break keying.
    QueuePush = 1,
    /// Tie-break key derivation inside a push (nested under `QueuePush`).
    TieBreak = 2,
    /// Medium transmit: frame start, reachability scan, collision marking.
    MediumTx = 3,
    /// Medium receive: delivery resolution at transmission end.
    MediumRx = 4,
    /// CSMA state machine steps (enqueue / attempt / tx-done).
    Csma = 5,
    /// Kernel event dispatch — the match over event variants.
    Dispatch = 6,
    /// Protocol handler callbacks (the MNP / Deluge state machines).
    Protocol = 7,
    /// Observer fan-out: rendering events to loggers / metrics / traces.
    Observe = 8,
    /// Fault-plan expansion into kernel events at network build time.
    FaultExpand = 9,
    /// Time-series sampler snapshots taken inside the run loop.
    Sample = 10,
    /// Payload-arena slot allocation at transmission start (nested under
    /// `MediumTx`).
    ArenaAlloc = 11,
    /// Payload-arena slot release when a delivered payload is consumed
    /// or an aborted frame is discarded.
    ArenaFree = 12,
}

impl Phase {
    /// Every phase, in slot order: `ALL[p as usize] == p`.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::QueuePop,
        Phase::QueuePush,
        Phase::TieBreak,
        Phase::MediumTx,
        Phase::MediumRx,
        Phase::Csma,
        Phase::Dispatch,
        Phase::Protocol,
        Phase::Observe,
        Phase::FaultExpand,
        Phase::Sample,
        Phase::ArenaAlloc,
        Phase::ArenaFree,
    ];

    /// Stable snake_case label used in reports and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::QueuePop => "queue_pop",
            Phase::QueuePush => "queue_push",
            Phase::TieBreak => "tie_break",
            Phase::MediumTx => "medium_tx",
            Phase::MediumRx => "medium_rx",
            Phase::Csma => "csma",
            Phase::Dispatch => "dispatch",
            Phase::Protocol => "protocol",
            Phase::Observe => "observe",
            Phase::FaultExpand => "fault_expand",
            Phase::Sample => "sample",
            Phase::ArenaAlloc => "arena_alloc",
            Phase::ArenaFree => "arena_free",
        }
    }
}

/// Accumulated counters for one phase, as returned by [`snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Spans entered while profiling was enabled.
    pub calls: u64,
    /// Subset of `calls` that carried wall-clock timestamps.
    pub timed: u64,
    /// Wall-clock nanoseconds inside timed spans, children included.
    pub total_ns: u64,
    /// Nanoseconds billed to the phase itself: the intervals of timed
    /// spans outside any child, each less the profiler's own cost.
    pub self_ns: u64,
}

impl PhaseStat {
    /// Estimated full-run total nanoseconds, scaling the timed subset up
    /// by the call count (`total_ns * calls / timed`). Zero if nothing
    /// was timed.
    pub fn est_total_ns(&self) -> u64 {
        scale(self.total_ns, self.calls, self.timed)
    }

    /// Estimated full-run self nanoseconds (see [`Self::est_total_ns`]).
    pub fn est_self_ns(&self) -> u64 {
        scale(self.self_ns, self.calls, self.timed)
    }
}

fn scale(ns: u64, calls: u64, timed: u64) -> u64 {
    if timed == 0 {
        return 0;
    }
    u64::try_from(u128::from(ns) * u128::from(calls) / u128::from(timed)).unwrap_or(u64::MAX)
}

struct State {
    enabled: Cell<bool>,
    /// The phase register: the phase being billed inside a sampled
    /// transaction, else `IDLE` or `UNSAMPLED`.
    current: Cell<u8>,
    /// Clock reading at the last transition of a sampled transaction.
    last: Cell<Option<Instant>>,
    /// Top-level spans opened since [`reset`]; 1 in `stride` is sampled.
    top: Cell<u64>,
    /// The sampling stride, a power of two.
    stride: Cell<u64>,
    /// The profiler's calibrated cost per transition, off each interval.
    cost_ns: Cell<u64>,
    stats: [Cell<PhaseStat>; PHASE_COUNT],
}

/// Default sampling stride: time 1 in 256 top-level spans. A timed kernel
/// event costs ~15 extra clock reads, well under 1 % of events/s at this
/// stride, while tens of thousands of transactions are still timed.
pub const DEFAULT_STRIDE: u64 = 256;

thread_local! {
    static STATE: State = const {
        State {
            enabled: Cell::new(false),
            current: Cell::new(IDLE),
            last: Cell::new(None),
            top: Cell::new(0),
            stride: Cell::new(DEFAULT_STRIDE),
            cost_ns: Cell::new(0),
            stats: [const {
                Cell::new(PhaseStat { calls: 0, timed: 0, total_ns: 0, self_ns: 0 })
            }; PHASE_COUNT],
        }
    };
}

impl State {
    /// Applies `f` to the counters of phase index `i`, if there is one.
    fn update(&self, i: u8, f: impl FnOnce(&mut PhaseStat)) {
        if let Some(slot) = self.stats.get(usize::from(i)) {
            let mut st = slot.get();
            f(&mut st);
            slot.set(st);
        }
    }

    /// Reads the clock at a transition of a sampled transaction and bills
    /// the interval since the previous one, less the calibrated cost, to
    /// the register value `left` if it names a phase. An interval shorter
    /// than the cost comes off the phase's earlier self time, so a phase
    /// bills exactly its intervals less one cost each (never below zero).
    /// Out of line: one warm copy serves every call site, and untimed
    /// spans inline less code.
    #[inline(never)]
    fn transition(&self, left: u8) -> Instant {
        let now = Instant::now();
        if let Some(last) = self.last.replace(Some(now)) {
            let ns = (now - last).as_nanos() as u64;
            let cost = self.cost_ns.get();
            self.update(left, |st| {
                st.self_ns = st.self_ns.saturating_add(ns).saturating_sub(cost);
            });
        }
        now
    }

    /// The cost of one transition, a clock read and its bookkeeping: the
    /// cheapest of four timings of 64 empty spans billed to `Sample`, every
    /// interval then being that cost alone. Leaves the slot and the
    /// register as it found them.
    fn calibrate(&self) -> u64 {
        let slot = &self.stats[Phase::Sample as usize];
        let (saved, current) = (slot.get(), self.current.replace(Phase::Sample as u8));
        self.cost_ns.set(0);
        let cost = (0..4).map(|_| {
            slot.set(PhaseStat::default());
            self.transition(IDLE);
            (0..64).for_each(|_| drop(span(Phase::Sample)));
            slot.get().self_ns / 128
        });
        let cost = cost.min().unwrap_or(0);
        slot.set(saved);
        self.current.set(current);
        cost
    }
}

/// A RAII guard accumulating into its phase's slot when dropped.
///
/// Obtained from [`span`]; hold it for the duration of the phase. Spans
/// nest; each must be dropped on the thread that created it (they are
/// `!Send` by construction).
#[must_use = "a profiling span measures nothing unless held"]
#[derive(Debug)]
pub struct Span {
    /// Clock reading at entry; `Some` iff this span is timed.
    start: Option<Instant>,
    /// The phase register this span interrupted, restored on drop; `OFF`
    /// if it was opened with profiling disabled.
    outer: u8,
}

/// Opens a span for `phase`. A no-op flag check when profiling is
/// disabled.
#[inline]
pub fn span(phase: Phase) -> Span {
    STATE.with(|s| {
        if !s.enabled.get() {
            return Span {
                start: None,
                outer: OFF,
            };
        }
        s.update(phase as u8, |st| st.calls += 1);
        let outer = s.current.get();
        let sampled = match outer {
            IDLE => s.top.replace(s.top.get() + 1) & (s.stride.get() - 1) == 0,
            UNSAMPLED => false,
            _ => true,
        };
        let start = sampled.then(|| {
            if outer == IDLE {
                // A transaction's first reading bills nothing; a throwaway
                // one before it warms the clock for the readings that do.
                s.transition(IDLE);
            }
            s.transition(outer)
        });
        s.current.set(if sampled { phase as u8 } else { UNSAMPLED });
        Span { start, outer }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.outer == OFF {
            return;
        }
        STATE.with(|s| {
            let phase = s.current.replace(self.outer);
            if let Some(start) = self.start {
                let ns = (s.transition(phase) - start).as_nanos() as u64;
                s.update(phase, |st| {
                    st.timed += 1;
                    st.total_ns = st.total_ns.saturating_add(ns);
                });
            }
        });
    }
}

/// Turns profiling on or off for the current thread, calibrating the
/// profiler's cost per transition when turning it on. Off by default;
/// spans opened while disabled record nothing even if enabled later.
pub fn set_enabled(enabled: bool) {
    STATE.with(|s| {
        s.enabled.set(enabled);
        if enabled {
            s.cost_ns.set(s.calibrate());
        }
    });
}

/// Sets the sampling stride: 1 in `stride` top-level spans is timed.
/// Rounded up to a power of two, at most 2^63; `1` times everything.
pub fn set_stride(stride: u64) {
    let stride = stride.clamp(1, 1 << 63).next_power_of_two();
    STATE.with(|s| s.stride.set(stride));
}

/// Clears the current thread's counters and restarts the sampling count;
/// call it with no spans open. Leaves the enabled flag and stride as set.
pub fn reset() {
    STATE.with(|s| {
        s.top.set(0);
        s.stats.iter().for_each(|st| st.set(PhaseStat::default()));
    });
}

/// Copies out the current thread's per-phase counters, indexed by
/// `Phase as usize`.
pub fn snapshot() -> [PhaseStat; PHASE_COUNT] {
    STATE.with(|s| s.stats.each_ref().map(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises profiler tests: the state is thread-local and the
    /// harness may run tests concurrently on a shared pool thread.
    fn with_clean_state(f: impl FnOnce() + Send) {
        std::thread::scope(|scope| {
            scope.spawn(f);
        });
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_clean_state(|| {
            reset();
            {
                let _g = span(Phase::Dispatch);
                let _h = span(Phase::Protocol);
            }
            for st in snapshot() {
                assert_eq!(st, PhaseStat::default());
            }
        });
    }

    /// The calibrated cost per transition on this thread.
    fn cost_ns() -> u64 {
        STATE.with(|s| s.cost_ns.get())
    }

    /// One outer span around work and an inner span: the split of their
    /// times must be exact.
    fn check_nested_split() {
        reset();
        set_enabled(true);
        set_stride(1);
        {
            let _outer = span(Phase::Dispatch);
            std::hint::black_box(busy(2000));
            {
                let _inner = span(Phase::Protocol);
                std::hint::black_box(busy(2000));
            }
        }
        set_enabled(false);
        let stats = snapshot();
        let outer = stats[Phase::Dispatch as usize];
        let inner = stats[Phase::Protocol as usize];
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.timed, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.timed, 1);
        assert!(inner.total_ns > 0, "inner did measurable work");
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer encloses inner: {} < {}",
            outer.total_ns,
            inner.total_ns
        );
        // Each billed interval gives up one transition's cost: the outer span
        // bills two (before and after the inner one), the inner one. The
        // interval after the inner span closes is often shorter than that
        // cost; its deficit still comes off the outer span's self time.
        let c = cost_ns();
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 2 * c);
        assert_eq!(inner.self_ns, inner.total_ns - c);
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        with_clean_state(check_nested_split);
    }

    #[test]
    fn nested_spans_split_exactly_a_thousand_times_in_a_row() {
        // The single run above fails only when the outer span's last
        // interval happens to be shorter than the calibrated cost; a
        // thousand runs make that near certain.
        with_clean_state(|| (0..1000).for_each(|_| check_nested_split()));
    }

    #[test]
    fn self_times_partition_each_sampled_transaction() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(1);
            {
                let _dispatch = span(Phase::Dispatch);
                std::hint::black_box(busy(2000));
                {
                    let _protocol = span(Phase::Protocol);
                    std::hint::black_box(busy(2000));
                    {
                        let _observe = span(Phase::Observe);
                        std::hint::black_box(busy(2000));
                    }
                    std::hint::black_box(busy(2000));
                }
                {
                    let _tx = span(Phase::MediumTx);
                    std::hint::black_box(busy(2000));
                }
                std::hint::black_box(busy(2000));
            }
            {
                let _pop = span(Phase::QueuePop);
                std::hint::black_box(busy(2000));
            }
            set_enabled(false);
            let stats = snapshot();
            let self_sum: u64 = stats.iter().map(|st| st.self_ns).sum();
            let top =
                stats[Phase::Dispatch as usize].total_ns + stats[Phase::QueuePop as usize].total_ns;
            // Eight transitions bill seven intervals in the first
            // transaction, two bill one in the second: each interval less
            // one transition's cost, and nothing billed twice.
            assert_eq!(self_sum, top - 8 * cost_ns());
        });
    }

    #[test]
    fn stride_times_a_subset_but_counts_every_call() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(8);
            for _ in 0..64 {
                let _g = span(Phase::QueuePush);
            }
            set_enabled(false);
            let st = snapshot()[Phase::QueuePush as usize];
            assert_eq!(st.calls, 64);
            assert_eq!(st.timed, 8, "1 in 8 top-level spans is timed");
        });
    }

    #[test]
    fn nested_spans_are_always_timed_inside_a_timed_parent() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(64);
            // The first top-level span after a reset is sampled; the
            // Protocol span nested in it must be timed too.
            let outer = span(Phase::Dispatch);
            {
                let _inner = span(Phase::Protocol);
            }
            drop(outer);
            set_enabled(false);
            let st = snapshot();
            assert_eq!(st[Phase::Protocol as usize].timed, 1);
        });
    }

    #[test]
    fn a_span_under_an_unsampled_parent_is_never_timed() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(8);
            for _ in 0..64 {
                let _outer = span(Phase::Dispatch);
                let _inner = span(Phase::Protocol);
            }
            set_enabled(false);
            let st = snapshot();
            for phase in [Phase::Dispatch, Phase::Protocol] {
                assert_eq!(st[phase as usize].calls, 64, "{phase:?}");
                assert_eq!(st[phase as usize].timed, 8, "{phase:?}");
            }
        });
    }

    #[test]
    fn a_span_opened_while_disabled_records_nothing_once_enabled() {
        with_clean_state(|| {
            reset();
            set_stride(1);
            let early = span(Phase::Dispatch);
            set_enabled(true);
            {
                let _inner = span(Phase::Protocol);
            }
            drop(early);
            set_enabled(false);
            let st = snapshot();
            assert_eq!(st[Phase::Dispatch as usize], PhaseStat::default());
            // The span opened after enabling is top level, not nested.
            assert_eq!(st[Phase::Protocol as usize].timed, 1);
        });
    }

    #[test]
    fn the_largest_stride_does_not_overflow() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(u64::MAX);
            for _ in 0..3 {
                let _g = span(Phase::QueuePush);
            }
            set_enabled(false);
            let st = snapshot()[Phase::QueuePush as usize];
            assert_eq!((st.calls, st.timed), (3, 1), "stride 2^63: only the first");
        });
    }

    #[test]
    fn estimates_scale_by_call_count() {
        let st = PhaseStat {
            calls: 100,
            timed: 10,
            total_ns: 50,
            self_ns: 30,
        };
        assert_eq!(st.est_total_ns(), 500);
        assert_eq!(st.est_self_ns(), 300);
        assert_eq!(PhaseStat::default().est_total_ns(), 0);
    }

    #[test]
    fn reset_clears_counters() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(1);
            {
                let _g = span(Phase::MediumTx);
            }
            reset();
            set_enabled(false);
            assert_eq!(snapshot()[Phase::MediumTx as usize], PhaseStat::default());
        });
    }

    #[test]
    fn labels_are_unique_and_slot_order_matches_discriminants() {
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PHASE_COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }

    fn busy(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }
}
