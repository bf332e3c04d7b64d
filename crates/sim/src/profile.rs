//! Span-based self-profiler core for the simulation kernel.
//!
//! The kernel's hot phases (queue operations, medium propagation, protocol
//! dispatch) are bracketed with [`span`] guards. When profiling is disabled
//! — the default — a guard is a single thread-local flag check and the
//! simulation's observable behaviour is untouched: profiling never reads
//! sim state and sim state never reads the profiler, so seeded runs stay
//! byte-identical with profiling on, off, or absent.
//!
//! When enabled, every span increments a per-phase call counter, and a
//! 1-in-*stride* subset of top-level spans is timed with wall-clock
//! timestamps. Anything nested inside a timed span is also timed, which is
//! what makes *self time* (total minus time spent in enclosed spans) exact
//! within each sampled transaction. Timing only a stride keeps the
//! measured overhead within the ≤5 % events/s budget: at ~600 ns per
//! kernel event, unconditional `Instant::now()` pairs on six spans per
//! event would cost more than the work being measured.
//!
//! All accumulation happens in fixed-size thread-local slots ([`Cell`]
//! arrays) — no allocation after startup, no locks, no atomics on the hot
//! path. The reporting layer (in `mnp-obs`) scales the timed totals back
//! up by `calls / timed` to estimate full-run phase costs.
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

/// Deepest span nesting for which self-time is tracked exactly. Spans
/// nested deeper still accumulate calls and total time, but their parents
/// stop subtracting child time (self degrades toward total). Kernel
/// nesting is at most four deep in practice.
const MAX_DEPTH: usize = 16;

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
    /// Wall-clock nanoseconds inside timed spans, children excluded.
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
    /// The live sampling mask: a span is timed when `calls & mask == 0`.
    /// Holds `stride_mask` at top level and `0` while a timed span is
    /// open, so the hot path decides with a single load — no depth read.
    mask: Cell<u64>,
    /// Configured stride minus one, restored into `mask` when the last
    /// timed span closes.
    stride_mask: Cell<u64>,
    /// Number of *timed* spans currently open on this thread.
    depth: Cell<usize>,
    /// Per-depth accumulator of child span time, reset on span entry.
    child_ns: [Cell<u64>; MAX_DEPTH],
    calls: [Cell<u64>; PHASE_COUNT],
    timed: [Cell<u64>; PHASE_COUNT],
    total_ns: [Cell<u64>; PHASE_COUNT],
    self_ns: [Cell<u64>; PHASE_COUNT],
}

/// Default sampling stride: time 1 in 256 top-level spans.
///
/// Sized so the clock reads on timed transactions stay well under the
/// ≤5 % overhead budget: a timed kernel event costs ~15 extra clock
/// reads, which at 1-in-256 amortises to well under 1 % of events/s
/// while still timing tens of thousands of transactions per bench run.
pub const DEFAULT_STRIDE: u64 = 256;

thread_local! {
    static STATE: State = const {
        State {
            enabled: Cell::new(false),
            mask: Cell::new(DEFAULT_STRIDE - 1),
            stride_mask: Cell::new(DEFAULT_STRIDE - 1),
            depth: Cell::new(0),
            child_ns: [const { Cell::new(0) }; MAX_DEPTH],
            calls: [const { Cell::new(0) }; PHASE_COUNT],
            timed: [const { Cell::new(0) }; PHASE_COUNT],
            total_ns: [const { Cell::new(0) }; PHASE_COUNT],
            self_ns: [const { Cell::new(0) }; PHASE_COUNT],
        }
    };
}

/// A RAII guard accumulating into its phase's slot when dropped.
///
/// Obtained from [`span`]; hold it for the duration of the phase. Spans
/// nest; each must be dropped on the thread that created it (they are
/// `!Send` by construction).
#[must_use = "a profiling span measures nothing unless held"]
#[derive(Debug)]
pub struct Span {
    /// `Some` iff this span is timed (and therefore incremented `depth`).
    start: Option<Instant>,
    phase: Phase,
}

/// Opens a span for `phase`. A no-op flag check when profiling is
/// disabled.
#[inline]
pub fn span(phase: Phase) -> Span {
    STATE.with(|s| {
        if !s.enabled.get() {
            return Span { start: None, phase };
        }
        let i = phase as usize;
        let calls = s.calls[i].get();
        s.calls[i].set(calls + 1);
        // Inside a timed span everything is timed (exact self-time); at
        // top level only every stride-th call is. `mask` encodes both: it
        // drops to 0 while a timed span is open, so one load decides.
        if calls & s.mask.get() == 0 {
            let d = s.depth.get();
            if d == 0 {
                s.mask.set(0); // time everything nested under this span
            }
            if d < MAX_DEPTH {
                s.child_ns[d].set(0);
            }
            s.depth.set(d + 1);
            Span {
                start: Some(Instant::now()),
                phase,
            }
        } else {
            Span { start: None, phase }
        }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        STATE.with(|s| {
            let d = s.depth.get();
            if d == 0 {
                return; // reset() while the span was open
            }
            let d = d - 1;
            s.depth.set(d);
            if d == 0 {
                s.mask.set(s.stride_mask.get()); // resume striding at top level
            }
            let child = if d < MAX_DEPTH {
                s.child_ns[d].get()
            } else {
                0
            };
            let i = self.phase as usize;
            s.timed[i].set(s.timed[i].get() + 1);
            s.total_ns[i].set(s.total_ns[i].get().saturating_add(elapsed));
            s.self_ns[i].set(
                s.self_ns[i]
                    .get()
                    .saturating_add(elapsed.saturating_sub(child)),
            );
            if d > 0 && d - 1 < MAX_DEPTH {
                let p = &s.child_ns[d - 1];
                p.set(p.get().saturating_add(elapsed));
            }
        });
    }
}

/// Turns profiling on or off for the current thread. Off by default;
/// spans opened while disabled record nothing even if enabled later.
pub fn set_enabled(enabled: bool) {
    STATE.with(|s| s.enabled.set(enabled));
}

/// Sets the sampling stride: 1 in `stride` top-level spans is timed.
/// Rounded up to the next power of two; `1` times everything. Call with
/// no spans open — the new stride takes effect at top level.
pub fn set_stride(stride: u64) {
    let stride = stride.max(1).next_power_of_two();
    STATE.with(|s| {
        s.stride_mask.set(stride - 1);
        if s.depth.get() == 0 {
            s.mask.set(stride - 1);
        }
    });
}

/// Clears all accumulated counters (and any open-span nesting state) on
/// the current thread. Leaves the enabled flag and stride unchanged.
pub fn reset() {
    STATE.with(|s| {
        s.depth.set(0);
        s.mask.set(s.stride_mask.get());
        for c in &s.child_ns {
            c.set(0);
        }
        for i in 0..PHASE_COUNT {
            s.calls[i].set(0);
            s.timed[i].set(0);
            s.total_ns[i].set(0);
            s.self_ns[i].set(0);
        }
    });
}

/// Copies out the current thread's per-phase counters, indexed by
/// `Phase as usize`.
pub fn snapshot() -> [PhaseStat; PHASE_COUNT] {
    STATE.with(|s| {
        let mut out = [PhaseStat::default(); PHASE_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = PhaseStat {
                calls: s.calls[i].get(),
                timed: s.timed[i].get(),
                total_ns: s.total_ns[i].get(),
                self_ns: s.self_ns[i].get(),
            };
        }
        out
    })
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

    #[test]
    fn nested_spans_split_self_and_total() {
        with_clean_state(|| {
            reset();
            set_enabled(true);
            set_stride(1);
            {
                let _outer = span(Phase::Dispatch);
                std::hint::black_box(busy(200));
                {
                    let _inner = span(Phase::Protocol);
                    std::hint::black_box(busy(200));
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
            // Outer self excludes inner's total exactly.
            assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
            assert_eq!(inner.self_ns, inner.total_ns);
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
            // First Dispatch call is timed (calls=0 matches the stride);
            // its nested Protocol span must be timed too.
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
