//! `NetworkBuilder::link_schedule` and `build` hold one copy of a link
//! schedule: the timeline is resolved in the schedule's own buffer, so a
//! build over `N` changes never holds more than the schedule's `24·N`
//! bytes plus what the network keeps per node, per edge and per flap.
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! Keep this the only `#[test]` in the file, so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp_net::{Context, FaultPlan, NetworkBuilder, Protocol, WireMsg};
use mnp_radio::{LinkChange, LinkTable, NodeId};
use mnp_sim::{SimDuration, SimTime};
use mnp_trace::MsgClass;

thread_local! {
    /// Bytes this thread holds on the heap, and the most it has held
    /// since the last reset.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    // `try_with`: a thread still allocates while its locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counters are
// side-effect-only and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy, Debug)]
struct Nothing;

impl WireMsg for Nothing {
    fn wire_bytes(&self) -> usize {
        1
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// Schedules nothing.
struct Inert;

impl Protocol for Inert {
    type Msg = Nothing;
    fn on_start(&mut self, _ctx: &mut Context<'_, Nothing>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, Nothing>, _from: NodeId, _msg: &Nothing) {}
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

#[test]
fn build_resolves_the_timeline_in_the_schedule_it_was_given() {
    // Eight nodes, every ordered pair an edge: a small graph under a long
    // schedule, so the schedule dwarfs everything else the build holds.
    const NODES: usize = 8;
    const CHANGES: usize = 100_000;
    const FLAPS: usize = 16;
    let links = LinkTable::from_rows(NODES, |from, row| {
        row.extend(
            (0..NODES)
                .map(NodeId::from_index)
                .filter(|&to| to != from)
                .map(|to| (to, 0.0)),
        );
    });
    let edges: Vec<(NodeId, NodeId)> = (0..NODES)
        .flat_map(|a| (0..NODES).filter(move |&b| b != a).map(move |b| (a, b)))
        .map(|(a, b)| (NodeId::from_index(a), NodeId::from_index(b)))
        .collect();
    let mut plan = FaultPlan::seeded(3);
    for i in 0..FLAPS {
        let (from, to) = edges[i * 3];
        let at = SimTime::from_secs(5 * i as u64 + 3);
        plan = plan.link_flap(from, to, at, SimDuration::from_secs(7), 1.0);
    }
    let before = live();
    // A motion-like schedule, in time order: every edge changes on every
    // tick, each change a real one.
    let schedule: Vec<LinkChange> = (0..CHANGES)
        .map(|i| {
            let (from, to) = edges[i % edges.len()];
            let tick = (i / edges.len()) as u64;
            LinkChange {
                at: SimTime::from_secs(tick + 1),
                from,
                to,
                ber: if tick.is_multiple_of(2) { 0.25 } else { 0.5 },
            }
        })
        .collect();
    assert_eq!(schedule.capacity(), CHANGES);
    PEAK.with(|peak| peak.set(live()));
    let net = NetworkBuilder::new(links, 7)
        .link_schedule(schedule)
        .faults(plan)
        .build(|_, _| Inert);
    let peak = PEAK.with(Cell::get) - before;
    let kept = live() - before;
    assert!(
        net.pending_events() > CHANGES * 9 / 10,
        "the changes are rows"
    );
    drop(net);
    let schedule = (CHANGES * std::mem::size_of::<LinkChange>()) as i64;
    assert_eq!(schedule, 24 * CHANGES as i64);
    // Beside the schedule: the network itself and the resolver's columns,
    // a few hundred bytes per node, edge and flap.
    let rest = (NODES * 512 + edges.len() * 64 + FLAPS * 128) as i64;
    assert!(
        peak <= schedule + rest,
        "build peaked at {peak} B for a {schedule} B schedule (kept {kept} B)"
    );
}
