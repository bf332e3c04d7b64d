//! `NetworkBuilder::link_schedule` and `build` hold one copy of a link
//! schedule: the timeline is resolved in the schedule's own buffer, so a
//! build over `N` changes never holds more than the schedule's `24·N`
//! bytes plus what the network keeps per node, per edge and per flap.

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_net::{Context, FaultPlan, NetworkBuilder, Protocol, WireMsg};
use mnp_radio::{LinkChange, LinkTable, NodeId};
use mnp_sim::{SimDuration, SimTime};
use mnp_trace::MsgClass;

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
    let before = heap_probe::mark();
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
    // The peak is build's, measured from before the schedule existed.
    heap_probe::mark();
    let net = NetworkBuilder::new(links, 7)
        .link_schedule(schedule)
        .faults(plan)
        .build(|_, _| Inert);
    let built = heap_probe::snapshot().since(before);
    let (peak, kept) = (built.peak, built.live);
    assert!(
        net.pending_events() > CHANGES * 9 / 10,
        "the changes are rows"
    );
    drop(net);
    let schedule = (CHANGES * std::mem::size_of::<LinkChange>()) as i64;
    assert_eq!(
        schedule,
        heap_probe::TIMELINE_BUILD_BYTES_PER_CHANGE * CHANGES as i64
    );
    // Beside the schedule: the network itself and the resolver's columns.
    let rest = heap_probe::TIMELINE_BUILD_BYTES_PER_NODE * NODES as i64
        + heap_probe::TIMELINE_BUILD_BYTES_PER_EDGE * edges.len() as i64
        + heap_probe::TIMELINE_BUILD_BYTES_PER_FLAP * FLAPS as i64;
    assert!(
        peak <= schedule + rest,
        "build peaked at {peak} B for a {schedule} B schedule (kept {kept} B)"
    );
}
