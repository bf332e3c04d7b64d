//! The medium's transmission path allocates nothing in steady state:
//! round-robin full-size broadcasts on a sampled 20×20 grid, each driven
//! through begin → rx-start → end → rx-end with every receiver resolved
//! and the payload released. After a warm-up that fills every pool, a
//! measured window of transmissions must touch the heap **zero** times.

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_radio::{
    loss, Frame, LinkTable, Medium, NodeId, PowerLevel, TxOutcome, MAX_PAYLOAD_BYTES,
    PERCEPTION_LATENCY,
};
use mnp_sim::{SimRng, SimTime};

const SIDE: usize = 20;
const NODES: usize = SIDE * SIDE;
/// One full round-robin cycle (and at least 512 transmissions): the pooled
/// listener buffer only reaches its high-water capacity once the
/// maximum-in-degree node has been the source.
const WARMUP: usize = if NODES > 512 { NODES } else { 512 };
const MEASURED: usize = 4_096;

/// The grid's full-power link graph at the paper's 10 ft spacing, sampled
/// pair by pair in `(from, to)` order.
fn grid_links(rng: &mut SimRng) -> LinkTable {
    let mut links = LinkTable::new(NODES);
    for from in 0..NODES {
        for to in (0..NODES).filter(|&to| to != from) {
            let rows = (from / SIDE).abs_diff(to / SIDE) as f64;
            let cols = (from % SIDE).abs_diff(to % SIDE) as f64;
            let range = PowerLevel::FULL.range_ft();
            if let Some(ber) = loss::sample_edge_ber(10.0 * rows.hypot(cols), range, rng) {
                links.connect(NodeId::from_index(from), NodeId::from_index(to), ber);
            }
        }
    }
    links
}

#[test]
fn medium_hot_path_allocates_nothing_in_steady_state() {
    let mut rng = SimRng::new(42);
    let links = grid_links(&mut rng);
    let mut medium: Medium<[u8; MAX_PAYLOAD_BYTES]> = Medium::new(links, rng.derive(0x5ca1e));
    for i in 0..NODES {
        medium.set_radio(NodeId::from_index(i), true, SimTime::ZERO);
    }
    // Reserved to the hard upper bound (every other node hears the frame):
    // the delivered/corrupted/missed split is random per transmission, so
    // warm-up alone cannot guarantee each vector has seen its high-water
    // length, and one late doubling would read as a hot-path allocation.
    let mut scratch = TxOutcome::new();
    scratch.delivered.reserve(NODES);
    scratch.corrupted.reserve(NODES);
    scratch.missed.reserve(NODES);

    let mut now = SimTime::ZERO;
    let mut delivered = 0usize;
    let mut round = |k: usize| {
        let src = NodeId::from_index(k % NODES);
        let frame = Frame::new(src, MAX_PAYLOAD_BYTES, [0u8; MAX_PAYLOAD_BYTES]);
        // Every radio idles between rounds, so the send cannot fail.
        let start = medium
            .begin_transmission(src, frame, now)
            .expect("round-robin transmitter is idle");
        medium.rx_start(start.id, now + PERCEPTION_LATENCY);
        medium.end_transmission(start.id);
        now += start.airtime + PERCEPTION_LATENCY;
        medium.rx_end_into(start.id, now, &mut scratch);
        delivered += scratch.delivered.len();
        // Release the payload so its arena slot recycles.
        let payload = scratch.payload.take().expect("frame carried a payload");
        medium.release_payload(payload);
        scratch.clear();
    };

    (0..WARMUP).for_each(&mut round);
    let before = heap_probe::mark();
    (WARMUP..WARMUP + MEASURED).for_each(&mut round);
    let allocs = heap_probe::snapshot().since(before).calls;

    // A sole full-power transmitter reaches most of its neighbourhood.
    let rounds = WARMUP + MEASURED;
    assert!(delivered > rounds * 8, "only {delivered} deliveries");
    assert_eq!(
        allocs,
        heap_probe::MEDIUM_STEADY_STATE_ALLOCS,
        "allocations over {MEASURED} transmissions"
    );
}
