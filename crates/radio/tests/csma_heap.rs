//! `CsmaBank` holds no frame storage per node: its frames live in one pool
//! of slots shared by every node, which grows with the frames held at once,
//! not with the node count.
//!
//! The heap probe's counters are per thread and each test runs on its own
//! thread, so the tests of this file do not see each other's allocations.

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_radio::{CsmaAction, CsmaBank, CsmaConfig, Frame, NodeId, MAX_PAYLOAD_BYTES};
use mnp_sim::SimRng;

/// A full TinyOS payload, the largest frame the MAC carries.
type Payload = [u8; MAX_PAYLOAD_BYTES];

const NODES: usize = 10_000;
/// One pool slot: a frame plus its chain index, with room for padding.
const SLOT: i64 = std::mem::size_of::<Frame<Payload>>() as i64 + 16;

fn frame(node: usize) -> Frame<Payload> {
    Frame::new(
        NodeId::from_index(node),
        MAX_PAYLOAD_BYTES,
        [0; MAX_PAYLOAD_BYTES],
    )
}

#[test]
fn a_new_bank_allocates_no_frame_storage() {
    let before = heap_probe::mark();
    let bank: CsmaBank<Payload> = CsmaBank::new(CsmaConfig::default(), NODES);
    let held = heap_probe::snapshot().since(before).live;
    assert_eq!(bank.len(), NODES);
    let budget =
        heap_probe::CSMA_BANK_BYTES_PER_NODE * NODES as i64 + heap_probe::CSMA_BANK_FIXED_BYTES;
    assert!(held <= budget, "{NODES} idle MACs hold {held} B");
}

#[test]
fn draining_every_node_in_turn_holds_one_nodes_frames() {
    let config = CsmaConfig::default();
    // The current frame and a full queue behind it.
    let burst = config.queue_capacity + 1;
    let mut bank: CsmaBank<Payload> = CsmaBank::new(config, NODES);
    let mut rng = SimRng::new(5);
    let columns = heap_probe::mark();
    for node in 0..NODES {
        for _ in 0..burst {
            let _ = bank.enqueue(node, frame(node), &mut rng);
        }
        assert_eq!(bank.queued(node), config.queue_capacity);
        for _ in 0..burst {
            assert!(matches!(
                bank.attempt(node, false, &mut rng),
                CsmaAction::Transmit(_)
            ));
            let _ = bank.tx_done(node, &mut rng);
        }
        assert_eq!(bank.queued(node), 0);
    }
    let drained = heap_probe::snapshot().since(columns);
    let (held, peak) = (drained.live, drained.peak);
    let pool = heap_probe::CSMA_POOL_GROWTH * burst as i64 * SLOT;
    assert!(
        held <= pool && peak <= pool,
        "{NODES} drained MACs hold {held} B (peak {peak} B) over their columns, \
         more than {burst} frames' slots ({pool} B)"
    );
}
