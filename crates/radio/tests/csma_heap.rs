//! `CsmaBank` holds no frame storage per node: its frames live in one pool
//! of slots shared by every node, which grows with the frames held at once,
//! not with the node count.
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! The counters are per thread and each test runs on its own thread, so
//! the tests of this file do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp_radio::{CsmaAction, CsmaBank, CsmaConfig, Frame, NodeId, MAX_PAYLOAD_BYTES};
use mnp_sim::SimRng;

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

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// A full TinyOS payload, the largest frame the MAC carries.
type Payload = [u8; MAX_PAYLOAD_BYTES];

const NODES: usize = 10_000;
/// What the bank may hold per node: a state byte, a FIFO's head, tail
/// and length, and a drop counter.
const PER_NODE: i64 = 24;
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
    let before = live();
    let bank: CsmaBank<Payload> = CsmaBank::new(CsmaConfig::default(), NODES);
    let held = live() - before;
    assert_eq!(bank.len(), NODES);
    assert!(
        held <= PER_NODE * NODES as i64 + 64,
        "{NODES} idle MACs hold {held} B"
    );
}

#[test]
fn draining_every_node_in_turn_holds_one_nodes_frames() {
    let config = CsmaConfig::default();
    // The current frame and a full queue behind it.
    let burst = config.queue_capacity + 1;
    let mut bank: CsmaBank<Payload> = CsmaBank::new(config, NODES);
    let mut rng = SimRng::new(5);
    let columns = live();
    PEAK.with(|peak| peak.set(columns));
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
    let held = live() - columns;
    let peak = PEAK.with(Cell::get) - columns;
    // A `Vec` at most doubles when it grows.
    let pool = 2 * burst as i64 * SLOT;
    assert!(
        held <= pool && peak <= pool,
        "{NODES} drained MACs hold {held} B (peak {peak} B) over their columns, \
         more than {burst} frames' slots ({pool} B)"
    );
}
