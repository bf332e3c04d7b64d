//! `NetworkBuilder::build` hands each shard its protocols without a
//! second copy of the protocol vector: the heap's high-water mark during
//! build exceeds what the built network keeps by less than one protocol
//! vector.
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! Keep this the only `#[test]` in the file, so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp_net::{Context, NetworkBuilder, Protocol, WireMsg};
use mnp_radio::{LinkTable, NodeId};
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

#[derive(Clone, Debug)]
struct Nothing;

impl WireMsg for Nothing {
    fn wire_bytes(&self) -> usize {
        1
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// A protocol whose state is mostly inline ballast, so the protocol
/// vector dwarfs everything else build allocates.
struct Ballast {
    _state: [u8; 4096],
}

impl Protocol for Ballast {
    type Msg = Nothing;
    fn on_start(&mut self, _ctx: &mut Context<'_, Nothing>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, Nothing>, _from: NodeId, _msg: &Nothing) {}
}

const NODES: usize = 64;

#[test]
fn build_holds_one_protocol_vector() {
    let mut links = LinkTable::new(NODES);
    for i in 1..NODES {
        let (a, b) = (NodeId::from_index(i - 1), NodeId::from_index(i));
        links.connect(a, b, 0.0);
        links.connect(b, a, 0.0);
    }
    let builder = NetworkBuilder::new(links, 7);
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
    let net = builder.build(|_, _| Ballast { _state: [0; 4096] });
    let excess = PEAK.with(Cell::get) - LIVE.with(Cell::get);
    let vector = (NODES * std::mem::size_of::<Ballast>()) as i64;
    assert!(
        excess < vector,
        "build peaked {excess} B above what it keeps; one protocol vector is {vector} B"
    );
    drop(net);
}
