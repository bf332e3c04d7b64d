//! `NetworkBuilder::build` holds one copy of what it builds: the heap's
//! high-water mark during build exceeds what the built network keeps by
//! less than one protocol vector — the kernel gets its protocols without
//! a second copy of the vector — and by less than one link graph — the
//! builder's `LinkTable` is the graph the run holds, never copied.
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

/// A protocol whose state is `B` bytes of inline ballast.
struct Ballast<const B: usize> {
    _state: [u8; B],
}

impl<const B: usize> Protocol for Ballast<B> {
    type Msg = Nothing;
    fn on_start(&mut self, _ctx: &mut Context<'_, Nothing>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, Nothing>, _from: NodeId, _msg: &Nothing) {}
}

/// The graph over `n` nodes in which `a` hears `b` whenever `linked(a, b)`.
fn graph(n: usize, linked: impl Fn(usize, usize) -> bool) -> LinkTable {
    LinkTable::from_rows(n, |from, row| {
        let a = from.index();
        row.extend(
            (0..n)
                .filter(|&b| b != a && linked(a, b))
                .map(|b| (NodeId::from_index(b), 0.0)),
        );
    })
}

/// How far build's high-water mark rises above what the network it
/// returns keeps, in bytes.
fn build_excess<const B: usize>(links: LinkTable) -> i64 {
    let builder = NetworkBuilder::new(links, 7);
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
    let net = builder.build(|_, _| Ballast::<B> { _state: [0; B] });
    let excess = PEAK.with(Cell::get) - LIVE.with(Cell::get);
    drop(net);
    excess
}

#[test]
fn build_holds_one_protocol_vector() {
    // A chain under heavy protocols: the protocol vector dwarfs the rest.
    const CHAIN: usize = 64;
    let excess = build_excess::<4096>(graph(CHAIN, |a, b| a.abs_diff(b) == 1));
    let vector = (CHAIN * std::mem::size_of::<Ballast<4096>>()) as i64;
    assert!(
        excess < vector,
        "build peaked {excess} B above what it keeps; one protocol vector is {vector} B"
    );
    // A clique under light protocols: the link graph dwarfs the rest.
    const CLIQUE: usize = 300;
    let links = graph(CLIQUE, |_, _| true);
    let table = (links.edge_count() * (4 + 8) + (CLIQUE + 1) * 4) as i64;
    let excess = build_excess::<8>(links);
    assert!(
        excess < table,
        "build peaked {excess} B above what it keeps; one link graph is {table} B"
    );
}
