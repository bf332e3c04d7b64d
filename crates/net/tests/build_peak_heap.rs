//! `NetworkBuilder::build` holds one copy of what it builds: the heap's
//! high-water mark during build exceeds what the built network keeps by
//! less than one protocol vector — the kernel gets its protocols without
//! a second copy of the vector — and by less than one link graph — the
//! builder's `LinkTable` is the graph the run holds, never copied.

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_net::{Context, NetworkBuilder, Protocol, WireMsg};
use mnp_radio::{LinkTable, NodeId};
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
    let start = heap_probe::mark();
    let net = builder.build(|_, _| Ballast::<B> { _state: [0; B] });
    let built = heap_probe::snapshot().since(start);
    drop(net);
    built.peak - built.live
}

#[test]
fn build_holds_one_protocol_vector() {
    // A chain under heavy protocols: the protocol vector dwarfs the rest.
    const CHAIN: usize = 64;
    let excess = build_excess::<4096>(graph(CHAIN, |a, b| a.abs_diff(b) == 1));
    let vector = (CHAIN * std::mem::size_of::<Ballast<4096>>()) as i64;
    assert!(
        excess < heap_probe::BUILD_SPARE_PROTOCOL_VECTORS * vector,
        "build peaked {excess} B above what it keeps; one protocol vector is {vector} B"
    );
    // A clique under light protocols: the link graph dwarfs the rest.
    const CLIQUE: usize = 300;
    let links = graph(CLIQUE, |_, _| true);
    let table = (links.edge_count() * (4 + 8) + (CLIQUE + 1) * 4) as i64;
    let excess = build_excess::<8>(links);
    assert!(
        excess < heap_probe::BUILD_SPARE_LINK_GRAPHS * table,
        "build peaked {excess} B above what it keeps; one link graph is {table} B"
    );
}
