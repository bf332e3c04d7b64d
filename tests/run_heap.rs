//! An MNP run on a 30×30 grid adds no per-node MAC block to the heap: the
//! CSMA MACs share one frame pool that grows with the frames held at once
//! across the network, so what a run leaves behind does not grow with the
//! number of nodes that ever queued a frame.
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! Keep this the only `#[test]` in the file, so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp::{Mnp, MnpConfig};
use mnp_net::NetworkBuilder;
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::{SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};

thread_local! {
    /// Bytes this thread holds on the heap.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    // `try_with`: a thread still allocates while its locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter is
// side-effect-only and never influences what is returned.
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

#[test]
fn a_grid_run_adds_no_per_node_mac_block() {
    const SIDE: usize = 30;
    let grid = GridSpec::new(SIDE, SIDE, 10.0);
    // Fewer than 1 024 nodes: the topology is sampled on this thread.
    let links = TopologyBuilder::new(grid.placement())
        .power(PowerLevel::FULL)
        .build(&mut SimRng::new(42).derive(0xdead_beef))
        .links;
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let cfg = MnpConfig::for_image(&image);
    let mut net = NetworkBuilder::new(links, 42).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &image)
        } else {
            Mnp::node(cfg.clone())
        }
    });
    let start = live();
    assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
    let added = live() - start;
    // The run's own growth (event queue, arenas, protocol buffers) is about
    // 110 B per node here. A 4-frame queue block per node that ever queued
    // a frame, as a per-node `VecDeque` keeps, took it past 270 B.
    let budget = 128 * (SIDE * SIDE) as i64;
    assert!(
        added <= budget,
        "the run added {added} B to the heap, over its {budget} B budget"
    );
}
