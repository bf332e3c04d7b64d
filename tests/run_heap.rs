//! What a grid run asks of the heap once its network is built.
//!
//! An MNP run on a 30×30 grid adds no per-node MAC block: the CSMA MACs
//! share one frame pool that grows with the frames held at once across
//! the network, so what a run leaves behind does not grow with the number
//! of nodes that ever queued a frame.
//!
//! A data frame names its packet and owns no heap memory, so MNP and the
//! Deluge-like protocol make far fewer run-phase allocations than they
//! send data messages; a frame that copied its packet's bytes made at
//! least one allocation per data message.
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! The counters are per thread, so each test reads only its own run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp::Mnp;
use mnp_baselines::Deluge;
use mnp_experiments::Disseminator;
use mnp_net::NetworkBuilder;
use mnp_obs::{EventKind, ObsEvent, Observer, Shared};
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::{SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};
use mnp_trace::MsgClass;

thread_local! {
    /// Bytes this thread holds on the heap.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls this thread has made (`alloc` and `realloc`).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    // `try_with`: a thread still allocates while its locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

fn count_call() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counters are
// side-effect-only and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Counts the data messages a run sends.
#[derive(Debug, Default)]
struct DataTx(u64);

impl Observer for DataTx {
    fn on_event(&mut self, ev: &ObsEvent) {
        if let EventKind::MsgTx {
            class: MsgClass::Data,
            ..
        } = ev.kind
        {
            self.0 += 1;
        }
    }
}

/// What one run did to the heap.
struct RunHeap {
    /// Bytes the run left on the heap.
    added: i64,
    /// Allocation calls the run made.
    allocs: u64,
    /// Data messages the run sent.
    data_msgs: u64,
}

/// Runs `P` from the corner of a `side`×`side` grid, seed 42, to
/// completion, counting only the run phase.
fn grid_run<P: Disseminator>(side: usize) -> RunHeap {
    let grid = GridSpec::new(side, side, 10.0);
    // Fewer than 1 024 nodes: the topology is sampled on this thread.
    let links = TopologyBuilder::new(grid.placement())
        .power(PowerLevel::FULL)
        .build(&mut SimRng::new(42).derive(0xdead_beef))
        .links;
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let cfg = P::config_for(&image);
    let data = Shared::new(DataTx::default());
    let mut net = NetworkBuilder::new(links, 42)
        .observer(data.clone())
        .build(|id, _| {
            if id == NodeId(0) {
                P::base_station(cfg.clone(), &image)
            } else {
                P::node(cfg.clone())
            }
        });
    let (start, start_calls) = (live(), calls());
    assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
    let (added, allocs) = (live() - start, calls() - start_calls);
    let data_msgs = data.borrow().0;
    RunHeap {
        added,
        allocs,
        data_msgs,
    }
}

/// Asserts that a run made fewer allocations than one per four data
/// messages it sent.
fn assert_frames_own_no_heap(protocol: &str, run: &RunHeap) {
    assert!(run.data_msgs > 0, "{protocol}: the run sent no data");
    assert!(
        4 * run.allocs < run.data_msgs,
        "{protocol}: the run made {} allocations for {} data messages",
        run.allocs,
        run.data_msgs
    );
}

#[test]
fn a_grid_run_adds_no_per_node_mac_block() {
    const SIDE: usize = 30;
    let run = grid_run::<Mnp>(SIDE);
    // The run's own growth (event queue, arenas, protocol buffers) is about
    // 110 B per node here. A 4-frame queue block per node that ever queued
    // a frame, as a per-node `VecDeque` keeps, took it past 270 B.
    let budget = 128 * (SIDE * SIDE) as i64;
    assert!(
        run.added <= budget,
        "the run added {} B to the heap, over its {budget} B budget",
        run.added
    );
    assert_frames_own_no_heap("MNP", &run);
}

#[test]
fn a_deluge_grid_run_allocates_less_than_once_per_data_message() {
    assert_frames_own_no_heap("Deluge-like", &grid_run::<Deluge>(10));
}
