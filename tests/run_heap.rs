//! What a run asks of the heap once its network is built.
//!
//! An MNP run on a 30×30 grid adds no per-node MAC block: the CSMA MACs
//! share one frame pool that grows with the frames held at once across
//! the network, so what a run leaves behind does not grow with the number
//! of nodes that ever queued a frame.
//!
//! A data frame names its packet and owns no heap memory, so MNP and the
//! Deluge-like protocol make far fewer run-phase allocations than they
//! send data messages; a frame that copied its packet's bytes made at
//! least one allocation per data message. A coded frame carries its
//! payload inline, and a mobile run resolves its link changes in the
//! schedule it was built with, so RLNC on a grid and MNP over a moving
//! field allocate rarely too.
//!
//! The heap probe's counters are per thread, so each test reads only its
//! own run; the first test checks the probe's own arithmetic.

#[allow(dead_code)]
#[path = "support/heap_probe.rs"]
mod heap_probe;

use std::hint::black_box;

use mnp::Mnp;
use mnp_baselines::{Deluge, Rlnc};
use mnp_experiments::{Disseminator, MobileExperiment};
use mnp_net::NetworkBuilder;
use mnp_obs::{EventKind, ObsEvent, Observer, Shared};
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::{SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};
use mnp_trace::MsgClass;

use heap_probe::{mark, snapshot, Heap};

/// Counts the data messages a run sends (a coded frame is one).
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

/// Builds `P`'s network from `builder`, the base station at node 0 with
/// a `segments`-segment image, and runs it to completion: what the run
/// phase asked of the heap, and the data messages it sent.
fn run_phase<P: Disseminator>(builder: NetworkBuilder, segments: u16) -> (Heap, u64) {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments));
    let cfg = P::config_for(&image);
    let data = Shared::new(DataTx::default());
    let mut net = builder.observer(data.clone()).build(|id, _| {
        if id == NodeId(0) {
            P::base_station(cfg.clone(), &image)
        } else {
            P::node(cfg.clone())
        }
    });
    let start = mark();
    assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
    let run = snapshot().since(start);
    let data_msgs = data.borrow().0;
    (run, data_msgs)
}

/// The network of a `side`×`side` grid at full power, seed 42.
fn grid(side: usize) -> NetworkBuilder {
    let grid = GridSpec::new(side, side, 10.0);
    // Fewer than 1 024 nodes: the topology is sampled on this thread.
    let links = TopologyBuilder::new(grid.placement())
        .power(PowerLevel::FULL)
        .build(&mut SimRng::new(42).derive(0xdead_beef))
        .links;
    NetworkBuilder::new(links, 42)
}

/// Asserts that a run made fewer allocations than one per
/// [`heap_probe::DATA_MSGS_PER_RUN_ALLOC`] data messages it sent.
fn assert_frames_own_no_heap(protocol: &str, (run, data_msgs): (Heap, u64)) {
    assert!(data_msgs > 0, "{protocol}: the run sent no data");
    assert!(
        heap_probe::DATA_MSGS_PER_RUN_ALLOC * run.calls < data_msgs,
        "{protocol}: the run made {} allocations for {data_msgs} data messages",
        run.calls
    );
}

#[test]
fn the_probe_counts_this_threads_calls_bytes_and_peak() {
    // `black_box`: an optimiser may drop an allocation nothing reads.
    let start = mark();
    let mut v = black_box(Vec::<u8>::with_capacity(100));
    let made = snapshot().since(start);
    assert_eq!((made.live, made.calls, made.requested), (100, 1, 100));

    v.reserve(1_000);
    black_box(&mut v);
    let cap = v.capacity() as i64;
    assert!(cap >= 1_000);
    let grown = snapshot().since(start);
    assert_eq!((grown.live, grown.calls), (cap, 2), "one realloc");
    assert_eq!(grown.requested, cap as u64, "100 B, then the growth");

    drop(v);
    let freed = snapshot().since(start);
    assert_eq!((freed.live, freed.peak), (0, cap), "the peak stays");
    assert_eq!(mark().since(start).peak, 0, "a mark restarts the peak");

    const ELSEWHERE: usize = 1 << 20;
    let start = mark();
    std::thread::spawn(|| drop(black_box(Vec::<u8>::with_capacity(ELSEWHERE))))
        .join()
        .expect("the spawned thread allocates and frees");
    let spawned = snapshot().since(start);
    assert!(
        spawned.requested < ELSEWHERE as u64 && spawned.peak < ELSEWHERE as i64,
        "another thread's allocation was counted here: {spawned:?}"
    );
}

#[test]
fn a_grid_run_adds_no_per_node_mac_block() {
    const SIDE: usize = 30;
    let (run, data_msgs) = run_phase::<Mnp>(grid(SIDE), 1);
    let budget = heap_probe::MNP_GRID_RUN_BYTES_PER_NODE * (SIDE * SIDE) as i64;
    assert!(
        run.live <= budget,
        "the run added {} B to the heap, over its {budget} B budget",
        run.live
    );
    assert_frames_own_no_heap("MNP", (run, data_msgs));
}

#[test]
fn a_deluge_grid_run_allocates_less_than_once_per_data_message() {
    assert_frames_own_no_heap("Deluge-like", run_phase::<Deluge>(grid(10), 1));
}

#[test]
fn a_coded_grid_run_allocates_less_than_once_per_coded_message() {
    // Fewer than 1 024 nodes, so set-up runs on this thread too; two
    // segments, so every node commits a generation and decodes another.
    const SIDE: usize = 6;
    let (run, coded_msgs) = run_phase::<Rlnc>(grid(SIDE), 2);
    assert!(coded_msgs > 0, "RLNC: the run sent no coded message");
    assert!(
        heap_probe::CODED_MSGS_PER_RUN_ALLOC * run.calls < coded_msgs,
        "RLNC: the run made {} allocations for {coded_msgs} coded messages",
        run.calls
    );
    let budget = heap_probe::RLNC_GRID_RUN_BYTES_PER_NODE * (SIDE * SIDE) as i64;
    assert!(
        run.live <= budget,
        "RLNC: the run added {} B to the heap, over its {budget} B budget",
        run.live
    );
}

#[test]
fn a_mobile_run_allocates_per_node_not_per_message() {
    const NODES: usize = 36;
    let field = MobileExperiment::new(NODES);
    let mobile = field.mobile_topology();
    let edges = mobile.topology.links.edge_count() as i64;
    // Built here, not by `MobileExperiment::run`, so the mark falls
    // between build and run.
    let builder = NetworkBuilder::new(mobile.topology.links, field.seed_value())
        .link_schedule(mobile.updates.iter().collect());
    let (run, _) = run_phase::<Mnp>(builder, 1);
    let calls = heap_probe::MOBILE_RUN_ALLOCS_PER_NODE * NODES as u64;
    assert!(
        run.calls <= calls,
        "the mobile run made {} allocations, over its {calls}",
        run.calls
    );
    let budget = heap_probe::MOBILE_RUN_BYTES_PER_EDGE * edges;
    assert!(
        run.live <= budget,
        "the mobile run added {} B to the heap, over its {budget} B budget",
        run.live
    );
}
