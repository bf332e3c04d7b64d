//! Configuration-matrix robustness: every combination of the protocol's
//! optional features must preserve reliability on a lossy multihop grid.

use std::collections::BTreeSet;

use mnp_repro::prelude::*;

fn run_combo(query_update: bool, pipelining: bool, sleep_enabled: bool, seed: u64) -> RunOutcome {
    GridExperiment::new(5, 5, 10.0)
        .segments(2)
        .seed(seed)
        .check_invariants(true)
        .run::<Mnp>(|c| {
            c.query_update = query_update;
            c.pipelining = pipelining;
            c.sleep_enabled = sleep_enabled;
        })
}

#[test]
fn every_feature_combination_preserves_reliability() {
    let mut seed = 600;
    for query_update in [true, false] {
        for pipelining in [true, false] {
            for sleep_enabled in [true, false] {
                seed += 1;
                let out = run_combo(query_update, pipelining, sleep_enabled, seed);
                assert!(
                    out.completed,
                    "combo qu={query_update} pipe={pipelining} sleep={sleep_enabled}: {out}"
                );
            }
        }
    }
}

#[test]
fn coded_protocols_preserve_reliability_on_a_lossy_multihop_grid() {
    // The coded family rides the same spine as MNP: run both protocols
    // under the online invariant monitor (write-once EEPROM, in-order
    // segments) on a multihop grid with 10% extra per-link packet loss.
    let scenario = GridExperiment::new(5, 5, 10.0)
        .segments(2)
        .seed(610)
        .extra_loss(0.10)
        .check_invariants(true);
    let rlnc = scenario.run::<Rlnc>(|_| {});
    assert!(rlnc.completed, "rlnc: {rlnc}");
    let xor = scenario.run::<Xor>(|_| {});
    assert!(xor.completed, "xor: {xor}");
}

#[test]
fn coded_config_knobs_change_behaviour_without_costing_reliability() {
    // The protocol-specific knobs (extra coded packets per request,
    // XOR mixing degree) stay reliable at their extremes.
    let scenario = GridExperiment::new(4, 4, 10.0)
        .segments(1)
        .seed(620)
        .check_invariants(true);
    for extra in [0, 6] {
        let out = scenario.run::<Rlnc>(|c| c.extra_coded = extra);
        assert!(out.completed, "rlnc extra_coded={extra}: {out}");
    }
    for degree in [1, 3] {
        let out = scenario.run::<Xor>(|c| c.max_degree = degree);
        assert!(out.completed, "xor max_degree={degree}: {out}");
    }
}

/// The wire sizes of the data messages a run sends.
#[derive(Debug, Default)]
struct DataSizes(BTreeSet<usize>);

impl Observer for DataSizes {
    fn on_event(&mut self, ev: &ObsEvent) {
        if let EventKind::MsgTx {
            class: MsgClass::Data,
            bytes,
            ..
        } = ev.kind
        {
            self.0.insert(bytes);
        }
    }
}

/// Disseminates `image` from the corner of a 3×3 grid under the strict
/// invariant monitor, and asserts that its data messages had exactly the
/// wire sizes `want`.
fn assert_data_sizes<P: Disseminator>(image: &ProgramImage, want: &BTreeSet<usize>) {
    let grid = GridSpec::new(3, 3, 10.0);
    let links = TopologyBuilder::new(grid.placement())
        .power(PowerLevel::FULL)
        .build(&mut SimRng::new(700).derive(0xdead_beef))
        .links;
    let sizes = Shared::new(DataSizes::default());
    let invariants = Shared::new(InvariantMonitor::new());
    let cfg = P::config_for(image);
    let mut net = NetworkBuilder::new(links, 700)
        .observer(sizes.clone())
        .observer(invariants.clone())
        .build(|id, _| {
            if id == NodeId(0) {
                P::base_station(cfg.clone(), image)
            } else {
                P::node(cfg.clone())
            }
        });
    let completed = net.run_until_all_complete(SimTime::from_secs(3_600));
    // Flood has no loss recovery: a relay misses what arrives while it
    // rebroadcasts, so it runs until the storm dies out instead.
    assert!(
        completed || P::NAME == "flood",
        "{} did not complete",
        P::NAME
    );
    assert!(invariants.borrow().ok(), "{}", P::NAME);
    assert_eq!(&sizes.borrow().0, want, "{}: data message sizes", P::NAME);
}

#[test]
fn smaller_segments_work_too() {
    // 32-packet segments, short last packet: 1 000 bytes are 43 full
    // 23-byte packets and one of 11, in segments of 32 and 12 packets.
    let layout = ImageLayout::new(1_000, 32, 23);
    assert_eq!(layout.segment_count(), 2);
    let short = layout.packet_len(1, 11);
    assert_eq!(short, 11);
    let image = ProgramImage::synthetic(ProgramId(1), layout);
    let want = BTreeSet::from([3 + short, 3 + 23]);
    assert_data_sizes::<Mnp>(&image, &want);
    assert_data_sizes::<Deluge>(&image, &want);
    assert_data_sizes::<Moap>(&image, &want);
    assert_data_sizes::<Xnp>(&image, &want);
    assert_data_sizes::<Flood>(&image, &want);
}

#[test]
fn single_node_network_is_trivially_complete() {
    let out = GridExperiment::new(1, 1, 10.0)
        .seed(701)
        .check_invariants(true)
        .run::<Mnp>(|_| {});
    assert!(out.completed);
    assert_eq!(out.completion, SimTime::ZERO, "the base is born complete");
}

#[test]
fn two_node_network_completes_quickly() {
    let out = GridExperiment::new(1, 2, 10.0)
        .seed(702)
        .check_invariants(true)
        .run::<Mnp>(|_| {});
    assert!(out.completed);
    assert!(out.completion_s() < 60.0, "{out}");
}

#[test]
fn widely_spaced_grid_with_marginal_links_still_completes() {
    // 25 ft spacing at full power (35 ft nominal range): every link sits
    // in or near the grey region.
    for seed in 720..724 {
        let scenario = GridExperiment::new(3, 3, 25.0)
            .seed(seed)
            .check_invariants(true);
        if !scenario.is_viable() {
            continue; // this sample was partitioned; viability is checked
        }
        let out = scenario.run::<Mnp>(|_| {});
        assert!(out.completed, "seed {seed}: {out}");
    }
}

#[test]
fn non_grid_random_field_works_too() {
    let seed = 9;
    let mut rng = SimRng::new(seed);
    let (links, n) = loop {
        let placement = Placement::random(60, 100.0, 60.0, &mut rng);
        let topo = TopologyBuilder::new(placement).build(&mut rng);
        if topo
            .links
            .reaches_all_usable(NodeId(0), mnp_repro::radio::loss::usable_ber_threshold())
        {
            break (topo.links, 60);
        }
    };
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let cfg = MnpConfig::for_image(&image);
    let mut net: Network<Mnp> = NetworkBuilder::new(links, seed)
        .observer(InvariantMonitor::new())
        .build(|id, _| {
            if id == NodeId(0) {
                Mnp::base_station(cfg.clone(), &image)
            } else {
                Mnp::node(cfg.clone())
            }
        });
    assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
    for i in 0..n {
        assert!(net.protocol(NodeId::from_index(i)).is_complete());
    }
}

#[test]
fn dense_cheap_grid_completes_fast() {
    // 5 ft spacing: effectively one radio cell.
    let out = GridExperiment::new(4, 4, 5.0)
        .seed(730)
        .check_invariants(true)
        .run::<Mnp>(|_| {});
    assert!(out.completed);
    assert!(out.completion_s() < 120.0, "{out}");
}
