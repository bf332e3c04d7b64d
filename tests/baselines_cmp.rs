//! The paper's §5 comparisons, asserted as properties rather than
//! eyeballed: MNP vs Deluge/XNP/MOAP/flood on shared deployments.

use mnp_repro::prelude::*;

#[test]
fn mnp_saves_active_radio_time_over_deluge() {
    let cmp = mnp_experiments::deluge_cmp::run_with(8, 8, 1, 200);
    assert!(cmp.rows.iter().all(|r| r.completed));
    assert!(
        cmp.art_ratio() > 1.3,
        "expected a clear ART advantage, got {:.2}x\n{cmp}",
        cmp.art_ratio()
    );
}

#[test]
fn deluge_radio_is_always_on_mnp_is_not() {
    let scenario = GridExperiment::new(6, 6, 10.0).segments(1).seed(201);
    let mnp = scenario.run::<Mnp>(|_| {});
    let deluge = scenario.run::<Deluge>(|_| {});
    assert!(mnp.completed && deluge.completed);
    for (i, art) in deluge.art_s.iter().enumerate() {
        assert!(
            (art - deluge.completion_s()).abs() < 1.0,
            "Deluge node {i}: ART {art:.1} != completion {:.1}",
            deluge.completion_s()
        );
    }
    let min_mnp_art = mnp.art_s.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        min_mnp_art < mnp.completion_s() * 0.9,
        "at least some MNP node must sleep substantially"
    );
}

#[test]
fn xnp_cannot_cover_a_multihop_network() {
    let out = GridExperiment::new(8, 8, 10.0)
        .segments(1)
        .seed(202)
        .deadline(SimTime::from_secs(3_600))
        .run::<Xnp>(|_| {});
    assert!(out.complete_nodes > 1, "someone in range must complete");
    assert!(
        out.complete_nodes < 64,
        "an 8x8 grid at 10 ft spans multiple hops; XNP must fail coverage"
    );
}

#[test]
fn moap_completes_but_never_sleeps() {
    let out = GridExperiment::new(4, 4, 10.0)
        .segments(1)
        .seed(203)
        .deadline(SimTime::from_secs(3_600))
        .run::<Moap>(|_| {});
    assert!(out.completed);
    // Radios stayed on from time zero to the end of the run.
    for (i, art) in out.art_s.iter().enumerate() {
        assert!(
            (art - out.completion_s()).abs() < 1e-6,
            "MOAP node {i}: ART {art} != completion {}",
            out.completion_s()
        );
    }
}

#[test]
fn flood_loses_to_mnp_on_the_same_field() {
    let field = GridExperiment::new(8, 8, 10.0).segments(1).seed(204);
    let flood = field
        .clone()
        .deadline(SimTime::from_secs(600))
        .run::<Flood>(|_| {});
    let mnp = field.run::<Mnp>(|_| {});
    assert!(mnp.completed);
    assert!(
        flood.complete_nodes < 64,
        "the unsuppressed flood should not achieve full coverage"
    );
}
