//! The paper's §5 comparisons: MNP vs Deluge as claims of
//! `mnp_experiments::claims::CLAIMS` at the reduced scale, and the
//! baseline behaviours the comparison takes as given — XNP is single-hop,
//! MOAP never sleeps, an unsuppressed flood fails — on shared deployments.

use mnp_repro::prelude::*;

mnp_experiments::claims::claim_tests! {
    mnp_saves_active_radio_time_over_deluge => "C1-art",
    deluge_radio_is_always_on_mnp_is_not => "C1-always-on",
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
