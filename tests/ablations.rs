//! Cross-crate checks of the design-choice ablations (DESIGN.md A1–A4).

use mnp_experiments::ablation;
use mnp_repro::prelude::*;

#[test]
fn ablation_table_covers_all_variants() {
    let a = ablation::run_with(5, 1, 100);
    let names: Vec<&str> = a.rows.iter().map(|r| r.variant).collect();
    assert_eq!(
        names,
        vec![
            "full",
            "no-selection",
            "no-sleep",
            "no-pipelining",
            "no-query-update"
        ]
    );
    for r in &a.rows {
        assert!(r.completed, "{} did not complete", r.variant);
    }
}

#[test]
fn no_sleep_costs_energy() {
    let a = ablation::run_with(6, 1, 101);
    let full = a.row("full");
    let no_sleep = a.row("no-sleep");
    assert!(
        full.art_s < no_sleep.art_s,
        "sleeping must reduce ART: {:.0} vs {:.0}",
        full.art_s,
        no_sleep.art_s
    );
}

#[test]
fn no_selection_inflates_collisions_or_traffic() {
    // Without the competition, multiple sources in one neighbourhood
    // transmit concurrently: collisions and/or redundant messages grow.
    let a = ablation::run_with(6, 1, 102);
    let full = a.row("full");
    let wild = a.row("no-selection");
    let full_score = full.collisions as f64 + full.messages;
    let wild_score = wild.collisions as f64 + wild.messages;
    assert!(
        wild_score > full_score,
        "selection should reduce channel damage: {full_score} vs {wild_score}"
    );
}

#[test]
fn no_pipelining_slows_multisegment_multihop() {
    // On a strip with several segments, hop-by-hop full-image forwarding
    // must be slower than pipelining.
    let strip = GridExperiment::new(2, 8, 10.0).segments(3).seed(103);
    let piped = strip.run::<Mnp>(|_| {});
    let basic = strip.run::<Mnp>(|c| c.pipelining = false);
    assert!(piped.completed && basic.completed);
    assert!(
        basic.completion_s() > piped.completion_s(),
        "pipelining should win: {:.0}s vs {:.0}s",
        piped.completion_s(),
        basic.completion_s()
    );
}

#[test]
fn query_update_reduces_failures_on_lossy_networks() {
    // Give both variants the same slightly lossy 5×5 grid; the repair
    // phase should convert fail-and-retry cycles into quick repairs.
    let grid = GridExperiment::new(5, 5, 10.0).segments(2).seed(104);
    let with_qu = grid.run::<Mnp>(|_| {});
    let without = grid.run::<Mnp>(|c| c.query_update = false);
    assert!(with_qu.completed && without.completed);
    assert!(
        with_qu.protocol_fails <= without.protocol_fails,
        "repair should not increase failures: {} vs {}",
        with_qu.protocol_fails,
        without.protocol_fails
    );
}
