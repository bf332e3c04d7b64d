//! End-to-end integration: the full stack (topology → radio → MNP →
//! trace/energy) on realistic deployments.

use mnp_repro::prelude::*;

fn run_grid(rows: usize, cols: usize, spacing: f64, segments: u16, seed: u64) -> RunOutcome {
    // Every end-to-end run doubles as a protocol-safety check: the
    // invariant monitor panics on any write-once/ordering/sleep/ReqCtr
    // violation.
    GridExperiment::new(rows, cols, spacing)
        .segments(segments)
        .seed(seed)
        .check_invariants(true)
        .run::<Mnp>(|_| {})
}

#[test]
fn reliability_accuracy_and_coverage_on_a_multihop_grid() {
    // The paper's two halves of "reliability": every node gets the code
    // (coverage) and gets it exactly (accuracy; checksums are asserted
    // inside the protocol on completion).
    let out = run_grid(8, 8, 10.0, 2, 1);
    assert!(out.completed);
    for (id, s) in out.trace.iter() {
        assert!(s.completion.is_some(), "{id} never completed");
    }
}

#[test]
fn autonomy_no_external_help_is_needed() {
    // Only the base station is seeded; everything else follows from
    // protocol messages.
    let out = run_grid(6, 6, 10.0, 1, 2);
    assert!(out.completed);
    // Everyone but the base found a parent.
    let orphans = out
        .trace
        .iter()
        .skip(1)
        .filter(|(_, s)| s.parent.is_none())
        .count();
    assert_eq!(orphans, 0, "{orphans} nodes completed without a parent");
}

#[test]
fn energy_sleeping_beats_always_on() {
    let out = run_grid(8, 8, 10.0, 1, 3);
    assert!(out.completed);
    let completion = out.completion_s();
    assert!(
        out.mean_art_s() < 0.85 * completion,
        "mean ART {:.0}s should be well below completion {completion:.0}s",
        out.mean_art_s()
    );
    assert!(out.sleeps > 0, "nobody ever slept");
}

#[test]
fn speed_is_sane_for_the_image_size() {
    // A 2.9 KB image across a 6×6 grid should land within minutes, not
    // hours ("new program code should be propagated and installed
    // quickly").
    let out = run_grid(6, 6, 10.0, 1, 4);
    assert!(out.completed);
    assert!(
        out.completion_s() < 600.0,
        "completion {:.0}s is too slow",
        out.completion_s()
    );
}

#[test]
fn pipelining_overlaps_segments_in_space() {
    // With 3 segments on a long strip, some node must start receiving
    // segment 0 while the head of the network is already past it —
    // i.e. total time must be far less than segments × single-segment
    // sweep time.
    // A single seed makes this a coin-flip on MAC/backoff luck, so the
    // ratio is averaged over a few runs.
    let seeds = [1, 2, 3];
    let mut ratio_sum = 0.0;
    for &seed in &seeds {
        let single = run_grid(2, 12, 10.0, 1, seed);
        let triple = run_grid(2, 12, 10.0, 3, seed);
        assert!(single.completed && triple.completed);
        ratio_sum += triple.completion_s() / single.completion_s();
    }
    let ratio = ratio_sum / seeds.len() as f64;
    assert!(
        ratio < 3.0,
        "3 segments should pipeline, not triple the time (got {ratio:.2}x)"
    );
}

#[test]
fn sender_selection_keeps_collisions_bounded() {
    let out = run_grid(8, 8, 10.0, 1, 6);
    assert!(out.completed);
    // Collisions occur (hidden terminals exist) but stay far below the
    // message volume.
    assert!(
        (out.collisions as f64) < out.total_sent() * 20.0,
        "collision count {} vs {} messages",
        out.collisions,
        out.total_sent()
    );
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
fn larger_program_takes_proportionally_longer() {
    let one = run_grid(5, 5, 10.0, 1, 7);
    let four = run_grid(5, 5, 10.0, 4, 7);
    assert!(one.completed && four.completed);
    assert!(four.completion_s() > one.completion_s() * 1.5);
}
