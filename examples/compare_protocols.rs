//! Head-to-head: MNP against every baseline on the same deployment.
//!
//! One 8×8 grid, one 2-segment image, four protocols. XNP illustrates the
//! single-hop coverage failure; the flood illustrates the broadcast-storm
//! failure; Deluge and MOAP complete but keep their radios on.
//!
//! Run with: `cargo run --release --example compare_protocols`

use mnp_repro::prelude::*;

fn main() {
    let scenario = GridExperiment::new(8, 8, 10.0)
        .segments(2)
        .seed(11)
        .deadline(SimTime::from_secs(2 * 3_600));
    let run = |name: &str, scenario: &GridExperiment| {
        let protocol = ProtocolId::lookup(name).expect("a registered protocol");
        (
            protocol.label(),
            scenario.run_named(protocol, Instruments::default()),
        )
    };
    let table = [
        run("mnp", &scenario),
        run("deluge", &scenario),
        run("moap", &scenario),
        // XNP is single-hop and the flood never repairs losses: neither can
        // cover the grid, so give them a shorter leash than the 2 h deadline.
        run("xnp", &scenario.clone().deadline(SimTime::from_secs(1_800))),
        run("flood", &scenario.clone().deadline(SimTime::from_secs(600))),
    ];

    println!("{} nodes, image {}", 8 * 8, scenario.image().layout());
    println!();
    println!("protocol      coverage  completion   mean ART  messages  collisions");
    for (label, out) in &table {
        let completion = if out.completed {
            format!("{:>8.0}s", out.completion_s())
        } else {
            "       --".into()
        };
        println!(
            "{label:<12} {:>8.0}% {completion}  {:>8.0}s {:>9} {:>11}",
            out.coverage() * 100.0,
            out.mean_art_s(),
            out.total_sent(),
            out.collisions
        );
    }
    println!();
    println!("(XNP covers only the base station's radio cell; the flood never recovers losses.)");
}
