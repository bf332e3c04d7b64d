//! Quickstart: reprogram a small sensor network with MNP.
//!
//! Builds a 5×5 grid of motes 10 ft apart, puts a 2-segment (~5.8 KB)
//! program image on the corner base station, runs MNP until every node
//! holds a verified copy, and prints what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use mnp_repro::prelude::*;

fn main() {
    // 1. Describe the deployment: a 5×5 grid at 10 ft spacing, full
    //    transmission power, and the program image to disseminate.
    let experiment = GridExperiment::new(5, 5, 10.0)
        .power(PowerLevel::FULL)
        .segments(2)
        .seed(2026);

    println!(
        "Disseminating {} across a {} ...",
        experiment.image().layout(),
        experiment.grid()
    );

    // 2. Run MNP with the paper's default configuration.
    let outcome = experiment.run::<Mnp>(|_| {});

    // 3. Report.
    assert!(outcome.completed, "dissemination failed: {outcome}");
    println!("{outcome}");
    println!();
    println!("node  parent  get-code-time  active-radio");
    for (id, s) in outcome.trace.iter() {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        let t = s
            .completion
            .map(|t| format!("{:.1}s", t.as_secs_f64()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{id:>4}  {parent:>6}  {t:>13}  {:>10.1}s",
            s.active_radio.as_secs_f64()
        );
    }
    println!();
    println!(
        "senders, in selection order: {:?}",
        outcome.trace.sender_order()
    );
    println!(
        "energy proxy: mean active radio time {:.1}s of {:.1}s completion ({:.0}%)",
        outcome.mean_art_s(),
        outcome.completion_s(),
        100.0 * outcome.mean_art_s() / outcome.completion_s()
    );
}
