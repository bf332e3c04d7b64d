//! Regenerates every table and figure of the paper's evaluation section.
//!
//! This is the harness behind EXPERIMENTS.md: each block prints the same
//! rows/series the paper reports (Table 1, Figs. 5–13), plus the §5
//! Deluge comparison, the diagonal-propagation check, the §6 battery
//! extension, and the design-choice ablations.
//!
//! Run with: `cargo run --release --example reproduce_all`
//! (About ten seconds; the 20×20 simulations dominate. The output is
//! checked in as `EXPERIMENTS.txt` and compared in CI.)

use mnp_experiments as exp;

fn main() {
    let seed = 42;

    println!("{}", exp::table1::run());

    println!("{}", exp::fig05::run(seed));
    println!("{}", exp::fig06::run(seed));
    println!("{}", exp::fig07::run(seed));

    // Figs. 8, 9, 11 and 12 share one 20×20 / 4-segment run.
    let fig8 = exp::fig08::run(seed);
    println!("{fig8}");
    println!("{}", exp::fig11::report(&fig8.outcome));
    println!("{}", exp::fig12::report(&fig8.outcome));

    println!("{}", exp::fig10::run(seed));
    println!("{}", exp::fig13::run(seed));

    println!("{}", exp::deluge_cmp::run(seed));
    println!("{}", exp::diagonal::run(seed));
    println!("{}", exp::battery::run(seed));
    println!("{}", exp::subsets::run(seed));
    println!("{}", exp::resilience::run(seed));
    println!("{}", exp::resilience::run_chaos(seed));
    println!("{}", exp::capture::run(seed));
    println!("{}", exp::ablation::run(seed));
}
