//! Regenerates every table and figure of the paper's evaluation and
//! checks every claim it rests on.
//!
//! This is the harness behind EXPERIMENTS.md: stdout is the same
//! rows/series the paper reports (Table 1, Figs. 5–13), plus the §5
//! Deluge comparison, the diagonal-propagation check, the §6 extensions,
//! the resilience sweeps and the design-choice ablations. stderr gets one
//! verdict line per claim of `mnp_experiments::claims::CLAIMS`, and the
//! exit status is non-zero if any claim misses.
//!
//! Run with: `cargo run --release --example reproduce_all`
//! (About ten seconds; the 20×20 simulations dominate. stdout is checked
//! in as `EXPERIMENTS.txt` and compared in CI.)

use mnp_experiments::claims::{Results, CLAIMS};

fn main() {
    let results = Results::paper(42);
    print!("{results}");
    let mut missed = 0;
    for claim in CLAIMS {
        match (claim.holds)(&results) {
            Ok(()) => eprintln!("holds   {}", claim.id),
            Err(why) => {
                missed += 1;
                eprintln!("MISSED  {}: {why}", claim.id);
            }
        }
    }
    if missed > 0 {
        eprintln!("{missed} of {} claims missed", CLAIMS.len());
        std::process::exit(1);
    }
}
