//! Fig. 6: outdoor experiments — 7×7 grid (49 motes) on a grass field,
//! full power (255) and power 50, 100-packet image.
//!
//! Observation to reproduce: "the nodes that are away from the base
//! station are more likely to become senders" and lower power ⇒ more
//! senders, more hops.

use mnp_radio::PowerLevel;

use crate::runner::{run_mote_figure, MoteFigure};

/// Runs Fig. 6. Outdoor spacing is reconstructed as 10 ft (see
/// EXPERIMENTS.md).
pub fn run(seed: u64) -> MoteFigure {
    run_mote_figure(
        "Fig 6: outdoor 7x7 grid @ 10 ft, full power and power 50",
        7,
        7,
        10.0,
        &[PowerLevel::FULL, PowerLevel::new(50)],
        100,
        seed,
    )
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        lower_power_means_more_senders => "F6-senders",
        senders_sit_away_from_the_base => "F6-far",
    }
}
