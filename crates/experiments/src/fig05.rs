//! Fig. 5: indoor experiments — 5×5 grid in a classroom at 3 ft spacing,
//! "the lowest power levels (3 and 9)", 100-packet (2.3 KB) image.
//!
//! Reported per run: completion time, each node's parent and get-code
//! time, and the order in which nodes became senders. The paper's
//! observations to reproduce: at power 9 "most of the sensors receive code
//! directly from the base station" with only a couple of extra senders; at
//! power 3 more nodes must relay.

use mnp_radio::PowerLevel;

use crate::runner::{run_mote_figure, MoteFigure};

/// Runs Fig. 5 at the paper's geometry.
pub fn run(seed: u64) -> MoteFigure {
    run_mote_figure(
        "Fig 5: indoor 5x5 grid @ 3 ft, power levels 9 and 3",
        5,
        5,
        3.0,
        &[PowerLevel::new(9), PowerLevel::new(3)],
        100,
        seed,
    )
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        both_power_levels_complete_and_low_power_needs_more_senders => "F5-senders",
        high_power_serves_most_nodes_directly_from_base => "F5-direct",
    }
}
