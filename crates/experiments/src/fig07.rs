//! Fig. 7: outdoor experiments — 2×10 grid (20 motes), full power and
//! power 50, 100-packet image. "The purpose of using this 2×10 grid
//! topology is to better examine multi-hop behavior."

use mnp_radio::PowerLevel;

use crate::runner::{run_mote_figure, MoteFigure};

/// Runs Fig. 7. Outdoor spacing is reconstructed as 10 ft.
pub fn run(seed: u64) -> MoteFigure {
    run_mote_figure(
        "Fig 7: outdoor 2x10 grid @ 10 ft, full power and power 50",
        2,
        10,
        10.0,
        &[PowerLevel::FULL, PowerLevel::new(50)],
        100,
        seed,
    )
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        long_strip_is_multihop_at_both_powers => "F7-multihop",
        completion_propagates_down_the_strip => "F7-multihop",
    }
}
