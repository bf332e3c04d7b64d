//! The paper's requirements of a reprogramming service — reliable,
//! autonomous, quick, energy-saving, pipelined, collision-bounded — each
//! checked as its claim in `mnp_experiments::claims::CLAIMS` at the reduced
//! scale.

mnp_experiments::claims::claim_tests! {
    reliability_accuracy_and_coverage_on_a_multihop_grid => "R-reliable",
    autonomy_no_external_help_is_needed => "R-reliable",
    energy_sleeping_beats_always_on => "F8-sleep",
    speed_is_sane_for_the_image_size => "R-speed",
    pipelining_overlaps_segments_in_space => "A3-pipelining",
    sender_selection_keeps_collisions_bounded => "A1-selection",
    larger_program_takes_proportionally_longer => "F10-linear",
}
