//! The design-choice ablations (DESIGN.md A1–A4), each checked as its
//! claim in `mnp_experiments::claims::CLAIMS` at the reduced scale.

mnp_experiments::claims::claim_tests! {
    ablation_table_covers_all_variants => "R-reliable",
    no_sleep_costs_energy => "A2-sleep",
    no_selection_inflates_collisions_or_traffic => "A1-selection",
    no_pipelining_slows_multisegment_multihop => "A3-pipelining",
    query_update_reduces_failures_on_lossy_networks => "A4-repair",
}
