//! Energy budgeting: what does one reprogramming cost each mote?
//!
//! The paper motivates MNP with network lifetime: "the amount of energy
//! consumed in network reprogramming may directly affect network
//! lifetime". This example runs one dissemination, folds the operation
//! counts through Table 1, and expresses the result as a fraction of a
//! Mica-2's battery (2 × AA ≈ 2500 mAh), for MNP and for the always-on
//! Deluge baseline.
//!
//! Run with: `cargo run --release --example energy_budget`

use mnp_repro::energy::OperationCosts;
use mnp_repro::prelude::*;

const BATTERY_MAH: f64 = 2_500.0;

fn main() {
    let scenario = GridExperiment::new(10, 10, 10.0).segments(4).seed(77);
    println!(
        "image {} over a {}; battery budget {} mAh per mote",
        scenario.image().layout(),
        scenario.grid(),
        BATTERY_MAH
    );

    for (name, outcome) in [
        (Mnp::LABEL, scenario.run::<Mnp>(|_| {})),
        (Deluge::LABEL, scenario.run::<Deluge>(|_| {})),
    ] {
        assert!(outcome.completed, "{name} failed: {outcome}");
        // Reconstruct per-node charge from the trace: the harness folded
        // meters into the trace already; recompute the breakdown from the
        // observable counters.
        let costs = OperationCosts::MICA2;
        let mut total_nah = 0.0;
        let mut worst_nah = 0.0f64;
        for (_, s) in outcome.trace.iter() {
            let mut meter = mnp_repro::energy::EnergyMeter::new();
            for _ in 0..s.sent {
                meter.record_tx(SimDuration::from_millis(20));
            }
            for _ in 0..s.received {
                meter.record_rx(SimDuration::from_millis(20));
            }
            meter.set_active_radio(s.active_radio);
            let nah = meter.breakdown(&costs).total_nah();
            total_nah += nah;
            worst_nah = worst_nah.max(nah);
        }
        let n = outcome.trace.len() as f64;
        let mean_nah = total_nah / n;
        let mean_pct = mean_nah / (BATTERY_MAH * 1e6) * 100.0;
        let worst_pct = worst_nah / (BATTERY_MAH * 1e6) * 100.0;
        println!(
            "{name:<12} completion {:>5.0}s | mean {:>9.0} nAh/node ({mean_pct:.4}% of battery) | worst node {:>9.0} nAh ({worst_pct:.4}%)",
            outcome.completion_s(),
            mean_nah,
            worst_nah,
        );
    }
    println!();
    println!("(Idle listening dominates both budgets — the paper's point — but MNP's");
    println!(" sleeping cuts it by the active-radio-time ratio shown above.)");
}
