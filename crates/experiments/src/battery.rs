//! X1: the §6 battery-aware sender-selection extension.
//!
//! "We can adjust the power level used in the advertisement message based
//! on the remaining battery level. Thus, a node whose battery level is low
//! ... advertises with lower power level. Therefore, it is likely to have
//! only a small number of followers and, hence, it will lose in the sender
//! selection. ... the probability that a sensor forwards the code to
//! others depends on its remaining battery level."
//!
//! Substrate substitution (documented in DESIGN.md): our link graph is
//! static per run, so a node's reduced advertisement power is modelled by
//! building the topology with that node's power scaled by its battery
//! level. The measured effect — forwarding load shifting onto high-battery
//! nodes — is the same mechanism the paper describes.

use std::fmt;

use mnp::Mnp;
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::SimRng;

use crate::runner::GridExperiment;

/// Forwarding share by battery quartile.
#[derive(Clone, Debug)]
pub struct Battery {
    /// Grid label.
    pub label: String,
    /// `(battery quartile lower bound, mean forward rounds per node)`.
    pub quartiles: Vec<(f64, f64)>,
    /// Whether the run completed.
    pub completed: bool,
}

/// Runs the paper-scale experiment: 10×10 grid, half the nodes with
/// degraded batteries.
pub fn run(seed: u64) -> Battery {
    run_with(10, seed)
}

/// Runs on an `n×n` grid, averaged over `runs` seeded repetitions (the
/// per-run winner is noisy; the paper's claim is about the expected
/// forwarding share). Battery levels are assigned deterministically from
/// the seed, uniform in [0.25, 1.0]; the base station always has a full
/// battery. Power scales quadratically with battery — a quarter battery
/// advertises around level 16 (≈ 12 ft range) while a full one keeps 255.
pub fn run_with(n: usize, seed: u64) -> Battery {
    let runs = 5;
    let mut sums = [0.0f64; 4];
    let mut counts = [0usize; 4];
    let mut all_completed = true;
    for rep in 0..runs {
        // Aggressive power reductions can partition the sampled topology;
        // skip to the next sub-seed until a viable one appears (a field
        // team would likewise redeploy an unreachable mote).
        let mut rep_seed = seed.wrapping_add(rep * 1_000_003);
        let (scenario, batteries) = loop {
            let mut rng = SimRng::new(rep_seed).derive(0xba77);
            let batteries: Vec<f64> = (0..n * n)
                .map(|i| {
                    if i == 0 {
                        1.0
                    } else {
                        rng.range_f64(0.25, 1.0)
                    }
                })
                .collect();
            let mut scenario = GridExperiment::new(n, n, 10.0).segments(1).seed(rep_seed);
            for (i, &b) in batteries.iter().enumerate() {
                let level = ((255.0 * b * b).round() as u8).max(1);
                scenario = scenario.node_power(NodeId::from_index(i), PowerLevel::new(level));
            }
            if scenario.is_viable() {
                break (scenario, batteries);
            }
            rep_seed = rep_seed.wrapping_add(97);
        };
        let out = scenario.run::<Mnp>(|_| {});
        all_completed &= out.completed;
        for (i, &b) in batteries.iter().enumerate().skip(1) {
            let q = (((b - 0.25) / 0.1875) as usize).min(3);
            sums[q] += out.forward_rounds[i] as f64;
            counts[q] += 1;
        }
    }
    let quartiles = (0..4)
        .map(|q| {
            let lo = 0.25 + q as f64 * 0.1875;
            (lo, sums[q] / counts[q].max(1) as f64)
        })
        .collect();
    Battery {
        label: format!("{n}x{n} grid, batteries in [0.25, 1.0], {runs} runs"),
        quartiles,
        completed: all_completed,
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== X1: battery-aware sender selection, {} ===",
            self.label
        )?;
        writeln!(f, "completed={}", self.completed)?;
        writeln!(f, "battery quartile  mean forward rounds/node")?;
        for (lo, mean) in &self.quartiles {
            writeln!(f, "[{:.2}, {:.2})       {mean:>8.2}", lo, lo + 0.1875)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_battery_nodes_forward_less() {
        let b = run_with(7, 71);
        assert!(b.completed, "dissemination must still complete");
        let lowest = b.quartiles.first().unwrap().1;
        let highest = b.quartiles.last().unwrap().1;
        assert!(
            highest >= lowest,
            "forwarding should shift to full batteries: low {lowest:.2} vs high {highest:.2}"
        );
    }

    #[test]
    fn quartiles_cover_the_battery_range() {
        let b = run_with(6, 72);
        assert_eq!(b.quartiles.len(), 4);
        assert!((b.quartiles[0].0 - 0.25).abs() < 1e-9);
    }
}
