//! X3: fail-stop resilience, plus the chaos (crash–restart and link-flap)
//! sweeps.
//!
//! The paper's loss-detection design anticipates dying senders ("the
//! reason can be the sender dies as it is sending packets"); this
//! experiment quantifies it: kill a growing fraction of nodes at random
//! instants during reprogramming and measure survivor coverage and the
//! completion-time penalty.
//!
//! The chaos sweeps ([`run_chaos_matrix`]) use the deterministic
//! [`FaultPlan`] instead of permanent kills: nodes crash and reboot with
//! their EEPROM intact, and links flap to total loss and recover. Both are
//! transient, so full coverage is still expected — the interesting output
//! is the completion-time penalty.

use std::fmt;

use mnp::Mnp;
use mnp_net::{FaultPlan, NetworkBuilder};
use mnp_radio::{LinkTable, NodeId};
use mnp_sim::{SimDuration, SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::GridSpec;

use crate::registry::{with_protocol, Disseminator, ProtocolId};
use crate::runner::{build, finish, GridExperiment};

/// One row: a kill fraction and what happened.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceRow {
    /// Fraction of non-base nodes killed.
    pub kill_fraction: f64,
    /// Nodes killed.
    pub killed: usize,
    /// Fraction of *survivors* that completed.
    pub survivor_coverage: f64,
    /// Completion time of the slowest completing survivor (s).
    pub completion_s: f64,
}

/// The resilience sweep.
#[derive(Clone, Debug)]
pub struct Resilience {
    /// Grid label.
    pub label: String,
    /// One row per kill fraction.
    pub rows: Vec<ResilienceRow>,
}

/// Runs on an `n×n` grid for each kill fraction (the paper-scale sweep:
/// 10×10, killing 0–20 % of nodes).
pub fn run(n: usize, fractions: &[f64], seed: u64) -> Resilience {
    let grid = GridSpec::new(n, n, 10.0);
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let links = GridExperiment::new(n, n, 10.0).seed(seed).sample_links();
    let rows = fractions
        .iter()
        .map(|&frac| {
            let builder = NetworkBuilder::new(links.clone(), seed);
            let mut net = build::<Mnp>(builder, &image, Mnp::config_for(&image))
                .expect("no fault plan to reject");
            // Pick victims and death times deterministically.
            let mut kill_rng = SimRng::new(seed).derive(0x6b11);
            let total = n * n;
            let kill_count = ((total - 1) as f64 * frac).round() as usize;
            let mut victims = Vec::new();
            while victims.len() < kill_count {
                let v = NodeId::from_index(1 + kill_rng.index(total - 1));
                if !victims.contains(&v) {
                    victims.push(v);
                }
            }
            for &v in &victims {
                let at = SimTime::from_millis(kill_rng.range_u64(2_000, 60_000));
                net.schedule_failure(v, at);
            }
            let survivors: Vec<NodeId> = grid.nodes().filter(|id| !victims.contains(id)).collect();
            net.run_until(
                |net| survivors.iter().all(|&s| net.protocol(s).is_complete()),
                SimTime::from_secs(2 * 3_600),
            );
            let completed = survivors
                .iter()
                .filter(|&&s| net.protocol(s).is_complete())
                .count();
            let completion = survivors
                .iter()
                .filter_map(|&s| net.trace().node(s).completion)
                .max()
                .unwrap_or_else(|| net.now());
            ResilienceRow {
                kill_fraction: frac,
                killed: kill_count,
                survivor_coverage: completed as f64 / survivors.len() as f64,
                completion_s: completion.as_secs_f64(),
            }
        })
        .collect();
    Resilience {
        label: grid.to_string(),
        rows,
    }
}

/// One chaos row: how many transient faults were injected and what
/// happened.
#[derive(Clone, Copy, Debug)]
pub struct ChaosRow {
    /// Faults injected (crash–restarts or link flaps).
    pub injected: usize,
    /// Fraction of all nodes holding the complete image at the end —
    /// restarted nodes included, since they reboot and resume.
    pub coverage: f64,
    /// Completion time of the slowest completing node (s).
    pub completion_s: f64,
}

/// The chaos sweep: transient crash–restart, link-flap, and
/// storage-fault resilience.
#[derive(Clone, Debug)]
pub struct Chaos {
    /// Grid label.
    pub label: String,
    /// The protocol that disseminated. The coded protocols go through
    /// the same transient-fault gauntlet as MNP: crash–restarts must
    /// resume from the flash prefix, flapped links must re-request or
    /// re-mix, and storage faults must retry (RLNC) or re-request (XOR)
    /// without costing coverage.
    pub protocol: ProtocolId,
    /// One row per crash–restart count.
    pub crash_rows: Vec<ChaosRow>,
    /// One row per link-flap count.
    pub flap_rows: Vec<ChaosRow>,
    /// One row per storage-fault count.
    pub storage_rows: Vec<ChaosRow>,
}

impl Chaos {
    /// Every row across all three sweeps.
    pub fn all_rows(&self) -> impl Iterator<Item = &ChaosRow> {
        self.crash_rows
            .iter()
            .chain(&self.flap_rows)
            .chain(&self.storage_rows)
    }
}

/// A seeded plan injecting `count` transient EEPROM write-fault bursts at
/// random victims and instants. [`FaultPlan`] has seeded helpers for
/// crashes and flaps but not storage, so the sampling lives here.
fn random_storage_plan(
    seed: u64,
    count: usize,
    victims: &[NodeId],
    window: (SimTime, SimTime),
) -> FaultPlan {
    let mut rng = SimRng::new(seed).derive(0x570e);
    let mut plan = FaultPlan::seeded(seed);
    for _ in 0..count {
        let node = victims[rng.index(victims.len())];
        let at = SimTime::from_micros(rng.range_u64(window.0.as_micros(), window.1.as_micros()));
        let failures = 1 + rng.index(3) as u32;
        plan = plan.storage_faults(node, at, failures);
    }
    plan
}

/// One chaos run under protocol `P`: build the seeded topology, apply the
/// plan, disseminate, and score coverage over *all* nodes.
fn chaos_one<P: Disseminator>(
    n: usize,
    seed: u64,
    plan_of: &dyn Fn(&LinkTable) -> FaultPlan,
    injected: usize,
) -> ChaosRow {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let scenario = GridExperiment::new(n, n, 10.0).seed(seed);
    let links = scenario.sample_links();
    let plan = plan_of(&links);
    let builder = NetworkBuilder::new(links, seed).faults(plan);
    let mut net =
        build::<P>(builder, &image, P::config_for(&image)).unwrap_or_else(|e| panic!("{e}"));
    let out = finish(&mut net, scenario.grid(), SimTime::from_secs(2 * 3_600));
    // The slowest *completing* node, even when someone never finished.
    let completion = out
        .trace
        .iter()
        .filter_map(|(_, node)| node.completion)
        .max()
        .unwrap_or(out.completion);
    ChaosRow {
        injected,
        coverage: out.coverage(),
        completion_s: completion.as_secs_f64(),
    }
}

/// Runs the full chaos matrix on an `n×n` grid: the chosen protocol under
/// crash–restarts, link flaps, *and* EEPROM write-fault bursts — one run
/// per count in each slice. Every fault class is transient, so full
/// coverage is expected of every protocol; the interesting output is the
/// completion-time penalty.
pub fn run_chaos_matrix(
    protocol: ProtocolId,
    n: usize,
    crashes: &[usize],
    flaps: &[usize],
    storage: &[usize],
    seed: u64,
) -> Chaos {
    let grid = GridSpec::new(n, n, 10.0);
    // Faults land while dissemination is in full swing (a single-segment
    // grid run completes in roughly a minute).
    let window = (SimTime::from_secs(2), SimTime::from_secs(40));
    let non_base: Vec<NodeId> = grid.nodes().filter(|&id| id != grid.corner()).collect();

    // One run per count, under the plan `plan_of` draws for that count.
    let sweep = |counts: &[usize], plan_of: &dyn Fn(usize, &LinkTable) -> FaultPlan| {
        let row = |count| {
            let plan_of = |links: &LinkTable| plan_of(count, links);
            with_protocol!(protocol, P => chaos_one::<P>(n, seed, &plan_of, count))
        };
        counts.iter().map(|&count| row(count)).collect()
    };
    Chaos {
        label: grid.to_string(),
        protocol,
        crash_rows: sweep(crashes, &|count, _| {
            FaultPlan::seeded(seed).random_crash_restarts(
                count,
                &non_base,
                window,
                (SimDuration::from_secs(5), SimDuration::from_secs(30)),
            )
        }),
        flap_rows: sweep(flaps, &|count, links| {
            FaultPlan::seeded(seed ^ 1).random_link_flaps(
                count,
                links,
                window,
                (SimDuration::from_secs(2), SimDuration::from_secs(15)),
            )
        }),
        storage_rows: sweep(storage, &|count, _| {
            random_storage_plan(seed ^ 2, count, &non_base, window)
        }),
    }
}

impl fmt::Display for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== X3b: chaos (transient faults), {}, protocol {} ===",
            self.label,
            self.protocol.name()
        )?;
        let section = |f: &mut fmt::Formatter<'_>, title: &str, rows: &[ChaosRow]| {
            writeln!(f, "{title}  coverage  completion(s)")?;
            for r in rows {
                writeln!(
                    f,
                    "{:>14} {:>8.1}% {:>14.0}",
                    r.injected,
                    r.coverage * 100.0,
                    r.completion_s
                )?;
            }
            Ok(())
        };
        section(f, "crash-restarts", &self.crash_rows)?;
        section(f, "link-flaps    ", &self.flap_rows)?;
        if !self.storage_rows.is_empty() {
            section(f, "storage-faults", &self.storage_rows)?;
        }
        Ok(())
    }
}

impl fmt::Display for Resilience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== X3: fail-stop resilience, {} ===", self.label)?;
        writeln!(f, "killed%  killed  survivor-coverage  completion(s)")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.0}% {:>7} {:>17.1}% {:>14.0}",
                r.kill_fraction * 100.0,
                r.killed,
                r.survivor_coverage * 100.0,
                r.completion_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FAULT_TESTED;

    crate::claims::claim_tests! {
        no_failures_baseline_is_full_coverage => "X3-failstop",
        minority_failures_keep_survivor_coverage_high => "X3-failstop",
    }

    #[test]
    fn fault_tested_protocols_survive_the_full_chaos_matrix() {
        // Crash–restarts (rebooted nodes resume from their EEPROM), link
        // flaps, and storage-fault bursts are all transient; MNP and the
        // coded dissemination paths (decode-commit retries for RLNC,
        // re-requests for XOR) must all hold full coverage.
        for name in FAULT_TESTED {
            let protocol = ProtocolId::lookup(name).unwrap();
            let c = run_chaos_matrix(protocol, 4, &[2], &[4], &[3], 505);
            assert_eq!(c.protocol, protocol);
            let rows = (c.crash_rows.len(), c.flap_rows.len(), c.storage_rows.len());
            assert_eq!(rows, (1, 1, 1));
            for r in c.all_rows() {
                assert!(
                    (r.coverage - 1.0).abs() < 1e-9,
                    "{name} lost coverage under {} transient fault(s): {c}",
                    r.injected
                );
            }
        }
    }
}
