//! Protocol-comparison sweeps: the same scenario run under several
//! registered protocols at each value of one swept [`Axis`].
//!
//! Every comparison in this crate asks the paper's Fig. 8/10 trio of each
//! protocol — completion time, mean active radio time, total messages
//! ([`CmpRow`]). [`deluge_cmp`](crate::deluge_cmp) is the single-point
//! case; the two campaigns here, [`loss_sweep`] (`mnp-run coded`,
//! `CODED_cmp.json`) and [`speed_sweep`] (`mnp-run mobility`,
//! `MOBILITY_cmp.json`), differ only in the scenario they build per point
//! and the protocols they name.

use std::fmt;

use mnp_sim::SimTime;

use crate::mobility::MobileExperiment;
use crate::registry::ProtocolId;
use crate::report::escape_json;
use crate::runner::{GridExperiment, Instruments, RunOutcome};

/// One protocol's row in a comparison table.
#[derive(Clone, Debug)]
pub struct CmpRow {
    /// Protocol label ([`Disseminator::LABEL`](crate::registry::Disseminator::LABEL)).
    pub protocol: &'static str,
    /// Completion time (s).
    pub completion_s: f64,
    /// Mean active radio time (s).
    pub art_s: f64,
    /// Total messages sent.
    pub messages: f64,
    /// Whether the run completed.
    pub completed: bool,
}

/// Runs each of `protocols` (registry names) through `run` and tabulates
/// the outcomes, in the order given.
///
/// # Panics
///
/// Panics if a name is not in the registry.
pub(crate) fn measure(protocols: &[&str], run: impl Fn(ProtocolId) -> RunOutcome) -> Vec<CmpRow> {
    protocols
        .iter()
        .map(|name| {
            let id = ProtocolId::lookup(name).expect("sweep protocols come from the registry");
            let out = run(id);
            CmpRow {
                protocol: id.label(),
                completion_s: out.completion_s(),
                art_s: out.mean_art_s(),
                messages: out.total_sent(),
                completed: out.completed,
            }
        })
        .collect()
}

/// Writes the comparison table (header + one line per row).
pub(crate) fn write_table(f: &mut fmt::Formatter<'_>, rows: &[CmpRow]) -> fmt::Result {
    writeln!(
        f,
        "protocol     completed  completion(s)  mean ART(s)  messages"
    )?;
    for r in rows {
        writeln!(
            f,
            "{:<12} {:>9} {:>14.0} {:>12.0} {:>9.0}",
            r.protocol, r.completed, r.completion_s, r.art_s, r.messages
        )?;
    }
    Ok(())
}

/// The quantity a [`Sweep`] varies — and with it the wording of the
/// sweep's table and the key of its JSON artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Independent per-link packet-loss probability (`CODED_cmp.json`).
    Loss,
    /// Random-waypoint node speed in ft/s (`MOBILITY_cmp.json`).
    Speed,
}

/// All protocol rows measured at one value of the swept axis.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The axis value.
    pub x: f64,
    /// One row per protocol, in the sweep's protocol order.
    pub rows: Vec<CmpRow>,
}

/// A finished comparison sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// What was swept.
    pub axis: Axis,
    /// Scenario label.
    pub label: String,
    /// One point per axis value, in sweep order.
    pub points: Vec<SweepPoint>,
}

/// Runs every protocol in `protocols` at every axis value in `xs`;
/// `run(x, protocol)` is one run of the sweep's scenario at `x`.
fn sweep(
    axis: Axis,
    label: String,
    xs: &[f64],
    protocols: &[&str],
    run: impl Fn(f64, ProtocolId) -> RunOutcome,
) -> Sweep {
    assert!(!xs.is_empty(), "empty sweep");
    let points = xs
        .iter()
        .map(|&x| SweepPoint {
            x,
            rows: measure(protocols, |id| run(x, id)),
        })
        .collect();
    Sweep {
        axis,
        label,
        points,
    }
}

/// The loss-sweep campaign: MNP vs Deluge vs the coded family (RLNC, XOR
/// recoding) on a `rows × cols` grid while an independent per-link
/// packet-loss probability sweeps upward
/// ([`GridExperiment::extra_loss`]). The question it answers: where on
/// the loss axis does coding's "any innovative packet helps" property
/// beat the per-packet request/repair dance, and what does the cheap XOR
/// recoder recover of that gain.
pub fn loss_sweep(rows: usize, cols: usize, segments: u16, seed: u64, losses: &[f64]) -> Sweep {
    let scenario = GridExperiment::new(rows, cols, 10.0)
        .segments(segments)
        .seed(seed)
        .deadline(SimTime::from_secs(8 * 3_600));
    let label = format!("{rows}x{cols} grid, {segments} segments, seed {seed}, losses {losses:?}");
    let protocols = ["mnp", "deluge", "rlnc", "xor"];
    sweep(Axis::Loss, label, losses, &protocols, |loss, id| {
        let lossy = scenario.clone().extra_loss(loss);
        lossy.run_named(id, Instruments::default())
    })
}

/// The mobility-sweep campaign: MNP vs Deluge vs RLNC over `nodes` motes
/// as the random-waypoint speed rises. The field, seed, and image are
/// held fixed, so every point starts from the *same* `t = 0` topology
/// (the shadow draws are speed-independent) and differs only in how fast
/// links churn underneath the protocols. The question it answers: how
/// much completion time and radio energy does each dissemination strategy
/// pay per ft/s of motion, and where does coding's indifference to
/// *which* packet arrives start to win.
///
/// Seeds whose initial topology is partitioned are skipped forward (up to
/// 32 redraws) so the sweep always starts from a viable field.
pub fn speed_sweep(nodes: usize, segments: u16, seed: u64, speeds: &[f64]) -> Sweep {
    // Viability at t = 0 is speed-independent, so one reseed serves the
    // whole sweep and every point still shares its initial topology.
    let mut scenario = MobileExperiment::new(nodes).segments(segments).seed(seed);
    for bump in 0..32 {
        if scenario.is_viable() {
            break;
        }
        assert!(bump < 31, "no viable seed within 32 draws of {seed}");
        scenario = scenario.seed(seed.wrapping_add(bump + 1));
    }
    let seed = scenario.seed_value();
    let label = format!(
        "{nodes} nodes, random waypoint, {segments} segments, seed {seed}, speeds {speeds:?} ft/s"
    );
    sweep(
        Axis::Speed,
        label,
        speeds,
        &["mnp", "deluge", "rlnc"],
        |speed, id| {
            let moving = scenario.clone().speed(speed);
            moving.run_named(id, Instruments::default())
        },
    )
}

impl Sweep {
    /// Every row of every point.
    pub fn rows(&self) -> impl Iterator<Item = &CmpRow> {
        self.points.iter().flat_map(|p| &p.rows)
    }

    /// Renders the sweep as its `*_cmp.json` artifact (schema v1).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema_version\": 1,\n");
        s.push_str(&format!(
            "  \"label\": \"{}\",\n  \"points\": [\n",
            escape_json(&self.label)
        ));
        for (i, p) in self.points.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&match self.axis {
                Axis::Loss => format!("      \"loss\": {:.4},\n", p.x),
                Axis::Speed => format!("      \"speed_ft_s\": {:.3},\n", p.x),
            });
            s.push_str("      \"protocols\": [\n");
            for (j, r) in p.rows.iter().enumerate() {
                s.push_str(&format!(
                    "        {{ \"protocol\": \"{}\", \"completed\": {}, \
                     \"completion_s\": {:.3}, \"mean_art_s\": {:.3}, \"messages\": {:.0} }}{}\n",
                    r.protocol,
                    r.completed,
                    r.completion_s,
                    r.art_s,
                    r.messages,
                    if j + 1 < p.rows.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let title = match self.axis {
            Axis::Loss => "Coded",
            Axis::Speed => "Mobility",
        };
        writeln!(f, "=== {title} comparison: {} ===", self.label)?;
        for p in &self.points {
            match self.axis {
                Axis::Loss => writeln!(f, "--- extra loss {:.0}% ---", p.x * 100.0)?,
                Axis::Speed => writeln!(f, "--- speed {:.1} ft/s ---", p.x)?,
            }
            write_table(f, &p.rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every point has one completed row per label, and the JSON artifact
    /// carries the schema version, the axis key and every label.
    fn assert_covers(cmp: &Sweep, labels: &[&str], axis_entry: &str) {
        assert_eq!(cmp.points.len(), 2);
        for p in &cmp.points {
            assert_eq!(p.rows.len(), labels.len());
            for (r, name) in p.rows.iter().zip(labels) {
                assert_eq!(r.protocol, *name);
                assert!(r.completed, "{name} must complete at {}", p.x);
            }
        }
        let json = cmp.to_json();
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        assert!(json.contains(axis_entry), "{json}");
        for name in labels {
            assert!(
                json.contains(&format!("\"protocol\": \"{name}\"")),
                "{json}"
            );
        }
    }

    #[test]
    fn loss_sweep_covers_every_protocol_at_every_loss() {
        let cmp = loss_sweep(3, 3, 1, 51, &[0.0, 0.15]);
        assert_covers(
            &cmp,
            &["MNP", "Deluge-like", "RLNC", "XOR"],
            "\"loss\": 0.1500",
        );
    }

    #[test]
    fn loss_slows_every_protocol() {
        let cmp = loss_sweep(3, 3, 1, 53, &[0.0, 0.25]);
        for (clean, lossy) in cmp.points[0].rows.iter().zip(&cmp.points[1].rows) {
            assert!(
                lossy.completion_s > clean.completion_s,
                "{}: {:.0}s clean vs {:.0}s lossy",
                clean.protocol,
                clean.completion_s,
                lossy.completion_s
            );
        }
    }

    #[test]
    fn speed_sweep_covers_every_protocol_at_every_speed() {
        let cmp = speed_sweep(9, 1, 2, &[0.0, 2.0]);
        assert_covers(
            &cmp,
            &["MNP", "Deluge-like", "RLNC"],
            "\"speed_ft_s\": 2.000",
        );
    }
}
