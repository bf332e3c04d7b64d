//! A1–A4: ablations of MNP's design choices (DESIGN.md §6).
//!
//! | Variant | What is removed | Paper's rationale |
//! |---|---|---|
//! | full | — | the complete protocol |
//! | no-selection | sender-selection competition | §3.1: collisions return |
//! | no-sleep | radio power-down | §4.2: ART rises to completion time |
//! | no-pipelining | segment pipelining | §3.1.2: slower on multihop |
//! | no-query-update | repair phase | §3.3: recovery via full retry |

use std::fmt;

use mnp::Mnp;
use mnp_sim::SimTime;

use crate::runner::GridExperiment;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: &'static str,
    /// Whether it completed.
    pub completed: bool,
    /// Completion time (s).
    pub completion_s: f64,
    /// Mean ART (s).
    pub art_s: f64,
    /// Total collisions observed at receivers.
    pub collisions: u64,
    /// Total messages sent.
    pub messages: f64,
    /// Download failures.
    pub fails: u64,
}

/// The ablation table.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Grid label.
    pub label: String,
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

/// Runs the paper-scale ablation: 10×10 grid, 2 segments.
pub fn run(seed: u64) -> Ablation {
    run_with(10, 2, seed)
}

/// Runs on an `n×n` grid with `segments` segments.
pub fn run_with(n: usize, segments: u16, seed: u64) -> Ablation {
    let scenario = GridExperiment::new(n, n, 10.0)
        .segments(segments)
        .seed(seed)
        .deadline(SimTime::from_secs(8 * 3_600));
    type Tweak = Box<dyn Fn(&mut mnp::MnpConfig)>;
    let variants: Vec<(&'static str, Tweak)> = vec![
        ("full", Box::new(|_| {})),
        ("no-selection", Box::new(|c| c.sender_selection = false)),
        ("no-sleep", Box::new(|c| c.sleep_enabled = false)),
        ("no-pipelining", Box::new(|c| c.pipelining = false)),
        ("no-query-update", Box::new(|c| c.query_update = false)),
    ];
    let rows = variants
        .into_iter()
        .map(|(variant, tweak)| {
            let out = scenario.run::<Mnp>(|c| tweak(c));
            AblationRow {
                variant,
                completed: out.completed,
                completion_s: out.completion_s(),
                art_s: out.mean_art_s(),
                collisions: out.collisions,
                messages: out.total_sent(),
                fails: out.protocol_fails,
            }
        })
        .collect();
    Ablation {
        label: format!("{n}x{n} grid, {segments} segments"),
        rows,
    }
}

impl Ablation {
    /// The row for a variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant is unknown.
    pub fn row(&self, variant: &str) -> &AblationRow {
        self.rows
            .iter()
            .find(|r| r.variant == variant)
            .expect("known variant")
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== A1-A4: design-choice ablations, {} ===", self.label)?;
        writeln!(
            f,
            "variant           done  completion(s)  ART(s)  collisions  messages  fails"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<17} {:>5} {:>14.0} {:>7.0} {:>11} {:>9.0} {:>6}",
                r.variant, r.completed, r.completion_s, r.art_s, r.collisions, r.messages, r.fails
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_complete_on_a_small_grid() {
        let a = run_with(4, 1, 81);
        for r in &a.rows {
            assert!(r.completed, "{} failed: {a}", r.variant);
        }
    }

    #[test]
    fn no_sleep_raises_art_to_completion() {
        let a = run_with(4, 1, 82);
        let full = a.row("full");
        let nosleep = a.row("no-sleep");
        assert!(
            (nosleep.art_s - nosleep.completion_s).abs() < 1.0,
            "without sleep ART == completion: {nosleep:?}"
        );
        assert!(full.art_s <= nosleep.art_s + 1e-9);
    }
}
