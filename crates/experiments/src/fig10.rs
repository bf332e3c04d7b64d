//! Fig. 10: completion time, active radio time, and ART without initial
//! idle listening for program sizes from 1 segment (2.9 KB) to 10 segments
//! (29 KB) in a 20×20 network.
//!
//! The paper's observations: "the completion time is linear with the
//! program size, and the active radio time is around 10% of the completion
//! time."

use std::fmt;

use crate::fig08;

/// One row of Fig. 10.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Row {
    /// Program size in segments.
    pub segments: u16,
    /// Completion time (s).
    pub completion_s: f64,
    /// Mean active radio time (s).
    pub art_s: f64,
    /// Mean ART without initial idle listening (s).
    pub art_noidle_s: f64,
}

/// The Fig. 10 sweep.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// Grid label.
    pub label: String,
    /// One row per program size.
    pub rows: Vec<Fig10Row>,
}

/// Runs the Fig. 8 scenario once per program size in `sizes` (the paper:
/// 20×20, 1–10 segments).
pub fn run(rows: usize, cols: usize, sizes: &[u16], seed: u64) -> Fig10 {
    let out_rows = sizes
        .iter()
        .map(|&segments| {
            let fig = fig08::run(rows, cols, segments, seed);
            assert!(fig.outcome.completed, "size {segments}: {}", fig.outcome);
            Fig10Row {
                segments,
                completion_s: fig.outcome.completion_s(),
                art_s: fig.outcome.mean_art_s(),
                art_noidle_s: fig.outcome.mean_art_noidle_s(),
            }
        })
        .collect();
    Fig10 {
        label: format!("{rows}x{cols} grid"),
        rows: out_rows,
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig 10: time vs program size, {} ===", self.label)?;
        writeln!(f, "segments  KB     completion(s)  ART(s)  ART-noidle(s)")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8}  {:>5.1}  {:>13.0}  {:>6.0}  {:>13.0}",
                r.segments,
                r.segments as f64 * 2.875,
                r.completion_s,
                r.art_s,
                r.art_noidle_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        completion_grows_roughly_linearly_with_size => "F10-linear",
        art_stays_below_completion => "F10-art",
    }
}
