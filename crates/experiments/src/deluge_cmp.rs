//! C1: the §5 quantitative comparison with Deluge.
//!
//! "In contrast to MNP, Deluge ... requires that radio is always on during
//! reprogramming. Therefore a node's idle listening time is the same as
//! the completion time. ... MNP saves energy by turning off a node's radio
//! when it is not supposed to transmit or receive." The paper's numbers:
//! for a ~same-size image on a 20×20 grid, MNP's average active radio time
//! is an order of magnitude below the completion time, while Deluge's
//! equals it.

use std::fmt;

use mnp_sim::SimTime;

use crate::runner::{GridExperiment, Instruments};
use crate::sweep::{measure, write_table, CmpRow};

/// The comparison result.
#[derive(Clone, Debug)]
pub struct DelugeCmp {
    /// Grid label.
    pub label: String,
    /// MNP and Deluge rows.
    pub rows: Vec<CmpRow>,
}

/// Runs MNP and Deluge-like over one `rows × cols` grid with a
/// `segments`-segment image (the paper: 20×20, 2 segments = 5.75 KB).
pub fn run(rows: usize, cols: usize, segments: u16, seed: u64) -> DelugeCmp {
    let scenario = GridExperiment::new(rows, cols, 10.0)
        .segments(segments)
        .seed(seed)
        .deadline(SimTime::from_secs(8 * 3_600));
    DelugeCmp {
        label: format!("{rows}x{cols} grid, {segments} segments"),
        rows: measure(&["mnp", "deluge"], |id| {
            scenario.run_named(id, Instruments::default())
        }),
    }
}

impl DelugeCmp {
    /// Ratio of Deluge's mean ART to MNP's (the headline energy claim).
    pub fn art_ratio(&self) -> f64 {
        self.rows[1].art_s / self.rows[0].art_s.max(1e-9)
    }
}

impl fmt::Display for DelugeCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== C1: MNP vs Deluge, {} ===", self.label)?;
        write_table(f, &self.rows)?;
        writeln!(
            f,
            "Deluge/MNP active-radio-time ratio: {:.1}x",
            self.art_ratio()
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        mnp_spends_far_less_radio_time_than_deluge => "C1-art",
        deluge_art_equals_its_completion_time => "C1-always-on",
    }
}
