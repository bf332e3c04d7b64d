//! Transmission power levels.

use std::fmt;

/// A CC1000 transmission power level, as exposed by TinyOS (1–255).
///
/// The paper's mote experiments vary the power level to control how many
/// hops the 5×5 / 7×7 / 2×10 grids span: indoor runs use "the lowest power
/// levels (3 and 9)", outdoor runs use 50 and full power (255, the TinyOS
/// default).
///
/// Output power is roughly logarithmic in the register value; we model the
/// resulting *communication range* with a power-law fit
/// `range = max_range · (level/255)^0.40`, calibrated so that the paper's
/// setups reproduce their reported hop structure (see
/// `mnp-topology::loss` for how range feeds the link error model).
///
/// # Example
///
/// ```
/// use mnp_radio::PowerLevel;
///
/// assert!(PowerLevel::FULL.range_ft() > PowerLevel::new(3).range_ft());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PowerLevel(u8);

impl PowerLevel {
    /// Full power, the TinyOS default (register value 255).
    pub const FULL: PowerLevel = PowerLevel(255);

    /// Nominal communication range at full power, in feet.
    ///
    /// Mica-2 documentation quotes hundreds of feet line-of-sight, but
    /// practical ground-level range with the integrated antenna is far
    /// shorter. 35 ft makes the paper's deployments reproduce their
    /// reported hop structure: the 20×20 grid at 10 ft spacing is
    /// multihop (range ≈ 3.5 cells), while the indoor 5×5 grid at 3 ft
    /// needs relaying only at the lowest power levels.
    pub(crate) const MAX_RANGE_FT: f64 = 35.0;

    /// Creates a power level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero: TinyOS power levels start at 1.
    pub fn new(level: u8) -> Self {
        assert!(level >= 1, "CC1000 power levels are 1..=255");
        PowerLevel(level)
    }

    /// The raw register value.
    pub fn level(self) -> u8 {
        self.0
    }

    /// Nominal communication range in feet at this power level.
    ///
    /// Beyond this range the bit error rate of the loss model rises steeply;
    /// see [`crate::loss`].
    pub fn range_ft(self) -> f64 {
        Self::MAX_RANGE_FT * (f64::from(self.0) / 255.0).powf(0.40)
    }
}

impl Default for PowerLevel {
    fn default() -> Self {
        PowerLevel::FULL
    }
}

impl fmt::Display for PowerLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "power({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_is_monotone_in_level() {
        let mut prev = 0.0;
        for level in [1u8, 3, 9, 50, 128, 255] {
            let r = PowerLevel::new(level).range_ft();
            assert!(r > prev, "range must increase with power");
            prev = r;
        }
    }

    #[test]
    fn full_power_reaches_max_range() {
        assert!((PowerLevel::FULL.range_ft() - PowerLevel::MAX_RANGE_FT).abs() < 1e-9);
    }

    #[test]
    fn paper_power_levels_give_short_indoor_ranges() {
        // At 3 ft node spacing, power 3 must not cover the whole 5×5 grid
        // (12 ft corner-to-corner along an edge) while power 255 must.
        let p3 = PowerLevel::new(3).range_ft();
        let p9 = PowerLevel::new(9).range_ft();
        assert!(p3 < 6.0, "power 3 range {p3} ft should force multi-hop");
        assert!(
            (5.0..12.0).contains(&p9),
            "power 9 range {p9} ft should cover much of the grid"
        );
        assert!(PowerLevel::FULL.range_ft() > 17.0);
    }

    #[test]
    #[should_panic(expected = "1..=255")]
    fn zero_power_rejected() {
        let _ = PowerLevel::new(0);
    }

    #[test]
    fn display_and_default() {
        assert_eq!(PowerLevel::default(), PowerLevel::FULL);
        assert_eq!(PowerLevel::new(9).to_string(), "power(9)");
    }
}
