//! Distance-based link loss: the TOSSIM-style empirical error model.
//!
//! TOSSIM decides, for every directed edge independently, a bit error
//! probability drawn from empirical loss data gathered on real motes; error
//! rates grow with distance and links are asymmetric. This module implements
//! a curve with those properties:
//!
//! 1. Normalise distance by the transmitter's nominal range:
//!    `x = distance / range(power)`.
//! 2. Perturb `x` per-edge with lognormal-ish shadowing so the two
//!    directions of a link differ (asymmetry) and equal-distance links
//!    differ from each other.
//! 3. Map the perturbed `x` to a *packet* error rate through a sigmoid
//!    centred at `x = 0.85` (links are near-perfect well inside range,
//!    unusable well outside, and unreliable in a wide "grey region" — the
//!    well-documented shape of real mote links).
//! 4. Convert the packet error rate at the reference frame length to a
//!    per-bit error probability, which the medium then applies to each
//!    frame's true length.

use mnp_sim::SimRng;

use crate::packet::{FRAME_OVERHEAD_BYTES, MAX_PAYLOAD_BYTES};

/// Centre of the grey region, as a fraction of nominal range.
const GREY_CENTRE: f64 = 0.85;
/// Width parameter of the grey region sigmoid.
const GREY_WIDTH: f64 = 0.10;
/// Standard deviation of the per-edge shadowing factor.
const SHADOWING_SIGMA: f64 = 0.12;
/// Frame length (bits) at which the empirical packet error rate is defined.
const REFERENCE_BITS: f64 = ((FRAME_OVERHEAD_BYTES + MAX_PAYLOAD_BYTES) * 8) as f64;

/// Expected packet error rate at normalised distance `x` (no shadowing).
///
/// `x` is `distance / nominal_range`. The result is in `[0, 1]`, increasing,
/// ≈0 for `x ≪ 0.85` and ≈1 for `x ≫ 0.85`.
///
/// # Example
///
/// ```
/// use mnp_radio::loss::packet_error_rate;
///
/// assert!(packet_error_rate(0.3) < 0.01);
/// assert!(packet_error_rate(1.5) > 0.99);
/// ```
pub fn packet_error_rate(x: f64) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return 0.0;
    }
    1.0 / (1.0 + (-(x - GREY_CENTRE) / GREY_WIDTH).exp())
}

/// Converts a packet error rate at the reference frame length into a
/// per-bit error probability.
///
/// Solves `per = 1 - (1 - ber)^REFERENCE_BITS` for `ber`.
pub(crate) fn per_to_ber(per: f64) -> f64 {
    let per = per.clamp(0.0, 1.0 - 1e-12);
    1.0 - (1.0 - per).powf(1.0 / REFERENCE_BITS)
}

/// Samples the bit error rate of one directed edge.
///
/// `distance_ft` separates transmitter and receiver; `range_ft` is the
/// transmitter's nominal range at its power level. Each call consumes
/// randomness, so sampling the two directions of a link yields asymmetric
/// qualities, exactly as TOSSIM's "bit-error rate for each edge is decided
/// independently".
///
/// Returns `None` when the edge is out of audible range (beyond 1.4× the
/// nominal range the sigmoid is ≈1 and the edge would only waste simulator
/// work; dropping it also defines the carrier-sense audibility set).
pub fn sample_edge_ber(distance_ft: f64, range_ft: f64, rng: &mut SimRng) -> Option<f64> {
    edge_ber_with_shadow(distance_ft, range_ft, sample_shadow(rng))
}

/// Draws the per-edge shadowing factor [`sample_edge_ber`] perturbs
/// distance with (clamped below at 0.25 so a lucky draw cannot make an
/// edge arbitrarily long-range).
///
/// Exposed so mobile topologies can fix an edge's shadowing once and
/// re-evaluate only the geometry as nodes move (see
/// [`edge_ber_with_shadow`]): link quality then tracks motion instead of
/// flickering with fresh noise every re-link tick, and a zero-speed
/// mobile scenario degenerates to a static one.
pub fn sample_shadow(rng: &mut SimRng) -> f64 {
    (1.0 + SHADOWING_SIGMA * gaussian(rng)).max(0.25)
}

/// The bit error rate of an edge at `distance_ft` under a fixed,
/// already-drawn shadowing factor; `None` beyond the audible cutoff.
/// [`sample_edge_ber`] is exactly `edge_ber_with_shadow(d, range,
/// sample_shadow(rng))`.
pub fn edge_ber_with_shadow(distance_ft: f64, range_ft: f64, shadow: f64) -> Option<f64> {
    assert!(distance_ft >= 0.0 && range_ft > 0.0, "bad geometry");
    let x = (distance_ft / range_ft) * shadow;
    if x > 1.4 {
        return None;
    }
    Some(per_to_ber(packet_error_rate(x)))
}

/// The audible cutoff, in feet, of a transmitter with nominal range
/// `range_ft` under shadowing factor `shadow`: the largest distance at
/// which [`edge_ber_with_shadow`] still returns `Some`.
pub fn audible_limit_ft(range_ft: f64, shadow: f64) -> f64 {
    1.4 * range_ft / shadow
}

/// The bit error rate at which a full-length data frame still gets
/// through half the time — the threshold for counting a link as *usable*
/// in connectivity checks.
pub fn usable_ber_threshold() -> f64 {
    per_to_ber(0.5)
}

/// Probability that a frame of `bits` bits survives a link with bit error
/// rate `ber`.
pub fn frame_success_probability(ber: f64, bits: u32) -> f64 {
    (1.0 - ber.clamp(0.0, 1.0)).powi(bits as i32)
}

/// A standard normal variate via Box–Muller (polar-free form is fine here).
fn gaussian(rng: &mut SimRng) -> f64 {
    let u1 = rng.unit().max(1e-12);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_is_monotone() {
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.01;
            let p = packet_error_rate(x);
            assert!(p >= prev, "PER must not decrease with distance");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn per_edge_cases() {
        assert_eq!(packet_error_rate(0.0), 0.0);
        assert_eq!(packet_error_rate(-3.0), 0.0);
        assert_eq!(packet_error_rate(f64::NAN), 0.0);
    }

    #[test]
    fn per_to_ber_round_trips() {
        for per in [0.01, 0.1, 0.5, 0.9] {
            let ber = per_to_ber(per);
            let back = 1.0 - frame_success_probability(ber, REFERENCE_BITS as u32);
            assert!((back - per).abs() < 1e-6, "per {per} → ber {ber} → {back}");
        }
    }

    #[test]
    fn close_links_are_nearly_perfect() {
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let ber = sample_edge_ber(10.0, 100.0, &mut rng).expect("in range");
            let success = frame_success_probability(ber, 376);
            assert!(success > 0.95, "close link success {success}");
        }
    }

    #[test]
    fn far_links_are_dropped_or_terrible() {
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            match sample_edge_ber(160.0, 100.0, &mut rng) {
                None => {}
                Some(ber) => {
                    let success = frame_success_probability(ber, 376);
                    assert!(success < 0.35, "far link success {success}");
                }
            }
        }
    }

    #[test]
    fn grey_region_links_are_lossy_but_usable() {
        let mut rng = SimRng::new(3);
        let mut successes = Vec::new();
        for _ in 0..500 {
            if let Some(ber) = sample_edge_ber(80.0, 100.0, &mut rng) {
                successes.push(frame_success_probability(ber, 376));
            }
        }
        let avg = successes.iter().sum::<f64>() / successes.len() as f64;
        assert!(avg > 0.3 && avg < 0.95, "grey region average success {avg}");
    }

    #[test]
    fn directions_are_asymmetric() {
        let mut rng = SimRng::new(4);
        let a = sample_edge_ber(70.0, 100.0, &mut rng);
        let b = sample_edge_ber(70.0, 100.0, &mut rng);
        assert_ne!(a, b, "independent samples should differ");
    }

    #[test]
    fn gaussian_is_centred() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean = (0..n).map(|_| gaussian(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "gaussian mean {mean}");
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn zero_range_rejected() {
        let mut rng = SimRng::new(6);
        let _ = sample_edge_ber(10.0, 0.0, &mut rng);
    }
}
