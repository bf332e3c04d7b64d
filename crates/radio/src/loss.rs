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
/// Lower clamp of the shadowing factor, so a lucky draw cannot make an edge
/// arbitrarily long-range.
const SHADOW_FLOOR: f64 = 0.25;
/// Audible cutoff on the shadowed normalised distance `x`.
const AUDIBLE_X: f64 = 1.4;
/// Relative slack on the audibility prefilter of [`sample_edge_ber`]: a
/// pair within this of a bound takes the full path. It dwarfs the full
/// path's rounding error (~1e-15), which keeps the prefilter exact.
const PREFILTER_MARGIN: f64 = 1e-9;
/// [`AUDIBLE_X`] widened by [`PREFILTER_MARGIN`]: the cutoff the
/// prefilter's bounds are drawn against.
const PREFILTER_X: f64 = AUDIBLE_X * (1.0 + PREFILTER_MARGIN);
/// Normalised distance beyond which no shadowing draw is audible:
/// `x >= q · SHADOW_FLOOR > AUDIBLE_X`.
const PREFILTER_REACH: f64 = PREFILTER_X / SHADOW_FLOOR;
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
#[inline]
pub fn sample_edge_ber(distance_ft: f64, range_ft: f64, rng: &mut SimRng) -> Option<f64> {
    assert!(distance_ft >= 0.0 && range_ft > 0.0, "bad geometry");
    let (u1, u2) = box_muller_draws(rng);
    edge_ber_from_draws(distance_ft, range_ft, u1, u2)
}

/// [`sample_edge_ber`] after its two draws: exactly
/// `edge_ber_with_shadow(d, range, shadow_of(gaussian((u1, u2))))`, but
/// decides most inaudible pairs without any transcendental maths.
///
/// With `q = d / range`, the edge is audible only if the shadow factor is
/// at most `AUDIBLE_X / q`. Three exact bounds rule that out early:
/// - *reach*: the factor is at least `SHADOW_FLOOR`, so `q > 5.6` is never
///   audible, whatever the draws;
/// - *sign*: for `q > 1.4` the Gaussian must be negative, and its sign is
///   that of `cos(2π u2)`, so `u2` outside `(¼, ¾)` is never audible;
/// - *draw*: for `q > 1.4` the Gaussian must also be at most
///   `g_max = (AUDIBLE_X / q − 1) / σ < 0`, and Box–Muller's variate is at
///   least `−√(−2 ln u1)`; as `−ln u ≤ (1 − u) / u`, the edge is inaudible
///   whenever `2 (1 − u1) / u1 < g_max²`.
///
/// The bounds are tested multiplied out by `range`, `u1` and `(σ d)²`, so
/// they divide nothing. Each carries [`PREFILTER_MARGIN`], far above the
/// few ulps of rounding in that arithmetic; every other pair runs the full
/// path bit for bit.
#[inline]
fn edge_ber_from_draws(distance_ft: f64, range_ft: f64, u1: f64, u2: f64) -> Option<f64> {
    let d = distance_ft;
    if d > reach_ft(range_ft) {
        return None;
    }
    // The distance at which `g_max` reaches zero.
    let cutoff = PREFILTER_X * range_ft;
    if d > cutoff {
        let non_negative = u2 <= 0.25 - PREFILTER_MARGIN || u2 >= 0.75 + PREFILTER_MARGIN;
        // `g_max = slack / (σ d)`.
        let slack = cutoff - d;
        let sigma_d = SHADOWING_SIGMA * d;
        let too_short = 2.0 * (1.0 - u1) * sigma_d * sigma_d < slack * slack * u1;
        if non_negative | too_short {
            return None;
        }
    }
    full_path(d, range_ft, u1, u2)
}

/// What [`edge_ber_from_draws`] computes for a pair no bound decides:
/// out of line, so callers inline only the cheap bounds.
#[inline(never)]
fn full_path(distance_ft: f64, range_ft: f64, u1: f64, u2: f64) -> Option<f64> {
    edge_ber_with_shadow(distance_ft, range_ft, shadow_of(gaussian((u1, u2))))
}

/// How many draws one [`sample_edge_ber`] call takes from its stream,
/// whatever it returns.
pub const EDGE_DRAWS: u64 = 2;

/// The distance, in feet, beyond which no shadowing draw makes an edge
/// from a transmitter of nominal range `range_ft` audible:
/// [`sample_edge_ber`] returns `None` there without looking at its draws.
pub fn reach_ft(range_ft: f64) -> f64 {
    PREFILTER_REACH * range_ft
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
    shadow_of(gaussian(box_muller_draws(rng)))
}

/// The shadowing factor for a standard normal variate `g`.
fn shadow_of(g: f64) -> f64 {
    (1.0 + SHADOWING_SIGMA * g).max(SHADOW_FLOOR)
}

/// The bit error rate of an edge at `distance_ft` under a fixed,
/// already-drawn shadowing factor; `None` beyond the audible cutoff.
/// [`sample_edge_ber`] returns exactly `edge_ber_with_shadow(d, range,
/// sample_shadow(rng))` and leaves `rng` in the same state.
pub fn edge_ber_with_shadow(distance_ft: f64, range_ft: f64, shadow: f64) -> Option<f64> {
    assert!(distance_ft >= 0.0 && range_ft > 0.0, "bad geometry");
    let x = (distance_ft / range_ft) * shadow;
    if x > AUDIBLE_X {
        return None;
    }
    Some(per_to_ber(packet_error_rate(x)))
}

/// The audible cutoff, in feet, of a transmitter with nominal range
/// `range_ft` under shadowing factor `shadow`: the largest distance at
/// which [`edge_ber_with_shadow`] still returns `Some`.
pub fn audible_limit_ft(range_ft: f64, shadow: f64) -> f64 {
    AUDIBLE_X * range_ft / shadow
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

/// The two uniforms one Box–Muller variate consumes, in draw order; `u1`
/// is clamped away from zero so its logarithm is finite.
fn box_muller_draws(rng: &mut SimRng) -> (f64, f64) {
    let u1 = rng.unit().max(1e-12);
    (u1, rng.unit())
}

/// A standard normal variate via Box–Muller (polar-free form is fine here).
fn gaussian((u1, u2): (f64, f64)) -> f64 {
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
        let mean = (0..n)
            .map(|_| gaussian(box_muller_draws(&mut rng)))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "gaussian mean {mean}");
    }

    /// The sampler before the prefilter: the full path for every pair.
    fn reference_edge_ber(d: f64, range: f64, rng: &mut SimRng) -> Option<f64> {
        edge_ber_with_shadow(d, range, sample_shadow(rng))
    }

    fn same(a: Option<f64>, b: Option<f64>) -> bool {
        a.map(f64::to_bits) == b.map(f64::to_bits)
    }

    #[test]
    fn prefilter_matches_the_full_path_bit_for_bit() {
        let reach = 5.6_f64;
        let mut qs = vec![
            0.0,
            1.4,
            reach,
            f64::from_bits(reach.to_bits() - 1),
            f64::from_bits(reach.to_bits() + 1),
        ];
        qs.extend((0..=8_000).map(|i| i as f64 * 1e-3));
        let range = 35.0;
        let mut rng = SimRng::new(11);
        let mut reference = rng.clone();
        let mut audible = 0;
        for round in 0..15 {
            for &q in &qs {
                let d = q * range;
                let got = sample_edge_ber(d, range, &mut rng);
                let want = reference_edge_ber(d, range, &mut reference);
                assert!(same(got, want), "q {q} round {round}: {got:?} vs {want:?}");
                audible += usize::from(got.is_some());
            }
        }
        assert_eq!(rng.next_u64(), reference.next_u64(), "RNG streams diverged");
        assert!(audible > 10_000, "only {audible} audible pairs");
    }

    #[test]
    fn prefilter_is_exact_at_its_bounds() {
        // The draw bound is tightest at u2 = 0.5 (cos = -1) and u1 just
        // where -2 ln u1 = g_max²; walk u1 across that point ulp by ulp,
        // and include u1 at the 1e-12 clamp.
        let range = 35.0;
        let full = |d: f64, u1: f64, u2: f64| {
            edge_ber_with_shadow(d, range, shadow_of(gaussian((u1, u2))))
        };
        let mut checked = 0;
        for i in 0..=2_000 {
            let q = 1.4 + i as f64 * (4.3 / 2_000.0);
            let d = q * range;
            let g_max = (AUDIBLE_X / q - 1.0) / SHADOWING_SIGMA;
            let edge = (-0.5 * g_max * g_max).exp();
            let mut u1s = vec![1e-12, 0.5, 1.0 - f64::EPSILON];
            for k in 0..40_u64 {
                u1s.push(f64::from_bits(edge.to_bits().saturating_sub(k)));
                u1s.push(f64::from_bits(edge.to_bits() + k).min(1.0 - f64::EPSILON));
            }
            for u1 in u1s {
                for u2 in [0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.0, 0.25] {
                    let got = edge_ber_from_draws(d, range, u1, u2);
                    assert!(same(got, full(d, u1, u2)), "q {q} u1 {u1} u2 {u2}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100_000);
    }

    #[test]
    fn sign_bound_is_exact_at_its_edges() {
        // The sign bound rules out u2 outside (¼ − m, ¾ + m); cos(2π u2)
        // changes sign at ¼ and ¾. Walk u2 ulp by ulp across all four
        // points, and out from ¼ and ¾ in decades, with u1 at the clamp
        // (the largest |g|, so even a tiny negative cosine is audible
        // just above q = 1.4) and elsewhere.
        let range = 35.0;
        let full = |d: f64, u1: f64, u2: f64| {
            edge_ber_with_shadow(d, range, shadow_of(gaussian((u1, u2))))
        };
        let near = |x: f64, k: u64| {
            [
                f64::from_bits(x.to_bits() - k),
                f64::from_bits(x.to_bits() + k),
            ]
        };
        let m = PREFILTER_MARGIN;
        let mut u2s = Vec::new();
        for edge in [0.25 - m, 0.25, 0.75, 0.75 + m] {
            for k in 0..64 {
                u2s.extend(near(edge, k));
            }
        }
        for e in 1..=15 {
            let step = 10f64.powi(-e);
            u2s.extend([0.25 - step, 0.25 + step, 0.75 - step, 0.75 + step]);
        }
        let mut qs = Vec::new();
        for k in 1..16 {
            qs.push(f64::from_bits(AUDIBLE_X.to_bits() + k));
            qs.extend(near(PREFILTER_X, k));
        }
        qs.extend((4..=15).map(|e| PREFILTER_X * (1.0 + 10f64.powi(-e))));
        qs.extend((1..=420).map(|i| AUDIBLE_X + i as f64 * 0.01));
        let mut checked = 0;
        let mut audible = 0;
        for &q in &qs {
            let d = q * range;
            for u1 in [1e-12, 1e-6, 0.3, 0.9, 1.0 - f64::EPSILON] {
                for &u2 in &u2s {
                    let want = full(d, u1, u2);
                    let got = edge_ber_from_draws(d, range, u1, u2);
                    assert!(same(got, want), "q {q} u1 {u1} u2 {u2}");
                    checked += 1;
                    audible += usize::from(want.is_some());
                }
            }
        }
        assert!(checked > 500_000);
        assert!(audible > 0, "the walk never crossed into the audible set");
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn far_pair_with_zero_range_still_rejected() {
        let mut rng = SimRng::new(7);
        let _ = sample_edge_ber(1e6, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn negative_distance_rejected() {
        let mut rng = SimRng::new(8);
        let _ = sample_edge_ber(-1.0, 35.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn zero_range_rejected() {
        let mut rng = SimRng::new(6);
        let _ = sample_edge_ber(10.0, 0.0, &mut rng);
    }
}
