//! Irregular deployment shapes beyond the paper's uniform grid.
//!
//! Three constructors cover the deployment families the dynamic-topology
//! campaigns sweep: blue-noise fields ([`Placement::poisson_disk`]),
//! clustered sensor patches ([`Placement::clustered`]), and long thin
//! corridors ([`Placement::corridor`]). All are pure functions of their
//! arguments and the RNG seed.

use mnp_sim::SimRng;

use crate::placement::{Placement, Position};

impl Placement {
    /// `n` nodes in a `width_ft × height_ft` field with blue-noise
    /// spacing: no two nodes closer than `min_dist_ft` — unless the
    /// field cannot fit that many at that spacing, in which case the
    /// spacing requirement is relaxed by 10% after every 64 consecutive
    /// failed darts, so the construction always terminates (and stays
    /// deterministic: the relaxation schedule is part of the function).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, the field has non-positive area, or
    /// `min_dist_ft` is negative or non-finite.
    pub fn poisson_disk(
        n: usize,
        width_ft: f64,
        height_ft: f64,
        min_dist_ft: f64,
        rng: &mut SimRng,
    ) -> Placement {
        assert!(n > 0, "at least one node");
        assert!(width_ft > 0.0 && height_ft > 0.0, "field must have area");
        assert!(
            min_dist_ft >= 0.0 && min_dist_ft.is_finite(),
            "spacing must be non-negative"
        );
        let mut positions: Vec<Position> = Vec::with_capacity(n);
        let mut spacing = min_dist_ft;
        let mut misses = 0u32;
        while positions.len() < n {
            let candidate =
                Position::new(rng.range_f64(0.0, width_ft), rng.range_f64(0.0, height_ft));
            if positions
                .iter()
                .all(|p| p.distance_ft(candidate) >= spacing)
            {
                positions.push(candidate);
                misses = 0;
            } else {
                misses += 1;
                if misses >= 64 {
                    spacing *= 0.9;
                    misses = 0;
                }
            }
        }
        Placement::from_positions(positions)
    }

    /// `n` nodes in `clusters` patches: cluster centres are uniform over
    /// the field, node `i` lands uniformly in a disk of radius
    /// `spread_ft` around centre `i % clusters`, clamped to the field.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `clusters` is zero, the field has non-positive
    /// area, or `spread_ft` is negative or non-finite.
    pub fn clustered(
        n: usize,
        width_ft: f64,
        height_ft: f64,
        clusters: usize,
        spread_ft: f64,
        rng: &mut SimRng,
    ) -> Placement {
        assert!(n > 0, "at least one node");
        assert!(clusters > 0, "at least one cluster");
        assert!(width_ft > 0.0 && height_ft > 0.0, "field must have area");
        assert!(
            spread_ft >= 0.0 && spread_ft.is_finite(),
            "spread must be non-negative"
        );
        let centres: Vec<Position> = (0..clusters)
            .map(|_| Position::new(rng.range_f64(0.0, width_ft), rng.range_f64(0.0, height_ft)))
            .collect();
        let positions = (0..n)
            .map(|i| {
                let c = centres[i % clusters];
                // Uniform in the disk: radius ∝ √u so density is flat.
                let r = spread_ft * rng.unit().sqrt();
                let theta = std::f64::consts::TAU * rng.unit();
                Position::new(
                    (c.x_ft + r * theta.cos()).clamp(0.0, width_ft),
                    (c.y_ft + r * theta.sin()).clamp(0.0, height_ft),
                )
            })
            .collect();
        Placement::from_positions(positions)
    }

    /// `n` nodes uniform in a thin `length_ft × width_ft` strip — the
    /// multihop-stress shape (pipelines, tunnels, perimeter fences)
    /// where network diameter grows linearly with node count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the strip has non-positive area.
    pub fn corridor(n: usize, length_ft: f64, width_ft: f64, rng: &mut SimRng) -> Placement {
        assert!(n > 0, "at least one node");
        assert!(length_ft > 0.0 && width_ft > 0.0, "strip must have area");
        let positions = (0..n)
            .map(|_| Position::new(rng.range_f64(0.0, length_ft), rng.range_f64(0.0, width_ft)))
            .collect();
        Placement::from_positions(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounded(p: &Placement, w: f64, h: f64) -> bool {
        p.iter()
            .all(|(_, pos)| (0.0..=w).contains(&pos.x_ft) && (0.0..=h).contains(&pos.y_ft))
    }

    #[test]
    fn poisson_disk_fills_the_field_deterministically() {
        mnp_sim::check(
            "poisson_disk_fills_the_field_deterministically",
            32,
            |rng| {
                let (seed, n) = (rng.range_u64(0, 500), rng.index(23) + 1);
                let build =
                    || Placement::poisson_disk(n, 100.0, 80.0, 12.0, &mut SimRng::new(seed));
                let a = build();
                assert_eq!(a.len(), n);
                assert!(bounded(&a, 100.0, 80.0));
                assert_eq!(a, build());
            },
        );
    }

    #[test]
    fn clustered_and_corridor_stay_in_bounds() {
        mnp_sim::check("clustered_and_corridor_stay_in_bounds", 32, |rng| {
            let (seed, n) = (rng.range_u64(0, 500), rng.index(23) + 1);
            let c = Placement::clustered(n, 100.0, 80.0, 3, 15.0, &mut SimRng::new(seed));
            assert_eq!(c.len(), n);
            assert!(bounded(&c, 100.0, 80.0));
            let k = Placement::corridor(n, 300.0, 20.0, &mut SimRng::new(seed));
            assert_eq!(k.len(), n);
            assert!(bounded(&k, 300.0, 20.0));
        });
    }

    #[test]
    fn poisson_disk_respects_spacing_when_it_fits() {
        // 8 nodes at 12 ft spacing in a 100×80 field: plenty of room, so
        // the relaxation never kicks in and every pair is ≥ 12 ft apart.
        let p = Placement::poisson_disk(8, 100.0, 80.0, 12.0, &mut SimRng::new(7));
        for (a, pa) in p.iter() {
            for (b, pb) in p.iter() {
                if a != b {
                    assert!(pa.distance_ft(pb) >= 12.0, "{a}–{b} too close");
                }
            }
        }
    }

    #[test]
    fn poisson_disk_terminates_when_overpacked() {
        // 30 nodes at 50 ft spacing cannot fit in 60×60; the relaxation
        // schedule must still place all of them.
        let p = Placement::poisson_disk(30, 60.0, 60.0, 50.0, &mut SimRng::new(3));
        assert_eq!(p.len(), 30);
    }
}
