//! The Trickle timer (Levis et al., NSDI'04).
//!
//! Deluge's maintenance plane paces its advertisements with Trickle:
//! within each interval of length τ a node picks a uniformly random fire
//! point in \[τ/2, τ); it transmits there only if it has heard fewer than
//! `k` consistent messages this interval; at the interval's end τ doubles
//! (up to τ_h); any inconsistency resets τ to τ_l.
//!
//! This module is a pure state machine — the caller owns the clock and
//! drives it with [`Trickle::begin_interval`] / [`Trickle::should_fire`] /
//! [`Trickle::end_interval`].

use mnp_sim::{SimDuration, SimRng};

/// Trickle parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrickleConfig {
    /// Smallest interval (τ_l).
    pub tau_min: SimDuration,
    /// Largest interval (τ_h).
    pub tau_max: SimDuration,
    /// Redundancy constant `k`: suppress when ≥ k consistent messages were
    /// heard in the current interval.
    pub redundancy: u32,
}

impl Default for TrickleConfig {
    fn default() -> Self {
        TrickleConfig {
            tau_min: SimDuration::from_millis(500),
            tau_max: SimDuration::from_secs(60),
            redundancy: 2,
        }
    }
}

/// What the caller should schedule for the interval just begun.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalSchedule {
    /// Delay until the potential transmission point (uniform in \[τ/2, τ)).
    pub fire_in: SimDuration,
    /// Delay until the interval ends.
    pub end_in: SimDuration,
}

/// Trickle timer state for one node.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Trickle, TrickleConfig};
/// use mnp_sim::SimRng;
///
/// let mut t = Trickle::new(TrickleConfig::default());
/// let mut rng = SimRng::new(1);
/// let sched = t.begin_interval(&mut rng);
/// assert!(sched.fire_in < sched.end_in);
/// assert!(t.should_fire()); // nothing heard yet
/// t.note_consistent();
/// t.note_consistent();
/// assert!(!t.should_fire()); // suppressed at k = 2
/// ```
#[derive(Clone, Debug)]
pub struct Trickle {
    cfg: TrickleConfig,
    tau: SimDuration,
    heard: u32,
}

impl Trickle {
    /// Creates a timer starting at τ_l.
    ///
    /// # Panics
    ///
    /// Panics if the interval bounds are inverted or zero.
    pub fn new(cfg: TrickleConfig) -> Self {
        assert!(!cfg.tau_min.is_zero(), "τ_l must be positive");
        assert!(cfg.tau_min <= cfg.tau_max, "inverted interval bounds");
        Trickle {
            tau: cfg.tau_min,
            cfg,
            heard: 0,
        }
    }

    /// Starts a new interval: clears the heard counter and returns the fire
    /// point and interval end to schedule.
    pub fn begin_interval(&mut self, rng: &mut SimRng) -> IntervalSchedule {
        self.heard = 0;
        let half = self.tau / 2;
        IntervalSchedule {
            fire_in: rng.duration_between(half, self.tau),
            end_in: self.tau,
        }
    }

    /// Records a consistent message heard this interval.
    pub fn note_consistent(&mut self) {
        self.heard = self.heard.saturating_add(1);
    }

    /// Whether the node should transmit at its fire point.
    pub fn should_fire(&self) -> bool {
        self.heard < self.cfg.redundancy
    }

    /// Ends the interval: τ doubles, capped at τ_h. Call
    /// [`Trickle::begin_interval`] next.
    pub fn end_interval(&mut self) {
        self.tau = (self.tau * 2).min(self.cfg.tau_max);
    }

    /// Handles an inconsistency: τ resets to τ_l. Returns `true` when τ
    /// actually changed (the caller should abandon the current interval and
    /// begin a new one).
    pub fn note_inconsistent(&mut self) -> bool {
        if self.tau > self.cfg.tau_min {
            self.tau = self.cfg.tau_min;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> (Trickle, SimRng) {
        (Trickle::new(TrickleConfig::default()), SimRng::new(5))
    }

    #[test]
    fn fire_point_is_in_second_half() {
        let (mut t, mut rng) = timer();
        for _ in 0..200 {
            let s = t.begin_interval(&mut rng);
            assert!(s.fire_in >= t.tau / 2);
            assert!(s.fire_in < s.end_in);
            assert_eq!(s.end_in, t.tau);
        }
    }

    #[test]
    fn tau_doubles_until_cap() {
        let (mut t, _) = timer();
        let t0 = t.tau;
        t.end_interval();
        assert_eq!(t.tau, t0 * 2);
        for _ in 0..20 {
            t.end_interval();
        }
        assert_eq!(t.tau, TrickleConfig::default().tau_max);
    }

    #[test]
    fn suppression_at_redundancy_k() {
        let (mut t, mut rng) = timer();
        t.begin_interval(&mut rng);
        assert!(t.should_fire());
        t.note_consistent();
        assert!(t.should_fire());
        t.note_consistent();
        assert!(!t.should_fire());
    }

    #[test]
    fn new_interval_clears_heard_count() {
        let (mut t, mut rng) = timer();
        t.begin_interval(&mut rng);
        t.note_consistent();
        t.note_consistent();
        t.end_interval();
        t.begin_interval(&mut rng);
        assert!(t.should_fire());
    }

    #[test]
    fn inconsistency_resets_tau() {
        let (mut t, _) = timer();
        t.end_interval();
        t.end_interval();
        assert!(t.note_inconsistent());
        assert_eq!(t.tau, TrickleConfig::default().tau_min);
        // Already at τ_l: no restart needed.
        assert!(!t.note_inconsistent());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_rejected() {
        let _ = Trickle::new(TrickleConfig {
            tau_min: SimDuration::from_secs(2),
            tau_max: SimDuration::from_secs(1),
            redundancy: 1,
        });
    }
}
