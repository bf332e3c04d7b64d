//! Reproducible random-number streams.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through a SplitMix64 expansion, so the crate
//! builds in offline environments with no external dependencies.

use crate::time::SimDuration;

/// A deterministic random-number stream for one simulation component.
///
/// Every stochastic choice in the reproduction (link error sampling, MAC
/// backoff, MNP's random advertisement intervals) draws from a `SimRng`.
/// Streams for different components are derived from a single experiment
/// seed with [`SimRng::derive`], so components do not perturb each other's
/// sequences and whole runs replay bit-for-bit.
///
/// # Example
///
/// ```
/// use mnp_sim::SimRng;
///
/// let mut a = SimRng::new(42).derive(7);
/// let mut b = SimRng::new(42).derive(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates the root stream for an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: expand_seed(mix(seed, 0x9e37_79b9_7f4a_7c15)),
            seed,
        }
    }

    /// Derives an independent child stream identified by `stream_id`.
    ///
    /// Derivation is a pure function of `(seed, stream_id)`, independent of
    /// how much randomness has already been drawn from `self`.
    pub fn derive(&self, stream_id: u64) -> SimRng {
        let child = mix(self.seed, stream_id.wrapping_add(1));
        SimRng {
            state: expand_seed(child),
            seed: child,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniformly random `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Advances the stream past `n` draws, leaving it exactly where `n`
    /// calls of [`SimRng::next_u64`] would: for callers that must keep
    /// the stream's position but have no use for the values.
    ///
    /// # Example
    ///
    /// ```
    /// use mnp_sim::SimRng;
    ///
    /// let mut a = SimRng::new(3);
    /// let mut b = a.clone();
    /// a.skip(2);
    /// b.next_u64();
    /// b.next_u64();
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    #[inline]
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// A uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniformly random integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's multiply-shift map; bias is < span / 2^64, far below
        // anything a simulation of this size can resolve.
        let hi_bits = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi_bits
    }

    /// A uniformly random usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.range_u64(0, n as u64) as usize
    }

    /// A uniformly random float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        lo + self.unit() * (hi - lo)
    }

    /// A uniformly random duration in `[lo, hi)`; returns `lo` when the range
    /// is empty (`lo >= hi`), which lets callers express "no jitter".
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if lo >= hi {
            return lo;
        }
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros()))
    }

    /// A duration jittered uniformly in `[base, base + spread)`.
    pub fn jittered(&mut self, base: SimDuration, spread: SimDuration) -> SimDuration {
        base + self.duration_between(SimDuration::ZERO, spread)
    }
}

/// SplitMix64-style avalanche mixer used for seed derivation and for the
/// event queue's seeded tie-break permutation.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands one 64-bit seed into a full xoshiro256++ state via SplitMix64,
/// the seeding procedure recommended by the generator's authors. The state
/// is never all-zero because SplitMix64 is a bijection over a moving
/// counter.
fn expand_seed(seed: u64) -> [u64; 4] {
    let mut sm = seed;
    let mut next = || {
        sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = sm;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    [next(), next(), next(), next()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different seeds should diverge");
    }

    #[test]
    fn derive_is_position_independent() {
        let root = SimRng::new(9);
        let mut consumed = root.clone();
        for _ in 0..100 {
            consumed.next_u64();
        }
        let mut a = root.derive(3);
        let mut b = consumed.derive(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = SimRng::new(9);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn skip_equals_that_many_draws() {
        for k in [0, 1, 2, 7, 1_000] {
            let mut skipped = SimRng::new(13);
            let mut drawn = skipped.clone();
            skipped.skip(k);
            for _ in 0..k {
                drawn.next_u64();
            }
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "skip({k})");
        }
        let mut r = SimRng::new(14);
        let before = r.clone();
        r.skip(0);
        assert_eq!(r.state, before.state, "skip(0) is a no-op");
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits} hits for p=0.3");
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_u64_covers_and_respects_bounds() {
        let mut r = SimRng::new(6);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.range_u64(3, 10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in [3, 10) reachable");
    }

    #[test]
    fn duration_between_handles_empty_range() {
        let mut r = SimRng::new(4);
        let d = SimDuration::from_millis(7);
        assert_eq!(r.duration_between(d, d), d);
        assert_eq!(r.duration_between(d, SimDuration::ZERO), d);
    }

    #[test]
    fn jittered_within_bounds() {
        let mut r = SimRng::new(8);
        let base = SimDuration::from_millis(100);
        let spread = SimDuration::from_millis(50);
        for _ in 0..1_000 {
            let d = r.jittered(base, spread);
            assert!(d >= base && d < base + spread);
        }
    }

    #[test]
    fn index_covers_all_slots() {
        let mut r = SimRng::new(21);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
